"""Clifford actions on the exterior algebra and the finite oscillator model.

Basis conventions
-----------------
The exterior algebra of R^m is spanned by subsets of {0..m-1}, encoded as
bitmasks and ordered by increasing mask, so index 0 is the empty product and
index 2^m - 1 the volume form.  Wedging by e_i and contracting by e_i both
carry the sign (-1)^(number of set bits below i).  The two Clifford actions
of a covector v are

    chat(v) = v wedge + v contract        (squares to +|v|^2)
    c(v)    = v wedge - v contract        (squares to -|v|^2)

``dvol_action`` is the composite chat(e_1) ... chat(e_m) in index order
(rightmost factor applied first), and omega refers to the standard 2-form
e^1^e^2 + e^3^e^4 + ... in coordinate order (x1, y1, x2, y2, ...).

Every one of these operators is monomial: it sends each basis form to
+-1 times one basis form, or kills it.  Internally such an operator is a
pair of int tuples, a permutation of the masks and a sign per mask (0 for
a killed form), so composing two is one gather over the 2^m masks.  The
identity checks run on this representation in exact arithmetic only, and
pass only when every residual is exactly zero: anticommutators compare two
composites; omega wedge and contraction are sums of m/2 such terms;
chat(v) for a general v is the sum of the v_i chat(e_i), so chat(v)^2 is a
sum of m^2 composites, whose integer signs are summed per permutation
before the rational weights v_i v_j enter.  They accept dimensions up to
``CLIFFORD_DIM_LIMIT``.  The public builders return the same operators as
``SparseMat`` matrices for the oscillator model and for callers.

The oscillator model replaces the deformed de Rham operator by polynomial
coefficients times constant forms.  Conjugated by the Gaussian ground state
exp(-T x^t S x), S the positive square root of A^t A, it is

    L_hat = (lap + T flow) tensor 1 + T (1 tensor L2),
    L2    = tr(S) + sum_j c(e_j) chat(A e_j),

with lap = -laplacian and flow = 2 (Sx).grad on polynomials alone.  The
model (``ModelOperator``) holds only these T-free parts; the coupling T
enters only the sector builders ``sector_matrix_L`` and
``sector_matrix_D``.  With A = sum_k sigma_k u_k v_k^t (``Factors``),
L2 = tr S + sum_k sigma_k J_k for the commuting involutions
J_k = c(v_k) chat(u_k), whose joint eigenspaces are lines: the kernel is
one line, the spectrum a closed form, and eta is solved where L2 is
diagonal; each step is checked, none eliminates.  "exact" mode certifies
rational factors and works on integer numerators; "float" mode runs the
same code on pure-Python Jacobi factors with residuals up to
``_FLOAT_CUT`` of each check's scale.  No numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .errors import CheckFailure, InputError
from .qlinalg import SparseMat, det, kernel_basis
from .record import Record


class DimensionMismatch(ValueError):
    """Vector length does not match the operator dimension."""


class BadDimension(InputError):
    """Dimension not a multiple of 4, or beyond the supported range."""


class NotUnit(InputError):
    """A unit vector was required."""


class Singular(InputError):
    """The coefficient matrix A must be invertible."""


class NoRationalRoot(InputError):
    """No certified rational (exact) or accurate (float) factors of A."""


class TruncationTooSmall(InputError):
    """The polynomial degree cap cannot hold a required output."""


class UnexpectedKernel(CheckFailure):
    """A check behind the 1-dimensional model kernel failed."""


# The largest m for each operator family.  The Clifford checks act on
# 2^m x 2^m monomial operators.  The model's work grows like 4^m: L2 and
# the right side of its identity have about m^2/2 rational entries in each
# of 2^m columns, and eta builds 2^m joint eigenvectors of 2^m entries:
# about a second for a random 8 x 8 A, far more at m = 12.
CLIFFORD_DIM_LIMIT = 12
MODEL_DIM_LIMIT = 8
# The largest sector, in forms: C(m + cap, m) 2^m of them, one float each
# in ``_block_spectrum``.
SECTOR_LIMIT = 1 << 20

# Float mode accepts a residual up to this times the scale of its check.
_FLOAT_CUT = 1e-9
# Exact mode rounds float singular values to fractions with denominators
# up to this, then checks them exactly.
_SIGMA_DENOMINATOR = 10 ** 6
_JACOBI_SWEEPS = 60


def _check_dim(m: int, limit: int, multiple_of_four: bool = True):
    if m < 1:
        raise BadDimension("dimension must be positive")
    if multiple_of_four and m % 4:
        raise BadDimension(f"dimension {m} is not a multiple of 4")
    if m > limit:
        raise BadDimension(f"dimension {m} exceeds the limit {limit}")


# -- exterior-algebra operators ------------------------------------------


class _Mono(NamedTuple):
    """Monomial operator on the exterior algebra of R^m: the basis form of
    mask s goes to sign[s] times the basis form of mask perm[s].  perm is a
    bijection of the 2^m masks; sign[s] = 0 marks a form the operator kills,
    so wedges and contractions are monomials too (partial signed
    permutations)."""

    perm: tuple[int, ...]
    sign: tuple[int, ...]


def _generator(m: int, i: int, wedge: int, contract: int) -> _Mono:
    """wedge * (e_i wedge) + contract * (e_i contract).  Both flip bit i and
    carry (-1)^(number of set bits below i); the wedge acts where bit i is
    clear, the contraction where it is set.  Every operator of this module
    takes its signs from here."""
    bit = 1 << i
    below = bit - 1
    masks = range(1 << m)
    return _Mono(tuple(s ^ bit for s in masks),
                 tuple((contract if s & bit else wedge)
                       * (-1 if (s & below).bit_count() & 1 else 1)
                       for s in masks))


def _identity(m: int) -> _Mono:
    return _Mono(tuple(range(1 << m)), (1,) * (1 << m))


def _compose(a: _Mono, b: _Mono) -> _Mono:
    """a after b, as one gather over the columns."""
    return _Mono(tuple([a.perm[p] for p in b.perm]),
                 tuple([a.sign[p] * x for p, x in zip(b.perm, b.sign)]))


def _transpose(a: _Mono) -> _Mono:
    perm = [0] * len(a.perm)
    sign = [0] * len(a.perm)
    for s, (p, x) in enumerate(zip(a.perm, a.sign)):
        perm[p] = s
        sign[p] = x
    return _Mono(tuple(perm), tuple(sign))


def _star(m: int) -> _Mono:
    """The Hodge star of ``hodge_star``."""
    full = (1 << m) - 1
    perm, sign = [], []
    for s in range(1 << m):
        comp = full ^ s
        inv = sum((comp & ((1 << i) - 1)).bit_count()
                  for i in range(m) if s >> i & 1)
        perm.append(comp)
        sign.append(-1 if inv % 2 else 1)
    return _Mono(tuple(perm), tuple(sign))


def _dvol(m: int) -> _Mono:
    """chat(e_1) ... chat(e_m), rightmost factor applied first."""
    out = _identity(m)
    for i in range(m):
        out = _compose(out, _generator(m, i, 1, 1))
    return out


def _omega_terms(m: int) -> list[_Mono]:
    """The m/2 terms (e_(2k) wedge)(e_(2k+1) wedge) of the standard 2-form."""
    if m % 2:
        raise BadDimension("the standard 2-form needs an even dimension")
    return [_compose(_generator(m, i, 1, 0), _generator(m, i + 1, 1, 0))
            for i in range(0, m, 2)]


def _chat_square(vals: Sequence[Fraction]) -> list[tuple[Fraction, _Mono]]:
    """chat(v)^2 = sum_ij v_i v_j chat(e_i) chat(e_j), one term per pair."""
    m = len(vals)
    gens = [_generator(m, i, 1, 1) for i in range(m)]
    return [(vals[i] * vals[j], _compose(gens[i], gens[j]))
            for i in range(m) for j in range(m) if vals[i] and vals[j]]


def _to_sparse(m: int, terms) -> SparseMat:
    """The sum of coeff * op over (coeff, op) in terms as a sparse matrix,
    summed on integer numerators over the lcm of the denominators."""
    terms = [(Fraction(c), op) for c, op in terms]
    den = math.lcm(*(c.denominator for c, _ in terms))
    entries: dict[tuple[int, int], int] = {}
    for coeff, op in terms:
        k = coeff.numerator * (den // coeff.denominator)
        for s, (r, x) in enumerate(zip(op.perm, op.sign)):
            if x:
                entries[(r, s)] = entries.get((r, s), 0) + k * x
    return SparseMat(1 << m, 1 << m, {key: Fraction(v, den)
                                      for key, v in entries.items()})


def _max_entry(terms) -> Fraction:
    """Largest |entry| of the sum of coeff * op over (coeff, op) in terms,
    exactly.  The coefficients are brought to one denominator, and terms
    that share a permutation and a coefficient have their integer signs
    summed before the one multiplication by that coefficient."""
    terms = [(Fraction(c), op) for c, op in terms if c]
    den = math.lcm(*(c.denominator for c, _ in terms))
    signs: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for c, op in terms:
        by_coeff = signs.setdefault(op.perm, {})
        k = c.numerator * (den // c.denominator)
        acc = by_coeff.get(k)
        by_coeff[k] = list(op.sign) if acc is None else \
            [a + x for a, x in zip(acc, op.sign)]
    totals = {}
    for perm, by_coeff in signs.items():
        total = [0] * len(perm)
        for k, acc in by_coeff.items():
            if any(acc):
                total = [t + k * a for t, a in zip(total, acc)]
        if any(total):
            totals[perm] = total
    if len(totals) > 1:
        # Different permutations can still meet in single entries.
        entries: dict[tuple[int, int], int] = {}
        for perm, total in totals.items():
            for s, (r, x) in enumerate(zip(perm, total)):
                if x:
                    entries[(r, s)] = entries.get((r, s), 0) + x
        values = entries.values()
    else:
        values = [x for total in totals.values() for x in total]
    return Fraction(max(map(abs, values), default=0), den)


def clifford(v: Sequence, kind: str) -> SparseMat:
    """Clifford action of a covector: kind 'chat' = wedge + contraction,
    kind 'c' = wedge - contraction."""
    if kind not in ("c", "chat"):
        raise ValueError(f"kind must be 'c' or 'chat', got {kind!r}")
    m = len(v)
    if m < 1:
        raise DimensionMismatch("empty vector")
    flip = 1 if kind == "chat" else -1
    return _to_sparse(m, [(Fraction(x), _generator(m, i, 1, flip))
                          for i, x in enumerate(v) if x])


def hodge_star(m: int) -> SparseMat:
    """Star on subsets: e^S -> sign(S, S^c) e^(S^c), the sign ordering the
    concatenation [S ascending, S^c ascending] against 0..m-1."""
    if m < 1:
        raise BadDimension("dimension must be positive")
    return _to_sparse(m, [(1, _star(m))])


def dvol_action(m: int) -> SparseMat:
    """chat of the volume form: chat(e_1) ... chat(e_m), rightmost first."""
    if m % 4:
        raise BadDimension("volume-operator identities need m = 4n")
    return _to_sparse(m, [(1, _dvol(m))])


def omega_wedge(m: int) -> SparseMat:
    """Wedge by the standard 2-form, pairing coordinates (0,1), (2,3), ..."""
    return _to_sparse(m, [(1, w) for w in _omega_terms(m)])


def omega_skew(m: int) -> SparseMat:
    """Skew part (contraction - wedge)/2 of the standard 2-form action."""
    half = Fraction(1, 2)
    return _to_sparse(m, [term for w in _omega_terms(m)
                          for term in ((half, _transpose(w)), (-half, w))])


# -- identity verdicts ---------------------------------------------------


class IdentityVerdict(Record):
    __slots__ = ("name", "m", "passed", "max_residual", "detail")
    _defaults = {"detail": ""}


def _verdict(name: str, m: int,
             residuals: Iterable[tuple[str, Fraction]]) -> IdentityVerdict:
    """Verdict from (label, largest |entry| of that identity's difference)
    pairs; it passes only when every residual is exactly 0, and the
    culprit is the first label with the largest residual."""
    worst = Fraction(0)
    culprit = ""
    for label, residual in residuals:
        if residual > worst:
            worst, culprit = residual, label
    detail = f"largest residual {float(worst):.3e} in {culprit}" \
        if worst else ""
    return IdentityVerdict(name, m, not worst, float(worst), detail)


def verify_car(m: int) -> IdentityVerdict:
    """Canonical anticommutation relations of the two Clifford actions:
    {chat_i, chat_j} = 2 delta_ij, {c_i, c_j} = -2 delta_ij, mixed pairs
    anticommute to zero."""
    _check_dim(m, CLIFFORD_DIM_LIMIT, multiple_of_four=False)
    one = _identity(m)
    chat = [_generator(m, i, 1, 1) for i in range(m)]
    cc = [_generator(m, i, 1, -1) for i in range(m)]

    def anticommutator(a: _Mono, b: _Mono, want: int) -> Fraction:
        return _max_entry([(1, _compose(a, b)), (1, _compose(b, a)),
                           (-want, one)])

    def residuals():
        for i in range(m):
            for j in range(i, m):
                delta = 2 if i == j else 0
                yield (f"chat anticommutator ({i},{j})",
                       anticommutator(chat[i], chat[j], delta))
                yield (f"c anticommutator ({i},{j})",
                       anticommutator(cc[i], cc[j], -delta))
        for i in range(m):
            for j in range(m):
                yield (f"mixed anticommutator ({i},{j})",
                       anticommutator(cc[i], chat[j], 0))

    return _verdict("car", m, residuals())


def verify_volume_star(m: int) -> IdentityVerdict:
    """chat(dvol) acts on k-forms as (-1)^(k(k+1)/2) star, and is its own
    transpose."""
    _check_dim(m, CLIFFORD_DIM_LIMIT)
    vol = _dvol(m)
    star = _star(m)
    # (-1)^(k(k+1)/2) is -1 exactly when the degree k is 1 or 2 mod 4.
    signed = _Mono(star.perm, tuple(-x if s.bit_count() % 4 in (1, 2) else x
                                    for s, x in enumerate(star.sign)))
    residuals = [("chat(dvol) vs signed star",
                  _max_entry([(1, vol), (-1, signed)])),
                 ("chat(dvol) symmetry",
                  _max_entry([(1, vol), (-1, _transpose(vol))]))]
    return _verdict("star", m, residuals)


def verify_volume_omega(m: int) -> IdentityVerdict:
    """chat(dvol) intertwines contraction and wedge by the standard 2-form:
    chat(dvol) (omega contract) = - (omega wedge) chat(dvol)."""
    _check_dim(m, CLIFFORD_DIM_LIMIT)
    vol = _dvol(m)
    terms = []
    for w in _omega_terms(m):
        terms += [(1, _compose(vol, _transpose(w))), (1, _compose(w, vol))]
    return _verdict("omega", m, [("intertwining", _max_entry(terms))])


def verify_complex_structure(v: Sequence) -> IdentityVerdict:
    """The block operator J = [[0, -chat(v)], [chat(v), 0]] squares to -1
    for a unit vector v (an almost-complex structure on the doubled space).
    J^2 = diag(-chat(v)^2, -chat(v)^2), so J^2 + 1 is checked through
    1 - chat(v)^2."""
    m = len(v)
    _check_dim(m, CLIFFORD_DIM_LIMIT, multiple_of_four=False)
    vals = [Fraction(x) for x in v]
    norm2 = sum(x * x for x in vals)
    if norm2 != 1:
        raise NotUnit(f"|v|^2 = {norm2} != 1")
    terms = [(1, _identity(m))] + [(-c, op) for c, op in _chat_square(vals)]
    return _verdict("complex-structure", m, [("J^2 + 1", _max_entry(terms))])


# -- the finite oscillator model -----------------------------------------


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _jacobi_eigh(g: SparseMat) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and orthonormal eigenvectors of a small symmetric matrix
    in floats, by cyclic Jacobi rotations (Golub and Van Loan, 8.5); an
    entry below the rounding of its diagonal pair counts as zero."""
    n = g.rows
    a = [[float(x) for x in row] for row in g.to_rows()]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app, aqq, apq = a[p][p], a[q][q], a[p][q]
                if (abs(app) + 100 * abs(apq) == abs(app)
                        and abs(aqq) + 100 * abs(apq) == abs(aqq)):
                    a[p][q] = a[q][p] = 0.0
                    continue
                rotated = True
                theta = (aqq - app) / (2 * apq)
                t = math.copysign(1 / (abs(theta) + math.hypot(theta, 1)),
                                  theta)
                c = 1 / math.hypot(t, 1)
                s = t * c
                for row in a + v:
                    row[p], row[q] = c * row[p] - s * row[q], \
                        s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            return [a[k][k] for k in range(n)], [list(x) for x in zip(*v)]
    raise CheckFailure("Jacobi eigen-solve did not converge")


class Factors(NamedTuple):
    """A = sum_k sigma_k u_k v_k^t; w[k] = v_k times a positive number,
    a[k] = scale A w[k], J_k = c(v_k) chat(u_k) = c(w_k) chat(a_k) / norm[k]
    with norm[k] = scale sigma_k |w_k|^2: integers if exact, else scale 1."""

    sigma: tuple
    w: tuple
    a: tuple
    scale: int
    norm: tuple


def _rational_eigenbasis(gram: SparseMat) -> tuple[list, list]:
    """Candidate rational singular values (integer roots of the numerators
    and denominators of a diagonal A^t A, else rounded Jacobi roots) and an
    orthogonal integer eigenbasis of A^t A: the exact kernels of
    A^t A - sigma^2 (empty for a wrong candidate), unnormalised
    Gram-Schmidt inside."""
    m = gram.rows
    if all(r == c for (r, c) in gram.entries):
        roots = {Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
                 for x in (gram.get(k, k) for k in range(m))}
    else:
        roots = {Fraction(math.sqrt(max(x, 0.0))).limit_denominator(
            _SIGMA_DENOMINATOR) for x in _jacobi_eigh(gram)[0]}
    sigma, w = [], []
    for s in sorted(roots):
        ker = kernel_basis(gram - SparseMat.identity(m).scale(s * s))
        for j in range(ker.cols):
            vec = [ker.get(i, j) for i in range(m)]
            for u in w[len(sigma):]:
                vec = [x - Fraction(_dot(vec, u), _dot(u, u)) * y
                       for x, y in zip(vec, u)]
            den = math.lcm(*(x.denominator for x in vec))
            g = math.gcd(*(int(x * den) for x in vec))
            w.append([int(x * den) // g for x in vec])
        sigma += [s] * ker.cols
    return sigma, w


def _checked_factors(a: SparseMat, gram: SparseMat, sigma: list, w: list
                     ) -> Factors:
    """Exact factors, after checking m pairs of sigma > 0 and w != 0 with
    A^t A w = sigma^2 w, the w pairwise orthogonal; else NoRationalRoot."""
    m = a.rows
    if len(w) != m:
        raise NoRationalRoot(
            f"exact mode needs rational singular values of A and found "
            f"them on {len(w)} of {m} dimensions; use float mode")
    g = gram.to_rows()
    for s, vec in zip(sigma, w):
        if not (s > 0 and any(vec) and [_dot(row, vec) for row in g]
                == [s * s * x for x in vec]):
            raise NoRationalRoot(f"{s} is not a singular value of A with "
                                 f"right singular vector {list(vec)}")
    if any(_dot(w[k], w[j]) for k in range(m) for j in range(k)):
        raise NoRationalRoot("the right singular vectors of A are not "
                             "orthogonal")
    scale = math.lcm(*(x.denominator for x in a.entries.values()))
    images = tuple(tuple(int(_dot(row, vec) * scale) for row in a.to_rows())
                   for vec in w)
    return Factors(tuple(sigma), tuple(map(tuple, w)), images, scale,
                   tuple(int(scale * s * _dot(vec, vec))
                         for s, vec in zip(sigma, w)))


class ModelOperator(Record):
    """The finite model, free of the coupling T: A, S and L2 (``form_op``)
    as SparseMat, and the ``Factors`` of A.  Building one, or any
    ``replace`` of one, checks L2 == tr S + sum_k sigma_k J_k, the right
    side built like L2 from sum_k (sigma_k / norm[k]) a_k w_k^t; else
    UnexpectedKernel.  T enters only the sector builders."""

    __slots__ = ("a", "sqrt_gram", "mode", "m", "det_sign", "form_op",
                 "factors")

    def __post_init__(self):
        f = self.factors
        weights = [s / n for s, n in zip(f.sigma, f.norm)]
        b = {(i, j): sum(x * a[i] * w[j] for x, w, a in zip(weights, f.w, f.a))
             for i in range(self.m) for j in range(self.m)}
        diff = self.form_op - _form_operator(self.m, self.trace_sqrt(), b)
        worst = max(map(abs, diff.entries.values()), default=0)
        if worst > self.tolerance():
            raise UnexpectedKernel(
                f"L2 is not tr S + sum_k sigma_k J_k (largest entry of the "
                f"difference {float(worst):.3e})")

    def trace_sqrt(self) -> Fraction:
        return sum((self.sqrt_gram.get(i, i) for i in range(self.m)),
                   Fraction(0))

    def tolerance(self):
        """0 if exact, else ``_FLOAT_CUT`` times the gap 2 sigma_min of L2."""
        return 0 if self.mode == "exact" else \
            _FLOAT_CUT * 2 * min(self.factors.sigma)


def model_L(a, mode: str = "exact") -> ModelOperator:
    """Assemble the model operator for an invertible A, on certified
    rational factors ('exact') or on Jacobi ones, a[k] = A v_k, with
    S^2 = A^t A to a relative 1e-12 ('float'); else NoRationalRoot."""
    if not isinstance(a, SparseMat):
        a = SparseMat.from_rows(a)
    if a.rows != a.cols:
        raise BadDimension("A must be square")
    m = a.rows
    if m % 4:
        raise BadDimension(f"A is {m}x{m}; the model needs a multiple of 4")
    _check_dim(m, MODEL_DIM_LIMIT)
    if mode not in ("exact", "float"):
        raise ValueError(f"bad mode {mode!r}")
    deta = det(a)
    if not deta:
        raise Singular("det A = 0")
    gram = a.transpose() @ a
    if mode == "exact":
        factors = _checked_factors(a, gram, *_rational_eigenbasis(gram))
    else:
        values, vectors = _jacobi_eigh(gram)
        if min(values) <= 0:
            raise Singular("A^t A not positive definite (A singular?)")
        sigma = tuple(map(math.sqrt, values))
        factors = Factors(sigma, tuple(map(tuple, vectors)), tuple(
            tuple(_dot(row, v) for row in a.to_rows()) for v in vectors),
            1, sigma)
    # S = sum_k sigma_k w_k w_k^t / |w_k|^2, floats as binary rationals.
    weights = [x / _dot(v, v) for x, v in zip(factors.sigma, factors.w)]
    s = SparseMat(m, m, {(i, j): sum(
        c * v[min(i, j)] * v[max(i, j)] for c, v in zip(weights, factors.w))
        for i in range(m) for j in range(m)})
    if mode == "float":
        residual = max(map(abs, (s @ s - gram).entries.values()), default=0)
        if residual > 1e-12 * max(max(map(abs, gram.entries.values())), 1):
            raise NoRationalRoot(f"numeric square root residual "
                                 f"{float(residual):.3e} too large")
    form = _form_operator(m, sum(s.get(i, i) for i in range(m)), a.entries)
    return ModelOperator(a, s, mode, m, 1 if deta > 0 else -1, form, factors)


def _form_operator(m: int, trace_s, entries) -> SparseMat:
    """tr(S) + sum of B_ij c(e_j) chat(e_i) over entries of B (L2 for A)."""
    cs, chats = _clifford_gens(m)
    return _to_sparse(m, [(trace_s, _identity(m))] + [
        (v, _compose(cs[j], chats[i])) for (i, j), v in entries.items()])


# -- polynomial-form sectors ---------------------------------------------


class Sector:
    """Basis (monomials of total degree <= cap) x (form masks), index
    mono_index * 2^m + mask.  Monomials are exponent tuples ordered by
    (total degree, lex): a smaller cap's basis is a prefix of a larger's.
    A sector over ``SECTOR_LIMIT`` forms is refused before it is built."""

    def __init__(self, m: int, cap: int):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.size = math.comb(m + cap, m) << m
        if self.size > SECTOR_LIMIT:
            raise BadDimension(
                f"the degree <= {cap} sector in dimension {m} holds "
                f"{self.size} forms, over the budget of {SECTOR_LIMIT}")
        self.m = m
        self.cap = cap
        monos = sorted((tuple(c.count(i) for i in range(m))
                        for d in range(cap + 1)
                        for c in combinations_with_replacement(range(m), d)),
                       key=lambda t: (sum(t), t))
        self.monomials = tuple(monos)
        self.mono_index = {t: i for i, t in enumerate(monos)}


def _linear_mult_terms(matrix_rows: list[list[Fraction]], i: int,
                       mono: tuple[int, ...]):
    """Multiplication by the linear polynomial (M x)_i on one monomial."""
    for j, coeff in enumerate(matrix_rows[i]):
        if coeff:
            out = list(mono)
            out[j] += 1
            yield tuple(out), coeff


def _sector_parts(op: ModelOperator, sec: Sector
                  ) -> tuple[SparseMat, SparseMat]:
    """The coupling-free k x k polynomial factors on the k monomials of
    ``sec``: lap = -laplacian lowers the degree by exactly 2, flow =
    2 (Sx).grad keeps it."""
    s_rows = op.sqrt_gram.to_rows()
    lap, flow = {}, {}
    for mi, mono in enumerate(sec.monomials):
        for i in range(op.m):
            e = mono[i]
            if e >= 2:
                # Each variable lowers mono to a different monomial, so
                # every lap entry is written once.
                low = list(mono)
                low[i] -= 2
                lap[(sec.mono_index[tuple(low)], mi)] = Fraction(-e * (e - 1))
            if e >= 1:
                down = list(mono)
                down[i] -= 1
                for out_mono, c in _linear_mult_terms(s_rows, i, tuple(down)):
                    key = (sec.mono_index[out_mono], mi)
                    flow[key] = flow.get(key, 0) + 2 * e * c
    k = len(sec.monomials)
    return SparseMat(k, k, lap), SparseMat(k, k, flow)


def _tensor_form(poly: SparseMat, form: SparseMat, m: int) -> SparseMat:
    """poly tensor 1 + 1 tensor form on (monomials) x (2^m form masks),
    index mono_index * 2^m + mask."""
    entries: dict[tuple[int, int], Fraction] = {}
    for (r, c), v in poly.entries.items():
        for mask in range(1 << m):
            entries[((r << m) + mask, (c << m) + mask)] = v
    for base in range(0, poly.rows << m, 1 << m):
        for (r, c), v in form.entries.items():
            key = (base + r, base + c)
            entries[key] = entries.get(key, 0) + v
    return SparseMat(poly.rows << m, poly.cols << m, entries)


def sector_matrix_L(op: ModelOperator, cap: int, T) -> SparseMat:
    """Conjugated model operator (lap + T flow) tensor 1 + T (1 tensor L2)
    at coupling T on the degree <= cap sector; it keeps or lowers the
    degree, so no truncation error arises."""
    lap, flow = _sector_parts(op, Sector(op.m, cap))
    return _tensor_form(lap + flow.scale(T), op.form_op.scale(T), op.m)


def sector_matrix_D(op: ModelOperator, cap_in: int, cap_out: int, T
                    ) -> SparseMat:
    """Conjugated Dirac-type operator d + d* + T chat(X0) at coupling T
    from the cap_in into the cap_out sector; TruncationTooSmall when an
    output monomial exceeds cap_out (it raises the degree by one)."""
    sec_in, sec_out = Sector(op.m, cap_in), Sector(op.m, cap_out)
    s_rows, a_rows = op.sqrt_gram.to_rows(), op.a.to_rows()
    cs, chats = _clifford_gens(op.m)
    entries: dict[tuple[int, int], Fraction] = {}

    def add_block(out_mono: tuple[int, ...], col_base: int,
                  poly_coeff: Fraction, form: _Mono):
        if not poly_coeff:
            return
        if out_mono not in sec_out.mono_index:
            raise TruncationTooSmall(
                f"output degree {sum(out_mono)} exceeds cap {sec_out.cap}")
        row_base = sec_out.mono_index[out_mono] << op.m
        for c, (r, sgn) in enumerate(zip(form.perm, form.sign)):
            key = (row_base + r, col_base + c)
            entries[key] = entries.get(key, 0) + poly_coeff * sgn

    for mi, mono in enumerate(sec_in.monomials):
        base = mi << op.m
        for i in range(op.m):
            # d + d* contributes c(e_i) (d/dx_i - T (Sx)_i),
            # T chat(X0) contributes T (Ax)_i chat(e_i).
            if mono[i] >= 1:
                down = list(mono)
                down[i] -= 1
                add_block(tuple(down), base, Fraction(mono[i]), cs[i])
            for out_mono, c in _linear_mult_terms(s_rows, i, mono):
                add_block(out_mono, base, -T * c, cs[i])
            for out_mono, c in _linear_mult_terms(a_rows, i, mono):
                add_block(out_mono, base, T * c, chats[i])
    return SparseMat(sec_out.size, sec_in.size, entries)


# -- forms as sparse vectors ---------------------------------------------
#
# Forms are dicts {mask: number}: integer numerators in exact mode, floats
# in float mode, on one code path.


def _clifford_gens(m: int) -> tuple[list[_Mono], list[_Mono]]:
    """The generators c(e_i) and chat(e_i), i < m."""
    return ([_generator(m, i, 1, -1) for i in range(m)],
            [_generator(m, i, 1, 1) for i in range(m)])


def _clifford_apply(vec: dict, coeffs, gens: list[_Mono], out=None) -> dict:
    """sum_i coeffs[i] gens[i] applied to vec, added into out."""
    out = {} if out is None else out
    for x, (perm, sign) in zip(coeffs, gens):
        if x:
            for s, y in vec.items():
                out[perm[s]] = out.get(perm[s], 0) + sign[s] * x * y
    return out


def _apply(mat: SparseMat, vec: dict, exact: bool) -> tuple[dict, int]:
    """mat applied to vec, zeros dropped, over a denominator: mat's integer
    numerators over their lcm if exact, else floats over 1."""
    den = math.lcm(*(v.denominator for v in mat.entries.values())) \
        if exact else 1
    out: dict = {}
    for (r, c), v in mat.entries.items():
        if c in vec:
            out[r] = out.get(r, 0) + vec[c] * (
                v.numerator * (den // v.denominator) if exact else float(v))
    return {r: x for r, x in out.items() if x}, den


def _residual(got: dict, want: dict):
    """Largest |got - want| over the masks of either."""
    return max((abs(got.get(t, 0) - want.get(t, 0))
                for t in got.keys() | want.keys()), default=0)


def _norm(vec: dict) -> float:
    return math.sqrt(_dot(vec.values(), vec.values()))


# -- kernel, spectrum, eta -----------------------------------------------


def _ground_form(op: ModelOperator) -> dict:
    """delta = prod_k (1 - J_k)/2 on the first basis form it does not
    kill: any nonzero image (exact, primitive integers), or one of squared
    norm >= 2^-(m+1) (float; the 2^m squared norms sum to 1)."""
    f = op.factors
    exact = op.mode == "exact"
    cs, chats = _clifford_gens(op.m)
    for s in range(1 << op.m):
        vec = {s: 1}
        for k, n in enumerate(f.norm):
            # (norm[k] - c(w_k) chat(a_k)) vec, J_k never formed.
            vec = _clifford_apply(_clifford_apply(vec, f.a[k], chats),
                                  [-x for x in f.w[k]], cs,
                                  {t: n * x for t, x in vec.items()})
            g = math.gcd(*vec.values()) if exact else 2 * n
            vec = {t: x // g if exact else x / g for t, x in vec.items() if x}
            if not vec:
                break
        else:
            if exact or _norm(vec) ** 2 >= 0.5 ** (op.m + 1):
                return vec
    raise UnexpectedKernel("prod_k (1 - J_k)/2 kills every basis form")


def _kernel_vector(op: ModelOperator) -> tuple[dict, int]:
    """The ground form delta (the kernel vector of L2) and its form parity.

    By CAR and orthonormality the J_k commute and c(v_k) flips J_k alone,
    so the joint eigenspaces are the lines of f_eps = prod_(k in eps)
    c(v_k) delta.  As ``ModelOperator`` checked L2 = tr S +
    sum_k sigma_k J_k, L2 f_eps = 2 sum_(k in eps) sigma_k f_eps, so the
    kernel is the line of delta; L2 delta == 0 is checked too, to the
    model's ``tolerance`` times |delta|.  Each J_k is even, so delta has
    its basis form's parity."""
    delta = _ground_form(op)
    image, den = _apply(op.form_op, delta, op.mode == "exact")
    residual = Fraction(_residual(image, {})) / den
    tol = op.tolerance()
    if residual > (tol and tol * _norm(delta)):
        raise UnexpectedKernel(f"L2 does not annihilate the ground form "
                               f"(largest entry {float(residual):.3e})")
    return delta, next(iter(delta)).bit_count() & 1


def kernel_and_parity(op: ModelOperator) -> int:
    """Form parity (0 even, 1 odd) of the model kernel, the Gaussian ground
    state times the ground form."""
    return _kernel_vector(op)[1]


class SpectrumVerdict(Record):
    __slots__ = ("passed", "mode", "Ts", "cap", "structure_ok",
                 "blocks_match", "max_deviation", "spectrum", "gap",
                 "detail")
    _defaults = {"detail": ""}


def spectrum_scaling(op: ModelOperator, Ts: Sequence, cap: int = 2
                     ) -> SpectrumVerdict:
    """Certify that spectrum(model operator)/T does not depend on T:
    L_hat / T = P_T tensor 1 + 1 tensor L2, P_T = flow + lap / T exact, is
    block upper-triangular by degree (a failure names the monomials), and
    its diagonal blocks are the same for every T, as lap has no entry in
    one (max_deviation: what such entries would make).  The spectrum is
    the closed form ``_block_spectrum``, tied to flow and L2 by
    ``_trace_guard``."""
    ts = [Fraction(t) for t in Ts]
    if len(set(ts)) < 3 or any(t <= 0 for t in ts):
        raise ValueError("need at least 3 distinct positive couplings")
    if cap < 2:
        raise ValueError("cap must be >= 2 for the scaling check")
    sec = Sector(op.m, cap)
    lap, flow = _sector_parts(op, sec)
    degree = [sum(mono) for mono in sec.monomials]
    bad = next((f"monomial entry ({r},{c}) maps degree {degree[c]} to "
                f"{degree[r]}"
                for part in (lap, flow) for (r, c) in part.entries
                if degree[r] not in (degree[c], degree[c] - 2)), "")
    structure_ok = not bad
    # flow is the same for every T, so a diagonal block of P_T changes
    # with T exactly where lap has an entry inside it.
    leak = max((abs(v) for (r, c), v in lap.entries.items()
                if degree[r] == degree[c]), default=Fraction(0))
    blocks_match = not leak
    dev = leak * max(abs(1 / t - 1 / ts[0]) for t in ts[1:])
    _trace_guard(op, flow, degree)
    spectrum = _block_spectrum(op, cap)
    passed = structure_ok and blocks_match
    detail = bad or ("" if blocks_match else "diagonal blocks differ across T")
    gap = min((x for x in spectrum if abs(x) > 1e-8), default=0.0)
    return SpectrumVerdict(passed, op.mode, tuple(ts), cap, structure_ok,
                           blocks_match, float(dev), spectrum, gap, detail)


def _block_spectrum(op: ModelOperator, cap: int) -> tuple[float, ...]:
    """Eigenvalues of the blocks P_d tensor 1 + 1 tensor L2, d <= cap,
    sorted: the sum sets of spec L2 = {2 sum_(k in I) sigma_k} (the joint
    eigenspaces of ``_kernel_vector``) and spec P_d = {2 alpha.sigma :
    |alpha| = d} (flow is the derivation of 2S).  The sums are exact over
    one denominator (floats as binary rationals), rounded once each."""
    sigma = [Fraction(x) for x in op.factors.sigma]
    den = math.lcm(*(x.denominator for x in sigma))
    twice = [2 * x.numerator * (den // x.denominator) for x in sigma]
    form = [0]
    for t in twice:
        form += [f + t for f in form]
    out = sorted(p + f for d in range(cap + 1)
                 for p in map(sum, combinations_with_replacement(twice, d))
                 for f in form)
    return tuple(n / den for n in out)


def _trace_guard(op: ModelOperator, flow: SparseMat, degree: list[int]):
    """Tie ``_block_spectrum`` to the assembled factors by exact traces:
    tr L2 = 2^m tr S, tr L2^2 = 2^m ((tr S)^2 + tr A^t A), and tr P_d =
    2d C(m + d - 1, d) tr S / m for the degree-d diagonal block P_d of
    flow (``degree``: each monomial's degree, ascending); else
    CheckFailure."""
    n = 1 << op.m
    tr_s = op.trace_sqrt()
    form = op.form_op.entries
    checks = [("tr L2", sum(form.get((i, i), 0) for i in range(n)),
               n * tr_s),
              ("tr L2^2", sum(v * form.get((c, r), 0)
                              for (r, c), v in form.items()),
               n * (tr_s * tr_s + sum(v * v for v in op.a.entries.values())))]
    poly = [Fraction(0)] * (degree[-1] + 1)
    for (r, c), v in flow.entries.items():
        if r == c:
            poly[degree[r]] += v
    checks += [(f"tr P_{d}", poly[d],
                2 * d * math.comb(op.m + d - 1, d) * tr_s / op.m)
               for d in range(len(poly))]
    for label, got, want in checks:
        if got != want:
            raise CheckFailure(f"spectrum trace guard: {label} = {got}, "
                               f"the closed form needs {want}")


class EtaVerdict(Record):
    __slots__ = ("passed", "mode", "c1_squared", "c1", "source_vanished",
                 "orthogonal", "detail")
    _defaults = {"detail": ""}


def eta_scaling(op: ModelOperator) -> EtaVerdict:
    """C1^2 = T ||eta||^2 / ||ground||^2, one value free of T, for the
    correction eta solving L_hat eta = D_hat(skew(omega) delta) on the
    cap-1 sector, Gaussian-orthogonal to the ground state.  By
    ``_check_cap1`` that is (2S tensor 1 + 1 tensor L2) y = r on degree 1
    (orthogonality kills degree 0), where the Gram is (2TS)^(-1): C1^2 =
    1/2 sum_j |z_j|^2 / (sigma_j |delta|^2), z_j the part of y along v_j.
    The verdict passes when the source is orthogonal to delta; a
    vanishing source gives C1 = 0 and a flag."""
    exact = op.mode == "exact"
    delta, _ = _kernel_vector(op)
    _check_cap1(op)
    source, src_den = _apply(omega_skew(op.m), delta, exact)
    overlap = abs(sum(x * delta.get(t, 0) for t, x in source.items()))
    vanished, orthogonal, c1sq = not source, not overlap, Fraction(0)
    if not exact:
        vanished = _residual(source, {}) <= 1e-12 * _residual(delta, {})
        orthogonal = overlap <= _FLOAT_CUT * _norm(source) * _norm(delta)
        c1sq = 0.0
    if not vanished:
        c1sq = _c1_squared(op, delta, source, src_den) / _dot(
            delta.values(), delta.values())
    detail = "" if orthogonal else "source not orthogonal to the ground state"
    return EtaVerdict(orthogonal, op.mode, c1sq, math.sqrt(float(c1sq)),
                      vanished, orthogonal, detail)


def _c1_squared(op: ModelOperator, delta: dict, source: dict, src_den):
    """1/2 sum_j |z_j|^2 / (sigma_j |w_j|^2), skew(omega) delta = source /
    src_den.  Along w_j the degree-1 block is (2 sigma_j + L2) z_j = rho_j,
    rho_j = (chat(a_j) / scale - sigma_j c(w_j)) source / src_den, solved
    in the f_eps of ``_kernel_vector`` (zero terms dropped) and checked:
    on integers if exact, to ``_FLOAT_CUT`` of rho_j if float."""
    f = op.factors
    exact = op.mode == "exact"
    cs, chats = _clifford_gens(op.m)
    basis, level = [delta], [0]
    for eps in range(1, 1 << op.m):
        k = eps.bit_length() - 1
        basis.append(_clifford_apply(basis[eps ^ 1 << k], f.w[k], cs))
        level.append(level[eps ^ 1 << k] + 2 * f.sigma[k])
    sizes = [_dot(b.values(), b.values()) for b in basis]
    total = 0
    for j, s in enumerate(f.sigma):
        # sigma_j = p / q, rho_j = rho / rho_den, z_j = z / common.
        p, q = (s.numerator, s.denominator) if exact else (s, 1)
        rho = _clifford_apply(source, [-f.scale * p * x for x in f.w[j]], cs,
                              _clifford_apply(source, [q * x for x in f.a[j]],
                                              chats))
        rho_den = src_den * f.scale * q
        inner = [sum(y * b.get(t, 0) for t, y in rho.items()) for b in basis]
        coeffs = {eps: x / (sizes[eps] * rho_den * (2 * s + level[eps]))
                  for eps, x in enumerate(inner) if x}
        common = math.lcm(*(c.denominator for c in coeffs.values())) \
            if exact else 1
        z: dict = {}
        for eps, c in coeffs.items():
            c = int(c * common) if exact else c
            for t, y in basis[eps].items():
                z[t] = z.get(t, 0) + c * y
        lz, den = _apply(op.form_op, z, exact)
        # (2 p / q + L2 numerators / den) z / common == rho / rho_den.
        got = {t: rho_den * (2 * p * den * z.get(t, 0) + q * lz.get(t, 0))
               for t in z.keys() | lz.keys()}
        want = {t: q * den * common * x for t, x in rho.items()}
        if _residual(got, want) > (0 if exact else _FLOAT_CUT * _residual(
                want, {})):
            raise CheckFailure(f"eta check: (2 sigma_{j} + L2) z_{j} != "
                               f"rho_{j} in the joint eigenbasis")
        total += _dot(z.values(), z.values()) / (
            common * common * s * _dot(f.w[j], f.w[j]))
    return total / 2


def _check_cap1(op: ModelOperator):
    """Check the cap-1 sector exactly against the closed forms eta uses, T
    times fixed operators: lap has no entry and flow is x_b -> 2 sum_a S_ba
    x_a, so ``sector_matrix_L`` is T (flow tensor 1 + 1 tensor L2) at every
    T; the cap-0 to cap-1 ``sector_matrix_D`` at T = 1 is sum_j x_j
    (chat(A e_j) - c(S e_j)), which that builder scales by T."""
    m, sec = op.m, Sector(op.m, 1)
    # Degree-1 monomials are ordered by exponent tuple, not by variable.
    var = [mono.index(1) for mono in sec.monomials[1:]]
    s_rows, a_rows = op.sqrt_gram.to_rows(), op.a.to_rows()
    lap, flow = _sector_parts(op, sec)
    if lap.entries or flow != SparseMat(m + 1, m + 1, {
            (i + 1, k + 1): 2 * s_rows[var[k]][var[i]]
            for i in range(m) for k in range(m)}):
        raise CheckFailure("eta check: the cap-1 L is not "
                           "T (flow tensor 1 + 1 tensor L2)")
    rows = [SparseMat.zeros(1 << m, 1 << m)] + [
        clifford([row[j] for row in a_rows], "chat")
        - clifford([row[j] for row in s_rows], "c") for j in var]
    if sector_matrix_D(op, 0, 1, 1) != SparseMat.block([[r] for r in rows]):
        raise CheckFailure("eta check: the cap-1 D is not "
                           "T sum_j x_j (chat(A e_j) - c(S e_j))")


# -- rational random sources ---------------------------------------------


def _random_rotations(m: int, rng: Random):
    """2m Givens rotations (i < j, c, s, d) by the angle with cosine c/d and
    sine s/d, a Pythagorean triple, so that every entry stays rational."""
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        p = rng.randint(2, 5)
        q = rng.randint(1, p - 1)
        sin = 2 * p * q
        if rng.random() < 0.5:
            sin = -sin
        yield min(i, j), max(i, j), p * p - q * q, sin, p * p + q * q


def _rotated_columns(m: int, rng: Random, count: int) -> list[list]:
    """The first ``count`` columns of the product of the
    ``_random_rotations`` (each applied after the ones before), on integer
    numerators over one running denominator."""
    cols = [[int(i == k) for i in range(m)] for k in range(count)]
    den = 1
    for i, j, c, s, d in _random_rotations(m, rng):
        for col in cols:
            a, b = col[i], col[j]
            col[:] = [x * d for x in col]
            col[i], col[j] = c * a - s * b, s * a + c * b
        den *= d
    return [[Fraction(x, den) for x in col] for col in cols]


def random_rational_orthogonal(m: int, rng: Random) -> SparseMat:
    """Product of the ``_random_rotations``, whose cosine/sine pairs are
    Pythagorean: exactly orthogonal with determinant +1."""
    cols = _rotated_columns(m, rng, m)
    return SparseMat(m, m, {(i, k): col[i] for k, col in enumerate(cols)
                            for i in range(m)})


def random_rational_unit_vector(m: int, rng: Random) -> list[Fraction]:
    """First column of random_rational_orthogonal(m, rng): exact norm 1."""
    return _rotated_columns(m, rng, 1)[0]


def random_model_matrix(m: int, rng: Random, det_sign: int = 1
                        ) -> SparseMat:
    """Random invertible A = R diag Q, R and Q rational orthogonal, with
    the absolute values of the diagonal as singular values; det_sign < 0
    negates its first entry."""
    if det_sign not in (1, -1):
        raise ValueError("det_sign must be +1 or -1")
    r, q = (random_rational_orthogonal(m, rng) for _ in range(2))
    d = SparseMat(m, m, {(i, i): Fraction(
        rng.randint(1, 6) * (det_sign if i == 0 else 1), rng.randint(1, 3))
        for i in range(m)})
    return r @ d @ q

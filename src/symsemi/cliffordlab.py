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

The oscillator model replaces the deformed de Rham operator on the manifold
by polynomial coefficients times constant forms.  After conjugating away the
Gaussian ground-state factor (weight exp(-T x^t S x) with S the positive
square root of A^t A), the operator reads

    L_hat = -laplacian + 2T (Sx).grad + T * L2,
    L2    = tr(S) + sum_j c(e_j) chat(A e_j),

acting on (polynomials of bounded degree) tensor (forms).  It is a
product: with lap = -laplacian and flow = 2 (Sx).grad acting on the
polynomials alone, L_hat = (lap + T flow) tensor 1 + T (1 tensor L2).  So
the sector parts are k x k polynomial matrices (k monomials, not k 2^m
basis vectors), assembled once per model; the spectrum scaling check runs
on them, only rescaling lap for each coupling.  The reported spectrum is
the closed form of ``_block_spectrum`` in the eigenvalues of S, tied to
the assembled factors by exact trace identities; no eigen-solver runs on
an assembled block.  All assembly is exact rational, and the spectrum
scaling certificate is exact in both modes.  "exact" mode needs a
rational S; "float" mode approximates S numerically (entering the exact
arithmetic as binary rationals), finds the kernel by SVD and the eta
correction by a least-squares solve, and those two comparisons carry
tolerances.  One routine finds the kernel vector, in either mode, for both
the kernel check and the eta correction.  A is at most
``MODEL_DIM_LIMIT`` x ``MODEL_DIM_LIMIT`` in both modes.  numpy is
imported inside the functions that use it, so importing this module does
not load it, and neither does exact mode with a diagonal S (every S that
``model_L`` finds itself): its spectrum is exact, from the diagonal of S.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import CheckFailure, InputError
from .qlinalg import SparseMat, det, inverse, kernel_basis, solve
from .record import Record

if TYPE_CHECKING:
    import numpy as np


class DimensionMismatch(ValueError):
    """Vector length does not match the operator dimension."""


class BadDimension(InputError):
    """Dimension not a multiple of 4, or beyond the supported range."""


class NotUnit(InputError):
    """A unit vector was required."""


class Singular(InputError):
    """The coefficient matrix A must be invertible."""


class NoRationalRoot(InputError):
    """Exact mode needs a rational square root of A^t A."""


class TruncationTooSmall(InputError):
    """The polynomial degree cap cannot hold a required output."""


class UnexpectedKernel(CheckFailure):
    """The model kernel failed to be 1-dimensional."""


# The largest m for each operator family: the Clifford checks act on
# 2^m x 2^m monomial operators; the model's sectors grow with the number
# of monomials times 2^m, and float mode solves one of them densely.
CLIFFORD_DIM_LIMIT = 12
MODEL_DIM_LIMIT = 8

# Singular values below this, relative to the largest, count as kernel.
_SVD_CUT = 1e-9


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
    """The sum of coeff * op over (coeff, op) in terms as a sparse matrix."""
    entries: dict[tuple[int, int], Fraction] = {}
    for coeff, op in terms:
        for s, (r, x) in enumerate(zip(op.perm, op.sign)):
            if x:
                key = (r, s)
                entries[key] = entries.get(key, 0) + coeff * x
    return SparseMat(1 << m, 1 << m, entries)


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


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _exact_sqrt_gram(gram: SparseMat) -> SparseMat | None:
    """Rational square root for diagonal or scalar A^t A, else None."""
    n = gram.rows
    if all(r == c for (r, c) in gram.entries):
        roots = {}
        for i in range(n):
            root = _rational_sqrt(gram.get(i, i))
            if root is None:
                return None
            roots[(i, i)] = root
        return SparseMat(n, n, roots)
    return None


def _leading_minors_positive(s: SparseMat) -> bool:
    dense = s.to_rows()
    for k in range(1, s.rows + 1):
        sub = SparseMat.from_rows([row[:k] for row in dense[:k]])
        if det(sub) <= 0:
            return False
    return True


def _dense(mat: SparseMat) -> np.ndarray:
    """Float copy of a sparse rational matrix, each entry rounded once."""
    import numpy as np

    out = np.zeros(mat.shape)
    for (r, c), v in mat.entries.items():
        out[r, c] = float(v)
    return out


def _numeric_sqrt(gram: SparseMat) -> SparseMat:
    import numpy as np

    dense = _dense(gram)
    evals, evecs = np.linalg.eigh(dense)
    if evals.min() <= 0:
        raise Singular("A^t A not positive definite (A singular?)")
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    residual = float(np.abs(root @ root - dense).max())
    scale = max(float(np.abs(dense).max()), 1.0)
    if residual > 1e-12 * scale:
        raise NoRationalRoot(
            f"numeric square root residual {residual:.3e} too large")
    entries = {(i, j): Fraction(root[i, j])
               for i in range(gram.rows) for j in range(gram.rows)
               if root[i, j] != 0.0}
    return SparseMat(gram.rows, gram.rows, entries)


class ModelOperator(Record):
    """The finite model at one coupling T: coefficient matrix A, exact or
    approximated square root S of A^t A, and the constant-form part L2
    (``form_op``), all SparseMat.  No field but T depends on the coupling,
    so ``op.replace(T=t)`` is the model at coupling t."""

    __slots__ = ("a", "sqrt_gram", "T", "mode", "m", "det_sign", "form_op")

    def trace_sqrt(self) -> Fraction:
        return sum((self.sqrt_gram.get(i, i) for i in range(self.m)),
                   Fraction(0))


def model_L(a, T, mode: str = "exact", sqrt_gram: SparseMat | None = None
            ) -> ModelOperator:
    """Assemble the model operator for an invertible A and coupling T > 0.

    mode 'exact' demands a rational S with S^2 = A^t A: found for diagonal
    A^t A, or supplied as sqrt_gram and verified, else NoRationalRoot.
    mode 'float' always builds S numerically and takes no sqrt_gram.
    """
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
    if mode == "float" and sqrt_gram is not None:
        raise ValueError("sqrt_gram is accepted in exact mode only")
    t_val = Fraction(T)
    if t_val <= 0:
        raise ValueError("T must be positive")
    deta = det(a)
    if not deta:
        raise Singular("det A = 0")
    gram = a.transpose() @ a
    if mode == "float":
        s = _numeric_sqrt(gram)
    elif sqrt_gram is not None:
        s = sqrt_gram
        if s.shape != (m, m) or s != s.transpose():
            raise ValueError("sqrt_gram must be symmetric of matching shape")
        if s @ s != gram:
            raise ValueError("sqrt_gram does not square to A^t A")
        if not _leading_minors_positive(s):
            raise ValueError("sqrt_gram is not positive definite")
    else:
        s = _exact_sqrt_gram(gram)
        if s is None:
            raise NoRationalRoot(
                "A^t A has no auto-detectable rational square root; "
                "supply sqrt_gram or use float mode")
    # L2 = tr(S) + sum over entries A_ij of A_ij c(e_j) chat(e_i).
    trace_s = sum((s.get(i, i) for i in range(m)), Fraction(0))
    cs = [_generator(m, i, 1, -1) for i in range(m)]
    chats = [_generator(m, i, 1, 1) for i in range(m)]
    form = _to_sparse(m, [(trace_s, _identity(m))] + [
        (v, _compose(cs[j], chats[i])) for (i, j), v in a.entries.items()])
    return ModelOperator(a, s, t_val, mode, m, 1 if deta > 0 else -1, form)


# -- polynomial-form sectors ---------------------------------------------


class Sector:
    """Basis (monomials of total degree <= cap) x (form masks).

    Monomials are exponent tuples ordered by (total degree, lex), so the
    degree filtration is contiguous and a smaller cap's basis is a prefix
    of a larger one's.  Index layout: mono_index * 2^m + mask.
    """

    def __init__(self, m: int, cap: int):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.m = m
        self.cap = cap
        monos = sorted((tuple(c.count(i) for i in range(m))
                        for d in range(cap + 1)
                        for c in combinations_with_replacement(range(m), d)),
                       key=lambda t: (sum(t), t))
        self.monomials = tuple(monos)
        self.mono_index = {t: i for i, t in enumerate(monos)}
        self.size = len(monos) << m

    def degree_of(self, basis_index: int) -> int:
        return sum(self.monomials[basis_index >> self.m])


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
    """The coupling-free polynomial factors (lap, flow) of the conjugated
    model operator on ``sec``, k x k over the k = len(sec.monomials)
    monomials: lap = -laplacian lowers the total degree by exactly 2, and
    flow = 2 (Sx).grad keeps it.  The sector operator is
    (lap + T flow) tensor 1 + T (1 tensor L2)."""
    s_rows = op.sqrt_gram.to_rows()
    lap: dict[tuple[int, int], Fraction] = {}
    flow: dict[tuple[int, int], Fraction] = {}
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


def sector_matrix_L(op: ModelOperator, cap: int) -> SparseMat:
    """Conjugated model operator -laplacian + 2T (Sx).grad + T L2 on the
    degree <= cap sector, assembled from the polynomial factors of
    ``_sector_parts`` and the form factor L2.  The polynomial filtration is
    preserved (entries keep or lower the total degree), so no truncation
    error arises."""
    lap, flow = _sector_parts(op, Sector(op.m, cap))
    return _tensor_form(lap + flow.scale(op.T), op.form_op.scale(op.T), op.m)


def sector_matrix_D(op: ModelOperator, cap_in: int, cap_out: int) -> SparseMat:
    """Conjugated Dirac-type operator d + d* + T chat(X0) from the cap_in
    sector into the cap_out sector.

    Raises TruncationTooSmall when a surviving output monomial exceeds
    cap_out (the operator raises polynomial degree by one).
    """
    sec_in = Sector(op.m, cap_in)
    sec_out = Sector(op.m, cap_out)
    s_rows = op.sqrt_gram.to_rows()
    a_rows = op.a.to_rows()
    cs = [_generator(op.m, i, 1, -1) for i in range(op.m)]
    chats = [_generator(op.m, i, 1, 1) for i in range(op.m)]
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
                add_block(out_mono, base, -op.T * c, cs[i])
            for out_mono, c in _linear_mult_terms(a_rows, i, mono):
                add_block(out_mono, base, op.T * c, chats[i])
    return SparseMat(sec_out.size, sec_in.size, entries)


def gaussian_moment(cov_rows: list[list[Fraction]], alpha: tuple[int, ...],
                    cache: dict) -> Fraction:
    """Centered-Gaussian moment E[x^alpha] by pairwise reduction
    (Isserlis): E[x_a rest] = sum_b C_ab E[rest / x_b]."""
    key = alpha
    hit = cache.get(key)
    if hit is not None:
        return hit
    total = sum(alpha)
    if total == 0:
        return Fraction(1)
    if total % 2:
        cache[key] = Fraction(0)
        return cache[key]
    a = next(i for i, e in enumerate(alpha) if e)
    rest = list(alpha)
    rest[a] -= 1
    out = Fraction(0)
    for b in range(len(alpha)):
        if rest[b] and cov_rows[a][b]:
            sub = list(rest)
            sub[b] -= 1
            out += rest[b] * cov_rows[a][b] * gaussian_moment(
                cov_rows, tuple(sub), cache)
    cache[key] = out
    return out


def gaussian_gram(op: ModelOperator, cap: int) -> SparseMat:
    """Gram matrix of the monomials under the normalized Gaussian weight
    exp(-T x^t S x), covariance (2TS)^(-1).  Forms are orthonormal, so the
    sector inner product is this matrix tensor the identity on masks."""
    sec = Sector(op.m, cap)
    cov = inverse(op.sqrt_gram.scale(2 * op.T)).to_rows()
    cache: dict = {}
    k = len(sec.monomials)
    entries = {}
    for i in range(k):
        for j in range(k):
            alpha = tuple(a + b for a, b in
                          zip(sec.monomials[i], sec.monomials[j]))
            v = gaussian_moment(cov, alpha, cache)
            if v:
                entries[(i, j)] = v
    return SparseMat(k, k, entries)


def sector_inner(op: ModelOperator, gram: SparseMat,
                 u: SparseMat, v: SparseMat) -> Fraction:
    """Gaussian inner product of two sector columns (gram tensor 1)."""
    n = 1 << op.m
    by_mask_v: dict[int, dict[int, Fraction]] = {}
    for (idx, _), val in v.entries.items():
        by_mask_v.setdefault(idx % n, {})[idx // n] = val
    acc = Fraction(0)
    for (idx, _), uv in u.entries.items():
        for j, vv in by_mask_v.get(idx % n, {}).items():
            g = gram.get(idx // n, j)
            if g:
                acc += uv * g * vv
    return acc


# -- kernel, spectrum, eta -----------------------------------------------


def _kernel_vector(op: ModelOperator):
    """The ground form of ``op``, the kernel vector of its form operator L2
    (the degree-0 sector), and its form parity (0 even, 1 odd).

    Exact mode returns the ``kernel_basis`` column as a SparseMat; float
    mode returns the right singular vector of the smallest singular value
    as an array, counting singular values below ``_SVD_CUT`` times the
    largest as kernel and components above 1e-6 times its peak as its
    support.  Raises UnexpectedKernel when the kernel is not 1-dimensional
    or its vector mixes form parities."""
    if op.mode == "exact":
        vec = kernel_basis(op.form_op)
        dim = vec.cols
        support = [r for (r, _) in vec.entries]
    else:
        import numpy as np

        _, svals, vt = np.linalg.svd(_dense(op.form_op))
        dim = int((svals < _SVD_CUT * max(float(svals.max()), 1.0)).sum())
        vec = vt[-1]
        support = np.flatnonzero(np.abs(vec) > 1e-6 * np.abs(vec).max())
    if dim != 1:
        raise UnexpectedKernel(
            f"kernel dimension {dim} at cap 0, expected 1")
    low = (1 << op.m) - 1
    parities = {(int(r) & low).bit_count() & 1 for r in support}
    if len(parities) != 1:
        raise UnexpectedKernel("kernel vector mixes form parities")
    return vec, parities.pop()


def kernel_and_parity(op: ModelOperator) -> int:
    """Form parity (0 even, 1 odd) of the model operator's kernel, from
    ``_kernel_vector``, which asserts that the kernel is 1-dimensional.

    The kernel generator has constant polynomial part (the Gaussian ground
    state times a constant form), so it lives in the degree-0 sector.
    """
    return _kernel_vector(op)[1]


class SpectrumVerdict(Record):
    __slots__ = ("passed", "mode", "Ts", "cap", "structure_ok",
                 "blocks_match", "max_deviation", "spectrum", "gap",
                 "detail")
    _defaults = {"detail": ""}


def _validate_ts(ts, minimum: int):
    vals = [Fraction(t) for t in ts]
    if len(set(vals)) < minimum or any(t <= 0 for t in vals):
        raise ValueError(
            f"need at least {minimum} distinct positive couplings")
    return vals


def spectrum_scaling(op: ModelOperator, Ts: Sequence, cap: int = 2
                     ) -> SpectrumVerdict:
    """Certify that spectrum(model operator)/T does not depend on T.

    L_hat / T = P_T tensor 1 + 1 tensor L2 with P_T = flow + lap / T, exact
    rational in both modes.  1 tensor L2 keeps the degree and is the same
    for every T, so the checks run on the k x k factors, assembled once:
    P_T is block upper-triangular for the degree filtration (off-diagonal
    entries lower the degree by exactly 2, from the Laplacian; a failure
    detail names the monomial indices), its diagonal blocks are verified
    entrywise identical across the given T values, and max_deviation is
    the largest entry difference between them.  The spectrum, the union of
    the diagonal blocks' spectra, is the closed form of ``_block_spectrum``
    after ``_trace_guard`` has tied it to flow and L2; it is exact up to
    one rounding per value when S is diagonal, and otherwise as accurate as
    the eigenvalues of the m x m S.
    """
    ts = _validate_ts(Ts, 3)
    if cap < 2:
        raise ValueError("cap must be >= 2 for the scaling check")
    sec = Sector(op.m, cap)
    lap, flow = _sector_parts(op, sec)
    mats = [flow + lap.scale(Fraction(1) / t) for t in ts]
    bad = ""
    degree = [sum(mono) for mono in sec.monomials]
    for (r, c) in mats[0].entries:
        dr, dc = degree[r], degree[c]
        if dr != dc and dr != dc - 2:
            bad = f"monomial entry ({r},{c}) maps degree {dc} to {dr}"
            break
    structure_ok = not bad
    diags = [{k: v for k, v in mat.entries.items()
              if degree[k[0]] == degree[k[1]]} for mat in mats]
    blocks_match = all(d == diags[0] for d in diags[1:])
    dev = 0 if blocks_match else max(
        abs(d.get(k, 0) - diags[0].get(k, 0))
        for d in diags[1:] for k in d.keys() | diags[0].keys())
    _trace_guard(op, flow, degree)
    spectrum = _block_spectrum(op, cap)
    passed = structure_ok and blocks_match
    detail = bad if not structure_ok else (
        "" if blocks_match else "diagonal blocks differ across T")
    nonzero = [x for x in spectrum if abs(x) > 1e-8]
    gap = min(nonzero) if nonzero else 0.0
    return SpectrumVerdict(passed, op.mode, tuple(ts), cap, structure_ok,
                           blocks_match, float(dev), spectrum, gap, detail)


def _block_spectrum(op: ModelOperator, cap: int) -> tuple[float, ...]:
    """Eigenvalues of the degree-diagonal blocks P_d tensor 1 + 1 tensor L2,
    d <= cap, sorted, in closed form from the eigenvalues sigma of S:

        spec L2  = {2 sum_(k in I) sigma_k : I subset of {1..m}},
        spec P_d = {2 alpha.sigma : |alpha| = d},

    and a block's spectrum is the sum set {p + l}, each sum counted once.
    Proof: with A = U Sigma V^t, sum_ij A_ij c(e_j) chat(e_i) is
    sum_k sigma_k c(v_k) chat(u_k), a sum of commuting involutions of
    which c(v_k) flips the k-th alone, so L2 = tr S + sum_k +-sigma_k with
    every sign pattern once; P_d = flow on Sym^d is the derivation of 2S,
    diagonal on the monomials in the eigenbasis of S.  sigma is the
    diagonal of S when S is diagonal, else ``eigvalsh`` of S taken as the
    binary rationals it returns; the values are summed exactly over one
    common denominator and rounded once each."""
    s = op.sqrt_gram
    if all(r == c for (r, c) in s.entries):
        sigma = [s.get(i, i) for i in range(op.m)]
    else:
        import numpy as np

        sigma = [Fraction(x) for x in np.linalg.eigvalsh(_dense(s))]
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
    """Tie the closed form of ``_block_spectrum`` to the assembled factors
    by three trace identities, exact on their sparse entries:

        tr L2   = 2^m tr S,
        tr L2^2 = 2^m ((tr S)^2 + tr A^t A),
        tr P_d  = 2d C(m + d - 1, d) tr S / m   for each degree d,

    P_d being the degree-d diagonal block of flow (``degree`` gives each
    monomial's degree, in ascending order).  Raises CheckFailure on the
    first mismatch."""
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
    __slots__ = ("passed", "mode", "Ts", "c1_squared_list", "c1", "constant",
                 "source_vanished", "orthogonal", "detail")
    _defaults = {"detail": ""}

    @property
    def c1_squared(self):
        return self.c1_squared_list[0]


def eta_scaling(op: ModelOperator, Ts: Sequence) -> EtaVerdict:
    """Solve for the first-order correction to the ground state of ``op``
    and certify the T^(-1/2) decay of its norm.

    The ground form (the kernel vector of L2, asserted unique and of one
    form parity), the source (its skew omega image), and whether the
    source vanished or is orthogonal to the ground form do not depend on
    T and are worked out once.  Per coupling T: the correction eta
    solves L_hat eta = D_hat(source) with eta Gaussian-orthogonal to the
    ground state, on the degree <= 1 sector, which holds the Dirac image
    of the source.  The report carries C1^2 = T ||eta||^2 / ||ground||^2,
    which must be the same for every T (exactly in exact mode; float mode
    solves by least squares and compares at rel 1e-9).  A vanishing source
    yields C1 = 0 with a flag.
    """
    ts = _validate_ts(Ts, 2)
    delta, _ = _kernel_vector(op)
    skew = omega_skew(op.m)
    exact = op.mode == "exact"
    if exact:
        source = skew @ delta
        vanished = source.is_zero()
        orthogonal = sum((v * delta.get(r, 0)
                          for (r, _), v in source.entries.items()),
                         Fraction(0)) == 0
        once, zero = _eta_once_exact, Fraction(0)
    else:
        import numpy as np

        source = _dense(skew) @ delta
        vanished = float(np.abs(source).max()) <= 1e-12
        orthogonal = abs(float(source @ delta)) <= 1e-9
        once, zero = _eta_once_float, 0.0
    c1sq = [zero if vanished else once(op.replace(T=t), delta, source)
            for t in ts]
    if exact:
        constant = all(v == c1sq[0] for v in c1sq[1:])
        dev_note = ""
    else:
        ref = float(c1sq[0])
        scale = max(abs(ref), 1e-30)
        dev = max((abs(float(v) - ref) / scale for v in c1sq[1:]),
                  default=0.0)
        constant = dev <= 1e-9
        dev_note = f" (rel deviation {dev:.3e})" if not constant else ""
    passed = constant and orthogonal
    detail = "" if passed else (
        ("C1 varies with T" + dev_note if not constant
         else "source not orthogonal to the ground state"))
    return EtaVerdict(passed, op.mode, tuple(ts), tuple(c1sq),
                      math.sqrt(float(c1sq[0])), constant, vanished,
                      orthogonal, detail)


def _eta_once_exact(op: ModelOperator, delta: SparseMat,
                    source: SparseMat) -> Fraction:
    """C1^2 from one exact correction solve on the degree <= 1 sector,
    given the ground form ``delta`` and its nonzero ``source``."""
    rhs = sector_matrix_D(op, 0, 1) @ source
    lmat = sector_matrix_L(op, 1)
    y = solve(lmat, rhs)
    if y is None:
        raise UnexpectedKernel("model equation L y = D source unsolvable")
    gram = gaussian_gram(op, 1)
    delta_hat = SparseMat(Sector(op.m, 1).size, 1,
                          {(r, 0): v for (r, _), v in delta.entries.items()})
    proj = sector_inner(op, gram, y, delta_hat)
    norm_ground = sector_inner(op, gram, delta_hat, delta_hat)
    eta = y - delta_hat.scale(proj / norm_ground)
    if (lmat @ eta) != rhs:
        raise UnexpectedKernel("projection left the solution space")
    norm_eta = sector_inner(op, gram, eta, eta)
    return op.T * norm_eta / norm_ground


def _eta_once_float(op: ModelOperator, delta, source) -> float:
    """Numeric counterpart of _eta_once_exact (least-squares solve)."""
    import numpy as np

    n = 1 << op.m
    rhs = _dense(sector_matrix_D(op, 0, 1)) @ source
    y, *_ = np.linalg.lstsq(_dense(sector_matrix_L(op, 1)), rhs, rcond=None)
    big_gram = np.kron(_dense(gaussian_gram(op, 1)), np.eye(n))
    delta_hat = np.zeros(len(y))
    delta_hat[:n] = delta
    norm_ground = float(delta_hat @ big_gram @ delta_hat)
    proj = float(y @ big_gram @ delta_hat) / norm_ground
    eta = y - proj * delta_hat
    norm_eta = float(eta @ big_gram @ eta)
    return float(op.T) * norm_eta / norm_ground


# -- rational random sources ---------------------------------------------


def _givens(m: int, i: int, j: int, cos: Fraction, sin: Fraction) -> SparseMat:
    entries = {(k, k): Fraction(1) for k in range(m) if k not in (i, j)}
    entries[(i, i)] = cos
    entries[(j, j)] = cos
    entries[(i, j)] = -sin
    entries[(j, i)] = sin
    return SparseMat(m, m, entries)


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


def random_rational_orthogonal(m: int, rng: Random) -> SparseMat:
    """Product of the ``_random_rotations``, whose cosine/sine pairs are
    Pythagorean: exactly orthogonal with determinant +1."""
    out = SparseMat.identity(m)
    for i, j, c, s, d in _random_rotations(m, rng):
        out = _givens(m, i, j, Fraction(c, d), Fraction(s, d)) @ out
    return out


def random_rational_unit_vector(m: int, rng: Random) -> list[Fraction]:
    """First column of random_rational_orthogonal(m, rng): exact norm 1.
    The rotations are applied to e_1 instead of being multiplied out, on
    integer numerators over one running denominator."""
    num = [1] + [0] * (m - 1)
    den = 1
    for i, j, c, s, d in _random_rotations(m, rng):
        a, b = num[i], num[j]
        num = [x * d for x in num]
        num[i], num[j] = c * a - s * b, s * a + c * b
        den *= d
    return [Fraction(x, den) for x in num]


def random_model_matrix(m: int, rng: Random, det_sign: int = 1
                        ) -> tuple[SparseMat, SparseMat]:
    """Random invertible rational A with rational sqrt(A^t A).

    A = R diag Q with R, Q rational orthogonal and the diagonal positive,
    so S = Q^t diag Q is an exact symmetric positive square root of A^t A.
    det_sign flips by negating one row of R, which leaves S untouched.
    """
    if det_sign not in (1, -1):
        raise ValueError("det_sign must be +1 or -1")
    r = random_rational_orthogonal(m, rng)
    q = random_rational_orthogonal(m, rng)
    d = SparseMat(m, m, {(i, i): Fraction(rng.randint(1, 6),
                                          rng.randint(1, 3))
                         for i in range(m)})
    a = r @ d @ q
    if det_sign == -1:
        flip = SparseMat(m, m, {(i, i): Fraction(-1 if i == 0 else 1)
                                for i in range(m)})
        a = r @ flip @ d @ q
    s = q.transpose() @ d @ q
    return a, s

"""The finite oscillator model.

It applies the monomial operators of ``exterior`` (see its docstring for
the basis conventions) to forms held as sparse vectors, and L2 below by
its Clifford formula: L2 is applied, never built.  What an exact
``oscillator`` job does not run lives elsewhere: the float eigen-solve
in ``jacobi``, the sector matrices and random model matrices in
``sectors``.  Of their names and ``clifford``'s, only the five that the
benchmark reads here resolve here, on first access.

The oscillator model replaces the deformed de Rham operator by polynomial
coefficients times constant forms.  Conjugated by the Gaussian ground state
exp(-T x^t S x), S the positive square root of A^t A, it is

    L_hat = (lap + T flow) tensor 1 + T (1 tensor L2),
    L2    = tr(S) + sum_j c(e_j) chat(A e_j),

with lap = -laplacian and flow = 2 (Sx).grad on polynomials alone.  The
model (``ModelOperator``) holds only these T-free parts; the coupling T
enters only the sector builders ``sectors.sector_matrix_L`` and
``sectors.sector_matrix_D``.  With A = sum_k sigma_k u_k v_k^t (``Factors``),
L2 = tr S + sum_k sigma_k J_k for the commuting involutions
J_k = c(v_k) chat(u_k), whose joint eigenspaces are lines: the kernel is
one line, and the spectrum, counted as distinct exact sums, and C1^2 are closed
forms in the factors; each step is checked, none eliminates, and only L2 and
the kernel act on all 2^m forms.  "exact" mode certifies rational factors and
works on integer numerators; "float" mode runs the same code on pure-Python
Jacobi factors with residuals up to ``_FLOAT_CUT`` of each check's scale, and
adds floats left to right (``_fold``), so its digits do not depend on how a
Python version's ``sum`` adds.  No numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from operator import add, mul
from sys import byteorder
from typing import NamedTuple

from .errors import CheckFailure, InputError
from .exterior import (BadDimension, _check_dim, _generator, _Mono,
                       _omega_terms, _transpose)
from .qlinalg import SparseMat, det, kernel_basis
from .record import Record


class Singular(InputError):
    """The coefficient matrix A must be invertible."""


class NoRationalRoot(InputError):
    """No certified rational (exact) or accurate (float) factors of A."""


class UnexpectedKernel(CheckFailure):
    """A check behind the 1-dimensional model kernel failed."""


# The largest m of the model.  Its work grows like m^2 2^m: L2 is applied,
# never built, as m^2 generator terms on the ground form's up to 2^m
# entries, and the ground form takes m projectors on forms of up to 2^m
# entries: under a second for a random 12 x 12 A.
MODEL_DIM_LIMIT = 12
# The largest sector, in forms: C(m + cap, m) 2^m of them, which bounds
# the distinct sums that ``_block_spectrum`` counts.
SECTOR_LIMIT = 1 << 20

# Float mode accepts a residual up to this times the scale of its check.
_FLOAT_CUT = 1e-9
# Exact mode rounds float singular values to fractions with denominators
# up to this, then checks them exactly.
_SIGMA_DENOMINATOR = 10 ** 6


# -- the finite oscillator model -----------------------------------------


def _fold(terms):
    """The sum of terms added left to right, as ``sum`` did for floats
    before Python 3.12 made it compensated."""
    return reduce(add, terms, 0)


def _dot(u, v):
    return _fold(map(mul, u, v))


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
        from .jacobi import _jacobi_eigh

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
    ints, scale = a._ints
    images = tuple(tuple(sum(v * vec[j] for j, v in ints.get(i, ()))
                         for i in range(m)) for vec in w)
    return Factors(tuple(sigma), tuple(map(tuple, w)), images, scale,
                   tuple(int(scale * s * _dot(vec, vec))
                         for s, vec in zip(sigma, w)))


class ModelOperator(Record):
    """The finite model, free of the coupling T: A and S as SparseMat, the
    ``Factors`` of A and the ground form delta (``ground``, see
    ``_ground_form``).  L2 is applied, never built: ``_l2_apply`` reads
    A and tr S.  Building one, or any ``replace`` of one, checks
    L2 == tr S + sum_k sigma_k J_k on m x m data; else UnexpectedKernel.
    The right side is the L2 of
    A' = sum_k (sigma_k / norm[k]) a_k w_k^t = A sum_k w_k w_k^t / |w_k|^2,
    and B -> sum_ij B_ij c(e_j) chat(e_i) is linear and injective (the
    products are independent by CAR), so the identity says A' == A:
    exactly, or to ``tolerance`` / m per entry, which bounds each entry of
    the difference of the two operators, a +-sum of at most m entries of
    A' - A, by ``tolerance``.

    By CAR and orthonormality the J_k commute and c(v_k) flips J_k alone,
    so the joint eigenspaces are the lines of f_eps = prod_(k in eps)
    c(v_k) delta, and by the identity L2 f_eps = 2 sum_(k in eps) sigma_k
    f_eps: the kernel is the line of delta.  Last, delta is checked to be
    nonzero, of one form parity, and killed by L2 to ``tolerance`` times
    |delta|.  T enters only the sector builders."""

    __slots__ = ("a", "sqrt_gram", "mode", "m", "det_sign", "factors",
                 "ground")

    def __post_init__(self):
        f, m, tol = self.factors, self.m, self.tolerance()
        weights = [s / k for s, k in zip(f.sigma, f.norm)]
        rows = self.a.to_rows()
        off = max(
            abs(_fold(x * a[i] * w[j] for x, w, a in zip(weights, f.w, f.a))
                - rows[i][j]) for i in range(m) for j in range(m))
        if off > tol / m:
            raise UnexpectedKernel(
                f"L2 is not tr S + sum_k sigma_k J_k (max |A sum_k w_k "
                f"w_k^t / |w_k|^2 - A| = {float(off):.3e})")
        delta = self.ground
        if len({t.bit_count() & 1 for t in delta}) != 1:
            raise UnexpectedKernel("the ground form is zero or of mixed "
                                   "parity")
        image, den = _l2_apply(self, delta)
        residual = Fraction(_residual(image, {})) / den
        if residual > (tol and tol * _norm(delta)):
            raise UnexpectedKernel(f"L2 does not annihilate the ground form "
                                   f"(largest entry {float(residual):.3e})")

    def trace_sqrt(self) -> Fraction:
        return sum((self.sqrt_gram.get(i, i) for i in range(self.m)),
                   Fraction(0))

    def tolerance(self):
        """0 if exact, else ``_FLOAT_CUT`` times the gap 2 sigma_min of L2."""
        return 0 if self.mode == "exact" else \
            _FLOAT_CUT * 2 * min(self.factors.sigma)


def model_L(a, mode: str = "exact") -> ModelOperator:
    """Build the model operator for an invertible A, on certified
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
        from .jacobi import _float_factors

        factors = _float_factors(a, gram)
    # S = sum_k sigma_k w_k w_k^t / |w_k|^2, floats as binary rationals.
    weights = [x / _dot(v, v) for x, v in zip(factors.sigma, factors.w)]
    s = SparseMat(m, m, {(i, j): _fold(
        c * v[min(i, j)] * v[max(i, j)] for c, v in zip(weights, factors.w))
        for i in range(m) for j in range(m)})
    if mode == "float":
        residual = max(map(abs, (s @ s - gram).entries.values()), default=0)
        if residual > 1e-12 * max(max(map(abs, gram.entries.values())), 1):
            raise NoRationalRoot(f"numeric square root residual "
                                 f"{float(residual):.3e} too large")
    return ModelOperator(a, s, mode, m, 1 if deta > 0 else -1, factors,
                         _ground_form(factors, mode == "exact"))


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


def _linear_mult_terms(row, mono: tuple[int, ...]):
    """Multiplication by the linear polynomial sum_j c x_j, for the
    sparse (j, c) row, on one monomial."""
    for j, coeff in row:
        out = list(mono)
        out[j] += 1
        yield tuple(out), coeff


def _sector_parts(op: ModelOperator, sec: Sector
                  ) -> tuple[SparseMat, SparseMat]:
    """The coupling-free k x k polynomial factors on the k monomials of
    ``sec``, written from S's numerators: lap = -laplacian lowers the
    degree by exactly 2, flow = 2 (Sx).grad keeps it."""
    s_ints, den = op.sqrt_gram._ints
    lap, flow = {}, {}
    for mi, mono in enumerate(sec.monomials):
        for i, e in enumerate(mono):
            if e >= 2:
                # Each variable lowers mono to a different monomial, so
                # every lap entry is written once.
                low = mono[:i] + (e - 2,) + mono[i + 1:]
                lap.setdefault(sec.mono_index[low], []).append(
                    (mi, -e * (e - 1)))
            if e >= 1:
                down = mono[:i] + (e - 1,) + mono[i + 1:]
                for out_mono, c in _linear_mult_terms(s_ints.get(i, ()), down):
                    row = flow.setdefault(sec.mono_index[out_mono], {})
                    row[mi] = row.get(mi, 0) + 2 * e * c
    k = len(sec.monomials)
    return SparseMat._from_ints(k, k, lap, 1), SparseMat._from_ints(
        k, k, {r: row.items() for r, row in flow.items()}, den)


# -- forms as sparse vectors ---------------------------------------------
#
# Forms are dicts {mask: number}: integer numerators in exact mode, floats
# in float mode, on one code path.

_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _signs(op: _Mono, m: int) -> tuple:
    """op's value at each of the 2^m masks, 0 where it kills the form.  A
    class's binary digits, as UTF-16 code units, are one 16-bit lane per
    mask; scaled by the class's number they fill one integer's lanes."""
    index = 0
    for k, (_, bits) in enumerate(op.classes, 1):
        index |= k * int.from_bytes(bin(bits)[:1:-1].encode(
            "utf-16-le").translate(_DIGITS), "little")
    values = (0, *(v for v, _ in op.classes))
    return tuple(map(values.__getitem__, memoryview(
        index.to_bytes(2 << m, byteorder)).cast("H")))


@lru_cache(maxsize=None)
def _clifford_gens(m: int) -> tuple[tuple, tuple]:
    """The generators c(e_i) and chat(e_i), i < m, as (key, per-mask
    signs) pairs, built once per m (m <= MODEL_DIM_LIMIT) and shared, so
    immutable."""
    return tuple(tuple((1 << i, _signs(_generator(m, i, 1, w), m))
                       for i in range(m)) for w in (-1, 1))


def _clifford_apply(vec: dict, coeffs, gens: tuple, out=None) -> dict:
    """sum_i coeffs[i] gens[i] applied to vec, added into out."""
    out = {} if out is None else out
    for x, (key, sign) in zip(coeffs, gens):
        if x:
            for s, y in vec.items():
                out[s ^ key] = out.get(s ^ key, 0) + sign[s] * x * y
    return out


def _l2_apply(op: ModelOperator, vec: dict) -> tuple[dict, int]:
    """L2 vec = tr S vec + sum_j c(e_j) chat(A e_j) vec, zeros dropped, as
    numerators over the lcm of the denominators of tr S and A (floats as
    binary rationals): integers for an integer vec, else floats."""
    tr_s, rows = op.trace_sqrt(), op.a.to_rows()
    den = math.lcm(tr_s.denominator, *(x.denominator for r in rows for x in r))
    cs, chats = _clifford_gens(op.m)
    out = {t: int(tr_s * den) * x for t, x in vec.items()}
    for j, c in enumerate(cs):
        _clifford_apply(_clifford_apply(vec, [int(r[j] * den) for r in rows],
                                        chats), (1,), (c,), out)
    return {t: x for t, x in out.items() if x}, den


def _omega_skew(m: int, vec: dict, exact: bool) -> tuple[dict, int]:
    """skew(omega) vec = 1/2 sum_k (w_k^t - w_k) vec, w_k the terms of
    ``_omega_terms``, zeros dropped: integers over 2 if exact, else floats
    over 1.  Float C1 depends on the order of the sums; the reports pin
    this one: w_0^t, w_0, w_1^t, ..., masks ascending, killed forms
    skipped."""
    half = 1 if exact else 0.5
    out: dict = {}
    for w in _omega_terms(m):
        for op, x in ((_transpose(w), half), (w, -half)):
            sign = _signs(op, m)
            for s in sorted(vec):
                if sign[s]:
                    t = s ^ op.key
                    out[t] = out.get(t, 0) + vec[s] * (sign[s] * x)
    return {r: y for r, y in out.items() if y}, 2 if exact else 1


def _residual(got: dict, want: dict):
    """Largest |got - want| over the masks of either."""
    return max((abs(got.get(t, 0) - want.get(t, 0))
                for t in got.keys() | want.keys()), default=0)


def _norm(vec: dict) -> float:
    return math.sqrt(_dot(vec.values(), vec.values()))


# -- kernel, spectrum, eta -----------------------------------------------


def _ground_form(f: Factors, exact: bool) -> dict:
    """delta = prod_k (1 - J_k)/2 on the first basis form it does not
    kill: any nonzero image (exact, primitive integers), or one of squared
    norm >= 2^-(m+1) (float; the 2^m squared norms sum to 1).  Each J_k is
    even, so delta has its basis form's parity."""
    m = len(f.sigma)
    cs, chats = _clifford_gens(m)
    for s in range(1 << m):
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
            if exact or _norm(vec) ** 2 >= 0.5 ** (m + 1):
                return vec
    raise UnexpectedKernel("prod_k (1 - J_k)/2 kills every basis form")


def kernel_and_parity(op: ModelOperator) -> int:
    """Form parity (0 even, 1 odd) of the model kernel, the Gaussian ground
    state times the ground form that ``ModelOperator`` certified."""
    return next(iter(op.ground)).bit_count() & 1


class SpectrumVerdict(Record):
    __slots__ = ("passed", "mode", "cap", "structure_ok", "blocks_match",
                 "max_deviation", "spectrum", "gap", "detail")
    _defaults = {"detail": ""}


def spectrum_scaling(op: ModelOperator, cap: int = 2) -> SpectrumVerdict:
    """Certify that spectrum(model operator)/T does not depend on T > 0:
    L_hat / T = P_T tensor 1 + 1 tensor L2, P_T = flow + lap / T exact, is
    block upper-triangular by degree (a failure names the monomials), and
    its diagonal blocks are those of flow alone, as lap has no entry in
    one (max_deviation: the largest such entry), read on numerators.  The
    spectrum is the closed form ``_block_spectrum``, tied to flow by
    ``_trace_guard`` and to L2 by ``ModelOperator``; as every sigma_k > 0,
    the gap is its least positive value."""
    if cap < 2:
        raise ValueError("cap must be >= 2 for the scaling check")
    sec = Sector(op.m, cap)
    lap, flow = _sector_parts(op, sec)
    degree = [sum(mono) for mono in sec.monomials]
    bad = next((f"monomial entry ({r},{c}) maps degree {degree[c]} to "
                f"{degree[r]}"
                for part in (lap, flow) for r, row in part._ints[0].items()
                for c, _ in row if degree[c] - degree[r] not in (0, 2)), "")
    structure_ok = not bad
    # flow is the same for every T, so a diagonal block of P_T changes
    # with T exactly where lap has an entry inside it.
    leak = max((abs(v) for r, row in lap._ints[0].items() for c, v in row
                if degree[r] == degree[c]), default=0)
    blocks_match = not leak
    _trace_guard(op, flow, degree)
    spectrum = _block_spectrum(op, cap)
    passed = structure_ok and blocks_match
    detail = bad or ("" if blocks_match else "diagonal blocks differ across T")
    gap = next((x for x, _ in spectrum if x > 0), 0.0)
    return SpectrumVerdict(passed, op.mode, cap, structure_ok, blocks_match,
                           leak / lap._ints[1], spectrum, gap, detail)


def _block_spectrum(op: ModelOperator, cap: int) -> tuple[tuple, ...]:
    """Eigenvalues of the blocks P_d tensor 1 + 1 tensor L2, d <= cap, as
    ascending (value, multiplicity) pairs: the counts of spec P_d =
    {2 alpha.sigma : |alpha| = d} (flow is the derivation of 2S) and of
    spec L2 = {2 sum_(k in I) sigma_k} (the joint eigenspaces of
    ``ModelOperator``), convolved.  The sums are exact over one denominator
    (floats as binary rationals), rounded once per distinct sum."""
    sigma = [Fraction(x) for x in op.factors.sigma]
    den = math.lcm(*(x.denominator for x in sigma))
    twice = [2 * x.numerator * (den // x.denominator) for x in sigma]
    form = Counter(sum(c) for d in range(len(twice) + 1)
                   for c in combinations(twice, d))
    poly = Counter(sum(c) for d in range(cap + 1)
                   for c in combinations_with_replacement(twice, d))
    out = Counter()
    for p, j in poly.items():
        out.update({p + f: j * k for f, k in form.items()})
    return tuple((n / den, k) for n, k in sorted(out.items()))


def _trace_guard(op: ModelOperator, flow: SparseMat, degree: list[int]):
    """Tie ``_block_spectrum`` to the numerators of flow by exact traces:
    tr P_d = 2d C(m + d - 1, d) tr S / m for the degree-d diagonal block
    P_d of flow (``degree``: each monomial's degree, ascending); else
    CheckFailure.  ``ModelOperator`` ties L2 to the same factors."""
    tr_s = op.trace_sqrt()
    poly = [0] * (degree[-1] + 1)
    for r, row in flow._ints[0].items():
        poly[degree[r]] += sum(v for c, v in row if c == r)
    for d, got in enumerate(Fraction(n, flow._ints[1]) for n in poly):
        want = 2 * d * math.comb(op.m + d - 1, d) * tr_s / op.m
        if got != want:
            raise CheckFailure(f"spectrum trace guard: tr P_{d} = {got}, "
                               f"the closed form needs {want}")


class EtaVerdict(Record):
    __slots__ = ("passed", "mode", "c1_squared", "c1", "source_vanished",
                 "orthogonal", "detail")
    _defaults = {"detail": ""}


def eta_scaling(op: ModelOperator) -> EtaVerdict:
    """C1^2 = T ||eta||^2 / ||ground||^2, one value free of T, for the
    correction eta solving L_hat eta = D_hat(skew(omega) delta) on the
    cap-1 sector, Gaussian-orthogonal to the ground state.  On that sector
    L_hat and D_hat are T times fixed operators, so eta solves
    (2S tensor 1 + 1 tensor L2) y = r on degree 1 (orthogonality kills
    degree 0), whose Gram is (2TS)^(-1); ``_c1_squared_on_factors`` gives
    the result in closed form.  The verdict passes when the source is
    orthogonal to delta; a vanishing source gives C1 = 0 and a flag."""
    exact = op.mode == "exact"
    delta = op.ground
    source, _ = _omega_skew(op.m, delta, exact)
    overlap = abs(_fold(x * delta.get(t, 0) for t, x in source.items()))
    vanished, orthogonal, c1sq = not source, not overlap, Fraction(0)
    if not exact:
        vanished = _residual(source, {}) <= 1e-12 * _residual(delta, {})
        orthogonal = overlap <= _FLOAT_CUT * _norm(source) * _norm(delta)
        c1sq = 0.0
    if not vanished:
        c1sq = _c1_squared_on_factors(op.factors)
    detail = "" if orthogonal else "source not orthogonal to the ground state"
    return EtaVerdict(orthogonal, op.mode, c1sq, math.sqrt(float(c1sq)),
                      vanished, orthogonal, detail)


def _omega(x, y):
    """omega(x, y) = sum_i x_2i y_2i+1 - x_2i+1 y_2i, the form whose
    terms ``_omega_terms`` lists."""
    return _fold(x[i] * y[i + 1] - x[i + 1] * y[i]
                 for i in range(0, len(x), 2))


def _c1_squared_on_factors(f: Factors):
    """C1^2 = 1/16 sum_(j != k) N_jk^2 / (sigma_j + sigma_k), with
    N_jk = (omega(w_j, w_k) + omega(a_j, a_k) / (scale^2 sigma_j sigma_k))
    / (2 |w_j| |w_k|); on exact factors N_jk^2 is rational.

    Lemma.  Let v_k = w_k / |w_k|, u_k = A v_k / sigma_k, f_k =
    c(v_k) delta, and rho_j = sigma_j (chat(u_j) - c(v_j)) skew(omega)
    delta the degree-1 source along v_j.  Then rho_j lies in the span of
    the f_k with k != j, and <rho_j, f_k> = -sigma_j N_jk |delta|^2.  As
    L2 f_k = 2 sigma_k f_k and |f_k| = |delta|, the part z_j of y along
    v_j, solving (2 sigma_j + L2) z_j = rho_j, has |z_j|^2 = sum_k
    sigma_j^2 N_jk^2 |delta|^2 / (4 (sigma_j + sigma_k)^2), and C1^2 =
    1/2 sum_j |z_j|^2 / (sigma_j |delta|^2); N_jk^2 is symmetric, so
    pairing (j, k) with (k, j) gives the closed form."""
    m = len(f.sigma)
    sizes = [_dot(w, w) for w in f.w]
    total = 0
    for j in range(m):
        for k in range(m):
            if j != k:
                s, t = f.sigma[j], f.sigma[k]
                n = _omega(f.w[j], f.w[k]) + _omega(f.a[j], f.a[k]) / (
                    f.scale * f.scale * s * t)
                total += n * n / (4 * sizes[j] * sizes[k] * (s + t))
    return total / 16


# The names of other modules that the benchmark reads here.
_MOVED = {"random_rational_orthogonal": "sectors", "verify_car": "clifford",
          "verify_volume_star": "clifford", "verify_volume_omega": "clifford",
          "verify_complex_structure": "clifford"}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_MOVED[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value

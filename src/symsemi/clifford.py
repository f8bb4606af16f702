"""The Clifford identity checks, and the ``clifford`` subcommand.

The checks run on the monomial operators of ``exterior`` (see its docstring
for the basis conventions) in exact arithmetic only, and pass only when
every residual is exactly zero: anticommutators compare two composites;
omega wedge and contraction are sums of m/2 such terms; chat(v) for a
general v is the sum of the v_i chat(e_i), so chat(v)^2 is a sum of m^2
composites, whose integer signs are summed per permutation before the
rational weights v_i v_j enter.  They accept dimensions up to
``CLIFFORD_DIM_LIMIT``.  With no matrix code here, ``symsemi clifford``
loads this module, ``exterior`` and ``report`` alone.
"""

import math
from fractions import Fraction
from itertools import chain
from operator import add, mul, neg
from random import Random
from time import perf_counter
from typing import Iterable, Sequence

from .errors import InputError
from .exterior import (_check_dim, _compose, _generator, _identity, _Mono,
                       _omega_terms, _transpose)
from .record import Record
from .report import Report, emit, stable_json


class NotUnit(InputError):
    """A unit vector was required."""


# The largest m of the Clifford checks, which act on 2^m x 2^m monomial
# operators.
CLIFFORD_DIM_LIMIT = 12


def _star(m: int) -> _Mono:
    """The Hodge star e^S -> sign(S, S^c) e^(S^c), the sign ordering the
    concatenation [S ascending, S^c ascending] against 0..m-1: (-1) to the
    number of pairs j < i with i in S and j not.  Adding bit k to the masks
    below it adds k - |S| such pairs, so the signs grow by doubling."""
    full = (1 << m) - 1
    sign, parity = [1], [1]
    for k in range(m):
        upper = [*map(mul, sign, parity)]
        sign += [*map(neg, upper)] if k & 1 else upper
        parity += [*map(neg, parity)]
    return _Mono(tuple(map(full.__xor__, range(1 << m))), tuple(sign))


def _dvol(m: int) -> _Mono:
    """chat(e_1) ... chat(e_m), rightmost factor applied first."""
    out = _identity(m)
    for i in range(m):
        out = _compose(out, _generator(m, i, 1, 1))
    return out


def _chat_square(vals: Sequence[Fraction]) -> list[tuple[Fraction, _Mono]]:
    """chat(v)^2 = sum_ij v_i v_j chat(e_i) chat(e_j), one term per pair."""
    m = len(vals)
    gens = [_generator(m, i, 1, 1) for i in range(m)]
    return [(vals[i] * vals[j], _compose(gens[i], gens[j]))
            for i in range(m) for j in range(m) if vals[i] and vals[j]]


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
        by_coeff[k] = list(op.sign if acc is None else map(add, acc, op.sign))
    totals = {}
    for perm, by_coeff in signs.items():
        total = [0] * len(perm)
        for k, acc in by_coeff.items():
            if any(acc):
                total = list(map(add, total, map(k.__mul__, acc)))
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
        values = chain.from_iterable(totals.values())
    return Fraction(max(map(abs, values), default=0), den)


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


def random_rational_unit_vector(m: int, rng: Random) -> list[Fraction]:
    """First column of the product of the ``_random_rotations``, whose
    cosine/sine pairs are Pythagorean: exact norm 1."""
    return _rotated_columns(m, rng, 1)[0]


# -- the clifford subcommand ---------------------------------------------


class CliffordReport(Report):
    __slots__ = ("n", "dimension", "mode", "identities", "passed", "elapsed")
    kind = "clifford"

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        lines = [f"clifford identities  dimension {self.dimension} "
                 f"(n = {self.n}), {self.mode} mode"]
        for ident in self.identities:
            status = "pass" if ident["passed"] else "FAIL"
            line = f"  {ident['name']:<24} {status}"
            if ident["detail"]:
                line += f"  ({ident['detail']})"
            lines.append(line)
        lines.append(f"overall              "
                     f"{'pass' if self.passed else 'FAIL'}")
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


_CHECKS = ("car", "star", "omega", "complex-structure")


def cmd_clifford(args) -> int:

    start = perf_counter()
    m = 4 * args.n
    if args.n < 1:
        raise InputError("--n must be >= 1")
    if m > CLIFFORD_DIM_LIMIT:
        raise InputError(f"dimension 4n = {m} exceeds the Clifford limit "
                         f"{CLIFFORD_DIM_LIMIT}")
    wanted = []
    for name in args.checks.split(","):
        name = name.strip()
        if name == "all":
            wanted = list(_CHECKS)
            break
        if name not in _CHECKS:
            raise InputError(
                f"unknown check {name!r}; choose from "
                f"{', '.join(_CHECKS + ('all',))}")
        if name not in wanted:
            wanted.append(name)
    verdicts = []
    for name in wanted:
        if name == "car":
            verdicts.append(verify_car(m))
        elif name == "star":
            verdicts.append(verify_volume_star(m))
        elif name == "omega":
            verdicts.append(verify_volume_omega(m))
        else:
            canonical = [Fraction(3, 5), Fraction(4, 5)] \
                + [Fraction(0)] * (m - 2)
            rng = Random(0)
            vectors = [canonical] + [random_rational_unit_vector(m, rng)
                                     for _ in range(5)]
            verdicts += [verify_complex_structure(v) for v in vectors]
    identities = tuple(
        {"name": v.name, "passed": v.passed,
         "max_residual": v.max_residual, "detail": v.detail}
        for v in verdicts)
    passed = all(v.passed for v in verdicts)
    emit(CliffordReport(args.n, m, args.mode, identities, passed,
                        perf_counter() - start), args)
    return 0 if passed else 1

"""Monomial operators on the exterior algebra and the Clifford identities.

Basis conventions
-----------------
The exterior algebra of R^m is spanned by subsets of {0..m-1}, encoded as
bitmasks and ordered by increasing mask, so index 0 is the empty product and
index 2^m - 1 the volume form.  Wedging by e_i and contracting by e_i both
carry the sign (-1)^(number of set bits below i).  The two Clifford actions
of a covector v are

    chat(v) = v wedge + v contract        (squares to +|v|^2)
    c(v)    = v wedge - v contract        (squares to -|v|^2)

chat(dvol) is the composite chat(e_1) ... chat(e_m) in index order
(rightmost factor applied first), and omega refers to the standard 2-form
e^1^e^2 + e^3^e^4 + ... in coordinate order (x1, y1, x2, y2, ...).

Every one of these operators is monomial: it sends each basis form to
+-1 times one basis form, or kills it.  Such an operator is a pair of int
tuples, a permutation of the masks and a sign per mask (0 for a killed
form).  The builders work on whole sequences: sign vectors grow by
doubling, and composing two operators is one C-level gather over the 2^m
masks.

The identity checks run on this representation in exact arithmetic only,
and pass only when every residual is exactly zero: anticommutators compare
two composites; omega wedge and contraction are sums of m/2 such terms;
chat(v) for a general v is the sum of the v_i chat(e_i), so chat(v)^2 is a
sum of m^2 composites, whose integer signs are summed per permutation
before the rational weights v_i v_j enter.  They accept dimensions up to
``CLIFFORD_DIM_LIMIT``.  This is the one representation of these
operators, which the oscillator model (``cliffordlab``) applies to forms
too; with no matrix code here, ``symsemi clifford`` loads this module alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, mul, neg
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .record import Record


class BadDimension(InputError):
    """Dimension not a multiple of 4, or beyond the supported range."""


class NotUnit(InputError):
    """A unit vector was required."""


# The largest m of the Clifford checks, which act on 2^m x 2^m monomial
# operators.
CLIFFORD_DIM_LIMIT = 12


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
    takes its signs from here, with integer weights; rational weights give
    a weighted operator.  The parities of the masks below bit i are built
    by doubling, and the pattern of the 2^(i+1) masks up to bit i repeats
    above it."""
    bit = 1 << i
    parity = [1]
    for _ in range(i):
        parity += [*map(neg, parity)]
    block = [*map(wedge.__mul__, parity), *map(contract.__mul__, parity)]
    return _Mono(tuple(map(bit.__xor__, range(1 << m))),
                 tuple(block * (1 << (m - i - 1))))


def _identity(m: int) -> _Mono:
    return _Mono(tuple(range(1 << m)), (1,) * (1 << m))


def _compose(a: _Mono, b: _Mono) -> _Mono:
    """a after b, as one gather over the columns."""
    gather = itemgetter(*b.perm)
    return _Mono(gather(a.perm), tuple(map(mul, gather(a.sign), b.sign)))


def _transpose(a: _Mono) -> _Mono:
    inverse = sorted(range(len(a.perm)), key=a.perm.__getitem__)
    return _Mono(tuple(inverse), itemgetter(*inverse)(a.sign))


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


def _omega_terms(m: int) -> list[_Mono]:
    """The m/2 terms (e_(2k) wedge)(e_(2k+1) wedge) of the standard 2-form."""
    return [_compose(_generator(m, i, 1, 0), _generator(m, i + 1, 1, 0))
            for i in range(0, m, 2)]


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

"""Monomial operators on the exterior algebra.

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
masks.  This is the one representation of these operators: the Clifford
identity checks (``clifford``) and the oscillator model (``cliffordlab``)
both build on this kernel.
"""

from operator import itemgetter, mul, neg
from typing import NamedTuple

from .errors import InputError


class BadDimension(InputError):
    """Dimension not a multiple of 4, or beyond the supported range."""


def _check_dim(m: int, limit: int, multiple_of_four: bool = True):
    if m < 1:
        raise BadDimension("dimension must be positive")
    if multiple_of_four and m % 4:
        raise BadDimension(f"dimension {m} is not a multiple of 4")
    if m > limit:
        raise BadDimension(f"dimension {m} exceeds the limit {limit}")


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


def _omega_terms(m: int) -> list[_Mono]:
    """The m/2 terms (e_(2k) wedge)(e_(2k+1) wedge) of the standard 2-form."""
    return [_compose(_generator(m, i, 1, 0), _generator(m, i + 1, 1, 0))
            for i in range(0, m, 2)]

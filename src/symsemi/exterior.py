"""Monomial operators on the exterior algebra.

The exterior algebra of R^m is spanned by subsets of {0..m-1}, encoded as
bitmasks and ordered by increasing mask, so index 0 is the empty product and
index 2^m - 1 the volume form.  Wedging by e_i and contracting by e_i both
carry the sign (-1)^(number of set bits below i).  The Clifford actions of
a covector v are chat(v) = v wedge + v contract (squaring to +|v|^2) and
c(v) = v wedge - v contract (to -|v|^2); chat(dvol) is chat(e_1) ...
chat(e_m), rightmost factor first, and omega = e^1^e^2 + e^3^e^4 + ...

Each operator here sends the form of mask s to a multiple of the form of
mask s ^ key for one key: a generator flips bit i, the star every bit, a
composite XORs keys and a transpose keeps its key.  So it is held as its
key and its sign classes, one bitset of masks per nonzero value, as in the
blade bitmaps of Dorst, Fontijne and Mann, *Geometric Algebra for Computer
Science*, ch. 19.  A bitset moves by a key in one delta-swap per key bit
(Knuth, TAOCP 4A, 7.1.3): composing, transposing and summing take O(m)
integer operations per pair of classes.  This one representation serves
``clifford``'s checks and ``cliffordlab``'s model (via its ``_signs``).
"""

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


# _CLEAR[i]: the masks below 2^12 with bit i clear, runs of 2^i ones and
# zeros that serve every m up to 12, the largest m of both users.
_CLEAR = tuple(((1 << 4096) - 1) // ((1 << (2 << i)) - 1)
               * ((1 << (1 << i)) - 1) for i in range(12))


class _Mono(NamedTuple):
    """Sends the form of mask s to value times that of s ^ key, for the
    (value, bitset) class holding bit s, or to 0.  Classes are canonical
    (nonzero distinct values, sorted; nonzero disjoint bitsets), so == is
    equality of operators."""

    key: int
    classes: tuple


def _mono(key: int, parts: dict) -> _Mono:
    """The operator of key and a {value: bitset} dict; 0 has key 0."""
    classes = tuple(sorted((v, b) for v, b in parts.items() if v and b))
    return _Mono(key if classes else 0, classes)


def _shift(bits: int, key: int) -> int:
    """{s ^ key : s in bits}: per set bit i of key, one delta-swap."""
    for i in range(key.bit_length()):
        if key >> i & 1:
            t = (bits ^ bits >> (1 << i)) & _CLEAR[i]
            bits ^= t | t << (1 << i)
    return bits


def _generator(m: int, i: int, wedge, contract) -> _Mono:
    """wedge * (e_i wedge) + contract * (e_i contract), weights of any
    number type: the wedge acts where bit i is clear, the contraction where
    it is set, and both carry the parity of the bits below i."""
    full = (1 << (1 << m)) - 1
    clear, odd, parts = _CLEAR[i] & full, 0, {}
    for j in range(i):
        odd ^= full & ~_CLEAR[j]
    for v, bits in ((wedge, clear), (contract, full ^ clear)):
        for x, y in ((v, bits & ~odd), (-v, bits & odd)):
            parts[x] = parts.get(x, 0) | y
    return _mono(1 << i, parts)


def _identity(m: int) -> _Mono:
    return _Mono(0, ((1, (1 << (1 << m)) - 1),))


def _compose(a: _Mono, b: _Mono) -> _Mono:
    """a after b: mask s takes b's value at s and a's at s ^ b.key."""
    parts: dict = {}
    for v, bits in a.classes:
        moved = _shift(bits, b.key)
        for u, other in b.classes:
            if both := moved & other:
                parts[v * u] = parts.get(v * u, 0) | both
    return _mono(a.key ^ b.key, parts)


def _transpose(a: _Mono) -> _Mono:
    return _Mono(a.key, tuple((v, _shift(b, a.key)) for v, b in a.classes))


def _sum(terms) -> list[_Mono]:
    """sum coeff * op over (coeff, op) in terms, one operator per key whose
    terms do not cancel (distinct keys share no entry): each class of a
    term splits the key's sum into the overlap, where values add, and the
    rest."""
    sums: dict[int, dict] = {}
    for c, op in terms:
        parts = sums.get(op.key, {})
        for u, bits in op.classes:
            w, new = c * u, {}
            for v, old in parts.items():
                for x, y in ((v + w, old & bits), (v, old & ~bits)):
                    if x and y:
                        new[x] = new.get(x, 0) | y
                bits &= ~old
            if w and bits:
                new[w] = new.get(w, 0) | bits
            parts = new
        sums[op.key] = parts
    return [_mono(key, parts) for key, parts in sums.items() if parts]


def _omega_terms(m: int) -> list[_Mono]:
    """The m/2 terms (e_(2k) wedge)(e_(2k+1) wedge) of the standard 2-form."""
    return [_compose(_generator(m, i, 1, 0), _generator(m, i + 1, 1, 0))
            for i in range(0, m, 2)]

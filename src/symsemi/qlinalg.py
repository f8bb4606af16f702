"""Exact sparse linear algebra over arbitrary-precision rationals.

A matrix is stored in one form, ``_ints``: integer numerators by row over
one positive denominator, ``({i: [(j, numerator), ...]}, den)``, with no
zero numerator or empty row and den the lcm of the reduced denominators.
``SparseMat(rows, cols, entries)`` takes rationals from outside;
``_from_ints`` takes the numerators of builders that already hold integers
(the d, ω, cone and sector matrices, products).  Sums, scaling, transposes
and products run on the numerators.  Fractions are built only where they
are read: ``entries``, ``get`` and ``to_rows`` compute them on each call,
so a caller reads them once per matrix, not once per entry.

One fraction-free forward-elimination kernel serves every routine.  It
starts from the numerators and divides each row by its content.  The pivot
is taken in the leftmost nonzero column and, within it, at the row whose
entry there is smallest in absolute value (ties: fewest entries, then
lowest index), so small multipliers keep the rows short.  Every other
remaining row that holds the column is updated as ``(a/g)·row − (f/g)·lead``
with ``g = gcd(a, f)`` and divided by its content.  ``rank`` is the pivot
count and ``det`` the pivot product times the recorded row scalings and
swaps; only ``rref`` (and so ``kernel_basis``) adds a back-substitution
pass, dividing by the pivots once at the end.  The reduced echelon form is
unique, so reduced forms, ranks, kernel bases and determinants do not
depend on the pivot rule and are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence


def _reduced(acc: Mapping[int, Iterable[tuple[int, int]]], den: int
             ) -> tuple[dict[int, list[tuple[int, int]]], int]:
    """The stored form of the numerators ``(j, v)`` of row i in acc[i]
    over den > 0: zeros and empty rows dropped, the fraction reduced."""
    ints = {}
    for i, row in acc.items():
        kept = [(j, v) for j, v in row if v]
        if kept:
            ints[i] = kept
    g = den
    for row in ints.values():
        if g == 1:
            break
        g = gcd(g, *(v for _, v in row))
    if g != 1:
        ints = {i: [(j, v // g) for j, v in row] for i, row in ints.items()}
    return ints, den // g


class SparseMat:
    """Immutable sparse rational matrix.  Its one stored form, ``_ints``,
    is its integer numerators by row over one denominator, made by
    ``SparseMat(rows, cols, entries)`` from rationals or by ``_from_ints``
    from numerators (see the module docstring)."""

    __slots__ = ("rows", "cols", "_ints")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], object] | None = None):
        """The matrix of the given entries, anything ``Fraction`` takes."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        vals = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            vals[i, j] = v if isinstance(v, (int, Fraction)) else Fraction(v)
        den = lcm(*(v.denominator for v in vals.values()))
        acc: dict[int, list[tuple[int, int]]] = {}
        for (i, j), v in vals.items():
            acc.setdefault(i, []).append(
                (j, v.numerator * (den // v.denominator)))
        self.rows, self.cols, self._ints = rows, cols, _reduced(acc, den)

    @classmethod
    def _from_ints(cls, rows: int, cols: int,
                   acc: Mapping[int, Iterable[tuple[int, int]]],
                   den: int) -> "SparseMat":
        """The matrix whose row i holds the integer numerators ``(j, v)``
        of ``acc[i]`` over den > 0, one v per column and in range."""
        m = object.__new__(cls)
        m.rows, m.cols, m._ints = rows, cols, _reduced(acc, den)
        return m

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[object]],
                  cols: int | None = None) -> "SparseMat":
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, {(i, j): v for i, row in enumerate(data)
                                for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls._from_ints(n, n, {i: [(i, 1)] for i in range(n)}, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMat":
        return cls(rows, cols)

    @classmethod
    def column(cls, data: Sequence[object]) -> "SparseMat":
        return cls.from_rows([[v] for v in data], cols=1)

    # -- reading ---------------------------------------------------------

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries as fractions by (row, col), built per call."""
        ints, den = self._ints
        return {(i, j): Fraction(v, den)
                for i, row in ints.items() for j, v in row}

    def get(self, i: int, j: int) -> Fraction:
        ints, den = self._ints
        return Fraction(dict(ints.get(i, ())).get(j, 0), den)

    def to_rows(self) -> list[list[Fraction]]:
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def nnz(self) -> int:
        return sum(map(len, self._ints[0].values()))

    def is_zero(self) -> bool:
        return not self._ints[0]

    def __eq__(self, other) -> bool:
        if not (isinstance(other, SparseMat) and self.shape == other.shape):
            return False
        (a, da), (b, db) = self._ints, other._ints
        return da == db and a.keys() == b.keys() and all(
            dict(row) == dict(b[i]) for i, row in a.items())

    def __repr__(self) -> str:
        return f"SparseMat({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        (a, da), (b, db) = self._ints, other._ints
        den = lcm(da, db)
        sa, sb = den // da, den // db
        acc = {i: {j: v * sa for j, v in row} for i, row in a.items()}
        for i, row in b.items():
            out = acc.setdefault(i, {})
            for j, v in row:
                out[j] = out.get(j, 0) + v * sb
        return SparseMat._from_ints(self.rows, self.cols,
                                    {i: row.items() for i, row in acc.items()},
                                    den)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def __neg__(self) -> "SparseMat":
        return self.scale(-1)

    def scale(self, factor) -> "SparseMat":
        f = factor if isinstance(factor, (int, Fraction)) else \
            Fraction(factor)
        ints, den = self._ints
        return SparseMat._from_ints(
            self.rows, self.cols,
            {i: [(j, v * f.numerator) for j, v in row]
             for i, row in ints.items()}, den * f.denominator)

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        (a, da), (b, db) = self._ints, other._ints
        out: dict[int, dict[int, int]] = {}
        for i, row in a.items():
            acc = out[i] = {}
            for k, x in row:
                for j, y in b.get(k, ()):
                    acc[j] = acc.get(j, 0) + x * y
        return SparseMat._from_ints(self.rows, other.cols,
                                    {i: acc.items() for i, acc in out.items()},
                                    da * db)

    def transpose(self) -> "SparseMat":
        ints, den = self._ints
        acc: dict[int, list[tuple[int, int]]] = {}
        for i, row in ints.items():
            for j, v in row:
                acc.setdefault(j, []).append((i, v))
        return SparseMat._from_ints(self.cols, self.rows, acc, den)


# -- elimination ---------------------------------------------------------


def _combine(row: dict[int, int], f: int, lead: dict[int, int],
             a: int) -> tuple[dict[int, int], int, int]:
    """Clear row's entry f against lead's pivot a, keeping integers.

    Returns ``(new_row, s, content)``: new_row is (s·row − t·lead)/content
    with s/t = a/f in lowest terms and s > 0, and content the gcd of the
    combination's entries (0 when it vanishes).
    """
    g = gcd(a, f)
    s, t = a // g, f // g
    if s < 0:
        s, t = -s, -t
    if s != 1:
        row = {j: s * v for j, v in row.items()}
    for j, v in lead.items():
        x = row.get(j, 0) - t * v
        if x:
            row[j] = x
        else:
            del row[j]
    content = gcd(*row.values())
    if content > 1:
        row = {j: v // content for j, v in row.items()}
    return row, s, content


def _eliminate(m: SparseMat) -> tuple[list[dict[int, int]], list[int],
                                      list[int], list[int]]:
    """Fraction-free forward elimination to row echelon form.

    Returns ``(rows, pivots, num, den)``.  Each row is a primitive integer
    vector; row r < len(pivots) leads in column pivots[r] with zeros below,
    and the rows from len(pivots) on are empty.  Every row scaling (and
    each swap, as a factor −1) is recorded so that
    det(m) = prod(num) · (product of the pivots) / prod(den)
    for a square m of full rank; a row that vanishes records a 0 in num,
    and m is then singular.
    """
    ints, scale = m._ints
    rows = [dict(ints.get(i, ())) for i in range(m.rows)]
    num: list[int] = []
    den: list[int] = [scale] * m.rows
    # leads[c]: the remaining rows whose leftmost entry is in column c.
    # Columns left of the current one are clear in every remaining row, so
    # the rows that hold the pivot column are exactly those that lead in it.
    leads: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        content = gcd(*row.values())
        if content > 1:
            rows[i] = row = {j: v // content for j, v in row.items()}
        num.append(content)
        if row:
            leads.setdefault(min(row), []).append(i)
    at = list(range(m.rows))        # at[position]: the row held there
    pos = list(range(m.rows))       # pos[row]: its position
    pivots: list[int] = []
    for c in range(m.cols):
        held = leads.pop(c, None)
        if held is None:
            continue
        piv = held[0] if len(held) == 1 else min(
            held, key=lambda i: (abs(rows[i][c]), len(rows[i]), pos[i]))
        r = len(pivots)
        if pos[piv] != r:
            other = at[r]
            at[r], at[pos[piv]] = piv, other
            pos[other], pos[piv] = pos[piv], r
            num.append(-1)
        lead = rows[piv]
        a = lead[c]
        for i in held:
            if i != piv:
                row, s, content = _combine(rows[i], rows[i][c], lead, a)
                rows[i] = row
                num.append(content)
                den.append(s)
                if row:
                    leads.setdefault(min(row), []).append(i)
        pivots.append(c)
    return [rows[i] for i in at], pivots, num, den


def rref(m: SparseMat) -> tuple[SparseMat, int, list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)``.  The reduced form is
    unique, so the output is canonical whatever row ``_eliminate`` pivots
    on.
    """
    rows, pivots, _, _ = _eliminate(m)
    for r in range(len(pivots) - 1, 0, -1):
        c, lead = pivots[r], rows[r]
        for i in range(r):
            f = rows[i].get(c)
            if f:
                rows[i] = _combine(rows[i], f, lead, lead[c])[0]
    # Row r over its pivot entry, all rows over the lcm of the pivots.
    den = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    reduced = {r: [(j, v * (den // rows[r][c])) for j, v in rows[r].items()]
               for r, c in enumerate(pivots)}
    return (SparseMat._from_ints(m.rows, m.cols, reduced, den), len(pivots),
            pivots)


def rank(m: SparseMat) -> int:
    """Rank: the number of pivots of forward elimination."""
    return len(_eliminate(m)[1])


def kernel_basis(m: SparseMat) -> SparseMat:
    """Columns form the canonical basis of the right kernel of m.

    For each non-pivot column f, the basis vector has 1 in slot f and
    minus the reduced entries in the pivot slots.  Shape is cols x nullity.
    """
    reduced, _, pivots = rref(m)
    ints, den = reduced._ints
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    slot = {f: idx for idx, f in enumerate(free)}
    # Reduced row r holds den at its pivot, else only free columns.
    acc = {f: [(idx, den)] for idx, f in enumerate(free)}
    for r, p in enumerate(pivots):
        acc[p] = [(slot[f], -v) for f, v in ints[r] if f != p]
    return SparseMat._from_ints(m.cols, len(free), acc, den)


def det(m: SparseMat) -> Fraction:
    """Exact determinant: the pivot product of forward elimination, times
    the row scalings and swap signs it recorded."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows, pivots, num, den = _eliminate(m)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(prod(num) * prod(rows[r][c] for r, c in enumerate(pivots)),
                    prod(den))

"""Exact sparse linear algebra over arbitrary-precision rationals.

Matrices store ``fractions.Fraction`` entries keyed by ``(row, col)``; zero
entries are never stored.  The two hot kernels compute in Python ``int``s
and convert back to reduced fractions only at their boundary.

* Products run on each operand's integer view (``_int_rows``: numerators
  over the lcm of its denominators, by row), built once per matrix or kept
  from the builder that made it.  ``complexes`` decides its product
  identities on those integers without building a Fraction; ``@`` divides
  each distinct output numerator once.
* One fraction-free forward-elimination kernel serves every routine.  It
  starts from the integer view and divides each row by its content.  The
  pivot is taken in the leftmost nonzero column and, within it, at the row
  whose entry there is smallest in absolute value (ties: fewest entries,
  then lowest index), so small multipliers keep the rows short.  Every
  other remaining row that holds the column is updated as
  ``(a/g)·row − (f/g)·lead`` with ``g = gcd(a, f)`` and divided by its
  content.  ``rank`` is the pivot count and ``det`` the pivot product
  times the recorded row scalings and swaps; only ``rref`` (and so
  ``kernel_basis``) adds a back-substitution pass, dividing by the pivots
  once at the end.  The reduced echelon form is unique, so reduced forms,
  ranks, kernel bases and determinants do not depend on the pivot rule and
  are reproducible bit for bit.

Instances are immutable after construction: builders accumulate a plain dict
and hand it to the constructor; the integer view is a cache of the entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class SparseMat:
    """Immutable sparse matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), raw in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                val = _coerce(raw)
                if val:
                    clean[(i, j)] = val
        self.entries = clean
        self._ints = None

    @classmethod
    def _trusted(cls, rows: int, cols: int,
                 entries: dict[tuple[int, int], Fraction],
                 ints: tuple[dict, int] | None = None) -> "SparseMat":
        """Wrap entries that are already nonzero, reduced and in range;
        ``ints``, if given, is their ``_int_rows`` view."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._ints = ints
        return m

    @classmethod
    def _from_ints(cls, rows: int, cols: int,
                   acc: Mapping[int, Iterable[tuple[int, int]]],
                   den: int) -> "SparseMat":
        """The matrix whose row i holds the integer numerators ``(j, v)``
        of ``acc[i]`` over den (zeros skipped), keeping that integer view;
        one reduced Fraction per distinct numerator."""
        ints = {}
        memo: dict[int, Fraction] = {}
        entries = {}
        for i, row in acc.items():
            kept = ints[i] = []
            for j, v in row:
                if v:
                    kept.append((j, v))
                    f = memo.get(v)
                    if f is None:
                        f = memo[v] = Fraction(v, den)
                    entries[(i, j)] = f
        return cls._trusted(rows, cols, entries, (ints, den))

    def _int_rows(self) -> tuple[dict[int, list[tuple[int, int]]], int]:
        """The entries as integer numerators over one denominator, by row:
        ``({i: [(j, numerator), ...]}, denominator)``, built once."""
        if self._ints is None:
            den = lcm(*(v.denominator for v in self.entries.values()))
            rows: dict[int, list[tuple[int, int]]] = {}
            for (i, j), v in self.entries.items():
                rows.setdefault(i, []).append(
                    (j, v.numerator * (den // v.denominator)))
            self._ints = (rows, den)
        return self._ints

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[object]],
                  cols: int | None = None) -> "SparseMat":
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, raw in enumerate(row):
                val = _coerce(raw)
                if val:
                    entries[(i, j)] = val
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        one = Fraction(1)
        return cls(n, n, {(i, i): one for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMat":
        return cls(rows, cols)

    @classmethod
    def column(cls, data: Sequence[object]) -> "SparseMat":
        return cls.from_rows([[v] for v in data], cols=1)

    # -- basic queries ---------------------------------------------------

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def to_rows(self) -> list[list[Fraction]]:
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMat) and self.shape == other.shape
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"SparseMat({self.rows}x{self.cols}, nnz={len(self.entries)})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key, 0) + v
            if s:
                entries[key] = s
            else:
                entries.pop(key, None)
        return SparseMat._trusted(self.rows, self.cols, entries)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def __neg__(self) -> "SparseMat":
        return SparseMat._trusted(self.rows, self.cols,
                                  {k: -v for k, v in self.entries.items()})

    def scale(self, factor) -> "SparseMat":
        f = _coerce(factor)
        if not f:
            return SparseMat.zeros(self.rows, self.cols)
        return SparseMat._trusted(self.rows, self.cols,
                                  {k: f * v for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        out, d = _int_product(self, other)
        return SparseMat._from_ints(self.rows, other.cols,
                                    {i: acc.items() for i, acc in out.items()},
                                    d)

    def transpose(self) -> "SparseMat":
        return SparseMat._trusted(
            self.cols, self.rows,
            {(j, i): v for (i, j), v in self.entries.items()})


# -- integer products ----------------------------------------------------


def _int_product(a: SparseMat, b: SparseMat
                 ) -> tuple[dict[int, dict[int, int]], int]:
    """a @ b as integer numerators over one denominator ``d``, by row:
    ``({i: {j: numerator}}, d)``; sums that cancel stay as 0."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    arows, da = a._int_rows()
    brows, db = b._int_rows()
    out: dict[int, dict[int, int]] = {}
    for i, row in arows.items():
        acc: dict[int, int] = {}
        for k, x in row:
            hits = brows.get(k)
            if hits:
                for j, y in hits:
                    acc[j] = acc.get(j, 0) + x * y
        out[i] = acc
    return out, da * db


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
    ints, scale = m._int_rows()
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
    entries = {}
    for r, c in enumerate(pivots):
        a = rows[r][c]
        for j, v in rows[r].items():
            entries[(r, j)] = Fraction(v, a)
    return SparseMat._trusted(m.rows, m.cols, entries), len(pivots), pivots


def rank(m: SparseMat) -> int:
    """Rank: the number of pivots of forward elimination."""
    return len(_eliminate(m)[1])


def kernel_basis(m: SparseMat) -> SparseMat:
    """Columns form the canonical basis of the right kernel of m.

    For each non-pivot column f, the basis vector has 1 in slot f and
    minus the reduced entries in the pivot slots.  Shape is cols x nullity.
    """
    reduced, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    entries: dict[tuple[int, int], Fraction] = {}
    for idx, f in enumerate(free):
        entries[(f, idx)] = Fraction(1)
        for r, p in enumerate(pivots):
            v = reduced.get(r, f)
            if v:
                entries[(p, idx)] = -v
    return SparseMat(m.cols, len(free), entries)


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

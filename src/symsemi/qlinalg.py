"""Exact sparse linear algebra over arbitrary-precision rationals.

Matrices store ``fractions.Fraction`` entries keyed by ``(row, col)``; zero
entries are never stored.  The two hot kernels compute in Python ``int``s
and convert back to reduced fractions only at their boundary.

* Products scale each operand by the lcm of its denominators, accumulate
  integer products and divide each nonzero output entry once.
* One fraction-free forward-elimination kernel serves every routine.  Each
  row is scaled to a primitive integer vector; the pivot is taken in the
  leftmost nonzero column and, within it, at the smallest row index; a row
  below is updated as ``(a/g)·row − (f/g)·lead`` with ``g = gcd(a, f)`` and
  divided by its content.  ``rank`` is the pivot count and ``det`` the pivot
  product times the recorded row scalings; only ``rref`` (and so
  ``kernel_basis``) adds a back-substitution pass, dividing by the pivots
  once at the end.  The reduced echelon form is unique, so reduced forms,
  ranks, kernel bases and determinants are reproducible bit for bit.

Instances are immutable after construction: builders accumulate a plain dict
and hand it to the constructor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import InputError


class NotSkewSymmetric(InputError):
    """Raised when an operation requires m^T = -m and the input fails it."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class SparseMat:
    """Immutable sparse matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries")

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

    @classmethod
    def _trusted(cls, rows: int, cols: int,
                 entries: dict[tuple[int, int], Fraction]) -> "SparseMat":
        """Wrap entries that are already nonzero, reduced and in range."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

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

    @staticmethod
    def block(grid: Sequence[Sequence["SparseMat | None"]]) -> "SparseMat":
        """Assemble a block matrix; None blocks are zero (shapes inferred)."""
        nbr = len(grid)
        nbc = len(grid[0]) if nbr else 0
        row_h = [None] * nbr
        col_w = [None] * nbc
        for i, brow in enumerate(grid):
            if len(brow) != nbc:
                raise ValueError("ragged block grid")
            for j, blk in enumerate(brow):
                if blk is None:
                    continue
                if row_h[i] is None:
                    row_h[i] = blk.rows
                elif row_h[i] != blk.rows:
                    raise ValueError("inconsistent block heights")
                if col_w[j] is None:
                    col_w[j] = blk.cols
                elif col_w[j] != blk.cols:
                    raise ValueError("inconsistent block widths")
        if any(h is None for h in row_h) or any(w is None for w in col_w):
            raise ValueError("cannot infer shape of an all-None block row/col")
        roff = [0]
        for h in row_h:
            roff.append(roff[-1] + h)
        coff = [0]
        for w in col_w:
            coff.append(coff[-1] + w)
        entries = {}
        for i, brow in enumerate(grid):
            for j, blk in enumerate(brow):
                if blk is None:
                    continue
                for (r, c), v in blk.entries.items():
                    entries[(roff[i] + r, coff[j] + c)] = v
        return SparseMat._trusted(roff[-1], coff[-1], entries)

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
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        da = lcm(*(v.denominator for v in self.entries.values()))
        db = lcm(*(v.denominator for v in other.entries.values()))
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append(
                (j, v.numerator * (db // v.denominator)))
        acc: dict[tuple[int, int], int] = {}
        for (i, k), v in self.entries.items():
            hits = by_row.get(k)
            if not hits:
                continue
            a = v.numerator * (da // v.denominator)
            for j, b in hits:
                key = (i, j)
                acc[key] = acc.get(key, 0) + a * b
        d = da * db
        return SparseMat._trusted(self.rows, other.cols,
                                  {key: Fraction(v, d)
                                   for key, v in acc.items() if v})

    def transpose(self) -> "SparseMat":
        return SparseMat._trusted(
            self.cols, self.rows,
            {(j, i): v for (i, j), v in self.entries.items()})

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        for (i, j), v in self.entries.items():
            if self.entries.get((j, i), Fraction(0)) != -v:
                return False
        return True


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
    given: list[dict[int, Fraction]] = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        given[i][j] = v
    rows: list[dict[int, int]] = []
    num: list[int] = []
    den: list[int] = []
    for row in given:
        scale = lcm(*(v.denominator for v in row.values()))
        ints = {j: v.numerator * (scale // v.denominator)
                for j, v in row.items()}
        content = gcd(*ints.values())
        if content > 1:
            ints = {j: v // content for j, v in ints.items()}
        rows.append(ints)
        num.append(content)
        den.append(scale)
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if c in rows[i]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            num.append(-1)
        lead = rows[r]
        a = lead[c]
        # Rows r+1..piv have no entry in column c: piv was the first.
        for i in range(piv + 1, m.rows):
            f = rows[i].get(c)
            if f:
                rows[i], s, content = _combine(rows[i], f, lead, a)
                num.append(content)
                den.append(s)
        pivots.append(c)
    return rows, pivots, num, den


def rref(m: SparseMat) -> tuple[SparseMat, int, list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)``.  Pivot rule: leftmost
    nonzero column, then smallest row index, so the output is canonical.
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


def skew_kernel_parity(m: SparseMat) -> tuple[int, int]:
    """Kernel dimension of a skew-symmetric matrix and its parity.

    Returns ``(ker_dim, ker_dim % 2)``.  Since rational skew matrices have
    even rank, ker_dim is congruent to the size mod 2; a breach of that
    congruence raises RuntimeError.  Raises NotSkewSymmetric for non-skew
    input.
    """
    if not m.is_skew():
        raise NotSkewSymmetric(f"matrix is not skew-symmetric: {m!r}")
    ker = m.rows - rank(m)
    if ker % 2 != m.rows % 2:
        raise RuntimeError(f"skew matrix with odd rank: {m!r}")
    return ker, ker % 2

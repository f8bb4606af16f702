"""Exact sparse linear algebra over arbitrary-precision rationals.

Matrices store ``fractions.Fraction`` entries keyed by ``(row, col)``; zero
entries are never stored.  One forward-elimination kernel serves every
routine: it picks the pivot in the leftmost nonzero column and, within it,
the smallest row index, scales the pivot row to a leading 1 and clears the
rows below.  ``rank`` is its pivot count and ``det`` its signed pivot
product; only ``rref`` (and so ``kernel_basis``, ``solve`` and ``inverse``)
adds a back-substitution pass.  Reduced forms, ranks, kernel bases and
determinants are therefore reproducible bit for bit.

Instances are immutable after construction: builders accumulate a plain dict
and hand it to the constructor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class NotSkewSymmetric(ValueError):
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
        return SparseMat(roff[-1], coff[-1], entries)

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
        return SparseMat(self.rows, self.cols, entries)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def __neg__(self) -> "SparseMat":
        return SparseMat(self.rows, self.cols,
                         {k: -v for k, v in self.entries.items()})

    def scale(self, factor) -> "SparseMat":
        f = _coerce(factor)
        if not f:
            return SparseMat.zeros(self.rows, self.cols)
        return SparseMat(self.rows, self.cols,
                         {k: f * v for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            hits = by_row.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                s = acc.get(key, 0) + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return SparseMat(self.rows, other.cols, acc)

    def transpose(self) -> "SparseMat":
        return SparseMat(self.cols, self.rows,
                         {(j, i): v for (i, j), v in self.entries.items()})

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        for (i, j), v in self.entries.items():
            if self.entries.get((j, i), Fraction(0)) != -v:
                return False
        return True


# -- elimination ---------------------------------------------------------


def _subtract(tgt: dict[int, Fraction], f: Fraction,
              lead: dict[int, Fraction]) -> None:
    """tgt -= f * lead in place, dropping entries that cancel to zero."""
    for j, v in lead.items():
        s = tgt.get(j, 0) - f * v
        if s:
            tgt[j] = s
        else:
            del tgt[j]


def _eliminate(m: SparseMat) -> tuple[list[dict[int, Fraction]], list[int],
                                      Fraction]:
    """Forward elimination to row echelon form with unit pivots.

    Returns ``(rows, pivots, product)``: row r < len(pivots) has a leading 1
    in column pivots[r] and zeros below it; ``product`` is the product of
    the pivots before scaling, negated once per row swap, so it is the
    determinant of a square matrix of full rank.
    """
    rows: list[dict[int, Fraction]] = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    pivots: list[int] = []
    product = Fraction(1)
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if c in rows[i]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            product = -product
        pval = rows[r][c]
        product *= pval
        if pval != 1:
            inv = 1 / pval
            rows[r] = {j: v * inv for j, v in rows[r].items()}
        lead = rows[r]
        # Rows r+1..piv have no entry in column c: piv was the first.
        for i in range(piv + 1, m.rows):
            f = rows[i].get(c)
            if f:
                _subtract(rows[i], f, lead)
        pivots.append(c)
    return rows, pivots, product


def rref(m: SparseMat) -> tuple[SparseMat, int, list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)``.  Pivot rule: leftmost
    nonzero column, then smallest row index, so the output is canonical.
    """
    rows, pivots, _ = _eliminate(m)
    for r in range(len(pivots) - 1, 0, -1):
        c, lead = pivots[r], rows[r]
        for i in range(r):
            f = rows[i].get(c)
            if f:
                _subtract(rows[i], f, lead)
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return SparseMat(m.rows, m.cols, entries), len(pivots), pivots


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


def solve(m: SparseMat, rhs: SparseMat) -> SparseMat | None:
    """One solution x of m @ x = rhs (rhs a column), or None if inconsistent.

    The returned solution is the canonical one with zeros in the free slots.
    """
    if rhs.cols != 1 or rhs.rows != m.rows:
        raise ValueError("rhs must be a column of matching height")
    aug = SparseMat.block([[m, rhs]])
    reduced, rk, pivots = rref(aug)
    if m.cols in pivots:
        return None
    entries = {}
    for r, p in enumerate(pivots):
        v = reduced.get(r, m.cols)
        if v:
            entries[(p, 0)] = v
    return SparseMat(m.cols, 1, entries)


def inverse(m: SparseMat) -> SparseMat:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    aug = SparseMat.block([[m, SparseMat.identity(m.rows)]])
    reduced, rk, pivots = rref(aug)
    if rk < m.rows or pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    entries = {(i, j - m.cols): v for (i, j), v in reduced.entries.items()
               if j >= m.cols}
    return SparseMat(m.rows, m.cols, entries)


def det(m: SparseMat) -> Fraction:
    """Exact determinant: the signed pivot product of forward elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, product = _eliminate(m)
    return product if len(pivots) == m.rows else Fraction(0)


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

"""Finite cochain complexes, mapping cones, and Betti arithmetic.

A ``GradedComplex`` is a finite-dimensional cochain complex over the
rationals, given degreewise by dimensions and differential matrices.  An
``OmegaMap`` is a degree +2 chain map (wedging with a closed 2-form in the
intended models).  ``cone`` glues the two into the mapping cone whose Betti
numbers feed the semi-characteristic.

Betti numbers come from exact ranks (``betti``).  With the bases declared
orthonormal, the cone Laplacian's kernels also equal cohomology; they serve
only as the cross-check of suite criterion 9 (``harmonic_dimensions``).
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .errors import InputError
from .qlinalg import SparseMat, rank


class InvalidComplex(InputError):
    """Shapes inconsistent or the differential fails d(d(x)) = 0."""


class ChainMapViolation(InputError):
    """A degree +2 map failed to commute with the differentials."""


class BettiVector(tuple):
    """Betti numbers indexed by degree; behaves as a tuple of ints."""

    def __new__(cls, values):
        vals = tuple(int(v) for v in values)
        if any(v < 0 for v in vals):
            raise ValueError("negative Betti number")
        return super().__new__(cls, vals)


class GradedComplex:
    """Cochain complex in degrees 0..top with exact rational differentials.

    ``dims[k]`` is the dimension in degree k and ``d[k]`` the matrix of the
    differential from degree k to k+1 (shape dims[k+1] x dims[k]).  The
    constructor checks the shapes and decides d_{k+1} d_k = 0 on integer
    numerators.  ``cone`` alone skips that product: there d² = 0 follows
    from the checks its parts passed.
    """

    __slots__ = ("dims", "d")

    def __init__(self, dims: Sequence[int], d: Sequence[SparseMat]):
        self._set(dims, d)
        for k in range(len(self.d) - 1):
            if not (self.d[k + 1] @ self.d[k]).is_zero():
                raise InvalidComplex(f"d[{k + 1}] d[{k}] != 0")

    @classmethod
    def _decided(cls, dims: Sequence[int], d: Sequence[SparseMat]
                 ) -> "GradedComplex":
        """A complex whose d² = 0 its builder has already decided."""
        cx = object.__new__(cls)
        cx._set(dims, d)
        return cx

    def _set(self, dims: Sequence[int], d: Sequence[SparseMat]) -> None:
        self.dims = tuple(int(n) for n in dims)
        if any(n < 0 for n in self.dims):
            raise InvalidComplex("negative dimension")
        if not self.dims:
            raise InvalidComplex("empty complex")
        if len(d) != len(self.dims) - 1:
            raise InvalidComplex(
                f"expected {len(self.dims) - 1} differentials, got {len(d)}")
        self.d = tuple(d)
        for k, mat in enumerate(self.d):
            want = (self.dims[k + 1], self.dims[k])
            if mat.shape != want:
                raise InvalidComplex(
                    f"d[{k}] has shape {mat.shape}, expected {want}")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        if 0 <= k <= self.top:
            return self.dims[k]
        return 0

    def d_map(self, k: int) -> SparseMat:
        """Differential out of degree k, zero outside the stored range."""
        if 0 <= k < self.top:
            return self.d[k]
        return SparseMat.zeros(self.dim(k + 1), self.dim(k))

    def __repr__(self) -> str:
        return f"GradedComplex(dims={self.dims})"


class OmegaMap:
    """Degree +2 chain map L on a GradedComplex.

    ``maps[k]``: degree k -> degree k+2, for k = 0..top-2.  Commutation
    d_{k+2} L_k = L_{k+1} d_k is checked on construction, on integer
    numerators; for a map given by wedging with a 2-form this is exactly
    closedness of the form.
    """

    __slots__ = ("source", "maps")

    def __init__(self, source: GradedComplex, maps: Sequence[SparseMat]):
        self.source = source
        want_len = max(source.top - 1, 0)
        if len(maps) != want_len:
            raise ChainMapViolation(
                f"expected {want_len} degree maps, got {len(maps)}")
        self.maps = tuple(maps)
        for k, mat in enumerate(self.maps):
            want = (source.dim(k + 2), source.dim(k))
            if mat.shape != want:
                raise ChainMapViolation(
                    f"L[{k}] has shape {mat.shape}, expected {want}")
        for k in range(source.top - 1):
            if (source.d_map(k + 2) @ self.maps[k]
                    != self.map(k + 1) @ source.d_map(k)):
                raise ChainMapViolation(
                    f"d L != L d at degree {k} (is the 2-form closed?)")

    def map(self, k: int) -> SparseMat:
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return SparseMat.zeros(self.source.dim(k + 2), self.source.dim(k))

    def power_map(self, k: int, power: int) -> SparseMat:
        """Composite L^power starting at degree k (degree k -> k + 2*power)."""
        if power == 0:
            return SparseMat.identity(self.source.dim(k))
        out = self.map(k)
        for step in range(1, power):
            out = self.map(k + 2 * step) @ out
        return out


def cone(c: GradedComplex, w: OmegaMap, p: int = 0) -> GradedComplex:
    """Mapping cone of L^{p+1} on c.

    Degree k of the cone is degree k of c plus degree j = k - (2p+1) of c,
    with differential [[d_k, L^{p+1}_j], [0, -d_j]].  Its d² is
    [[d², d L^{p+1} - L^{p+1} d], [0, d²]], so it vanishes once c's d² = 0
    (decided by c's GradedComplex) and L^{p+1} is a chain map.  At p = 0
    the corner is the ω map ``w.map(j)`` itself, whose chain law w's
    OmegaMap decided on c; for p >= 1 the composite's chain law is decided
    here on integer products (InvalidComplex).  Each assembled differential
    is checked exactly, with no product, against the blocks it came from:
    every entry, sign included, and nothing else (InvalidComplex).
    """
    if w.source is not c and (w.source.dims != c.dims or w.source.d != c.d):
        raise ChainMapViolation("omega map was built on a different complex")
    if p < 0:
        raise ValueError("p must be >= 0")
    shift = 2 * p + 1
    top2 = c.top + shift
    dims2 = [c.dim(k) + c.dim(k - shift) for k in range(top2 + 1)]
    corners = [w.map(k - shift) if p == 0 else w.power_map(k - shift, p + 1)
               for k in range(top2)]
    diffs = []
    for k in range(top2):
        j = k - shift
        d_k, corner, d_j = c.d_map(k), corners[k], c.d_map(j)
        if p and k and d_k @ corners[k - 1] != corner @ c.d_map(j - 1):
            raise InvalidComplex(f"cone d[{k}] d[{k - 1}] != 0: L^{p + 1} "
                                 f"is not a chain map at degree {j - 1}")
        mat = _cone_block(d_k, corner, d_j)
        _check_layout(k, mat, d_k, corner, d_j)
        diffs.append(mat)
    return GradedComplex._decided(dims2, diffs)


def _cone_block(d_k: SparseMat, corner: SparseMat, d_j: SparseMat
                ) -> SparseMat:
    """[[d_k, corner], [0, -d_j]], written from the blocks' integer
    numerators over the lcm of their denominators."""
    (top, a), (right, b), (low, e) = (x._ints for x in (d_k, corner, d_j))
    den = lcm(a, b, e)
    rows, cols = d_k.shape
    acc = {i: [(j, v * (den // a)) for j, v in row] for i, row in top.items()}
    for i, row in right.items():
        acc.setdefault(i, []).extend((cols + j, v * (den // b))
                                     for j, v in row)
    for i, row in low.items():
        acc[rows + i] = [(cols + j, -v * (den // e)) for j, v in row]
    return SparseMat._from_ints(rows + d_j.rows, cols + d_j.cols, acc, den)


def _check_layout(k: int, mat: SparseMat, d_k: SparseMat, corner: SparseMat,
                  d_j: SparseMat) -> None:
    """InvalidComplex unless mat is [[d_k, corner], [0, -d_j]] entry for
    entry: each entry equals the one its block holds there, sign included,
    and there are as many entries as the three blocks hold.  Entries are
    compared on their numerators: v/den = u/a exactly when u·den = v·a."""
    rows, cols = d_k.shape
    ints, den = mat._ints
    (top, a), (right, b), (low, e) = (x._ints for x in (d_k, corner, d_j))
    for r, row in ints.items():
        # The blocks left and right of column ``cols`` in row r, with their
        # denominators; -e carries the sign of -d_j.
        if r < rows:
            left, rest, rden = dict(top.get(r, ())), dict(right.get(r, ())), b
        else:
            left, rest, rden = {}, dict(low.get(r - rows, ())), -e
        for col, v in row:
            u = left.get(col) if col < cols else rest.get(col - cols)
            if u is None or u * den != v * (a if col < cols else rden):
                raise InvalidComplex(f"cone d[{k}] differs from [[d, "
                                     f"L^(p+1)], [0, -d]] at ({r}, {col})")
    if mat.nnz() != d_k.nnz() + corner.nnz() + d_j.nnz():
        raise InvalidComplex(f"cone d[{k}] is missing block entries")


def betti(c: GradedComplex) -> BettiVector:
    """Betti numbers b_k = dim_k - rank d_k - rank d_{k-1} (exact ranks)."""
    ranks = [rank(m) for m in c.d]

    def rk(k: int) -> int:
        return ranks[k] if 0 <= k < len(ranks) else 0

    return BettiVector(c.dim(k) - rk(k) - rk(k - 1) for k in range(c.top + 1))


def euler_characteristic(b: Sequence[int]) -> int:
    """Alternating sum of a Betti vector."""
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(b))


def semi_characteristic(b: Sequence[int]) -> int:
    """Sum of the even-degree Betti numbers, mod 2.

    For the cone of a 4n-dimensional model the even degrees run 0..4n, which
    is the full set of even indices of the vector.  The same rule applies to
    other even dimensions; whether the zero-counting interpretation holds
    there is the caller's concern (see census.counting_check).
    """
    return sum(b[0::2]) % 2


"""Finite cochain complexes, mapping cones, and Betti arithmetic.

A ``GradedComplex`` is a finite-dimensional cochain complex over the
rationals, given degreewise by dimensions and differential matrices.  An
``OmegaMap`` is a degree +2 chain map (wedging with a closed 2-form in the
intended models).  ``cone`` glues the two into the mapping cone whose Betti
numbers feed the semi-characteristic.

Bases are declared orthonormal, so adjoints are plain transposes and the
degreewise Laplacian kernels compute cohomology exactly (finite Hodge theory
over an ordered field).
"""

from __future__ import annotations

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
    relation d_{k+1} d_k = 0 is checked on construction.
    """

    __slots__ = ("dims", "d")

    def __init__(self, dims: Sequence[int], d: Sequence[SparseMat]):
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
        for k in range(len(self.d) - 1):
            if not (self.d[k + 1] @ self.d[k]).is_zero():
                raise InvalidComplex(f"d[{k + 1}] d[{k}] != 0")

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
    d_{k+2} L_k = L_{k+1} d_k is checked on construction; for a map given by
    wedging with a 2-form this is exactly closedness of the form.
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
            lhs = source.d_map(k + 2) @ self.maps[k]
            rhs = self.map(k + 1) @ source.d_map(k)
            if lhs != rhs:
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

    Degree k of the cone is degree k of c plus degree k - (2p+1) of c, with
    differential [[d, L^{p+1}], [0, -d]].  The result is a valid complex;
    d^2 = 0 is re-checked by the GradedComplex constructor.
    """
    if w.source is not c and w.source.dims != c.dims:
        raise ChainMapViolation("omega map was built on a different complex")
    if p < 0:
        raise ValueError("p must be >= 0")
    shift = 2 * p + 1
    top2 = c.top + shift
    dims2 = [c.dim(k) + c.dim(k - shift) for k in range(top2 + 1)]
    diffs = []
    for k in range(top2):
        j = k - shift
        blocks = [
            [c.d_map(k), w.power_map(j, p + 1)],
            [SparseMat.zeros(c.dim(j + 1), c.dim(k)), -c.d_map(j)],
        ]
        diffs.append(SparseMat.block(blocks))
    return GradedComplex(dims2, diffs)


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


def harmonic_dimensions(c: GradedComplex, w: OmegaMap, p: int = 0) -> list[int]:
    """Degreewise kernel dimensions of the cone Laplacian dd^T + d^T d.

    Over the rationals these equal the cone Betti numbers (finite Hodge
    theory: an ordered field admits no isotropic vectors).
    """
    cx = cone(c, w, p)
    out = []
    for k in range(cx.top + 1):
        down = cx.d_map(k)
        up = cx.d_map(k - 1)
        lap = down.transpose() @ down + up @ up.transpose()
        out.append(cx.dim(k) - rank(lap))
    return out

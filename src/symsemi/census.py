"""Mod-2 bookkeeping for censuses of vector-field zeros.

A census records the zeros of a vector field (labels plus the sign of the
Jacobian determinant at each zero) or the fact that the field never
vanishes.  ``counting_check`` compares the semi-characteristic with the
number of zeros mod 2; ``euler_cross_check`` compares the signed count with
an Euler characteristic.
"""

from __future__ import annotations

from .errors import InputError
from .record import Record


class MissingSigns(InputError):
    """A signed count was requested but some determinant signs are unknown."""


class OddDimension(InputError):
    """The mod-2 zero count is a statement about even-dimensional models."""


_SIGNS = ("+", "-", "unknown")


class Zero(Record):
    __slots__ = ("label", "det_sign")
    _defaults = {"det_sign": "unknown"}

    def __post_init__(self):
        if self.det_sign not in _SIGNS:
            raise ValueError(f"det_sign must be one of {_SIGNS}")


class ZeroCensus(Record):
    __slots__ = ("source", "nonvanishing", "zeros")  # zeros: tuple of Zero

    def __post_init__(self):
        if self.nonvanishing and self.zeros:
            raise ValueError("a nonvanishing field has no zeros to list")

    def count(self) -> int:
        return 0 if self.nonvanishing else len(self.zeros)


class CountingVerdict(Record):
    # status is "pass", "fail" or "not_applicable"
    __slots__ = ("status", "semi_characteristic", "zero_count",
                 "parity_match", "detail")
    _defaults = {"detail": ""}

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def counting_check(k: int, census: ZeroCensus,
                   manifold_dim: int) -> CountingVerdict:
    """Compare a semi-characteristic with the zero count mod 2.

    In dimensions divisible by 4 the two must agree (pass/fail verdict).
    In dimensions 2 mod 4 the comparison is reported but carries no
    verdict (the counting statement fails there: the 2-torus has k = 1 with
    nonvanishing fields), status "not_applicable".  Odd dimensions raise
    OddDimension.
    """
    if manifold_dim % 2:
        raise OddDimension(f"manifold_dim {manifold_dim} is odd")
    if k not in (0, 1):
        raise ValueError("semi-characteristic must be reduced mod 2")
    count = census.count()
    match = (count % 2) == k
    if manifold_dim % 4 == 2:
        return CountingVerdict(
            "not_applicable", k, count, match,
            f"dimension {manifold_dim} = 2 mod 4: no counting statement "
            f"(k = {k}, zeros mod 2 = {count % 2})")
    status = "pass" if match else "fail"
    detail = "" if match else (
        f"k = {k} but the census lists {count} zeros ({count % 2} mod 2)")
    return CountingVerdict(status, k, count, match, detail)


class EulerVerdict(Record):
    __slots__ = ("passed", "signed_sum", "expected")

    @property
    def detail(self) -> str:
        if self.passed:
            return ""
        return (f"signed zero count {self.signed_sum} != "
                f"Euler characteristic {self.expected}")


def euler_cross_check(census: ZeroCensus, chi: int) -> EulerVerdict:
    """Signed zero count against an Euler characteristic.

    A nonvanishing field contributes 0 and must match chi = 0.  Otherwise
    every zero needs a known determinant sign (MissingSigns if not) and the
    sum of signs must equal chi.
    """
    if census.nonvanishing:
        return EulerVerdict(chi == 0, 0, chi)
    total = 0
    for z in census.zeros:
        if z.det_sign == "unknown":
            raise MissingSigns(f"zero {z.label!r} has unknown det sign")
        total += 1 if z.det_sign == "+" else -1
    return EulerVerdict(total == chi, total, chi)

"""The ``verify`` subcommand, and mod-2 bookkeeping for censuses of
vector-field zeros.

A census records the zeros of a vector field (labels plus the sign of the
Jacobian determinant at each zero) or the fact that the field never
vanishes.  ``counting_check`` compares the semi-characteristic with the
number of zeros mod 2; ``euler_cross_check`` compares the signed count with
an Euler characteristic.  ``load_census`` reads a census file, and
``cmd_verify`` runs all three on a model; only ``verify`` and the suite
import this module.
"""

from __future__ import annotations

import sys
from time import perf_counter

from .errors import InputError
from .matrixio import FormatError, _read_object
from .record import Record
from .report import Report, emit, stable_json


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


def load_census(spec: str) -> ZeroCensus:
    """Census from a JSON file: source, nonvanishing flag, zero list."""
    data = _read_object(spec)
    source = data.get("source", "")
    if not isinstance(source, str):
        raise FormatError(f"{spec}: source must be a string")
    nonvanishing = data.get("nonvanishing", False)
    if not isinstance(nonvanishing, bool):
        raise FormatError(f"{spec}: nonvanishing must be a boolean")
    zeros_json = data.get("zeros", [])
    if not isinstance(zeros_json, list):
        raise FormatError(f"{spec}: zeros must be a list")
    zeros = []
    for i, z in enumerate(zeros_json):
        if not isinstance(z, dict) or not isinstance(z.get("label"), str):
            raise FormatError(f"{spec}: zeros[{i}] needs a string label")
        sign = z.get("det_sign", "unknown")
        if sign not in ("+", "-", "unknown"):
            raise FormatError(
                f"{spec}: zeros[{i}].det_sign must be +, - or unknown")
        zeros.append(Zero(z["label"], sign))
    try:
        return ZeroCensus(source, nonvanishing, tuple(zeros))
    except ValueError as exc:
        raise FormatError(f"{spec}: {exc}") from None


class VerifyReport(Report):
    __slots__ = ("model", "semi_characteristic",
                 "manifold_euler_characteristic", "census", "counting",
                 "euler_cross_check", "warnings", "elapsed")
    kind = "verify"

    @property
    def passed(self) -> bool:
        return (self.counting["status"] != "fail"
                and self.euler_cross_check.get("passed", True))

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        m = self.model
        c = self.census
        zeros = ("nonvanishing field" if c["nonvanishing"]
                 else f"{c['zero_count']} zeros")
        count = self.counting
        lines = [
            f"model                {m['source']} "
            f"({m['kind']}, manifold dim {m['manifold_dim']})",
            f"semi-characteristic  k = {self.semi_characteristic}",
            f"census               {c['source'] or '(unnamed)'}: {zeros}",
            f"counting check       {count['status']}"
            + (f" ({count['detail']})" if count["detail"] else ""),
        ]
        e = self.euler_cross_check
        if "skipped" in e:
            lines.append(f"euler cross-check    skipped: {e['skipped']}")
        else:
            lines.append(
                f"euler cross-check    {'pass' if e['passed'] else 'fail'} "
                f"(signed sum {e['signed_sum']}, "
                f"chi = {e['expected']})")
        lines += [f"warning              {w}" for w in self.warnings]
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    from .complexes import (betti, cone, euler_characteristic,
                            semi_characteristic)
    from .modelio import load_model

    start = perf_counter()
    loaded = load_model(args.model)
    census = load_census(args.census)
    loaded.symplectic_gate()
    cn = cone(loaded.complex, loaded.omega_map)
    k = semi_characteristic(betti(cn))
    # By rank-nullity the alternating sum of the dimensions is that of the
    # Betti numbers, so the model's own ranks are never taken.
    manifold_chi = euler_characteristic(loaded.complex.dims)
    verdict = counting_check(k, census, loaded.manifold_dim)
    warnings = []
    try:
        euler = euler_cross_check(census, manifold_chi)
        euler_dict = {"passed": euler.passed,
                      "signed_sum": euler.signed_sum,
                      "expected": euler.expected,
                      "detail": euler.detail}
    except MissingSigns as exc:
        euler_dict = {"skipped": str(exc)}
    if verdict.status == "not_applicable":
        warnings.append("counting statement not applicable: "
                        + verdict.detail)
    report = VerifyReport(
        model=loaded.identity(),
        semi_characteristic=k,
        manifold_euler_characteristic=manifold_chi,
        census={"source": census.source,
                "nonvanishing": census.nonvanishing,
                "zero_count": census.count(),
                "signs": [z.det_sign for z in census.zeros]},
        counting={"status": verdict.status,
                  "semi_characteristic": verdict.semi_characteristic,
                  "zero_count": verdict.zero_count,
                  "parity_match": verdict.parity_match,
                  "detail": verdict.detail},
        euler_cross_check=euler_dict,
        warnings=tuple(warnings),
        elapsed=perf_counter() - start,
    )
    emit(report, args)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0 if report.passed else 1

"""The ``compute`` and ``verify`` subcommands: cone Betti numbers of a
model, and the mod-2 zero count against a census.

A ``compute`` job on a model file loads this module, ``modelio``, the
CDGA and cone code and ``report``; ``verify`` adds ``census``.  Neither
loads the Clifford or oscillator code.
"""

import sys
from time import perf_counter

from .errors import InputError
from .report import Report, _flag, emit, stable_json


class ComputeReport(Report):
    __slots__ = ("model", "p", "betti", "euler_characteristic",
                 "semi_characteristic", "counting_applicable", "palindromic",
                 "symplectic", "omega", "warnings", "elapsed")
    kind = "compute"

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        m = self.model
        lines = [
            f"model                {m['source']} "
            f"({m['kind']}, manifold dim {m['manifold_dim']})",
            f"cone parameter p     {self.p}",
            "cone Betti numbers",
        ]
        lines += [f"    b_{k}^w = {v}" for k, v in enumerate(self.betti)]
        lines += [
            f"euler characteristic {self.euler_characteristic}",
            f"semi-characteristic  k = {self.semi_characteristic}",
            "counting applies     "
            + (_flag(self.counting_applicable)
               + ("" if self.counting_applicable
                  else " (dimension is 2 mod 4)")),
            f"palindromic Betti    {_flag(self.palindromic)} (observation)",
            "symplectic check     "
            f"closed {_flag(self.symplectic['closed'])}, "
            f"nondegenerate {_flag(self.symplectic['nondegenerate'])}",
        ]
        lines += [f"warning              {w}" for w in self.warnings]
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


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


def _symplectic_dict(verdict) -> dict:
    return {"closed": verdict.closed,
            "nondegenerate": verdict.nondegenerate,
            "degree_ok": verdict.degree_ok,
            "detail": verdict.detail}


def _symplectic_gate(loaded, spec: str, allow_degenerate: bool = False):
    """The model's symplectic verdict; InputError unless it passed or only
    nondegeneracy failed and ``allow_degenerate`` waives that."""
    verdict = loaded.symplectic_verdict()
    if verdict.passed or (allow_degenerate and verdict.closed
                          and verdict.degree_ok):
        return verdict
    extra = f": {verdict.detail}" if verdict.detail else ""
    raise InputError(f"symplectic check failed for {spec}{extra}")


def cmd_compute(args) -> int:
    from .complexes import (betti, cone, euler_characteristic,
                            semi_characteristic)
    from .modelio import load_model

    start = perf_counter()
    if args.p < 0:
        raise InputError("--p must be >= 0")
    loaded = load_model(args.model)
    # omega^(p+1) = 0 once p >= dim/2, so larger p only repeat the model.
    if args.p > loaded.manifold_dim // 2:
        raise InputError(f"--p must be in 0..{loaded.manifold_dim // 2} for "
                         f"a model of dimension {loaded.manifold_dim}")
    verdict = _symplectic_gate(loaded, args.model, args.allow_degenerate)
    warnings = [] if verdict.passed else \
        ["nondegeneracy waived by --allow-degenerate"]
    cn = cone(loaded.complex, loaded.omega_map, p=args.p)
    b = betti(cn)
    chi = euler_characteristic(b)
    k = semi_characteristic(b)
    report = ComputeReport(
        model=loaded.identity(),
        p=args.p,
        betti=tuple(b),
        euler_characteristic=chi,
        semi_characteristic=k,
        counting_applicable=loaded.manifold_dim % 4 == 0,
        palindromic=tuple(b) == tuple(reversed(b)),
        symplectic=_symplectic_dict(verdict),
        omega=loaded.omega_terms(),
        warnings=tuple(warnings),
        elapsed=perf_counter() - start,
    )
    emit(report, args)
    if chi != 0:
        print(f"internal invariant breach: cone Euler characteristic "
              f"{chi} != 0", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    from .census import (MissingSigns, counting_check, euler_cross_check,
                         load_census)
    from .complexes import (betti, cone, euler_characteristic,
                            semi_characteristic)
    from .modelio import load_model

    start = perf_counter()
    loaded = load_model(args.model)
    census = load_census(args.census)
    _symplectic_gate(loaded, args.model)
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

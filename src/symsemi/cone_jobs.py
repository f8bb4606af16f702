"""The ``compute`` subcommand: cone Betti numbers and semi-characteristic
of a model.

A ``compute`` job on a model file loads this module, ``modelio``, the
CDGA and cone code and ``report``: not ``census``, which holds
``verify``, nor the Clifford or oscillator code.
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


def _symplectic_dict(verdict) -> dict:
    return {"closed": verdict.closed,
            "nondegenerate": verdict.nondegenerate,
            "degree_ok": verdict.degree_ok,
            "detail": verdict.detail}


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
    verdict = loaded.symplectic_gate(args.allow_degenerate)
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

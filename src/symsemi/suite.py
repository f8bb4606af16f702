"""The builtin verification suite: ten numbered acceptance criteria.

Each criterion is a self-contained check with a fixed random seed, so the
command-line ``suite`` command and the acceptance tests exercise exactly
the same computations.  Results carry the engine outputs in ``data`` so
callers can layer further cross-checks on top.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from time import perf_counter

from .builders import builtin, random_closed_two_form, random_nilpotent_ce
from .census import Zero, ZeroCensus, counting_check, euler_cross_check
from .clifford import (random_rational_unit_vector, verify_car,
                       verify_complex_structure, verify_volume_omega,
                       verify_volume_star)
from .cliffordlab import (Sector, eta_scaling, kernel_and_parity, model_L,
                          spectrum_scaling)
from .complexes import (betti, cone, euler_characteristic,
                        harmonic_dimensions, semi_characteristic)
from .errors import CheckFailure
from .models import check_symplectic, model_cone_inputs, multiplication_matrix
from .qlinalg import SparseMat, skew_kernel_parity
from .record import Record
from .sectors import random_model_matrix, sector_matrix_D, sector_matrix_L


class CriterionResult(Record):
    __slots__ = ("number", "name", "passed", "detail", "elapsed", "data")

    @property
    def label(self) -> str:
        return f"criterion {self.number:2d} [{self.status}] {self.name}"

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def _builtin_cone(name: str):
    model, w = builtin(name)
    cx, wmap = model_cone_inputs(model, w)
    cn = cone(cx, wmap)
    b = betti(cn)
    return model, cx, wmap, cn, b, semi_characteristic(b)


def _cp2_reproduction():
    model, cx, wmap, cn, b, k = _builtin_cone("cp2")
    want = (1, 0, 0, 0, 0, 1)
    ok = tuple(b) == want and k == 1
    detail = f"cone Betti {tuple(b)}, k = {k}"
    return ok, detail, {"betti": tuple(b), "k": k,
                        "complex": cx, "omega_map": wmap}


def _t2_reproduction():
    model, cx, wmap, cn, b, k = _builtin_cone("t2")
    ok = b[0] == 1 and b[2] == 2 and tuple(b) == (1, 2, 2, 1) and k == 1
    return ok, f"b_0 = {b[0]}, b_2 = {b[2]}, k = {k}", \
        {"betti": tuple(b), "k": k}


def _s2xs2_counting():
    model, cx, wmap, cn, b, k = _builtin_cone("s2xs2")
    census = ZeroCensus("perfect Morse function", False,
                        tuple(Zero(f"p{i}", "+") for i in range(4)))
    verdict = counting_check(k, census, 4)
    chi = euler_cross_check(census, 4)
    ok = k == 0 and verdict.status == "pass" and chi.passed
    detail = (f"k = {k}, counting {verdict.status}, "
              f"signed sum {chi.signed_sum} = chi 4")
    return ok, detail, {"betti": tuple(b), "k": k,
                        "counting": verdict, "euler": chi}


def _kodaira_thurston():
    model, cx, wmap, cn, b, k = _builtin_cone("kodaira_thurston")
    chi = euler_characteristic(b)
    census = ZeroCensus("coordinate vector field", True, ())
    verdict = counting_check(k, census, 4)
    ok = k == 0 and chi == 0 and verdict.status == "pass"
    detail = f"k = {k}, cone chi = {chi}, nonvanishing counting {verdict.status}"
    return ok, detail, {"betti": tuple(b), "k": k, "counting": verdict}


def _dimension_gating():
    model, cx, wmap, cn, b, k = _builtin_cone("t2")
    census = ZeroCensus("four declared zeros", False,
                        tuple(Zero(f"z{i}") for i in range(4)))
    verdict = counting_check(k, census, 2)
    ok = (verdict.status == "not_applicable" and k == 1
          and verdict.zero_count == 4 and not verdict.parity_match
          and "k = 1" in verdict.detail and "0" in verdict.detail)
    return ok, f"status {verdict.status}: {verdict.detail}", \
        {"k": k, "counting": verdict}


def _clifford_identities():
    verdicts = []
    for m in (4, 8):
        verdicts += [verify_car(m), verify_volume_star(m),
                     verify_volume_omega(m)]
    rng = Random(20260823)
    for _ in range(10):
        v = random_rational_unit_vector(4, rng)
        verdicts.append(verify_complex_structure(v))
    ok = all(v.passed and v.max_residual == 0.0 for v in verdicts)
    bad = [v.name for v in verdicts if not v.passed]
    detail = ("CAR + volume lemmas at m = 4, 8; "
              "10 complex-structure checks, all exact"
              if ok else f"failed: {', '.join(bad)}")
    return ok, detail, {"verdicts": verdicts}


def _dirac_squares_to_model(op, cap: int, t) -> bool:
    """D o D = L_hat at coupling t on the degree <= cap sector: the
    composite of the sector Dirac operators never leaves that sector and
    agrees with the model operator there, entry for entry."""
    size = Sector(op.m, cap).size
    comp = sector_matrix_D(op, cap + 1, cap + 2, t) @ sector_matrix_D(
        op, cap, cap + 1, t)
    if any(r >= size for (r, _) in comp.entries):
        return False
    return SparseMat(size, size, comp.entries) == sector_matrix_L(op, cap, t)


def _oscillator_kernel_spectrum():
    rng = Random(73)
    failures = []
    for sign in (1, -1):
        mats = [random_model_matrix(4, rng, sign) for _ in range(25)]
        for trial, a in enumerate(mats + [random_model_matrix(8, Random(1),
                                                              sign)]):
            op = model_L(a)
            verdict = spectrum_scaling(op, cap=2)
            if kernel_and_parity(op) != (sign < 0) or not verdict.passed:
                failures.append((sign, trial))
            # The scaling check holds by construction of the sector parts,
            # so one matrix per sign also tests the operator itself, at a
            # coupling other than 1 so that misplaced factors of T show.
            if trial == 0 and not _dirac_squares_to_model(op, 2, Fraction(10)):
                failures.append((sign, "D o D != L"))
    ok = not failures
    detail = ("50 random 4x4 A and one 8x8 A per sign: kernel dim 1, "
              "parity = sign(det), spectrum/T free of T; "
              "D o D = L at T = 10 for one 4x4 A per sign"
              if ok else f"failures at {failures}")
    return ok, detail, {"failures": failures}


def _eta_scaling_law():
    identity = SparseMat.identity(4)
    base = eta_scaling(model_L(identity, "exact"))
    ok = base.passed and base.c1_squared == Fraction(1, 8)
    rng = Random(8128)
    diag_checks = []
    for _ in range(10):
        entries = {}
        for j in range(4):
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            den = rng.choice([1, 2])
            entries[(j, j)] = Fraction(num, den)
        a = SparseMat(4, 4, entries)
        verdict = eta_scaling(model_L(a, "exact"))
        diag_checks.append(verdict)
        ok = ok and verdict.passed
    detail = (f"A = I: C1^2 = {base.c1_squared} exactly; "
              "10 random diagonal A: source orthogonal to the ground "
              "state, C1^2 in closed form")
    if not ok:
        detail = "eta check failed or C1^2 != 1/8"
    return ok, detail, {"identity": base, "diagonal": diag_checks}


def _randomized_properties():
    rng = Random(424242)
    failures = []
    for trial in range(100):
        n = rng.randint(2, 5)
        model = random_nilpotent_ce(n, rng)
        w = random_closed_two_form(model, rng)
        cx = model.complex()
        wmap = multiplication_matrix(model, w)
        cn = cone(cx, wmap)          # validates the cone differential
        b = betti(cn)
        if euler_characteristic(b) != 0:
            failures.append(("chi", trial))
        if harmonic_dimensions(cx, wmap) != list(b):
            failures.append(("harmonic", trial))
    for trial in range(100):
        size = rng.randint(1, 12)
        raw = {(i, j): Fraction(rng.randint(-5, 5))
               for i in range(size) for j in range(size)}
        mat = SparseMat(size, size, raw)
        skew = mat - mat.transpose()
        if skew_kernel_parity(skew)[1] != size % 2:
            failures.append(("parity", trial))
    ok = not failures
    detail = ("100 random nilpotent models: cone closed, chi = 0, "
              "harmonic = Betti; 100 skew parities = size mod 2"
              if ok else f"failures: {failures[:5]}")
    return ok, detail, {"failures": failures}


def _form_independence():
    model, w1 = builtin("t4")
    w2 = model.form([(1, ["e1", "e4"]), (1, ["e2", "e3"])])
    v1 = check_symplectic(model, w1)
    v2 = check_symplectic(model, w2)
    ks = []
    for w in (w1, w2):
        cx, wmap = model_cone_inputs(model, w)
        ks.append(semi_characteristic(betti(cone(cx, wmap))))
    ok = (w1 != w2 and v1.passed and v2.passed and ks[0] == ks[1])
    detail = f"k = {ks[0]} for both forms" if ok else \
        f"k values {ks}, verdicts {v1.passed}, {v2.passed}"
    return ok, detail, {"ks": ks}


CRITERIA = (
    (1, "cp2-reproduction", _cp2_reproduction),
    (2, "t2-reproduction", _t2_reproduction),
    (3, "s2xs2-counting", _s2xs2_counting),
    (4, "kodaira-thurston", _kodaira_thurston),
    (5, "dimension-gating", _dimension_gating),
    (6, "clifford-identities", _clifford_identities),
    (7, "oscillator-kernel-spectrum", _oscillator_kernel_spectrum),
    (8, "eta-scaling", _eta_scaling_law),
    (9, "randomized-properties", _randomized_properties),
    (10, "form-independence", _form_independence),
)


def criteria_names() -> list[str]:
    return [f"{num:2d}  {name}" for num, name, _ in CRITERIA]


def _timed(num: int, name: str, func) -> CriterionResult:
    """Run one criterion; a failed assertion inside it fails the criterion
    instead of ending the run."""
    start = perf_counter()
    try:
        ok, detail, data = func()
    except CheckFailure as exc:
        ok, detail, data = False, f"assertion failure: {exc}", {}
    return CriterionResult(num, name, ok, detail, perf_counter() - start,
                           data)


def run_criterion(number: int) -> CriterionResult:
    for num, name, func in CRITERIA:
        if num == number:
            return _timed(num, name, func)
    raise ValueError(f"no criterion number {number}")


def run_all(emit=None) -> list[CriterionResult]:
    results = []
    for criterion in CRITERIA:
        result = _timed(*criterion)
        results.append(result)
        if emit is not None:
            emit(f"{result.label}  ({result.elapsed:.2f} s)  "
                 f"{result.detail}")
    return results


def cmd_suite(args) -> int:
    """The ``suite`` subcommand: run every criterion, or list them."""
    if args.list:
        for line in criteria_names():
            print(line)
        return 0
    results = run_all(emit=print)
    failed = [r for r in results if not r.passed]
    total = sum(r.elapsed for r in results)
    print(f"suite: {len(results) - len(failed)}/{len(results)} criteria "
          f"passed in {total:.1f} s")
    return 1 if failed else 0

"""Seeded inputs, job lists and output checks for the three workloads.

``generate(workload, seed, root)`` writes every input file of a workload
into ``root`` and returns the jobs that read them.  Each job is one
``symsemi`` command line, run with ``root`` as its working directory and
relative file names, so that the paths echoed in the JSON reports (and
therefore their digests) do not depend on where ``root`` lives.

The same seed gives byte-identical files: all randomness comes from one
``random.Random(seed)`` fed to symsemi's own random generators, and every
file is written with sorted keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from symsemi.cliffordlab import random_rational_orthogonal
from symsemi.modelio import element_terms, format_rational
from symsemi.models import (check_symplectic, random_closed_two_form,
                            random_nilpotent_ce)
from symsemi.qlinalg import SparseMat, det

# Subcommands whose ``--help`` start-up makes up each workload's setup_s.
SUBCOMMANDS = {"cone": ("compute", "verify"),
               "oscillator": ("oscillator",),
               "clifford": ("clifford",)}

# Generators of the cone models: n = 6 gives a dimension 2 mod 4 model,
# where verify must answer "not_applicable"; the n = 8 models carry the
# rank work, so they are most of the pass.  Their cost varies by about 11%
# from model to model; with four of them the pass (about 10 s) varies by a
# few percent from seed to seed, and the median job falls inside the group
# of p = 1 jobs instead of at the edge between two groups.
CONE_SIZES = (6, 8, 8, 8, 8)
CONE_SIZES_QUICK = (6,)
NONVANISHING = "nonvanishing.json"

# (degree cap, det sign) per oscillator job.  Exact mode covers caps 2-5 with
# both signs; float mode stops at cap 4, where one job already takes about
# 2 s in the eigen-solve.
OSC_EXACT = tuple((cap, sign) for cap in (2, 3, 4, 5) for sign in (1, -1))
OSC_FLOAT_CAPS = (2, 3, 4)

# ``clifford --n 3`` runs only star and omega: car (about 21 s) and
# complex-structure (about 35 s) would dominate the pass, and star/omega
# exercise the same 4096 x 4096 operators.
CLIFFORD_JOBS = (("1", "exact", "all"), ("2", "exact", "all"),
                 ("2", "float", "all"), ("3", "float", "star"),
                 ("3", "float", "omega"))

Check = Callable[[dict], str]


def whole(report: dict) -> dict:
    return report


def without_lapack(report: dict) -> dict:
    """An exact oscillator report less the spectrum table and gap, which
    come from numpy's eigen-solver even in exact mode."""
    spectrum = {k: v for k, v in report["spectrum"].items()
                if k not in ("table", "gap")}
    return {**report, "spectrum": spectrum}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its JSON report must pass.

    ``check`` returns an empty string when the report is right, else the
    reason it is wrong.  ``pinned`` picks the part of the report that exact
    arithmetic alone decides, whose digest may be compared with a recorded
    one on any machine; None when floats run through all of it.
    """

    name: str
    argv: tuple[str, ...]
    check: Check
    pinned: Callable[[dict], dict] | None = whole


def generate(workload: str, seed: int, root: Path,
             quick: bool = False) -> list[Job]:
    """Write the inputs of ``workload`` for ``seed`` into ``root``."""
    rng = Random(seed)
    if workload == "cone":
        return _cone_jobs(rng, root, CONE_SIZES_QUICK if quick else CONE_SIZES)
    if workload == "oscillator":
        return _oscillator_jobs(rng, root, quick)
    if workload == "clifford":
        return _clifford_jobs(rng, quick)
    raise ValueError(f"unknown workload {workload!r}")


# -- cone ----------------------------------------------------------------


def symplectic_nilpotent_model(n: int, rng: Random):
    """Random nilpotent CE model with a closed nondegenerate 2-form.

    Draws until ``check_symplectic`` passes; the draw count depends only on
    the rng state, so a seed always yields the same model.
    """
    while True:
        model = random_nilpotent_ce(n, rng)
        w = random_closed_two_form(model, rng)
        if check_symplectic(model, w).passed:
            return model, w


def cdga_json(model, w) -> dict:
    """The CDGA-file form of a model and its 2-form (see modelio)."""
    differential = {}
    for g in model.generators:
        dg = model.d(model.gen(g.name))
        if not dg.is_zero():
            differential[g.name] = element_terms(dg)
    return {"kind": "cdga", "manifold_dim": model.manifold_dim,
            "generators": [{"name": g.name, "degree": g.degree}
                           for g in model.generators],
            "differential": differential, "omega": element_terms(w)}


def _check_compute(report: dict) -> str:
    b = report.get("betti", [])
    chi = sum(v if k % 2 == 0 else -v for k, v in enumerate(b))
    if report.get("report") != "compute" or not b:
        return "not a compute report"
    if chi != 0 or report["euler_characteristic"] != 0:
        return f"cone Euler characteristic {chi} != 0"
    if report["semi_characteristic"] != sum(b[0::2]) % 2:
        return "semi-characteristic is not the even Betti sum mod 2"
    if not all(report["symplectic"][k] for k in
               ("closed", "nondegenerate", "degree_ok")):
        return "symplectic check did not pass"
    return ""


def _verify_check(manifold_dim: int) -> Check:
    want = "pass" if manifold_dim % 4 == 0 else "not_applicable"

    def check(report: dict) -> str:
        status = report.get("counting", {}).get("status")
        if report.get("report") != "verify" or status != want:
            return f"counting status {status!r}, expected {want!r}"
        return ""
    return check


def _cone_jobs(rng: Random, root: Path, sizes) -> list[Job]:
    (root / NONVANISHING).write_text(json.dumps(
        {"nonvanishing": True,
         "source": "left-invariant vector field, nowhere zero"},
        sort_keys=True) + "\n")
    jobs = []
    for i, n in enumerate(sizes):
        model, w = symplectic_nilpotent_model(n, rng)
        name = f"nil{n}_{i}"
        (root / f"{name}.json").write_text(
            json.dumps(cdga_json(model, w), sort_keys=True) + "\n")
        for p in (0, 1, 2):
            jobs.append(Job(f"{name}.compute.p{p}",
                            ("compute", f"{name}.json", "--p", str(p),
                             "--format", "json"), _check_compute))
        jobs.append(Job(f"{name}.verify",
                        ("verify", f"{name}.json", "--census", NONVANISHING,
                         "--format", "json"), _verify_check(n)))
    return jobs


# -- oscillator -----------------------------------------------------------


def _flip_first_row(a: SparseMat) -> SparseMat:
    return SparseMat(a.rows, a.cols,
                     {(r, c): -v if r == 0 else v
                      for (r, c), v in a.entries.items()})


def exact_oscillator_matrix(rng: Random, sign: int) -> SparseMat:
    """A = Q D with Q rational orthogonal and D positive diagonal.

    A^t A = D^2 is diagonal with rational square root D, so the exact path
    applies.  Negating a row of Q flips det A without touching A^t A.
    """
    q = random_rational_orthogonal(4, rng)
    d = SparseMat(4, 4, {(i, i): Fraction(rng.randint(1, 6),
                                          rng.randint(1, 3))
                         for i in range(4)})
    a = q @ d
    return a if sign > 0 else _flip_first_row(a)


def float_oscillator_matrix(rng: Random, sign: int) -> SparseMat:
    """General invertible A (A^t A not diagonal), diagonally dominant so the
    float spectrum comparison is well conditioned."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(4)] for _ in range(4)]
        for i in range(4):
            rows[i][i] += 4
        a = SparseMat.from_rows(rows)
        gram = a.transpose() @ a
        if any(r != c for (r, c) in gram.entries) and det(a) > 0:
            return a if sign > 0 else _flip_first_row(a)


def _matrix_text(a: SparseMat) -> str:
    return "".join(" ".join(format_rational(v) for v in row) + "\n"
                   for row in a.to_rows())


def _oscillator_check(sign: int, mode: str) -> Check:
    def check(report: dict) -> str:
        if report.get("report") != "oscillator":
            return "not an oscillator report"
        matrix = report["matrix"]
        want_parity = "even" if sign > 0 else "odd"
        if report["kernel_dimension"] != 1:
            return f"kernel dimension {report['kernel_dimension']} != 1"
        if matrix["det_sign"] != ("+" if sign > 0 else "-"):
            return f"det sign {matrix['det_sign']} != generated {sign:+d}"
        if report["parity"] != want_parity or not report["parity_matches_det"]:
            return f"parity {report['parity']}, expected {want_parity}"
        if matrix["mode"] != mode or not report["passed"]:
            return "oscillator checks did not pass in the requested mode"
        return ""
    return check


def _oscillator_jobs(rng: Random, root: Path, quick: bool) -> list[Job]:
    exact = OSC_EXACT[:1] if quick else OSC_EXACT
    signs = [1, -1, rng.choice((1, -1))]
    rng.shuffle(signs)
    floats = [] if quick else list(zip(OSC_FLOAT_CAPS, signs))
    jobs = []
    for mode, specs in (("exact", exact), ("float", floats)):
        for cap, sign in specs:
            name = f"{mode}_cap{cap}_{'pos' if sign > 0 else 'neg'}"
            build = (exact_oscillator_matrix if mode == "exact"
                     else float_oscillator_matrix)
            (root / f"{name}.txt").write_text(_matrix_text(build(rng, sign)))
            argv = ("oscillator", "--matrix", f"{name}.txt",
                    "--degree-cap", str(cap), "--format", "json")
            if mode == "float":
                argv += ("--mode", "float")
            jobs.append(Job(name, argv, _oscillator_check(sign, mode),
                            without_lapack if mode == "exact" else None))
    return jobs


# -- clifford --------------------------------------------------------------


def _clifford_check(n: int, mode: str) -> Check:
    def check(report: dict) -> str:
        if report.get("report") != "clifford" or report["n"] != n \
                or report["mode"] != mode:
            return "not the requested clifford report"
        failed = [i["name"] for i in report["identities"] if not i["passed"]]
        if failed or not report["identities"] or not report["passed"]:
            return f"identities failed: {failed}"
        return ""
    return check


def _clifford_jobs(rng: Random, quick: bool) -> list[Job]:
    specs = list(CLIFFORD_JOBS[:1] if quick else CLIFFORD_JOBS)
    rng.shuffle(specs)
    return [Job(f"n{n}_{mode}_{checks}",
                ("clifford", "--n", n, "--mode", mode, "--checks", checks,
                 "--format", "json"),
                _clifford_check(int(n), mode))
            for n, mode, checks in specs]

"""symsemi benchmark: the real CLI on seeded inputs, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload cone --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``cone``, ``oscillator``, ``clifford``;
``--workload all`` runs the three in turn and prints each one's figures.

``--trace 0`` is the timed run.  One client drives ``python -m symsemi.cli``
in a closed loop: the next job is spawned only after the previous one has
exited, so no two jobs share the two CPUs.  It makes as many passes over the
workload's jobs as best fill ``--seconds``, judged by the first pass, and
reports

* ``wall_s``: median seconds of one pass over all jobs,
* ``job_s_p50``: median seconds from spawn to exit over every job run,
* ``setup_s``: median seconds of ``symsemi <subcommand> --help`` (interpreter
  start, package import and parser build, no work),
* ``peak_rss_mb``: the largest child max-RSS of the run,

and prints the failure ratio next to them.  Times are reported at a fixed
reference speed of the machine (see REFERENCE below); the raw ones are
printed too.

``--trace 1`` is the traced run.  It calls ``symsemi.cli.main`` in process on
the same inputs, each job untraced and traced in turn, and reports the
per-layer metrics of spans.py.  Spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Metric names and units are those of ``BENCHMARK.json``.

Every job's JSON report is checked (exit code, the workload's invariants),
and its SHA-256 must be the same in every pass.  With the default seed the
digest of the part of each report that exact arithmetic decides must also
match ``bench/digests.json``.  The result file
``.bench_out/result-<workload>-seed<seed>-trace<0|1>.json`` lists those
digests under ``digests``; a change that means to alter reports copies them
into ``bench/digests.json``.  Every child runs with one BLAS/OpenMP thread.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--quick`` runs one pass of a few small jobs, as a self-check of the
harness.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
OUT_DIR = ".bench_out"
DEFAULT_SEED = 0
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TIMES = {name for name, unit in {**END_TO_END, **PER_LAYER}.items()
         if unit == "s"}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
REPS = 7                # timed interpreter starts per cli.import_s variant
PROBE_SPACING_S = 0.75  # job seconds between probes (setup or reference)
JOB_TIMEOUT_S = 120

# On a shared host the machine's speed drifts by a third or more within
# minutes, alike for every process: on a 2-vCPU 2.1 GHz Xeon, ten runs of a
# workload in a row spread by up to 30% (IQR over median).  Every time
# metric is therefore reported at a fixed reference speed: multiplied by
# REFERENCE_S over the run's median time of REFERENCE, fixed work of the
# kind the jobs do (interpreter start, imports, a dict of Fractions) that
# does not touch symsemi, so that no change to symsemi can move it.  The
# reference runs between the jobs, so it sees the same drift.  REFERENCE_S
# only fixes the scale: about the reference's time on that Xeon when idle,
# with Python 3.11.  Raw figures and the slowdown are printed and kept in
# the result file.
REFERENCE = [sys.executable, "-c",
             "import argparse, json, numpy\n"
             "from fractions import Fraction\n"
             "entries = {(i, i * 7 % 97): Fraction(i, 7)\n"
             "           for i in range(50000)}\n"
             "total = sum(v for (i, j), v in entries.items() if j < 50)\n"]
REFERENCE_S = 0.25


@dataclass
class Outcome:
    """What one job run returned: its time, exit code and report."""

    seconds: float
    rc: int
    report: bytes
    stderr_tail: str = ""
    rss_mb: float = 0.0


def pinned_digest(view: dict) -> str:
    """SHA-256 of a report part, in symsemi's own JSON layout."""
    text = json.dumps(view, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Checks reports; remembers each job's digests across passes."""

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.seen: dict[str, str] = {}      # SHA-256 of the whole report
        self.pinned: dict[str, str] = {}    # pinned_digest of job.pinned
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, job, outcome: Outcome) -> None:
        self.attempted += 1
        error = self._problem(job, outcome)
        if error:
            self.failures.append(f"{job.name}: {error}")

    def _problem(self, job, outcome: Outcome) -> str:
        if outcome.rc != 0:
            return f"exit code {outcome.rc} ({outcome.stderr_tail})"
        try:
            report = json.loads(outcome.report)
        except ValueError:
            return "report is not JSON"
        problem = job.check(report)
        if problem:
            return problem
        digest = hashlib.sha256(outcome.report).hexdigest()
        if self.seen.setdefault(job.name, digest) != digest:
            return "report differs from an earlier pass"
        if job.pinned is None:
            return ""
        pinned = self.pinned[job.name] = pinned_digest(job.pinned(report))
        if (self.recorded is not None
                and self.recorded.get(job.name) != pinned):
            return "report digest differs from bench/digests.json"
        return ""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    env.pop("SYMSEMI_MODE", None)
    return env


def spawn(cmd: list[str], cwd: Path, env: dict) -> Outcome:
    """Run one child to completion; time it from spawn to exit."""
    with open(cwd / ".stdout", "w+b") as out, \
            open(cwd / ".stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        report, errors = out.read(), err.read()
    lines = errors.decode(errors="replace").strip().splitlines()
    return Outcome(seconds, proc.returncode, report,
                   lines[-1] if lines else "", usage.ru_maxrss / 1024.0)


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "symsemi.cli", *argv]


def probe(cmd: list[str], cwd: Path, env: dict) -> float:
    """Seconds of a command that must succeed."""
    outcome = spawn(cmd, cwd, env)
    if outcome.rc != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {outcome.rc}: "
                           f"{outcome.stderr_tail}")
    return outcome.seconds


def pass_count(first_pass: float, seconds: float) -> int:
    """Passes that fill the window best, judged by the first pass."""
    return max(1, round(seconds / first_pass))


# -- the timed run ---------------------------------------------------------


def at_reference_speed(raw: dict[str, float], reference_times: list[float],
                       key: str = "slowdown") -> dict[str, float]:
    """Scale every time to the reference speed; keep the raw ones, and the
    slowdown under ``key``, too."""
    slowdown = statistics.median(reference_times) / REFERENCE_S
    out = {k: v / slowdown if k in TIMES else v for k, v in raw.items()}
    out.update({f"raw.{k}": v for k, v in raw.items() if k in TIMES})
    out[key] = slowdown
    return out


def timed_run(workload: str, jobs, tmp: Path, root: Path, seconds: float,
              verifier: Verifier) -> dict[str, float]:
    """Passes over ``jobs`` as subprocesses, filling about ``seconds``.

    Whenever PROBE_SPACING_S of job time has passed, one probe runs, in
    turn a ``--help`` start-up (setup_s) or the reference work, so that
    both sample the whole window.  A pass's wall time leaves them out.
    """
    from workloads import SUBCOMMANDS
    env = child_env(root)
    probes = []                       # (command, is a setup probe)
    for sub in SUBCOMMANDS[workload]:
        probes += [(cli_cmd([sub, "--help"]), True), (REFERENCE, False)]
    for cmd, _ in probes:             # fill the file cache and __pycache__
        probe(cmd, tmp, env)
    setup_times, reference_times = [], []
    walls, job_times, peak = [], [], 0.0
    passes, since_probe = 1, PROBE_SPACING_S
    while len(walls) < passes:
        t0 = perf_counter()
        probing = 0.0
        for job in jobs:
            outcome = spawn(cli_cmd(job.argv), tmp, env)
            verifier.check(job, outcome)
            job_times.append(outcome.seconds)
            peak = max(peak, outcome.rss_mb)
            since_probe += outcome.seconds
            if since_probe >= PROBE_SPACING_S:
                since_probe = 0.0
                cmd, setup = probes[
                    (len(setup_times) + len(reference_times)) % len(probes)]
                took = probe(cmd, tmp, env)
                (setup_times if setup else reference_times).append(took)
                probing += took
        walls.append(perf_counter() - t0 - probing)
        if len(walls) == 1:
            passes = pass_count(perf_counter() - t0, seconds)
    if not reference_times:           # a one-job run probes setup only
        reference_times.append(probe(REFERENCE, tmp, env))
    return {**at_reference_speed({"wall_s": statistics.median(walls),
                                  "job_s_p50": statistics.median(job_times),
                                  "setup_s": statistics.median(setup_times)},
                                 reference_times),
            "peak_rss_mb": peak,
            "passes": len(walls),
            "job_runs": len(job_times),
            "probes": len(setup_times) + len(reference_times)}


# -- the traced run --------------------------------------------------------


def cli_layer(tmp: Path, env: dict, reps: int) -> dict[str, float]:
    """cli.import_s and cli.numpy_loaded from fresh interpreters, scaled by
    the reference times taken between them."""
    bare = [sys.executable, "-c", "pass"]
    full = [sys.executable, "-c", "import symsemi.cli"]
    probe(full, tmp, env)             # fill the file cache and __pycache__
    runs = [[probe(cmd, tmp, env) for cmd in (bare, full, REFERENCE)]
            for _ in range(reps)]
    numpy = subprocess.run(
        [sys.executable, "-c",
         "import sys, symsemi.cli; print(int('numpy' in sys.modules))"],
        cwd=tmp, env=env, capture_output=True, text=True, check=True)
    return at_reference_speed(
        {"cli.import_s": statistics.median(r[1] for r in runs)
         - statistics.median(r[0] for r in runs),
         "cli.numpy_loaded": float(numpy.stdout.strip())},
        [r[2] for r in runs], key="slowdown.cli")


def in_process(job) -> Outcome:
    import symsemi.cli
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = symsemi.cli.main(list(job.argv))
    return Outcome(perf_counter() - start, rc, out.getvalue().encode())


def traced_run(jobs, tmp: Path, root: Path, seconds: float, reps: int,
               verifier: Verifier, spans_path: Path) -> dict[str, float]:
    """In-process rounds over ``jobs``, as many as best fill ``seconds``;
    returns the per-layer metrics.

    In a round every job runs twice back to back, untraced and traced, in
    an order that alternates from job to job, so that drift in the
    machine's speed cancels out of trace.overhead_s: the median over rounds
    of the traced runs' time minus the untraced runs'.  Reference probes
    are spread over the rounds as in timed_run, so the slowdown that scales
    the layer times is sampled while they run.
    """
    env = child_env(root)
    cli = cli_layer(tmp, env, reps)
    per_pass, overheads, reference_times = [], [], []
    tracer = spans.Tracer()
    here = Path.cwd()
    os.chdir(tmp)
    try:
        verifier.check(jobs[0], in_process(jobs[0]))     # first-call costs
        rounds, since_probe = 1, PROBE_SPACING_S
        while len(overheads) < rounds:
            t_round = perf_counter()
            first, overhead = len(tracer.spans), 0.0
            for i, job in enumerate(jobs):
                for traced in ((False, True) if (i + len(overheads)) % 2 == 0
                               else (True, False)):
                    if traced:
                        tracer.job = f"{len(overheads)}/{job.name}"
                        with spans.instrumented(tracer), \
                                tracer.span(spans.ROOT_SPAN):
                            outcome = in_process(job)
                    else:
                        outcome = in_process(job)
                    verifier.check(job, outcome)
                    overhead += outcome.seconds if traced \
                        else -outcome.seconds
                    since_probe += outcome.seconds
                if since_probe >= PROBE_SPACING_S:
                    since_probe = 0.0
                    reference_times.append(probe(REFERENCE, tmp, env))
            overheads.append(overhead)
            per_pass.append(spans.pass_metrics(tracer.spans[first:]))
            if len(overheads) == 1:
                rounds = pass_count(perf_counter() - t_round, seconds)
    finally:
        os.chdir(here)
    tracer.write_jsonl(spans_path)
    layer = spans.median_metrics(per_pass)
    layer["trace.overhead_s"] = statistics.median(overheads)
    layer = {k: v for k, v in layer.items() if k in PER_LAYER}
    return {**cli, **at_reference_speed(layer, reference_times),
            "rounds": len(overheads)}


# -- command line ----------------------------------------------------------


def git_sha(root: Path) -> str:
    """HEAD of the checkout; "unknown" if it is not a git repository (git
    would otherwise report a repository that encloses it)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(root: Path, args, workload: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"git_sha": git_sha(root), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
            "workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of a few small jobs (self-check)")
    return parser.parse_args(argv)


def run_workload(workload: str, args, root: Path) -> dict:
    """Generate, run and check one workload; print its figures and return
    its result object."""
    from workloads import generate
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    check_digests = args.seed == DEFAULT_SEED and not args.quick
    verifier = Verifier(digests.get(workload, {}) if check_digests else None)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        jobs = generate(workload, args.seed, tmp, quick=args.quick)
        seconds, reps = (0.0, 1) if args.quick else (args.seconds, REPS)
        stem = f"{workload}-seed{args.seed}"
        if args.trace:
            metrics = traced_run(jobs, tmp, root, seconds, reps, verifier,
                                 out_dir / f"spans-{stem}.jsonl")
            units = PER_LAYER
        else:
            metrics = timed_run(workload, jobs, tmp, root, seconds, verifier)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = provenance(root, args, workload)
    failed = len(verifier.failures)
    for line in verifier.failures[:20]:
        print(f"FAIL {line}")
    print(f"provenance {json.dumps(info, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{name:<42} {metrics[name]:.6g} {unit}")
    print(f"{'fail_ratio':<42} {failed}/{verifier.attempted} = "
          f"{failed / verifier.attempted:.3g}")
    extra = {k: v for k, v in metrics.items() if k not in units}
    print(f"detail {json.dumps(extra, sort_keys=True)}")
    result = {"correct": failed == 0, "attempted": verifier.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (out_dir / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info, "detail": extra,
                    "digests": verifier.pinned},
                   indent=2, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    # On SIGTERM unwind normally, so that a running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "symsemi" / "cli.py").is_file():
        print("error: run from the root of a symsemi checkout "
              "(src/symsemi/cli.py not found)", file=sys.stderr)
        return 2
    # Pin the threads before numpy can load, and import symsemi (through
    # workloads) only from this checkout's sources.
    os.environ.update(THREAD_ENV)
    os.environ.pop("SYMSEMI_MODE", None)
    sys.path.insert(0, str(root / "src"))
    import symsemi
    if Path(symsemi.__file__).resolve().parent != root / "src" / "symsemi":
        print(f"error: symsemi imported from {symsemi.__file__}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, root),
                         sort_keys=True))
        return 0
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        results[workload] = run_workload(workload, args, root)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-checks of the benchmark harness: python3 -m pytest bench -q

They run the harness in ``--quick`` mode (one pass of a few small jobs) and
check the pieces that a silent mistake would corrupt: seeded inputs, the
output checker and span self times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--quick",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.END_TO_END if trace == "0" else run.PER_LAYER
    assert sorted(result["metrics"]) == sorted(names)
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] > 0.5


def test_all_runs_every_workload():
    proc = _bench("--workload", "all", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(
        f"{w}.{name}" for w in run.WORKLOADS for name in run.END_TO_END)
    assert proc.stdout.count("fail_ratio") == len(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cone", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def files(seed, where):
        where.mkdir()
        jobs = workloads.generate(workload, seed, where)
        return ({p.name: p.read_bytes() for p in where.iterdir()},
                [j.argv for j in jobs])

    first = files(5, tmp_path / "a")
    assert files(5, tmp_path / "b") == first
    if workload != "clifford":      # clifford jobs have no input files
        assert files(6, tmp_path / "c")[0] != first[0]


def test_verifier_counts_wrong_and_unstable_reports():
    job = workloads.Job("j", ("clifford",),
                        lambda r: "" if r["ok"] else "not ok")
    good = run.Outcome(0.1, 0, b'{"ok": true}')
    pinned = run.Verifier({"j": "0" * 64})
    pinned.check(job, good)
    assert pinned.failures == [
        "j: report digest differs from bench/digests.json"]
    spectrum = {"passed": True, "table": [[1.0, 2]], "gap": 1.0}
    exact = workloads.Job("e", ("oscillator",), lambda r: "",
                          workloads.without_lapack)
    recorded = run.pinned_digest({"spectrum": {"passed": True}})
    lapack_free = run.Verifier({"e": recorded})
    lapack_free.check(exact, run.Outcome(
        0.1, 0, json.dumps({"spectrum": spectrum}).encode()))
    assert lapack_free.failures == []
    assert lapack_free.pinned == {"e": recorded}
    verifier = run.Verifier(None)
    for outcome in (good, good, run.Outcome(0.1, 0, b'{"ok": true} '),
                    run.Outcome(0.1, 0, b'{"ok": false}'),
                    run.Outcome(0.1, 1, b"", "boom")):
        verifier.check(job, outcome)
    assert verifier.attempted == 5
    assert verifier.failures == ["j: report differs from an earlier pass",
                                 "j: not ok", "j: exit code 1 (boom)"]


def test_self_time_and_coverage():
    tracer = spans.Tracer()
    with tracer.span(spans.ROOT_SPAN):
        with tracer.span("qlinalg.rank") as rank:
            rank["sizes"] = {"rows": 2, "cols": 3, "nnz": 4, "rank": 1}
    root, inner = tracer.spans
    root.update(start=0.0, end=10.0)
    inner.update(start=1.0, end=9.0)
    own = spans.self_times(tracer.spans)
    assert own == {0: pytest.approx(2.0), 1: pytest.approx(8.0)}
    metrics = spans.pass_metrics(tracer.spans)
    assert metrics["qlinalg.rank_s"] == pytest.approx(8.0)
    assert metrics["trace.coverage"] == pytest.approx(0.8)
    assert metrics["qlinalg.rank_max_cols"] == 3

"""Layer spans for the traced run, and the per-layer metrics drawn from them.

The traced run calls ``symsemi.cli.main`` in process.  While
``instrumented`` is active, the public function of each layer named in
``LAYER_SPANS`` is replaced, in every loaded ``symsemi`` module that refers
to it, by a wrapper that records a span around the call.  Nothing under
``src/`` changes, and the timed runs never install the wrappers.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (seconds on the
``perf_counter`` clock), ``parent`` (the enclosing span's id, None for the
job's root span) and ``job``; some carry ``sizes``.  Spans stay in memory
and are written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "job": self.job, "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _rank_sizes(args, result) -> dict:
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "nnz": m.nnz(), "rank": result}


def _op_dim(args, result) -> dict:
    return {"op_dim": 1 << args[0]}


def _unit_op_dim(args, result) -> dict:
    return {"op_dim": 1 << len(args[0])}


def _sector_size(args, result) -> dict:
    return {"size": args[0].size}


# (module, attribute or Class.method, span name, sizes from (args, result)).
# A metric ``<span name>_s`` is the self time of the spans of that name.
LAYER_SPANS = (
    ("symsemi.modelio", "load_model", "modelio.load", None),
    ("symsemi.modelio", "load_census", "modelio.load", None),
    ("symsemi.modelio", "load_matrix_rows", "modelio.load", None),
    ("symsemi.models", "CDGAModel.__init__", "models.build", None),
    ("symsemi.models", "CDGAModel.complex", "models.build", None),
    ("symsemi.models", "multiplication_matrix", "models.omega", None),
    ("symsemi.models", "check_symplectic", "models.symplectic", None),
    ("symsemi.complexes", "cone", "complexes.cone", None),
    ("symsemi.qlinalg", "rank", "qlinalg.rank", _rank_sizes),
    ("symsemi.census", "counting_check", "census.check", None),
    ("symsemi.census", "euler_cross_check", "census.check", None),
    ("symsemi.report", "ComputeReport.to_json", "report.to_json", None),
    ("symsemi.report", "VerifyReport.to_json", "report.to_json", None),
    ("symsemi.report", "CliffordReport.to_json", "report.to_json", None),
    ("symsemi.report", "OscillatorReport.to_json", "report.to_json", None),
    ("symsemi.cliffordlab", "verify_car", "cliffordlab.verify_car", _op_dim),
    ("symsemi.cliffordlab", "verify_volume_star", "cliffordlab.verify_star",
     _op_dim),
    ("symsemi.cliffordlab", "verify_volume_omega", "cliffordlab.verify_omega",
     _op_dim),
    ("symsemi.cliffordlab", "verify_complex_structure",
     "cliffordlab.verify_complex_structure", _unit_op_dim),
    ("symsemi.cliffordlab", "model_L", "cliffordlab.model_L", None),
    ("symsemi.cliffordlab", "kernel_and_parity",
     "cliffordlab.kernel_and_parity", None),
    ("symsemi.cliffordlab", "spectrum_scaling",
     "cliffordlab.spectrum_scaling", None),
    ("symsemi.cliffordlab", "eta_scaling", "cliffordlab.eta_scaling", None),
    ("symsemi.cliffordlab", "Sector.__init__", "cliffordlab.sector",
     _sector_size),
)

# What each per-layer metric of BENCHMARK.json should move, end to end.
MOVES = {
    "cli.import_s": "setup_s on every workload; job_s_p50 most on cone",
    "cli.numpy_loaded": "setup_s on every workload; job_s_p50 most on cone",
    "modelio.load_s": "cone wall_s, slightly",
    "models.build_s": "cone wall_s and job_s_p50; not clifford",
    "models.omega_s": "cone wall_s and job_s_p50; not clifford",
    "models.symplectic_s": "cone wall_s and job_s_p50; not clifford",
    "complexes.cone_s": "cone wall_s",
    "qlinalg.rank_s": "cone wall_s and job_s_p50; not clifford",
    "qlinalg.rank_calls": "cone wall_s; not clifford",
    "qlinalg.rank_nnz": "cone wall_s; not clifford",
    "qlinalg.rank_max_cols": "cone wall_s; not clifford",
    "cliffordlab.verify_car_s": "clifford wall_s; not cone",
    "cliffordlab.verify_star_s": "clifford wall_s; not cone",
    "cliffordlab.verify_omega_s": "clifford wall_s; not cone",
    "cliffordlab.verify_complex_structure_s": "clifford wall_s; not cone",
    "cliffordlab.op_dim_max": "clifford wall_s; not cone",
    "cliffordlab.model_L_s":
        "oscillator wall_s and peak_rss_mb; not cone or clifford",
    "cliffordlab.kernel_and_parity_s":
        "oscillator wall_s and peak_rss_mb; not cone or clifford",
    "cliffordlab.spectrum_scaling_s":
        "oscillator wall_s and peak_rss_mb; not cone or clifford",
    "cliffordlab.eta_scaling_s":
        "oscillator wall_s and peak_rss_mb; not cone or clifford",
    "cliffordlab.sector_dim_max":
        "oscillator wall_s and peak_rss_mb; not cone or clifford",
    "census.check_s": "cone wall_s, barely",
    "report.to_json_s": "wall_s of every workload, barely",
    "trace.coverage": "nothing: share of in-process time inside spans",
    "trace.overhead_s": "nothing: traced minus untraced pass, per round",
}


def _wrap(tracer: Tracer, name: str, fn, sizes):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if sizes is not None:
                record["sizes"] = sizes(args, result)
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every function of LAYER_SPANS for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "symsemi" or n.startswith("symsemi.")]
    undo = []
    try:
        for module, attr, name, sizes in LAYER_SPANS:
            owner = sys.modules[module]
            cls, _, method = attr.rpartition(".")
            if cls:
                klass = getattr(owner, cls)
                original = klass.__dict__[method]
                setattr(klass, method, _wrap(tracer, name, original, sizes))
                undo.append((klass, method, original))
                continue
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, name, original, sizes)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = (children.get(s["parent"], 0.0)
                                     + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - children.get(s["id"], 0.0)
            for s in spans}


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass (all but the cli ones)."""
    own = self_times(spans)
    out = {f"{name}_s": 0.0 for _, _, name, _ in LAYER_SPANS}
    for s in spans:
        if s["name"] != ROOT_SPAN:
            out[s["name"] + "_s"] += own[s["id"]]
    ranks = [s["sizes"] for s in spans if s["name"] == "qlinalg.rank"]
    out["qlinalg.rank_calls"] = len(ranks)
    out["qlinalg.rank_nnz"] = sum(r["nnz"] for r in ranks)
    out["qlinalg.rank_max_cols"] = max((r["cols"] for r in ranks), default=0)
    out["cliffordlab.op_dim_max"] = max(
        (s["sizes"]["op_dim"] for s in spans
         if s["name"].startswith("cliffordlab.verify_")), default=0)
    out["cliffordlab.sector_dim_max"] = max(
        (s["sizes"]["size"] for s in spans
         if s["name"] == "cliffordlab.sector"), default=0)
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    total = sum(s["end"] - s["start"] for s in roots)
    out["trace.coverage"] = 1.0 - sum(own[s["id"]] for s in roots) / total
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]}

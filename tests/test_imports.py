"""What each subcommand imports and compiles, and the two error families
behind the exit codes.

Start-up is part of every job's cost, so a subcommand loads only the
modules it runs: ``--help`` loads no engine module, ``compute`` and
``verify`` never load the Clifford/oscillator code or the suite,
neither ``clifford`` nor ``oscillator`` loads the CDGA and cone code, and
``clifford`` loads the exterior algebra and its checks alone, with no
matrix code.  No subcommand loads numpy: the oscillator takes its singular
values from a pure-Python eigen-solve of the m x m A^t A in float mode,
and from exact arithmetic in exact mode.  No subcommand loads
``dataclasses`` (reports and verdicts are ``symsemi.record`` records),
``inspect``, which numpy used to bring in, or ``argparse``, ``gettext``
and ``locale``: the front door parses argv from its own table.  Each case
runs in a fresh interpreter and reads ``sys.modules`` after the command.
The tables that resolve other modules' names on first access hold exactly
the names that the benchmark reads through them, and nothing else reads
through one.
"""
from __future__ import annotations

import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from symsemi import (census, cli, clifford, cliffordlab, complexes, exterior,
                     modelio, models, report, sectors, suite)
from symsemi.errors import CheckFailure, InputError

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
ENGINE = {"symsemi.qlinalg", "symsemi.complexes", "symsemi.models",
          "symsemi.builders", "symsemi.census", "symsemi.cliffordlab",
          "symsemi.exterior", "symsemi.clifford", "symsemi.jacobi",
          "symsemi.sectors", "symsemi.matrixio", "symsemi.modelio",
          "symsemi.record", "symsemi.report", "symsemi.cone_jobs",
          "symsemi.oscillator_job", "symsemi.suite"}
# Standard modules a job must not pay for: dataclasses builds code for each
# class it decorates, inspect brings ast, dis and tokenize with it, and
# argparse brings gettext, which brings locale.
HEAVY = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


def loaded_after(*argv: str) -> set[str]:
    """symsemi modules (and numpy and the HEAVY modules) loaded by one
    ``main(argv)`` call in a fresh interpreter."""
    script = f"""
import contextlib, io, json, sys
from symsemi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({list(argv)!r})
print(json.dumps([code, sorted(
    m for m in sys.modules
    if m in {sorted(HEAVY | {"numpy"})!r} or m.startswith("symsemi"))]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    assert code == 0
    return set(modules)


def source_lines(modules: set[str]) -> int:
    """Lines of source of the symsemi modules among ``modules``."""
    src = ROOT / "src"
    return sum(len((src / name.replace(".", "/") / "__init__.py"
                    if name == "symsemi" else
                    src / (name.replace(".", "/") + ".py"))
                   .read_text().splitlines())
               for name in modules if name.startswith("symsemi"))


KT_FILE = str(SAMPLES / "kodaira_thurston_cdga.json")
OSCILLATOR_EXACT = ("oscillator", "--matrix",
                    str(SAMPLES / "matrix_diag_1234.txt"))


@pytest.mark.parametrize("argv", [
    ("compute", KT_FILE, "--p", "1"),
    ("compute", "builtin:kodaira_thurston", "--p", "1"),
    ("verify", "builtin:s2xs2", "--census",
     str(SAMPLES / "census_s2xs2_morse.json")),
])
def test_cone_jobs_load_no_clifford_suite_or_numpy(argv):
    modules = loaded_after(*argv)
    assert "symsemi.models" in modules and "symsemi.complexes" in modules
    assert not modules & ({"symsemi.cliffordlab", "symsemi.exterior",
                           "symsemi.clifford", "symsemi.sectors",
                           "symsemi.suite", "symsemi.oscillator_job",
                           "numpy"} | HEAVY)


def test_compute_on_a_file_loads_no_builders():
    assert "symsemi.builders" not in loaded_after("compute", KT_FILE)


@pytest.mark.parametrize("argv", [
    ("compute", KT_FILE, "--p", "1"),
    ("verify", KT_FILE, "--census",
     str(SAMPLES / "census_kt_nonvanishing.json")),
    ("clifford", "--n", "1"),
    OSCILLATOR_EXACT,
])
def test_a_job_loads_no_other_subcommands_handler(argv):
    # compute loads no census, verify no cone_jobs: each handler, with its
    # report, lives in a module that only its subcommand (or suite) loads.
    others = {f"symsemi.{spec[0]}" for name, spec in cli.COMMANDS.items()
              if name != argv[0]}
    assert not loaded_after(*argv) & others


def test_clifford_loads_no_cdga_or_cone_code():
    modules = loaded_after("clifford", "--n", "1")
    assert "symsemi.exterior" in modules
    assert not modules & ({"symsemi.models", "symsemi.complexes",
                           "symsemi.modelio", "symsemi.matrixio",
                           "symsemi.suite", "symsemi.cliffordlab",
                           "symsemi.qlinalg", "symsemi.cone_jobs", "numpy"}
                          | HEAVY)


@pytest.mark.parametrize("argv", [("clifford", "--n", "1"),
                                  ("clifford", "--n", "2", "--checks", "all",
                                   "--format", "json")])
def test_clifford_loads_exactly_the_exterior_algebra(argv):
    # The Clifford checks need no matrix or oscillator code.
    assert loaded_after(*argv) == {
        "symsemi", "symsemi.cli", "symsemi.errors", "symsemi.record",
        "symsemi.report", "symsemi.exterior", "symsemi.clifford"}


@pytest.mark.parametrize("sample", ["matrix_diag_1234.txt",
                                    "matrix_rotated_4.txt"])
def test_exact_oscillator_loads_no_numpy_or_cdga_code(sample):
    modules = loaded_after("oscillator", "--matrix", str(SAMPLES / sample),
                           "--degree-cap", "3")
    assert "symsemi.cliffordlab" in modules and "symsemi.matrixio" in modules
    # Nor the model and census loaders, the float eigen-solve, the sector
    # matrices or the Clifford checks.
    assert not modules & ({"symsemi.models", "symsemi.complexes",
                           "symsemi.modelio", "symsemi.census",
                           "symsemi.jacobi", "symsemi.sectors",
                           "symsemi.clifford", "symsemi.suite", "numpy"}
                          | HEAVY)


@pytest.mark.parametrize("argv", [
    ("oscillator", "--matrix", str(SAMPLES / "matrix_diag_1234.txt"),
     "--mode", "float", "--degree-cap", "2"),
    ("suite",),
])
def test_float_oscillator_and_suite_load_no_numpy_or_inspect(argv):
    modules = loaded_after(*argv)
    assert "symsemi.cliffordlab" in modules and "symsemi.jacobi" in modules
    assert not modules & ({"numpy"} | HEAVY)


@pytest.mark.parametrize("sub", [None, "compute", "verify", "clifford",
                                 "oscillator", "suite"])
def test_help_loads_no_engine_module(sub):
    modules = loaded_after(*(sub, "--help") if sub else ("--help",))
    assert "symsemi.cli" in modules
    assert not modules & (ENGINE | {"numpy"} | HEAVY)


# Named cases, so that a lower budget keeps the test's id.
@pytest.mark.parametrize("argv, budget", [
    pytest.param(("compute", "--help"), 243, id="help"),
    pytest.param(("clifford", "--n", "1"), 784, id="clifford"),
    pytest.param(("compute", KT_FILE, "--p", "1"), 1910, id="compute"),
    pytest.param(OSCILLATOR_EXACT, 1665, id="oscillator"),
    pytest.param(("verify", KT_FILE, "--census",
                  str(SAMPLES / "census_kt_nonvanishing.json")), 2050,
                 id="verify"),
])
def test_each_job_compiles_within_its_line_budget(argv, budget):
    """Every child compiles the symsemi modules it imports, at about
    7.5 us per source line; the lines a job leaves in sys.modules are what
    it compiled.  Before the front door dropped argparse and the engine
    was split by job, these totals were 412 (--help), 991 (clifford),
    2,504 (compute on a file) and 2,601 (an exact oscillator job); the
    bit-parallel exterior kernel took clifford from 788 to 787 and left
    the oscillator's 1,764 no higher.  Applying L2 instead of assembling
    it, and moving ``harmonic_dimensions`` to the suite, took compute to
    2,126 and the oscillator to 1,737.  Computing d through the d matrices,
    with no product of forms, and writing the cone's blocks from their
    integer rows, with no ``SparseMat.block``, took them to 2,055 and
    1,698.  Storing each matrix only as integer numerators over one
    denominator took compute to 2,010, verify on a model file to 2,148
    and the oscillator to 1,671.  Moving verify's handler and report to
    ``census``, and cutting the tables of moved names to what the
    benchmark reads, took --help to 243, clifford to 784, compute to
    1,910, the oscillator to 1,665 and verify to 2,050."""
    assert source_lines(loaded_after(*argv)) <= budget


def test_the_bench_harness_imports_at_most_2905_lines():
    """The benchmark harness imports bench/workloads.py, and with it these
    symsemi modules.  Their lines raise the harness's max RSS, which each
    child's peak_rss_mb inherits: 76 more lines once moved it by 0.25 MB."""
    script = ("import json, sys; import workloads; print(json.dumps(sorted("
              "m for m in sys.modules if m.startswith('symsemi'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "bench"), str(ROOT / "src")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert source_lines(set(json.loads(done.stdout))) <= 2905


# The names each compatibility table resolves on first access: modelio's
# ``__getattr__`` serves ``load_census`` alone.
TABLES = {"symsemi.cliffordlab": set(cliffordlab._MOVED),
          "symsemi.models": set(models._BUILDERS),
          "symsemi.report": set(report._REPORTS),
          "symsemi.modelio": {"load_census"}}


def _source(module: str) -> Path:
    return ROOT / "src" / (module.replace(".", "/") + ".py")


@functools.lru_cache(maxsize=None)
def _defined(module: str) -> frozenset[str]:
    """The names ``module``'s source binds at its top level: what it serves
    without a table."""
    tree = ast.parse(_source(module).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return frozenset(names)


def _bench_reads() -> dict[str, set[str]]:
    """The names bench/*.py reads on each symsemi module: those of its
    ``from symsemi.X import`` lines and the layer spans' targets."""
    reads: dict[str, set[str]] = {}
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("symsemi.")):
                reads.setdefault(node.module, set()).update(
                    a.name for a in node.names)
            elif (isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "LAYER_SPANS"):
                for span in node.value.elts:
                    module, attr = (c.value for c in span.elts[:2])
                    reads.setdefault(module, set()).add(attr.split(".")[0])
    return reads


def test_each_table_holds_exactly_what_the_bench_reads_through_it():
    through = {module: names - _defined(module)
               for module, names in _bench_reads().items()}
    assert {m: names for m, names in through.items() if names} == TABLES
    for module, names in TABLES.items():
        for name in names:
            assert getattr(sys.modules[module], name) is not None


def test_nothing_but_the_bench_reads_through_a_table():
    """src/, tests/, README and CI take each name from a module that binds
    it at its top level, never through a table."""
    found = []
    for path in [*(ROOT / "src" / "symsemi").glob("*.py"),
                 *(ROOT / "tests").glob("*.py")]:
        tree = ast.parse(path.read_text())
        alias = {}       # local name -> the symsemi module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = ("symsemi" + ("." + node.module if node.module
                                       else "")
                          if node.level else node.module or "")
                alias.update((a.asname or a.name, f"{module}.{a.name}")
                             for a in node.names)
                if _source(module).is_file():
                    found += [f"{path.name}: {module}.{a.name}"
                              for a in node.names
                              if a.name not in _defined(module)]
            elif isinstance(node, ast.Import):
                alias.update((a.asname, a.name) for a in node.names
                             if a.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                module = alias.get(node.value.id, "")
                if (module.startswith("symsemi.")
                        and _source(module).is_file()
                        and node.attr not in _defined(module)):
                    found.append(f"{path.name}: {module}.{node.attr}")
    for path in (ROOT / "README.md", ROOT / ".github/workflows/tests.yml"):
        for module, names in re.findall(
                r"from (symsemi\.\w+) import ([\w, ]+)", path.read_text()):
            found += [f"{path.name}: {module}.{name}"
                      for name in re.findall(r"\w+", names)
                      if name not in _defined(module)]
    assert found == []


def test_every_public_name_resolves():
    script = """
import json, sys
import symsemi
bare = sorted(m for m in sys.modules if m.startswith("symsemi."))
missing = [n for n in symsemi.__all__ if getattr(symsemi, n, None) is None]
namespace = {}
exec("from symsemi import *", namespace)
print(json.dumps([bare, missing, sorted(set(symsemi.__all__) - set(namespace)),
                  hasattr(symsemi, "no_such_name")]))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bare, missing, unstarred, bogus = json.loads(done.stdout)
    assert bare == []                   # importing the package loads nothing
    assert missing == [] and unstarred == [] and not bogus


def test_cliffordlab_re_exports_the_identity_checks():
    # The benchmark's layer spans wrap the checks under the cliffordlab
    # name; that reaches the clifford command only if both names are one
    # object, as the package's lazy export is.
    import symsemi
    for name in ("verify_car", "verify_volume_star", "verify_volume_omega",
                 "verify_complex_structure"):
        assert getattr(cliffordlab, name) is getattr(clifford, name)
        assert getattr(symsemi, name) is getattr(clifford, name)


def test_exit_codes_follow_the_two_error_families():
    assert cli._USAGE_ERRORS == (InputError, OSError)
    for cls in (modelio.FormatError, models.UnknownName, models.NotClosed,
                models.JacobiViolation, models.ShapeMismatch,
                complexes.InvalidComplex, complexes.ChainMapViolation,
                exterior.BadDimension, cliffordlab.Singular,
                cliffordlab.NoRationalRoot, clifford.NotUnit,
                sectors.TruncationTooSmall, suite.NotSkewSymmetric,
                census.OddDimension, census.MissingSigns):
        assert issubclass(cls, InputError), cls
    assert issubclass(models.UnknownName, KeyError)
    assert issubclass(cliffordlab.UnexpectedKernel, CheckFailure)
    assert not issubclass(cliffordlab.UnexpectedKernel, InputError)


def _cdga(gens, differential, omega, manifold_dim=4):
    return {"kind": "cdga", "manifold_dim": manifold_dim,
            "generators": [{"name": n, "degree": d} for n, d in gens],
            "differential": differential, "omega": omega}


_E = [(f"e{i}", 1) for i in range(1, 5)]
_FILES = {
    "unknown_name.json": _cdga(_E, {}, [["1", ["e1", "zz"]]]),
    "not_closed.json": _cdga(_E, {"e4": [["-1", ["e2", "e3"]]]},
                             [["1", ["e1", "e4"]]]),
    "jacobi.json": _cdga(_E, {"e4": [["-1", ["e2", "e3"]]],
                              "e3": [["-1", ["e1", "e4"]]]},
                         [["1", ["e1", "e2"]]]),
    "shape.json": _cdga([("x", 1), ("y", 1), ("z", 1)],
                        {"z": [["1", ["x"]]]}, [["1", ["x", "y"]]], 3),
    "invalid_complex.json": {"kind": "matrix", "manifold_dim": 2,
                             "dims": [1, 1, 1], "d": [[["1"]], [["1"]]],
                             "omega": [[["1"]]]},
    "chain_map.json": {"kind": "matrix", "manifold_dim": 3,
                       "dims": [1, 1, 0, 1], "d": [[["1"]], [], [[]]],
                       "omega": [[], [["1"]]]},
    "odd_dim.json": {"kind": "matrix", "manifold_dim": 3,
                     "dims": [1, 0, 1, 0], "d": [[], [[]], []],
                     "omega": [[["1"]], []]},
    "two.txt": "1 0\n0 1\n",
    "singular.txt": "0 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
    "shear.txt": "1 1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
    "long_token.txt": "x" * 200_000 + "\n",
    "long_coefficient.json": _cdga(_E, {}, [["1" * 100_000, ["e1", "e2"]],
                                           ["1", ["e3", "e4"]]]),
    "huge_dim.json": _cdga([("x", 2)], {}, [["1", ["x"]]], 10 ** 8),
    # d a lies far above manifold_dim, where d(d a) is decided.
    "huge_dd.json": _cdga([("a", 10 ** 9), ("b", 10 ** 9 + 1)],
                          {"a": [["1", ["b"]]]}, [], 4),
    # d g = x1 ... x11 in degree 110: within the degrees that d(d g)
    # reaches, each x_i takes up to 10 factors, not 1.
    "deep_dd.json": _cdga([(f"x{i}", 10) for i in range(1, 12)]
                          + [("g", 109)],
                          {"g": [["1", [f"x{i}" for i in range(1, 12)]]]},
                          [], 10),
    "huge_dims.json": {"kind": "matrix", "dims": [10 ** 9],
                       "manifold_dim": 0, "d": [], "omega": []},
    "many_dims.json": {"kind": "matrix", "dims": [0] * 4097,
                       "manifold_dim": 4096, "d": [], "omega": []},
    "eye16.txt": "".join(" ".join("1" if i == j else "0" for j in range(16))
                         + "\n" for i in range(16)),
}
_KT_CENSUS = str(SAMPLES / "census_kt_nonvanishing.json")


def _case(error, argv, message):
    return pytest.param(argv, message, id=error)


@pytest.mark.parametrize("argv, message", [
    _case("FormatError", ["compute", "builtin:nosuch"],
          "unknown builtin 'nosuch'; choose from cp2, s2xs2, t2, t4, "
          "kodaira_thurston"),
    _case("OSError", ["verify", "builtin:t4", "--census", "no_census.json"],
          "[Errno 2] No such file or directory: 'no_census.json'"),
    _case("UnknownName", ["compute", "unknown_name.json"],
          "unknown generator 'zz'"),
    _case("NotClosed", ["compute", "not_closed.json"],
          "d w = (1)*e1^e2^e3 != 0"),
    _case("JacobiViolation", ["compute", "jacobi.json"],
          "d(d e3) = (-1)*e1^e2^e3 != 0"),
    _case("ShapeMismatch", ["compute", "shape.json"],
          "d z has degree 1, expected 2"),
    _case("InvalidComplex", ["compute", "invalid_complex.json"],
          "d[1] d[0] != 0"),
    _case("ChainMapViolation", ["compute", "chain_map.json"],
          "d L != L d at degree 0 (is the 2-form closed?)"),
    _case("OddDimension", ["verify", "odd_dim.json", "--census", _KT_CENSUS],
          "manifold_dim 3 is odd"),
    _case("BadDimension", ["oscillator", "--matrix", "two.txt"],
          "A is 2x2; the model needs a multiple of 4"),
    _case("Singular", ["oscillator", "--matrix", "singular.txt"],
          "det A = 0"),
    _case("NoRationalRoot", ["oscillator", "--matrix", "shear.txt"],
          "exact mode needs rational singular values of A and found them "
          "on 2 of 4 dimensions; use float mode"),
    _case("InputError-option", ["compute", "builtin:t4", "--p", "-1"],
          "--p must be >= 0"),
    _case("InputError-limit", ["clifford", "--n", "4"],
          "dimension 4n = 16 exceeds the Clifford limit 12"),
    _case("BadDimension-limit",
          ["oscillator", "--matrix", "eye16.txt", "--mode", "float"],
          "dimension 16 exceeds the limit 12"),
    # A long token is echoed as its first 40 characters and its length.
    _case("FormatError-long-token", ["oscillator", "--matrix",
                                     "long_token.txt"],
          "long_token.txt:1: bad rational '" + "x" * 40 + "'… (200000 "
          "characters): want \"p\" or \"p/q\" with q > 0"),
    _case("FormatError-long-coefficient", ["compute", "long_coefficient.json"],
          "long_coefficient.json: omega term 0: bad rational '" + "1" * 40
          + "'… (100000 characters): too many digits"),
    _case("InputError-budget-dim", ["compute", "huge_dim.json"],
          "over the budget of 4096 basis monomials and degrees: 1 "
          "generators in dimension 100000000"),
    _case("InputError-budget-dd-degree", ["compute", "huge_dd.json"],
          "over the budget of 4096 basis monomials and degrees: 2 "
          "generators in dimension 4"),
    _case("InputError-budget-dd-basis", ["compute", "deep_dd.json"],
          "over the budget of 4096 basis monomials and degrees: 12 "
          "generators in dimension 10"),
    _case("InputError-budget-basis",
          ["compute", str(SAMPLES / "torus16_cdga.json")],
          "over the budget of 4096 basis monomials and degrees: 16 "
          "generators in dimension 16"),
    _case("InputError-budget-matrix-sum", ["compute", "huge_dims.json"],
          "matrix model: over the budget of 4096 basis elements and "
          "degrees: dimension 1000000000 in 1 degrees"),
    _case("InputError-budget-matrix-length", ["compute", "many_dims.json"],
          "matrix model: over the budget of 4096 basis elements and "
          "degrees: dimension 0 in 4097 degrees"),
])
def test_input_errors_exit_two_with_their_message(argv, message, tmp_path,
                                                  monkeypatch, capsys):
    for name, content in _FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"

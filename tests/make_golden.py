"""Write the golden report corpus: every report the CLI makes from the
committed inputs, pinned by digest.

Usage, from anywhere:

    python tests/make_golden.py [OUT]

It runs ``symsemi.cli.main`` in process, from the repository root, on each
command line of ``runs()`` and writes OUT (default ``tests/golden.json``): a
JSON object mapping each command line to its exit code and the sha256 of
its stdout and stderr, with the ``elapsed`` time of text reports masked.
``tests/test_golden.py`` compares every entry.  A change that means to
alter reports re-runs this script and lists the entries that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
_ELAPSED = re.compile(r"^(elapsed +)[0-9.]+ s$", re.MULTILINE)

BUILTINS = ("cp2", "s2xs2", "t2", "t4", "kodaira_thurston")
# (model file, manifold dimension) of the model samples.
MODEL_SAMPLES = (("s2_matrix.json", 2), ("s2_matrix_degenerate.json", 2),
                 ("kodaira_thurston_cdga.json", 4), ("nil10_cdga.json", 10),
                 ("t4_alt_form_cdga.json", 4), ("torus16_cdga.json", 16))
MATRIX_SAMPLES = ("matrix_diag_1234", "matrix_diag_8", "matrix_random_8",
                  "matrix_random_12", "matrix_rational_svd_4",
                  "matrix_rotated_4", "matrix_shear_4")
# The degree cap CI runs each matrix sample at, besides the default 2.
CI_CAPS = {"matrix_diag_1234": 4, "matrix_rotated_4": 4,
           "matrix_rational_svd_4": 3}
# Inputs whose runs take a tenth of a second or more: they run in JSON only.
# test_golden.py shows that a text report and a JSON report of one run come
# from the same record, so the text run would pin nothing more.
LARGE = ("samples/nil10_cdga.json", "samples/matrix_diag_8.txt",
         "samples/matrix_random_8.txt", "samples/matrix_random_12.txt",
         "--n 3")
# (model, census): each census with its own model and with a wrong one.
VERIFY = (("samples/kodaira_thurston_cdga.json",
           "census_kt_nonvanishing.json"),
          ("builtin:s2xs2", "census_s2xs2_morse.json"),
          ("builtin:t2", "census_t2_four_zeros.json"),
          ("builtin:cp2", "census_kt_nonvanishing.json"),
          ("builtin:t4", "census_s2xs2_morse.json"),
          ("builtin:kodaira_thurston", "census_t2_four_zeros.json"),
          ("samples/nil10_cdga.json", "census_kt_nonvanishing.json"))
USAGE_ERRORS = (
    (), ("conjure",), ("compute",), ("compute", "builtin:t4", "extra"),
    ("compute", "builtin:t4", "--p"), ("compute", "builtin:t4", "--p", "x"),
    ("compute", "builtin:t4", "--p", "-1"),
    ("compute", "builtin:t4", "--format", "xml"),
    ("compute", "builtin:t4", "--bogus"), ("verify", "builtin:t4"),
    ("clifford", "--n", "0"), ("clifford", "--n", "4"),
    ("clifford", "--checks", "car,bogus"), ("clifford", "--mode", "quantum"),
    ("oscillator",), ("oscillator", "--matrix", "samples/no_such.txt"),
    ("oscillator", "--matrix", "samples/matrix_diag_1234.txt", "--T", "2"),
    ("oscillator", "--matrix", "samples/matrix_diag_1234.txt",
     "--degree-cap", "1"),
    ("suite", "--list", "extra"),
)


def _formats(source: str) -> tuple[str, ...]:
    return ("json",) if source in LARGE else ("json", "text")


def runs() -> list[tuple[str, ...]]:
    """Every command line of the corpus."""
    out = []
    models = [(f"builtin:{name}", 2 if name == "t2" else 4)
              for name in BUILTINS]
    models += [(f"samples/{name}", dim) for name, dim in MODEL_SAMPLES]
    for model, dim in models:
        for p in range(dim // 2 + 2):
            for fmt in _formats(model):
                out.append(("compute", model, "--p", str(p), "--format", fmt))
            out.append(("compute", model, "--p", str(p), "--allow-degenerate",
                        "--format", "json"))
    for model, census in VERIFY:
        for fmt in _formats(model):
            out.append(("verify", model, "--census", f"samples/{census}",
                        "--format", fmt))
    for name in MATRIX_SAMPLES:
        for cap in sorted({2, CI_CAPS.get(name, 2)}):
            for mode in ("exact", "float"):
                for fmt in _formats(f"samples/{name}.txt"):
                    out.append(("oscillator", "--matrix",
                                f"samples/{name}.txt", "--degree-cap",
                                str(cap), "--mode", mode, "--format", fmt))
    for n in ("1", "2", "3"):
        for fmt in _formats(f"--n {n}"):
            out.append(("clifford", "--n", n, "--format", fmt))
    out += USAGE_ERRORS
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(_ELAPSED.sub(r"\1* s", text).encode()).hexdigest()


def run_one(argv) -> dict:
    """Exit code and masked digests of one in-process run, made from the
    repository root."""
    from symsemi.cli import main

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(here)
    return {"exit": code, "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue())}


def corpus() -> dict:
    return {" ".join(argv): run_one(argv) for argv in runs()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    target = Path(args[0]) if args else GOLDEN
    target.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

"""The golden report corpus (``tests/golden.json``, written by
``tests/make_golden.py``): every report the CLI makes from the committed
inputs, and its usage errors, byte for byte apart from ``elapsed``."""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import make_golden
# Each report class lives beside its subcommand's handler: importing the
# handlers' modules defines every subclass of report.Report.
from symsemi import (census, clifford, cone_jobs,  # noqa: F401
                     oscillator_job, report)
from symsemi.cli import main


def test_every_run_matches_the_golden_corpus():
    golden = json.loads(make_golden.GOLDEN.read_text())
    runs = [" ".join(argv) for argv in make_golden.runs()]
    assert sorted(runs) == sorted(golden)
    changed = [line for line, argv in zip(runs, make_golden.runs())
               if make_golden.run_one(argv) != golden[line]]
    assert changed == []


def test_text_and_json_come_from_one_record(monkeypatch):
    # make_golden runs its largest inputs in JSON only: the text report of
    # a run is the same record's to_text.
    made = []
    for cls in report.Report.__subclasses__():
        def to_text(self, original=cls.to_text):
            made.append(self)
            return original(self)
        monkeypatch.setattr(cls, "to_text", to_text)
    monkeypatch.chdir(make_golden.ROOT)
    for argv in (["compute", "builtin:kodaira_thurston", "--p", "1"],
                 ["verify", "builtin:s2xs2", "--census",
                  "samples/census_s2xs2_morse.json"],
                 ["oscillator", "--matrix", "samples/matrix_diag_1234.txt"],
                 ["clifford", "--n", "1"]):
        text, payload = io.StringIO(), io.StringIO()
        with redirect_stdout(text):
            main(argv)
        with redirect_stdout(payload):
            main(argv + ["--format", "json"])
        assert text.getvalue() == made[-1].to_text()
        assert payload.getvalue() == made[-1].to_json()

"""Reports emitted by the command-line front end: their base and output.

Each report serializes two ways: ``to_json`` yields a deterministic JSON
document (sorted keys, no timing field, so identical inputs give
byte-identical bytes in exact mode), ``to_text`` yields a human-readable
table that additionally carries the elapsed time.  A report's fields are
named after its JSON keys: the document is ``{"report": kind}`` plus every
field except ``elapsed``, leaving out fields that are None.  Each report
class lives beside its subcommand's handler, which alone compiles it:
``_REPORTS`` names that module, and resolves the four classes here on
first access for the benchmark's layer spans.
"""

from __future__ import annotations

import json
import sys

from .record import Record


def stable_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(report, args) -> None:
    """Write ``report`` in ``args.format`` to ``args.out``, or to stdout."""
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write(text)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


class Report(Record):
    """Base of the four reports; ``kind`` names the report in its JSON.

    Each subclass defines its own one-line ``to_json`` instead of inheriting
    one, because the traced bench run wraps ``klass.__dict__["to_json"]``.
    """
    __slots__ = ()
    kind = ""

    def to_payload(self) -> dict:
        payload = {"report": self.kind}
        for name in self.__slots__:
            value = getattr(self, name)
            if name != "elapsed" and value is not None:
                payload[name] = value
        return payload


_REPORTS = {"ComputeReport": "cone_jobs", "VerifyReport": "census",
            "CliffordReport": "clifford", "OscillatorReport": "oscillator_job"}


def __getattr__(name: str):
    if name not in _REPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_REPORTS[name]}", __package__), name)
    globals()[name] = value
    return value

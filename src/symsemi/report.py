"""Report objects emitted by the command-line front end.

Each report serializes two ways: ``to_json`` yields a deterministic JSON
document (sorted keys, no timing field, so identical inputs give
byte-identical bytes in exact mode), ``to_text`` yields a human-readable
table that additionally carries the elapsed time.  A report's fields are
named after its JSON keys: the document is ``{"report": kind}`` plus every
field except ``elapsed``, leaving out fields that are None.
"""

from __future__ import annotations

import json

from .record import Record


def stable_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def spectrum_table(values) -> list[tuple[float, int]]:
    """Distinct spectrum values (rounded) with multiplicities, ascending."""
    counts: dict[float, int] = {}
    for v in values:
        key = round(float(v), 9) + 0.0   # collapse -0.0
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


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


class ComputeReport(Report):
    __slots__ = ("model", "p", "betti", "euler_characteristic",
                 "semi_characteristic", "counting_applicable", "palindromic",
                 "symplectic", "omega", "warnings", "elapsed")
    kind = "compute"

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        m = self.model
        lines = [
            f"model                {m['source']} "
            f"({m['kind']}, manifold dim {m['manifold_dim']})",
            f"cone parameter p     {self.p}",
            "cone Betti numbers",
        ]
        lines += [f"    b_{k}^w = {v}" for k, v in enumerate(self.betti)]
        lines += [
            f"euler characteristic {self.euler_characteristic}",
            f"semi-characteristic  k = {self.semi_characteristic}",
            "counting applies     "
            + (_flag(self.counting_applicable)
               + ("" if self.counting_applicable
                  else " (dimension is 2 mod 4)")),
            f"palindromic Betti    {_flag(self.palindromic)} (observation)",
            "symplectic check     "
            f"closed {_flag(self.symplectic['closed'])}, "
            f"nondegenerate {_flag(self.symplectic['nondegenerate'])}",
        ]
        lines += [f"warning              {w}" for w in self.warnings]
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


class VerifyReport(Report):
    __slots__ = ("model", "semi_characteristic",
                 "manifold_euler_characteristic", "census", "counting",
                 "euler_cross_check", "warnings", "elapsed")
    kind = "verify"

    @property
    def passed(self) -> bool:
        return (self.counting["status"] != "fail"
                and self.euler_cross_check.get("passed", True))

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        m = self.model
        c = self.census
        zeros = ("nonvanishing field" if c["nonvanishing"]
                 else f"{c['zero_count']} zeros")
        count = self.counting
        lines = [
            f"model                {m['source']} "
            f"({m['kind']}, manifold dim {m['manifold_dim']})",
            f"semi-characteristic  k = {self.semi_characteristic}",
            f"census               {c['source'] or '(unnamed)'}: {zeros}",
            f"counting check       {count['status']}"
            + (f" ({count['detail']})" if count["detail"] else ""),
        ]
        e = self.euler_cross_check
        if "skipped" in e:
            lines.append(f"euler cross-check    skipped: {e['skipped']}")
        else:
            lines.append(
                f"euler cross-check    {'pass' if e['passed'] else 'fail'} "
                f"(signed sum {e['signed_sum']}, "
                f"chi = {e['expected']})")
        lines += [f"warning              {w}" for w in self.warnings]
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


class CliffordReport(Report):
    __slots__ = ("n", "dimension", "mode", "identities", "passed", "elapsed")
    kind = "clifford"

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        lines = [f"clifford identities  dimension {self.dimension} "
                 f"(n = {self.n}), {self.mode} mode"]
        for ident in self.identities:
            status = "pass" if ident["passed"] else "FAIL"
            line = f"  {ident['name']:<24} {status}"
            if ident["detail"]:
                line += f"  ({ident['detail']})"
            lines.append(line)
        lines.append(f"overall              "
                     f"{'pass' if self.passed else 'FAIL'}")
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"


class OscillatorReport(Report):
    __slots__ = ("matrix", "T", "degree_cap", "kernel_dimension", "parity",
                 "parity_matches_det", "spectrum", "eta", "passed", "elapsed")
    kind = "oscillator"

    def to_json(self) -> str:
        return stable_json(self.to_payload())

    def to_text(self) -> str:
        m = self.matrix
        lines = [
            f"matrix               {m['source']} ({m['size']}x{m['size']}, "
            f"det sign {m['det_sign']}, {m['mode']} mode)",
            f"couplings T          {', '.join(self.T)}",
            f"kernel dimension     {self.kernel_dimension}",
            f"kernel parity        {self.parity} "
            f"(matches det sign: {_flag(self.parity_matches_det)})",
        ]
        table = ", ".join(f"{v:g} x{mult}"
                          for v, mult in self.spectrum["table"])
        lines += [
            f"spectrum / T         {table} (degree cap {self.degree_cap})",
            f"spectral gap / T     {self.spectrum['gap']:g}",
            "T-independence       "
            + ("pass" if self.spectrum["passed"] else "FAIL")
            + (f" ({self.spectrum['detail']})"
               if self.spectrum["detail"] else ""),
            f"C1 (eta scaling)     {self.eta['c1']:.9f}",
            "  C1^2 per T         " + ", ".join(self.eta["c1_squared"]),
            "eta T^(-1/2) law     "
            + ("pass" if self.eta["passed"] else "FAIL")
            + (f" ({self.eta['detail']})" if self.eta["detail"] else ""),
        ]
        if self.eta["source_vanished"]:
            lines.append("note                 eta source vanished; C1 = 0")
        lines.append(f"overall              "
                     f"{'pass' if self.passed else 'FAIL'}")
        lines.append(f"elapsed              {self.elapsed:.3f} s")
        return "\n".join(lines) + "\n"

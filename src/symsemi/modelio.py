"""Input parsing: model files, census files, and matrix row files.

Two model schemas are supported, both JSON:

* matrix kind: ``{"kind": "matrix", "dims": [...], "d": [...],
  "omega": [...], "manifold_dim": 2n}`` with per-degree row-major
  matrices of rational strings.  ``d[k]`` maps degree k to k+1 and
  ``omega[k]`` maps degree k to k+2.
* cdga kind: ``{"kind": "cdga", "manifold_dim": 4, "generators":
  [{"name": "e1", "degree": 1}, ...], "differential": {"e4": [["-1",
  ["e2", "e3"]]]}, "omega": [["1", ["e1", "e2"]], ...]}``.

Rational values are decimal strings "p" or "p/q" with q > 0 (plain JSON
integers are also accepted).  The five named example models are addressed
as ``builtin:<name>`` instead of a file path.

Each model loader imports the CDGA and cone modules it builds on, so
reading a matrix row file loads neither.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

# census stays a module import: it is small, and the traced benchmark run
# (bench/spans.py) finds it in sys.modules through this module.
from .census import Zero, ZeroCensus
from .errors import InputError
from .qlinalg import SparseMat
from .record import Record

if TYPE_CHECKING:
    from .models import Element, SymplecticVerdict


class FormatError(InputError):
    """An input file does not match its schema."""


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false load as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _echo(value) -> str:
    """repr(value), or past 40 characters the first 40 and the length."""
    text = value if isinstance(value, str) else repr(value)
    return repr(value) if len(text) <= 40 else \
        f"{text[:40]!r}… ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """Rational from a file token: int, "p", or "p/q" with q > 0, p and q
    ASCII integers (``_INTEGER``: int() alone also takes underscores and
    non-ASCII digits) with whitespace allowed around either."""
    if _is_int(value):
        return Fraction(value)
    if not isinstance(value, str):
        raise FormatError(f"expected a rational string, got {_echo(value)}")
    num, sep, den = value.partition("/")
    num, den = num.strip(), den.strip() if sep else "1"
    why = 'want "p" or "p/q" with q > 0'
    if _INTEGER.fullmatch(num) and _INTEGER.fullmatch(den):
        try:
            if int(den) > 0:
                return Fraction(int(num), int(den))
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits().
            why = "too many digits"
    raise FormatError(f"bad rational {_echo(value)}: {why}")


def format_rational(x) -> str:
    frac = Fraction(x)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _located_rational(value, where: str) -> Fraction:
    """``parse_rational`` with ``where`` (file and field) before its
    message."""
    try:
        return parse_rational(value)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise FormatError(f"{where}: missing key {key!r}")
    return data[key]


def _parse_matrix(rows_json, nrows: int, ncols: int, label: str) -> SparseMat:
    if not isinstance(rows_json, list):
        raise FormatError(f"{label}: expected a list of rows")
    if len(rows_json) != nrows:
        raise FormatError(
            f"{label}: expected {nrows} rows, got {len(rows_json)}")
    entries = {}
    for i, row in enumerate(rows_json):
        if not isinstance(row, list) or len(row) != ncols:
            raise FormatError(
                f"{label}: row {i} should have {ncols} entries")
        for j, cell in enumerate(row):
            val = _located_rational(cell, f"{label} row {i}")
            if val:
                entries[(i, j)] = val
    return SparseMat(nrows, ncols, entries)


def _parse_terms(terms_json, label: str) -> list[tuple[Fraction, list[str]]]:
    """Term list [[coeff, [generator names...]], ...] for CDGA elements."""
    if not isinstance(terms_json, list):
        raise FormatError(f"{label}: expected a list of [coeff, names] terms")
    out = []
    for t, term in enumerate(terms_json):
        if (not isinstance(term, list) or len(term) != 2
                or not isinstance(term[1], list)
                or not all(isinstance(n, str) for n in term[1])):
            raise FormatError(
                f"{label}: term {t} should be [coeff, [names...]]")
        out.append((_located_rational(term[0], f"{label} term {t}"),
                    list(term[1])))
    return out


def element_terms(w: Element) -> list:
    """Canonical serialization of a CDGA element as a sorted term list."""
    names = w.model.generators
    return [[format_rational(w.coeffs[mono]), [names[i].name for i in mono]]
            for mono in sorted(w.coeffs)]


class LoadedModel(Record):
    """A parsed model together with its cone-ready complex and omega map.

    ``kind`` is "builtin", "matrix" or "cdga"; ``complex`` is the
    GradedComplex and ``omega_map`` its OmegaMap.  ``model`` (the
    CDGAModel) and ``omega`` (its 2-form Element) are None for matrix
    files."""

    __slots__ = ("source", "kind", "name", "manifold_dim", "complex",
                 "omega_map", "model", "omega")
    _defaults = {"model": None, "omega": None}

    def symplectic_verdict(self) -> SymplecticVerdict:
        from .models import (SymplecticVerdict, check_symplectic,
                             unit_power_vanishes)

        if self.model is not None:
            return check_symplectic(self.model, self.omega, self.omega_map)
        # Matrix-mode files carry the multiplication operator only.  The
        # chain-map law (closedness at operator level) held at load time;
        # nondegeneracy is probed on the distinguished degree-0 class.
        if self.complex.dim(0) < 1:
            return SymplecticVerdict(
                True, False, True, "no degree-0 class to probe")
        half = self.manifold_dim // 2
        degenerate = unit_power_vanishes(self.omega_map.map,
                                         self.complex.dim(0), half)
        detail = f"omega^{half} kills the degree-0 class" if degenerate \
            else ""
        return SymplecticVerdict(True, not degenerate, True, detail)

    def omega_terms(self) -> list | None:
        return None if self.omega is None else element_terms(self.omega)

    def identity(self) -> dict:
        return {"source": self.source, "kind": self.kind, "name": self.name,
                "manifold_dim": self.manifold_dim}


def _load_matrix_model(data: dict, source: str, name: str) -> LoadedModel:
    from .complexes import GradedComplex, OmegaMap

    where = "matrix model"
    dims_json = _require(data, "dims", where)
    if (not isinstance(dims_json, list) or not dims_json
            or not all(_is_int(v) and v >= 0 for v in dims_json)):
        raise FormatError(f"{where}: dims must be non-negative integers")
    dims = [int(v) for v in dims_json]
    top = len(dims) - 1
    md = _require(data, "manifold_dim", where)
    if not _is_int(md) or md != top:
        raise FormatError(
            f"{where}: manifold_dim {md!r} != top degree {top} of dims")
    d_json = _require(data, "d", where)
    if not isinstance(d_json, list) or len(d_json) != top:
        raise FormatError(f"{where}: expected {top} differential matrices")
    d = [_parse_matrix(d_json[k], dims[k + 1], dims[k], f"{source}: d[{k}]")
         for k in range(top)]
    w_json = _require(data, "omega", where)
    want = max(top - 1, 0)
    if not isinstance(w_json, list) or len(w_json) != want:
        raise FormatError(f"{where}: expected {want} omega matrices")
    cx = GradedComplex(dims, d)
    maps = [_parse_matrix(w_json[k], cx.dim(k + 2), dims[k],
                          f"{source}: omega[{k}]") for k in range(want)]
    return LoadedModel(source, "matrix", name, md, cx, OmegaMap(cx, maps))


def _load_cdga_model(data: dict, source: str, name: str) -> LoadedModel:
    from .models import CDGAModel, model_cone_inputs

    where = "cdga model"
    gens_json = _require(data, "generators", where)
    if not isinstance(gens_json, list) or not gens_json:
        raise FormatError(f"{where}: generators must be a non-empty list")
    gens = []
    for g in gens_json:
        if (not isinstance(g, dict) or not isinstance(g.get("name"), str)
                or not _is_int(g.get("degree")) or g["degree"] < 1):
            raise FormatError(
                f"{where}: each generator needs a name and an int degree "
                f">= 1")
        gens.append((g["name"], g["degree"]))
    if len({name for name, _ in gens}) != len(gens):
        raise FormatError(f"{where}: duplicate generator names")
    md = _require(data, "manifold_dim", where)
    if not _is_int(md) or md < 0:
        raise FormatError(f"{where}: manifold_dim must be a non-negative int")
    diff_json = data.get("differential") or {}
    if not isinstance(diff_json, dict):
        raise FormatError(f"{where}: differential must be an object")
    differential = {
        gname: _parse_terms(terms, f"{source}: differential[{gname}]")
        for gname, terms in diff_json.items()}
    model = CDGAModel(gens, differential, md)
    w = model.form(_parse_terms(_require(data, "omega", where),
                                f"{source}: omega"))
    cx, wmap = model_cone_inputs(model, w)
    return LoadedModel(source, "cdga", name, md, cx, wmap, model, w)


def _load_builtin(name: str, source: str) -> LoadedModel:
    from .models import BUILTIN_NAMES, builtin, model_cone_inputs

    if name not in BUILTIN_NAMES:
        raise FormatError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    model, w = builtin(name)
    cx, wmap = model_cone_inputs(model, w)
    return LoadedModel(source, "builtin", name, model.manifold_dim,
                       cx, wmap, model, w)


def _read_text(spec: str) -> str:
    """The text of the file ``spec``, which must be UTF-8."""
    try:
        return Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{spec}: not UTF-8 text ({exc})") from None


def _read_object(spec: str) -> dict:
    """The JSON object in the file ``spec``."""
    text = _read_text(spec)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nested too deep; ValueError: an int too long.
        raise FormatError(f"{spec}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise FormatError(f"{spec}: top level must be an object")
    return data


def load_model(spec: str) -> LoadedModel:
    """Model from a ``builtin:<name>`` URI or a JSON file path."""
    if spec.startswith("builtin:"):
        return _load_builtin(spec.split(":", 1)[1], spec)
    data = _read_object(spec)
    kind = data.get("kind")
    if kind == "matrix":
        return _load_matrix_model(data, spec, Path(spec).stem)
    if kind == "cdga":
        return _load_cdga_model(data, spec, Path(spec).stem)
    raise FormatError(f"{spec}: kind must be \"matrix\" or \"cdga\"")


def load_census(spec: str) -> ZeroCensus:
    """Census from a JSON file: source, nonvanishing flag, zero list."""
    data = _read_object(spec)
    source = data.get("source", "")
    if not isinstance(source, str):
        raise FormatError(f"{spec}: source must be a string")
    nonvanishing = data.get("nonvanishing", False)
    if not isinstance(nonvanishing, bool):
        raise FormatError(f"{spec}: nonvanishing must be a boolean")
    zeros_json = data.get("zeros", [])
    if not isinstance(zeros_json, list):
        raise FormatError(f"{spec}: zeros must be a list")
    zeros = []
    for i, z in enumerate(zeros_json):
        if not isinstance(z, dict) or not isinstance(z.get("label"), str):
            raise FormatError(f"{spec}: zeros[{i}] needs a string label")
        sign = z.get("det_sign", "unknown")
        if sign not in ("+", "-", "unknown"):
            raise FormatError(
                f"{spec}: zeros[{i}].det_sign must be +, - or unknown")
        zeros.append(Zero(z["label"], sign))
    try:
        return ZeroCensus(source, nonvanishing, tuple(zeros))
    except ValueError as exc:
        raise FormatError(f"{spec}: {exc}") from None


def load_matrix_rows(spec: str) -> list[list[Fraction]]:
    """Square matrix from a text file of whitespace-separated rationals.

    Blank lines and lines starting with ``#`` are skipped.
    """
    rows = []
    for lineno, line in enumerate(_read_text(spec).splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        rows.append([_located_rational(tok, f"{spec}:{lineno}")
                     for tok in text.split()])
    if not rows:
        raise FormatError(f"{spec}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise FormatError(f"{spec}: matrix must be square")
    return rows

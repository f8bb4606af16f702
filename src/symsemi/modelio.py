"""Input parsing: model files.

Two model schemas are supported, both JSON:

* matrix kind: ``{"kind": "matrix", "dims": [...], "d": [...],
  "omega": [...], "manifold_dim": 2n}`` with per-degree row-major
  matrices of rational strings.  ``d[k]`` maps degree k to k+1 and
  ``omega[k]`` maps degree k to k+2.
* cdga kind: ``{"kind": "cdga", "manifold_dim": 4, "generators":
  [{"name": "e1", "degree": 1}, ...], "differential": {"e4": [["-1",
  ["e2", "e3"]]]}, "omega": [["1", ["e1", "e2"]], ...]}``.

Rational values are read by ``matrixio``, which also reads the matrix row
files of ``oscillator``.  The five named example models are addressed as
``builtin:<name>`` instead of a file path.  Each model loader imports the
CDGA and cone modules it builds on.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError
# The matrix reader's names stay importable from here; the benchmark's
# layer spans wrap load_matrix_rows on this module.
from .matrixio import (FormatError, _is_int, _located_rational,  # noqa: F401
                       _read_object, format_rational, load_matrix_rows,
                       parse_rational)
from .qlinalg import SparseMat
from .record import Record

if TYPE_CHECKING:
    from .models import Element, SymplecticVerdict


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
    from .models import BASIS_LIMIT

    where = "matrix model"
    dims_json = _require(data, "dims", where)
    if (not isinstance(dims_json, list) or not dims_json
            or not all(_is_int(v) and v >= 0 for v in dims_json)):
        raise FormatError(f"{where}: dims must be non-negative integers")
    dims = [int(v) for v in dims_json]
    # The CDGA budget, checked before any matrix is parsed or built.
    if max(sum(dims), len(dims)) > BASIS_LIMIT:
        raise InputError(f"{where}: over the budget of {BASIS_LIMIT} basis "
                         f"elements and degrees: dimension {sum(dims)} in "
                         f"{len(dims)} degrees")
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
    from .builders import BUILTIN_NAMES, builtin
    from .models import model_cone_inputs

    if name not in BUILTIN_NAMES:
        raise FormatError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    model, w = builtin(name)
    cx, wmap = model_cone_inputs(model, w)
    return LoadedModel(source, "builtin", name, model.manifold_dim,
                       cx, wmap, model, w)


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


def __getattr__(name: str):
    """``load_census``, which lives with the census records it makes, on
    first access: a ``compute`` job never loads ``census``."""
    if name != "load_census":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .census import load_census

    globals()[name] = load_census
    return load_census

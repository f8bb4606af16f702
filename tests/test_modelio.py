"""Tests for file parsing: model files, census files, matrix rows."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from symsemi.complexes import betti, cone, semi_characteristic
from symsemi.models import (JacobiViolation, ShapeMismatch, builtin,
                            model_cone_inputs)
from symsemi.modelio import (
    FormatError,
    element_terms,
    format_rational,
    load_census,
    load_matrix_rows,
    load_model,
    parse_rational,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def cone_betti(loaded, p=0):
    return tuple(betti(cone(loaded.complex, loaded.omega_map, p)))


def test_parse_rational_accepts_usual_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0") == 0
    assert parse_rational(4) == 4
    assert parse_rational("10/4") == Fraction(5, 2)
    # Whitespace around either side and a sign on either side are kept.
    assert parse_rational(" -7 / 2 ") == Fraction(-7, 2)
    assert parse_rational("+3/+4") == Fraction(3, 4)


def test_parse_rational_rejects_bad_tokens():
    # int() alone would take "1_000" as 1000, "3/0_1" as 3 and the
    # Arabic-Indic digit three as 3.
    for bad in ("1.5", "1/0", "1/-2", True, 2.5, "a/b", "", "1/2/3", None,
                "1_000", "3/0_1", "\u0663", "3/", "1" * 5000, "x" * 41,
                list(range(1000))):
        with pytest.raises(FormatError) as info:
            parse_rational(bad)
        # A long token shows its first 40 characters and its length.
        assert len(str(info.value)) < 120


def test_format_rational_roundtrip():
    assert format_rational(3) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    for x in (Fraction(0), Fraction(22, 7), Fraction(-1, 3)):
        assert parse_rational(format_rational(x)) == x


def test_builtin_uri():
    loaded = load_model("builtin:kodaira_thurston")
    assert loaded.kind == "builtin"
    assert loaded.name == "kodaira_thurston"
    assert loaded.manifold_dim == 4
    assert loaded.symplectic_verdict().passed
    assert cone_betti(loaded) == (1, 3, 4, 4, 3, 1)
    assert loaded.identity()["source"] == "builtin:kodaira_thurston"


def test_unknown_builtin_lists_choices():
    with pytest.raises(FormatError) as err:
        load_model("builtin:t6")
    assert "cp2" in str(err.value) and "t6" in str(err.value)


def test_matrix_sample_round_trip():
    loaded = load_model(str(SAMPLES / "s2_matrix.json"))
    assert loaded.kind == "matrix"
    assert loaded.manifold_dim == 2
    assert loaded.symplectic_verdict().passed
    assert cone_betti(loaded) == (1, 0, 0, 1)


def test_degenerate_matrix_sample():
    loaded = load_model(str(SAMPLES / "s2_matrix_degenerate.json"))
    verdict = loaded.symplectic_verdict()
    assert verdict.closed and not verdict.nondegenerate
    assert "degree-0" in verdict.detail


def test_cdga_sample_matches_builtin():
    loaded = load_model(str(SAMPLES / "kodaira_thurston_cdga.json"))
    assert loaded.kind == "cdga"
    assert cone_betti(loaded) == (1, 3, 4, 4, 3, 1)
    assert semi_characteristic(betti(cone(loaded.complex,
                                          loaded.omega_map, 0))) == 0
    model, w = builtin("kodaira_thurston")
    cx, _ = model_cone_inputs(model, w)
    assert [loaded.complex.dim(k) for k in range(5)] == \
        [cx.dim(k) for k in range(5)]
    assert loaded.omega_terms() == element_terms(w)


def test_alternate_form_sample_is_symplectic():
    loaded = load_model(str(SAMPLES / "t4_alt_form_cdga.json"))
    assert loaded.symplectic_verdict().passed
    assert cone_betti(loaded, 0) == (1, 4, 5, 5, 4, 1)


def test_cdga_with_non_nilpotent_differential(tmp_path):
    data = {
        "kind": "cdga",
        "manifold_dim": 4,
        "generators": [{"name": f"e{i}", "degree": 1} for i in range(1, 5)],
        "differential": {"e4": [["-1", ["e2", "e3"]]],
                         "e3": [["1", ["e1", "e4"]]]},
        "omega": [["1", ["e1", "e2"]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(JacobiViolation):
        load_model(str(path))


def test_cdga_mixed_degree_terms(tmp_path):
    gens = [{"name": n, "degree": 1} for n in ("x", "y", "z")]
    mixed = [["1", ["x", "y"]], ["1", ["x"]]]
    for payload in ({"kind": "cdga", "manifold_dim": 3, "generators": gens,
                     "differential": {"z": mixed},
                     "omega": [["1", ["x", "y"]]]},
                    {"kind": "cdga", "manifold_dim": 3, "generators": gens,
                     "omega": mixed}):
        with pytest.raises(ShapeMismatch, match="mixed degrees"):
            load_model(write_json(tmp_path, payload))


def write_json(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return str(path)


def test_model_file_format_errors(tmp_path):
    cases = [
        "{not json",
        [1, 2, 3],
        {"kind": "sheaf"},
        {"kind": "matrix", "manifold_dim": 2, "d": [], "omega": []},
        {"kind": "matrix", "dims": [1, 0, 1], "manifold_dim": 3,
         "d": [[], [[]]], "omega": [[["1"]]]},
        {"kind": "matrix", "dims": [1, 0, 1], "manifold_dim": 2,
         "d": [[]], "omega": [[["1"]]]},
        {"kind": "matrix", "dims": [1, 0, 1], "manifold_dim": 2,
         "d": [[], [[]]], "omega": []},
        {"kind": "matrix", "dims": [1, 0, 1], "manifold_dim": 2,
         "d": [[], [[]]], "omega": [[["1.5"]]]},
        {"kind": "cdga", "manifold_dim": 4, "generators": [],
         "omega": []},
        {"kind": "cdga", "manifold_dim": 4,
         "generators": [{"name": "e1"}], "omega": []},
        {"kind": "cdga", "manifold_dim": 4,
         "generators": [{"name": "e1", "degree": 1}],
         "omega": [["1", "e1"]]},
        # JSON true and 2.0 are not integers.
        {"kind": "matrix", "dims": [True, 0, True], "manifold_dim": 2,
         "d": [[], [[]]], "omega": [[["1"]]]},
        {"kind": "matrix", "dims": [1, 0, 1], "manifold_dim": 2.0,
         "d": [[], [[]]], "omega": [[["1"]]]},
        {"kind": "matrix", "dims": [1, 1], "manifold_dim": True,
         "d": [[["0"]]], "omega": []},
        {"kind": "cdga", "manifold_dim": 2,
         "generators": [{"name": "e1", "degree": True},
                        {"name": "e2", "degree": 1}],
         "omega": [["1", ["e1", "e2"]]]},
        {"kind": "cdga", "manifold_dim": True,
         "generators": [{"name": "e1", "degree": 1}], "omega": []},
        # Bad generator data and a zero-row matrix given a row reached
        # the engine as plain ValueErrors.
        {"kind": "cdga", "manifold_dim": 2,
         "generators": [{"name": "e1", "degree": 1},
                        {"name": "e1", "degree": 1}],
         "omega": [["1", ["e1", "e1"]]]},
        {"kind": "cdga", "manifold_dim": 2,
         "generators": [{"name": "e1", "degree": 0}], "omega": []},
        {"kind": "matrix", "dims": [1, 0, 1], "manifold_dim": 2,
         "d": [[["1"]], [[]]], "omega": [[["1"]]]},
    ]
    for payload in cases:
        with pytest.raises(FormatError):
            load_model(write_json(tmp_path, payload))


def test_bad_rational_in_a_cdga_file_names_file_and_field(tmp_path):
    gens = [{"name": n, "degree": 1} for n in ("x", "y", "z", "t")]
    for differential, omega, field in (
            ({"t": [["1", ["x", "y"]], ["1/0", ["x", "z"]]]},
             [["1", ["x", "t"]]], "differential[t] term 1"),
            ({}, [["1", ["x", "y"]], ["1", ["z", "t"]], ["x", ["x", "t"]]],
             "omega term 2")):
        path = write_json(tmp_path, {
            "kind": "cdga", "manifold_dim": 4, "generators": gens,
            "differential": differential, "omega": omega})
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: {field}: bad rational ")


def test_bad_rational_in_a_matrix_file_names_file_and_field(tmp_path):
    # dims 1, 2, 3, 2, 1 and zero maps: d[1] is 3 x 2, omega[0] is 3 x 1.
    dims = [1, 2, 3, 2, 1]

    def zeros(rows, cols):
        return [["0"] * cols for _ in range(rows)]

    for key, k, i, field in (("d", 1, 2, "d[1] row 2"),
                             ("omega", 0, 1, "omega[0] row 1")):
        payload = {"kind": "matrix", "manifold_dim": 4, "dims": dims,
                   "d": [zeros(dims[j + 1], dims[j]) for j in range(4)],
                   "omega": [zeros(dims[j + 2], dims[j]) for j in range(3)]}
        payload[key][k][i][0] = "2.5"
        path = write_json(tmp_path, payload)
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == (f"{path}: {field}: bad rational '2.5': "
                                  "want \"p\" or \"p/q\" with q > 0")


def test_census_sample_files():
    morse = load_census(str(SAMPLES / "census_s2xs2_morse.json"))
    assert morse.count() == 4
    assert all(z.det_sign == "+" for z in morse.zeros)
    nonvan = load_census(str(SAMPLES / "census_kt_nonvanishing.json"))
    assert nonvan.nonvanishing and nonvan.count() == 0
    four = load_census(str(SAMPLES / "census_t2_four_zeros.json"))
    assert four.count() == 4


def test_census_format_errors(tmp_path):
    cases = [
        "{oops",
        {"source": 7, "nonvanishing": False, "zeros": []},
        {"source": "x", "nonvanishing": "no", "zeros": []},
        {"source": "x", "nonvanishing": False, "zeros": {}},
        {"source": "x", "nonvanishing": False, "zeros": [{"label": 3}]},
        {"source": "x", "nonvanishing": False,
         "zeros": [{"label": "p", "det_sign": "plus"}]},
        {"source": "x", "nonvanishing": True,
         "zeros": [{"label": "p", "det_sign": "+"}]},
    ]
    for payload in cases:
        path = tmp_path / "census.json"
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        with pytest.raises(FormatError):
            load_census(str(path))


def test_matrix_rows_sample():
    rows = load_matrix_rows(str(SAMPLES / "matrix_diag_1234.txt"))
    assert rows == [[Fraction(1), 0, 0, 0], [0, Fraction(2), 0, 0],
                    [0, 0, Fraction(3), 0], [0, 0, 0, Fraction(4)]]


def test_matrix_rows_errors(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(FormatError):
        load_matrix_rows(str(ragged))
    rect = tmp_path / "rect.txt"
    rect.write_text("1 2 3\n4 5 6\n")
    with pytest.raises(FormatError):
        load_matrix_rows(str(rect))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n\n")
    with pytest.raises(FormatError):
        load_matrix_rows(str(empty))
    token = tmp_path / "token.txt"
    token.write_text("1 2\n3 x\n")
    with pytest.raises(FormatError) as err:
        load_matrix_rows(str(token))
    assert ":2:" in str(err.value)

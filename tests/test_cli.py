"""End-to-end command-line tests: exit codes, JSON stability, file output."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symsemi import cliffordlab
from symsemi.cli import main
from symsemi.qlinalg import SparseMat

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_builtin_cp2(capsys):
    code, out, _ = run(capsys, "compute", "builtin:cp2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 0, 0, 0, 0, 1]
    assert payload["semi_characteristic"] == 1
    assert payload["euler_characteristic"] == 0
    assert payload["counting_applicable"] is True
    assert payload["omega"] == [["1", ["x"]]]
    assert payload["symplectic"] == {"closed": True, "degree_ok": True,
                                     "detail": "", "nondegenerate": True}


def test_compute_json_is_byte_stable(capsys):
    argv = ("compute", "builtin:kodaira_thurston", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert json.loads(first)["betti"] == [1, 3, 4, 4, 3, 1]


def test_compute_text_report(capsys):
    code, out, _ = run(capsys, "compute", "builtin:t2")
    assert code == 0
    assert "b_0^w = 1" in out
    assert "b_2^w = 2" in out
    assert "not defined" in out or "semi-characteristic" in out


def test_compute_shifted_pairing(capsys):
    code, out, _ = run(capsys, "compute", "builtin:t4", "--p", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["p"] == 1
    assert run(capsys, "compute", "builtin:t4", "--p", "-1")[0] == 2


def test_compute_input_failures(capsys):
    code, _, err = run(capsys, "compute", "no_such_file.json")
    assert code == 2 and "error:" in err
    assert run(capsys, "compute", "builtin:t6")[0] == 2


def test_compute_degenerate_form_gate(capsys):
    path = str(SAMPLES / "s2_matrix_degenerate.json")
    code, _, err = run(capsys, "compute", path)
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "compute", path, "--allow-degenerate",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["warnings"]


def test_verify_passing_census(capsys):
    code, out, _ = run(capsys, "verify", "builtin:s2xs2", "--census",
                       str(SAMPLES / "census_s2xs2_morse.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counting"]["status"] == "pass"
    assert payload["euler_cross_check"]["passed"] is True
    assert payload["euler_cross_check"]["signed_sum"] == 4


def test_verify_failing_census(tmp_path, capsys):
    census = tmp_path / "two.json"
    census.write_text(json.dumps({
        "source": "made up", "nonvanishing": False,
        "zeros": [{"label": "a", "det_sign": "+"},
                  {"label": "b", "det_sign": "-"}]}))
    code, out, _ = run(capsys, "verify", "builtin:cp2", "--census",
                       str(census), "--format", "json")
    assert code == 1
    assert json.loads(out)["counting"]["status"] == "fail"


def test_verify_degenerate_form_gate(tmp_path, capsys):
    model = json.loads((SAMPLES / "t4_alt_form_cdga.json").read_text())
    model["omega"] = [["1", ["e1", "e2"]]]
    path = tmp_path / "t4_degenerate.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "verify", str(path), "--census",
                         str(SAMPLES / "census_kt_nonvanishing.json"))
    assert code == 2
    assert "symplectic check failed" in err and out == ""


def test_verify_not_applicable_warns_but_passes(capsys):
    code, out, err = run(capsys, "verify", "builtin:t2", "--census",
                         str(SAMPLES / "census_t2_four_zeros.json"),
                         "--format", "json")
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["counting"]["status"] == "not_applicable"


def test_clifford_identities_pass(capsys):
    code, out, _ = run(capsys, "clifford", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {v["name"] for v in payload["identities"]}
    assert {"car", "star", "omega", "complex-structure"} <= names
    assert all(v["passed"] for v in payload["identities"])


def test_clifford_dimension_gates(capsys):
    code, _, err = run(capsys, "clifford", "--n", "4")
    assert code == 2 and "limit 12" in err
    code, _, err = run(capsys, "clifford", "--n", "3", "--checks", "star")
    assert code == 0 and err == ""


def test_clifford_n3_runs_exact(capsys):
    code, out, _ = run(capsys, "clifford", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "exact" and payload["passed"] is True
    assert len(payload["identities"]) == 9
    assert all(v["passed"] and v["max_residual"] == 0.0
               for v in payload["identities"])


def test_clifford_mode_only_echoes(capsys):
    # The checks are exact in either mode; only the echoed mode differs.
    _, exact, _ = run(capsys, "clifford", "--n", "2", "--format", "json")
    code, approx, _ = run(capsys, "clifford", "--n", "2", "--mode", "float",
                          "--format", "json")
    assert code == 0
    exact, approx = json.loads(exact), json.loads(approx)
    assert exact.pop("mode") == "exact" and approx.pop("mode") == "float"
    assert approx == exact


def test_clifford_check_selection(capsys):
    code, out, _ = run(capsys, "clifford", "--checks", "car,star",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["identities"]) == 2
    assert run(capsys, "clifford", "--checks", "bogus")[0] == 2


def test_oscillator_diag_matrix(capsys):
    code, out, _ = run(capsys, "oscillator", "--matrix",
                       str(SAMPLES / "matrix_diag_1234.txt"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel_dimension"] == 1
    assert payload["parity"] == "even"
    assert payload["parity_matches_det"] is True
    assert payload["matrix"]["mode"] == "exact"
    assert payload["eta"]["c1_squared"] == ["5/84", "5/84", "5/84"]
    assert payload["spectrum"]["passed"] is True


def test_oscillator_negative_determinant(tmp_path, capsys):
    mat = tmp_path / "flip.txt"
    mat.write_text("-1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, _ = run(capsys, "oscillator", "--matrix", str(mat),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parity"] == "odd"
    assert payload["matrix"]["det_sign"] == "-"
    assert payload["parity_matches_det"] is True


def test_oscillator_rejects_bad_matrices(tmp_path, capsys):
    singular = tmp_path / "sing.txt"
    singular.write_text("0 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert run(capsys, "oscillator", "--matrix", str(singular))[0] == 2
    wrong = tmp_path / "two.txt"
    wrong.write_text("1 0\n0 1\n")
    assert run(capsys, "oscillator", "--matrix", str(wrong))[0] == 2


def test_oscillator_refuses_a_sector_over_budget(capsys):
    # The cap-7 sector of an 8 x 8 A holds 1,647,360 forms, over the
    # budget of 2^20: bad input, refused before the sector is built.
    code, out, err = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_diag_8.txt"),
                         "--degree-cap", "7")
    assert code == 2 and out == ""
    assert err == ("error: the degree <= 7 sector in dimension 8 holds "
                   "1647360 forms, over the budget of 1048576\n")


def test_oscillator_coupling_arguments(capsys):
    matrix = str(SAMPLES / "matrix_diag_1234.txt")
    code, _, err = run(capsys, "oscillator", "--matrix", matrix,
                       "--T", "1/0")
    assert code == 2
    assert "invalid coupling '1/0'" in err
    assert "Traceback" not in err
    assert run(capsys, "oscillator", "--matrix", matrix, "--T", "abc")[0] == 2
    # Nonpositive couplings and fewer than three distinct ones are bad
    # input too, not internal failures.
    for bad in (["--T", "0"], ["--T", "-2"],
                ["--T", "1", "--T", "1", "--T", "2"]):
        code, _, err = run(capsys, "oscillator", "--matrix", matrix, *bad)
        assert code == 2 and "coupling" in err and "Traceback" not in err
    # Every literal Fraction takes stays accepted.
    code, out, _ = run(capsys, "oscillator", "--matrix", matrix,
                       "--T", "0.5", "--T", "1e3", "--T", "7/3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["T"] == ["1/2", "1000", "7/3"]


def test_oscillator_builds_the_model_once(capsys, monkeypatch):
    # The kernel, spectrum and eta checks of one job share one model.
    build = cliffordlab.model_L
    calls = []

    def counting_model_L(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr("symsemi.cliffordlab.model_L", counting_model_L)
    for mode in ("exact", "float"):
        calls.clear()
        code, _, _ = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_diag_1234.txt"),
                         "--mode", mode)
        assert code == 0
        assert len(calls) == 1


def test_oscillator_finds_the_ground_form_once_per_check(capsys,
                                                         monkeypatch):
    # Nothing the checks build depends on T.  The model builds L2 and the
    # right side of its identity (``_form_operator``) once each; the
    # kernel check finds the ground form once, and eta_scaling finds it
    # and builds the cap-0 to cap-1 D once, checking the cap-1 L on its
    # T-free parts with neither sector_matrix_L nor _tensor_form.
    calls = []

    def counting(name):
        fn = getattr(cliffordlab, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cliffordlab, name, wrapper)

    for name in ("_form_operator", "_kernel_vector", "sector_matrix_L",
                 "sector_matrix_D", "_tensor_form"):
        counting(name)
    for mode in ("exact", "float"):
        calls.clear()
        code, _, _ = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_rotated_4.txt"),
                         "--mode", mode)
        assert code == 0
        assert sorted(calls) == ["_form_operator", "_form_operator",
                                 "_kernel_vector", "_kernel_vector",
                                 "sector_matrix_D"]


def test_oscillator_broken_kernel_exits_one(capsys, monkeypatch):
    # A form operator with a 2-dimensional kernel breaks the model's
    # invariant L2 = tr S + sum_k sigma_k J_k: one assertion failure line
    # and exit 1, no traceback.
    build = cliffordlab.model_L
    two_dim = SparseMat(16, 16, {(i, i): Fraction(1) for i in range(2, 16)})

    def broken_model_L(*args, **kwargs):
        return build(*args, **kwargs).replace(form_op=two_dim)

    monkeypatch.setattr("symsemi.cliffordlab.model_L", broken_model_L)
    code, out, err = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_diag_1234.txt"))
    assert code == 1
    assert out == ""
    assert err == ("assertion failure: L2 is not tr S + sum_k sigma_k J_k "
                   "(largest entry of the difference 1.900e+01)\n")


def test_oscillator_broken_involution_exits_one(capsys, monkeypatch):
    # J_0 negated through its factor a_0 breaks the L2 identity: exit 1.
    build = cliffordlab.model_L

    def flipped(*args):
        op = build(*args)
        f = op.factors
        return op.replace(factors=f._replace(
            a=(tuple(-x for x in f.a[0]),) + f.a[1:]))

    monkeypatch.setattr(cliffordlab, "model_L", flipped)
    for mode in ("exact", "float"):
        code, out, err = run(capsys, "oscillator", "--matrix",
                             str(SAMPLES / "matrix_rotated_4.txt"),
                             "--mode", mode)
        assert code == 1 and out == ""
        assert err.startswith("assertion failure: L2 is not tr S + sum_k "
                              "sigma_k J_k")


def test_oscillator_rejects_unchecked_factors(capsys, monkeypatch):
    # Exact mode certifies the factors it found: a wrong singular value or
    # a non-orthogonal eigenbasis is input it cannot certify, so exit 2.
    find = cliffordlab._rational_eigenbasis
    matrix = str(SAMPLES / "matrix_rational_svd_4.txt")

    def wrong_sigma(gram):
        sigma, w = find(gram)
        return [sigma[0] + 1] + sigma[1:], w

    def slanted(gram):
        # w[1] and w[2] span the eigenspace of the repeated value 2.
        sigma, w = find(gram)
        assert sigma[1] == sigma[2] == 2
        return sigma, w[:2] + [[x + y for x, y in zip(w[1], w[2])], w[3]]

    assert run(capsys, "oscillator", "--matrix", matrix)[0] == 0
    for mutant, message in ((wrong_sigma, "is not a singular value of A"),
                            (slanted, "not orthogonal")):
        monkeypatch.setattr(cliffordlab, "_rational_eigenbasis", mutant)
        code, out, err = run(capsys, "oscillator", "--matrix", matrix)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_oscillator_changed_form_op_exits_one(capsys, monkeypatch):
    # An entry added to L2 breaks L2 = tr S + sum_k sigma_k J_k, which the
    # kernel check tests before the spectrum's trace guard could.
    monkeypatch.setattr(cliffordlab, "model_L",
                        _bumped_form_op(cliffordlab.model_L))
    code, out, err = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_diag_1234.txt"))
    assert code == 1
    assert out == ""
    assert err == ("assertion failure: L2 is not tr S + sum_k sigma_k J_k "
                   "(largest entry of the difference 1.000e+00)\n")


def _bumped_form_op(build):
    def model(*args, **kwargs):
        op = build(*args, **kwargs)
        top = (1 << op.m) - 1
        return op.replace(form_op=op.form_op + SparseMat(
            1 << op.m, 1 << op.m, {(top, top): Fraction(1)}))
    return model


def _leaky_flow(parts):
    def sector_parts(op, sec):
        lap, flow = parts(op, sec)
        k = len(sec.monomials)
        return lap, flow + SparseMat(k, k, {(0, 0): Fraction(1)})
    return sector_parts


@pytest.mark.parametrize("attr, mutant, message", [
    ("_sector_parts", _leaky_flow, "tr P_0 = 1, the closed form needs 0"),
])
def test_oscillator_trace_guard_exits_one(attr, mutant, message, capsys,
                                          monkeypatch):
    # The reported spectrum is a closed form that does not read the flow
    # factor, so a changed entry of it must trip the trace guard.  (A
    # changed L2 trips the kernel check first, see
    # test_oscillator_changed_form_op_exits_one.)
    monkeypatch.setattr(cliffordlab, attr, mutant(getattr(cliffordlab, attr)))
    code, out, err = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_diag_1234.txt"))
    assert code == 1
    assert out == ""
    assert err == f"assertion failure: spectrum trace guard: {message}\n"


def _cap1_lap_entry(parts):
    """``parts`` plus a lap entry at cap 1, where lap must be empty."""
    def sector_parts(op, sec):
        lap, flow = parts(op, sec)
        if sec.cap == 1:
            k = len(sec.monomials)
            lap = lap + SparseMat(k, k, {(0, 1): Fraction(1)})
        return lap, flow
    return sector_parts


def _t_squared_term(build):
    """``build`` plus T^2 in row 2^m, the first degree-1 row, column 0."""
    def mutant(op, cap_in, cap_out, t):
        mat = build(op, cap_in, cap_out, t)
        return mat + SparseMat(mat.rows, mat.cols, {(1 << op.m, 0): t ** 2})
    return mutant


# The cap-1 L is checked on the parts that sector_matrix_L builds it from,
# so its mutant changes those parts.
@pytest.mark.parametrize("attr, mutant, want", [
    pytest.param("_sector_parts", _cap1_lap_entry,
                 "L is not T (flow tensor 1 + 1 tensor L2)",
                 id="sector_matrix_L"),
    pytest.param("sector_matrix_D", _t_squared_term,
                 "D is not T sum_j x_j (chat(A e_j) - c(S e_j))",
                 id="sector_matrix_D")])
def test_oscillator_eta_homogeneity_exits_one(attr, mutant, want, capsys,
                                              monkeypatch):
    # C1^2 is solved once because the cap-1 operators are exactly T times
    # fixed ones, checked against their closed forms; a wrong term in
    # either must exit 1, not change C1.
    monkeypatch.setattr(cliffordlab, attr,
                        mutant(getattr(cliffordlab, attr)))
    code, out, err = run(capsys, "oscillator", "--matrix",
                         str(SAMPLES / "matrix_diag_1234.txt"))
    assert code == 1
    assert out == ""
    assert err == f"assertion failure: eta check: the cap-1 {want}\n"


def test_internal_invariant_breach_exits_one(capsys, monkeypatch):
    def broken_cone(*args, **kwargs):
        raise RuntimeError("cone differential does not square to zero")

    monkeypatch.setattr("symsemi.complexes.cone", broken_cone)
    code, out, err = run(capsys, "compute", "builtin:cp2")
    assert code == 1
    assert out == ""
    assert err == ("internal invariant breach: cone differential does not "
                   "square to zero\n")
    assert "Traceback" not in err


def test_stray_value_error_is_an_internal_breach(capsys, monkeypatch):
    # A ValueError that is not one of the input-error classes comes from
    # a bug, not from the user's input.
    def broken_check(*args, **kwargs):
        raise ValueError("kind must be 'c' or 'chat', got 'x'")

    monkeypatch.setattr("symsemi.cliffordlab.verify_car", broken_check)
    code, out, err = run(capsys, "clifford", "--checks", "car")
    assert code == 1
    assert out == ""
    assert err == ("internal invariant breach: kind must be 'c' or 'chat', "
                   "got 'x'\n")


def test_numpy_loads_only_for_the_oscillator(tmp_path):
    # numpy costs start-up time.  The oscillator was its last user, and
    # now runs on a pure-Python eigen-solve of the m x m A^t A in float
    # mode too, so no subcommand loads it.
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"""
import contextlib, io, json, sys
from symsemi.cli import main
loaded = ["numpy" in sys.modules]
runs = (["compute", "builtin:cp2"],
        ["verify", "builtin:s2xs2", "--census",
         {str(SAMPLES / "census_s2xs2_morse.json")!r}],
        ["clifford", "--n", "1"],
        ["oscillator", "--matrix", {str(SAMPLES / "matrix_diag_1234.txt")!r}],
        ["oscillator", "--matrix", {str(SAMPLES / "matrix_rotated_4.txt")!r},
         "--degree-cap", "4"],
        ["oscillator", "--matrix", {str(SAMPLES / "matrix_diag_1234.txt")!r},
         "--mode", "float"])
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    loaded.append("numpy" in sys.modules)
print(json.dumps([codes, loaded]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout)
    assert codes == [0, 0, 0, 0, 0, 0]
    assert loaded == [False, False, False, False, False, False, False]


def test_mode_comes_from_the_flag_alone(capsys, monkeypatch):
    shear = str(SAMPLES / "matrix_shear_4.txt")
    # Exact mode (the default) cannot take this square root.
    assert run(capsys, "oscillator", "--matrix", shear)[0] == 2
    code, out, _ = run(capsys, "oscillator", "--matrix", shear,
                       "--mode", "float", "--format", "json")
    assert code == 0
    assert json.loads(out)["matrix"]["mode"] == "float"
    # The environment does not choose the mode.
    monkeypatch.setenv("SYMSEMI_MODE", "float")
    assert run(capsys, "oscillator", "--matrix", shear)[0] == 2
    code, out, _ = run(capsys, "clifford", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["mode"] == "exact"
    assert run(capsys, "clifford", "--n", "1", "--mode", "quantum")[0] == 2


def test_report_top_level_keys(capsys):
    # A report's JSON keys are its field names, plus "report".
    compute = ["betti", "counting_applicable", "euler_characteristic",
               "model", "p", "palindromic", "report", "semi_characteristic",
               "symplectic", "warnings"]
    cases = (
        (("compute", "builtin:cp2"), sorted(compute + ["omega"])),
        # A matrix model has no form terms, so no "omega" key.
        (("compute", str(SAMPLES / "s2_matrix.json")), compute),
        (("verify", "builtin:s2xs2", "--census",
          str(SAMPLES / "census_s2xs2_morse.json")),
         ["census", "counting", "euler_cross_check",
          "manifold_euler_characteristic", "model", "report",
          "semi_characteristic", "warnings"]),
        (("clifford", "--n", "1"),
         ["dimension", "identities", "mode", "n", "passed", "report"]),
        (("oscillator", "--matrix", str(SAMPLES / "matrix_diag_1234.txt")),
         ["T", "degree_cap", "eta", "kernel_dimension", "matrix", "parity",
          "parity_matches_det", "passed", "report", "spectrum"]),
    )
    for argv, keys in cases:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == keys
        assert payload["report"] == argv[0]


def test_report_file_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "compute", "builtin:s2xs2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert "wrote report to" in out
    first = target.read_bytes()
    assert json.loads(first)["semi_characteristic"] == 0
    run(capsys, "compute", "builtin:s2xs2", "--format", "json",
        "--out", str(target))
    assert target.read_bytes() == first


def test_suite_listing(capsys):
    code, out, _ = run(capsys, "suite", "--list")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 10
    assert any("cp2-reproduction" in ln for ln in lines)


def test_suite_survives_a_failed_assertion(capsys, monkeypatch):
    # A criterion that raises a CheckFailure fails on its own line; the
    # criteria after it still run and the summary is printed.
    message = "kernel dimension 2 at cap 0, expected 1"

    def broken_kernel(op):
        raise cliffordlab.UnexpectedKernel(message)

    monkeypatch.setattr("symsemi.suite.kernel_and_parity", broken_kernel)
    code, out, err = run(capsys, "suite")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    criteria = [ln for ln in lines if ln.startswith("criterion")]
    assert len(criteria) == 10
    failed = [ln for ln in criteria if "[FAIL]" in ln]
    assert failed == [criteria[6]]
    assert criteria[6].startswith(
        "criterion  7 [FAIL] oscillator-kernel-spectrum")
    assert criteria[6].endswith(f"assertion failure: {message}")
    assert lines[-1].startswith("suite: 9/10 criteria passed")


def test_argparse_level_errors(capsys):
    assert main([]) == 2
    assert main(["conjure"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()

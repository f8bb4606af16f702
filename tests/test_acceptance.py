"""Acceptance gate: one test per shipped criterion.

Each test runs its criterion through the same registry the ``symsemi
suite`` command uses and prints the one-line verdict (run with ``pytest -s``
to see the lines as they happen).  Criterion 1 additionally re-derives
its key numbers through an independent oracle: a dense by-hand cone with
Bareiss ranks.
"""
from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from symsemi import cliffordlab, sectors, suite
from symsemi.suite import run_criterion
from symsemi.qlinalg import SparseMat

from oracles import dense_betti, dense_cone, dense_from_sparse


README = Path(__file__).resolve().parent.parent / "README.md"


def count_model_builds(monkeypatch) -> list:
    """Route every ``model_L`` call of the suite through a counter."""
    build = cliffordlab.model_L
    calls = []

    def counting_model_L(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(suite, "model_L", counting_model_L)
    monkeypatch.setattr(cliffordlab, "model_L", counting_model_L)
    return calls


def check(number):
    result = run_criterion(number)
    print(result.label)
    assert result.passed, f"{result.name}: {result.detail}"
    return result


def test_criterion_01_cp2_reproduction():
    result = check(1)
    assert result.data["betti"] == (1, 0, 0, 0, 0, 1)
    assert result.data["k"] == 1
    # Independent reproduction: dense cone assembled from scratch, ranks
    # by fraction-free elimination.
    cx, wmap = result.data["complex"], result.data["omega_map"]
    dd = [dense_from_sparse(cx.d_map(k)) for k in range(cx.top)]
    ww = [dense_from_sparse(wmap.map(k)) for k in range(cx.top - 1)]
    cdims, cd = dense_cone(list(cx.dims), dd, ww, 0)
    assert dense_betti(cdims, cd) == list(result.data["betti"])


def test_criterion_02_t2_reproduction():
    result = check(2)
    assert result.data["betti"] == (1, 2, 2, 1)
    assert result.data["k"] == 1


def test_criterion_03_s2xs2_counting():
    result = check(3)
    assert result.data["k"] == 0
    assert result.data["euler"].signed_sum == 4


def test_criterion_04_kodaira_thurston():
    check(4)


def test_criterion_05_dimension_gating():
    check(5)


def test_criterion_06_clifford_identities():
    check(6)


def test_criterion_07_oscillator_kernel_spectrum(monkeypatch):
    calls = count_model_builds(monkeypatch)
    check(7)
    assert len(calls) == 52     # one model per random matrix


def test_criterion_07_catches_a_wrong_sector_operator(monkeypatch):
    # flow + lap / T passes the block comparison whatever flow is; the
    # criterion must still notice a wrong flow coefficient.  Scaling all of
    # flow changes the traces of its degree blocks, which the spectrum's
    # trace guard compares with the closed form; scaling only the entries
    # off the diagonal keeps those traces, and D o D = L must catch it.
    sector_parts = cliffordlab._sector_parts

    def wrong_flow(op, sec):
        lap, flow = sector_parts(op, sec)
        return lap, flow.scale(Fraction(3, 2))

    def wrong_off_diagonal_flow(op, sec):
        lap, flow = sector_parts(op, sec)
        return lap, SparseMat(flow.rows, flow.cols, {
            (r, c): v if r == c else v * Fraction(3, 2)
            for (r, c), v in flow.entries.items()})

    # The sector matrices of ``sectors`` share the parts of ``cliffordlab``.
    monkeypatch.setattr(cliffordlab, "_sector_parts", wrong_flow)
    monkeypatch.setattr(sectors, "_sector_parts", wrong_flow)
    result = run_criterion(7)
    assert not result.passed
    assert result.detail.startswith(
        "assertion failure: spectrum trace guard: tr P_1 = ")
    monkeypatch.setattr(cliffordlab, "_sector_parts", wrong_off_diagonal_flow)
    monkeypatch.setattr(sectors, "_sector_parts", wrong_off_diagonal_flow)
    result = run_criterion(7)
    assert not result.passed
    assert "D o D != L" in result.detail


def test_criterion_08_eta_scaling(monkeypatch):
    calls = count_model_builds(monkeypatch)
    result = check(8)
    assert len(calls) == 11     # A = I and ten diagonal matrices
    assert result.data["identity"].c1_squared == Fraction(1, 8)


def test_criterion_09_randomized_properties():
    check(9)


def test_criterion_10_form_independence():
    check(10)


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(block, scope)
    assert scope["b"] == (1, 3, 4, 4, 3, 1)
    assert scope["k"] == 0

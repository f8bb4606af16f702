"""Mapping cones, Betti numbers and semi-characteristics, cross-checked
against a dense by-hand cone assembly with Bareiss ranks."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from symsemi import complexes
from symsemi.complexes import (BettiVector, ChainMapViolation, GradedComplex,
                               InvalidComplex, OmegaMap, betti, cone,
                               euler_characteristic, semi_characteristic)
from symsemi.models import (builtin, model_cone_inputs, multiplication_matrix,
                            random_closed_two_form, random_nilpotent_ce)
from symsemi.qlinalg import SparseMat
from symsemi.suite import harmonic_dimensions

from oracles import (bareiss_rank, dense_betti, dense_cone, dense_from_sparse,
                     dense_harmonic)


def builtin_inputs(name):
    return model_cone_inputs(*builtin(name))


def oracle_cone_betti(cx, wmap, p=0):
    dd = [dense_from_sparse(cx.d_map(k)) for k in range(cx.top)]
    ww = [dense_from_sparse(wmap.map(k)) for k in range(max(cx.top - 1, 0))]
    cdims, cd = dense_cone(list(cx.dims), dd, ww, p)
    return cdims, dense_betti(cdims, cd), dense_harmonic(cdims, cd)


def test_cp2_cone_dimensions_and_betti():
    cx, wmap = builtin_inputs("cp2")
    cn = cone(cx, wmap)
    assert tuple(cn.dims) == (1, 1, 1, 1, 1, 1)
    b = betti(cn)
    assert tuple(b) == (1, 0, 0, 0, 0, 1)
    cdims, oracle_b, _ = oracle_cone_betti(cx, wmap)
    assert cdims == list(cn.dims)
    assert oracle_b == list(b)
    assert semi_characteristic(b) == 1


def test_sphere_factor_cone_betti():
    s2 = GradedComplex((1, 0, 1), [SparseMat.zeros(0, 1),
                                   SparseMat.zeros(1, 0)])
    iso = OmegaMap(s2, [SparseMat.identity(1)])
    b = betti(cone(s2, iso))
    assert tuple(b) == (1, 0, 0, 1)


def test_zero_lefschetz_cone_betti():
    s2 = GradedComplex((1, 0, 1), [SparseMat.zeros(0, 1),
                                   SparseMat.zeros(1, 0)])
    zero = OmegaMap(s2, [SparseMat.zeros(1, 1)])
    b = betti(cone(s2, zero))
    assert tuple(b) == (1, 1, 1, 1)


def test_builtin_cone_euler_characteristic_vanishes():
    for name in ("cp2", "s2xs2", "t2", "t4", "kodaira_thurston"):
        cx, wmap = builtin_inputs(name)
        assert euler_characteristic(betti(cone(cx, wmap))) == 0


def test_builtin_betti_match_dense_oracle():
    for name in ("s2xs2", "t2", "t4", "kodaira_thurston"):
        cx, wmap = builtin_inputs(name)
        b = betti(cone(cx, wmap))
        _, oracle_b, oracle_h = oracle_cone_betti(cx, wmap)
        assert list(b) == oracle_b
        assert oracle_h == oracle_b


def test_known_semi_characteristics():
    expected = {"cp2": 1, "s2xs2": 0, "t2": 1, "t4": 0,
                "kodaira_thurston": 0}
    for name, want in expected.items():
        cx, wmap = builtin_inputs(name)
        assert semi_characteristic(betti(cone(cx, wmap))) == want


def test_higher_cone_parameter_on_t4():
    cx, wmap = builtin_inputs("t4")
    cn = cone(cx, wmap, p=1)
    b = betti(cn)
    assert euler_characteristic(b) == 0
    cdims, oracle_b, _ = oracle_cone_betti(cx, wmap, p=1)
    assert cdims == list(cn.dims)
    assert oracle_b == list(b)
    # degree k pairs with degree k - 3 once p = 1
    assert cn.top == cx.top + 3


def test_harmonic_dimensions_equal_betti_on_builtins():
    for name in ("cp2", "s2xs2", "t2", "kodaira_thurston"):
        cx, wmap = builtin_inputs(name)
        assert harmonic_dimensions(cx, wmap) == list(betti(cone(cx, wmap)))


def test_random_cones_against_oracle():
    rng = Random(9001)
    for _ in range(12):
        model = random_nilpotent_ce(rng.randint(2, 4), rng)
        w = random_closed_two_form(model, rng)
        cx = model.complex()
        wmap = multiplication_matrix(model, w)
        cn = cone(cx, wmap)
        b = betti(cn)
        assert euler_characteristic(b) == 0
        _, oracle_b, oracle_h = oracle_cone_betti(cx, wmap)
        assert list(b) == oracle_b
        assert harmonic_dimensions(cx, wmap) == oracle_h


def test_cone_d_squared_check_catches_a_block_from_the_wrong_degree(
        monkeypatch):
    # Every dimension is 1, so L^{p+1} one degree up has the shape of the
    # right block wherever both lie in range.  At p = 0 the corner is read
    # off the ω maps themselves; at p = 1 it is the composite L^2, and with
    # d_1 = 1, L_3 = 3 and L_5 = 5 the cone's d^2 at degree 5 is then -15
    # instead of 0.
    one = SparseMat.identity(1)
    zero = SparseMat.zeros(1, 1)
    cx = GradedComplex((1,) * 8, [zero, one] + [zero] * 5)
    wmap = OmegaMap(cx, [one, one.scale(2), zero, one.scale(3),
                         one.scale(4), one.scale(5)])
    for p in (0, 1):
        assert list(betti(cone(cx, wmap, p))) == \
            oracle_cone_betti(cx, wmap, p)[1]
    right = OmegaMap.power_map

    def shifted(self, k, power):
        block, wrong = right(self, k, power), right(self, k + 1, power)
        return wrong if wrong.shape == block.shape else block

    monkeypatch.setattr(OmegaMap, "power_map", shifted)
    with pytest.raises(InvalidComplex, match="!= 0"):
        cone(cx, wmap, 1)


def test_cone_layout_check_catches_a_block_from_the_wrong_degree(
        monkeypatch):
    # An assembly that places the corner of the previous degree (L_0 = 1
    # where L_1 = 2 belongs) is refused by the layout check.
    one = SparseMat.identity(1)
    cx = GradedComplex((1,) * 6, [SparseMat.zeros(1, 1), one]
                       + [SparseMat.zeros(1, 1)] * 3)
    wmap = OmegaMap(cx, [one, one.scale(2), SparseMat.zeros(1, 1),
                         one.scale(3)])
    right = complexes._cone_block
    placed = []

    def stale(d_k, corner, d_j):
        prev = placed[-1] if placed else None
        placed.append(corner)
        if prev is not None and prev.shape == corner.shape:
            corner = prev
        return right(d_k, corner, d_j)

    monkeypatch.setattr(complexes, "_cone_block", stale)
    with pytest.raises(InvalidComplex, match=r"cone d\[2\] differs"):
        cone(cx, wmap)


def test_cone_d_squared_check_catches_a_wrong_sign(monkeypatch):
    # [[d, L], [0, +d]] squares to 2 L d in its corner, which vanishes on
    # Kodaira-Thurston but not on a 6-generator nilpotent model.  The
    # layout check refuses the + sign on every model.
    rng = Random(0)
    model = random_nilpotent_ce(6, rng)
    cx, wmap = model_cone_inputs(model, random_closed_two_form(model, rng))
    cone(cx, wmap, 0)
    right = complexes._cone_block
    # -(-d) = +d in the lower right block.
    monkeypatch.setattr(complexes, "_cone_block",
                        lambda d_k, corner, d_j: right(d_k, corner, -d_j))
    with pytest.raises(InvalidComplex, match="differs from"):
        cone(cx, wmap, 0)
    kt = builtin_inputs("kodaira_thurston")
    with pytest.raises(InvalidComplex, match="differs from"):
        cone(*kt, 0)


def test_cone_layout_check_catches_a_dropped_entry(monkeypatch):
    # Every entry left in place is right; only the count shows the loss.
    cx, wmap = builtin_inputs("kodaira_thurston")
    right = complexes._cone_block

    def lossy(d_k, corner, d_j):
        full = right(d_k, corner, d_j)
        entries = dict(full.entries)
        if entries:
            del entries[max(entries)]
        return SparseMat(full.rows, full.cols, entries)

    monkeypatch.setattr(complexes, "_cone_block", lossy)
    with pytest.raises(InvalidComplex, match="missing block entries"):
        cone(cx, wmap)


def test_cone_multiplies_no_identity(monkeypatch):
    # L^1 is L itself: at p = 0 the cone takes no sparse product at all
    # (its d^2 is decided by its parts).  At p = 1 and 2 the corner blocks
    # are products of L, and none of them has an identity operand (a 0 x 0
    # operand, where a composite leaves the degree range, multiplies
    # nothing).
    rng = Random(0)
    model = random_nilpotent_ce(6, rng)
    cx, wmap = model_cone_inputs(model, random_closed_two_form(model, rng))
    real = SparseMat.__matmul__
    operands = []

    def recording(self, other):
        operands.extend((self, other))
        return real(self, other)

    monkeypatch.setattr(SparseMat, "__matmul__", recording)
    cone(cx, wmap, 0)
    assert not operands
    for p in (1, 2):
        cone(cx, wmap, p)
        assert operands
        assert not [m for m in operands if m.rows and m.rows == m.cols
                    and m == SparseMat.identity(m.rows)]
        operands.clear()


def test_graded_complex_validates_composition():
    d0 = SparseMat.from_rows([[1]])
    d1 = SparseMat.from_rows([[1]])
    with pytest.raises(InvalidComplex):
        GradedComplex((1, 1, 1), [d0, d1])


def test_graded_complex_validates_shapes():
    with pytest.raises(InvalidComplex):
        GradedComplex((2, 1), [SparseMat.zeros(2, 2)])
    with pytest.raises(InvalidComplex):
        GradedComplex((2, 1), [])


def test_omega_map_requires_chain_condition():
    cx, _ = builtin_inputs("kodaira_thurston")
    bad = [SparseMat.from_rows([[1], [1], [1], [1], [1], [1]])]
    bad += [SparseMat.zeros(cx.dim(k + 2), cx.dim(k))
            for k in range(1, cx.top - 1)]
    with pytest.raises(ChainMapViolation):
        OmegaMap(cx, bad)


def test_cone_rejects_foreign_omega_map():
    cx1, wmap1 = builtin_inputs("t2")
    cx2, _ = builtin_inputs("kodaira_thurston")
    with pytest.raises(ChainMapViolation):
        cone(cx2, wmap1)
    # The same dims but another d: the chain law of t4's ω map was decided
    # on t4's d, so it says nothing about a cone on Kodaira-Thurston's.
    _, wmap4 = builtin_inputs("t4")
    assert wmap4.source.dims == cx2.dims
    with pytest.raises(ChainMapViolation):
        cone(cx2, wmap4)


def test_betti_vector_rejects_negative_entries():
    with pytest.raises(ValueError):
        BettiVector([1, -1])


def test_euler_and_semi_characteristic_formulas():
    assert euler_characteristic((1, 2, 3)) == 2
    assert euler_characteristic(()) == 0
    assert semi_characteristic((1, 2, 3)) == 0
    assert semi_characteristic((1, 0, 0, 0, 0, 1)) == 1
    assert semi_characteristic((1, 2, 2, 1)) == 1


def test_the_euler_characteristic_of_a_model_is_that_of_its_dimensions():
    # ``verify`` takes chi(M) from the dimensions of the model complex: by
    # rank-nullity the alternating sum of the dimensions is that of the
    # Betti numbers, so the model's ranks need not be taken.
    from pathlib import Path

    from symsemi.builders import BUILTIN_NAMES
    from symsemi.modelio import load_model

    samples = Path(__file__).resolve().parent.parent / "samples"
    # Every model sample but torus16_cdga.json, which is over the basis
    # budget and refused at load.
    complexes = [load_model(f"builtin:{name}").complex
                 for name in BUILTIN_NAMES]
    complexes += [load_model(str(samples / name)).complex for name in (
        "s2_matrix.json", "s2_matrix_degenerate.json",
        "kodaira_thurston_cdga.json", "t4_alt_form_cdga.json",
        "nil10_cdga.json")]
    complexes += [random_nilpotent_ce(n, Random(seed)).complex()
                  for n in (4, 6, 8) for seed in range(3)]
    for cx in complexes:
        assert euler_characteristic(cx.dims) == \
            euler_characteristic(betti(cx))

"""Graded-commutative models: Leibniz differentials, Koszul signs,
Chevalley-Eilenberg builders, tensor products, symplectic checks."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from symsemi.complexes import (betti, cone, euler_characteristic,
                               semi_characteristic)
from symsemi.models import (CDGAModel, Element, JacobiViolation, NotClosed,
                            ShapeMismatch, UnknownName, builtin,
                            BUILTIN_NAMES, ce_complex, check_symplectic,
                            model_cone_inputs, multiplication_matrix,
                            random_closed_two_form, random_nilpotent_ce,
                            tensor_product)
from symsemi.qlinalg import SparseMat

from oracles import dense_betti, dense_from_sparse


def underlying_betti(model):
    cx = model.complex()
    return tuple(betti(cx))


def random_element(model, rng, degree):
    basis = model.basis(degree)
    if not basis:
        return model.zero()
    coeffs = {mono: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for mono in basis if rng.random() < 0.7}
    return Element(model, coeffs)


def test_torus_models_underlying_betti():
    assert underlying_betti(ce_complex(2, {})) == (1, 2, 1)
    assert underlying_betti(ce_complex(4, {})) == (1, 4, 6, 4, 1)


def test_kodaira_thurston_underlying_betti():
    model = ce_complex(4, {(2, 3, 4): 1})
    assert underlying_betti(model) == (1, 3, 4, 3, 1)
    # d e4 = -e2^e3 and all other generators are closed
    de4 = model.d(model.gen("e4"))
    assert de4 == model.form([(-1, ["e2", "e3"])])
    for name in ("e1", "e2", "e3"):
        assert model.d(model.gen(name)).is_zero()


def test_so3_type_constants_accepted_with_b1_zero():
    structure = {(2, 3, 1): 1, (1, 3, 2): -1, (1, 2, 3): 1}
    model = ce_complex(3, structure)
    b = underlying_betti(model)
    assert b[1] == 0


def test_ce_complex_rejects_jacobi_violation():
    # d e4 = -e2^e3 combined with d e3 = -e1^e4 breaks d^2 = 0
    with pytest.raises(JacobiViolation):
        ce_complex(4, {(2, 3, 4): 1, (1, 4, 3): 1})


def test_leibniz_rule_on_random_pairs():
    rng = Random(777)
    for name in ("t4", "kodaira_thurston"):
        model, _ = builtin(name)
        checked = 0
        while checked < 500:
            da = rng.randint(0, model.manifold_dim)
            db = rng.randint(0, model.manifold_dim - da)
            a = random_element(model, rng, da)
            b = random_element(model, rng, db)
            sign = -1 if da % 2 else 1
            lhs = model.d(a * b)
            rhs = model.d(a) * b + (a * model.d(b)).scale(sign)
            assert lhs == rhs
            checked += 1


def test_differential_squares_to_zero_on_random_elements():
    rng = Random(778)
    model, _ = builtin("kodaira_thurston")
    for _ in range(50):
        elt = random_element(model, rng, rng.randint(0, 3))
        assert model.d(model.d(elt)).is_zero()


def test_koszul_signs():
    model = ce_complex(4, {})
    e1, e2 = model.gen("e1"), model.gen("e2")
    assert e1 * e2 == -(e2 * e1)
    assert (e1 * e1).is_zero()
    w = model.form([(1, ["e1", "e2"]), (1, ["e3", "e4"])])
    ww = w * w
    assert ww == model.form([(2, ["e1", "e2", "e3", "e4"])])


def test_form_normalizes_generator_order():
    model = ce_complex(3, {})
    assert model.form([(1, ["e2", "e1"])]) == model.form([(-1, ["e1", "e2"])])


def test_element_degree_and_mixed_degree_rejection():
    model = ce_complex(3, {})
    w = model.form([(1, ["e1", "e2"])])
    assert w.degree() == 2
    mixed = w + model.unit()
    with pytest.raises(ValueError):
        mixed.degree()


def test_even_generator_powers_truncate():
    model = CDGAModel([("x", 2)], None, 4)
    x = model.gen("x")
    assert not (x * x).is_zero()
    assert model.basis(4) == [(0, 0)]
    cx = model.complex()
    assert tuple(cx.dims) == (1, 0, 1, 0, 1)


def test_tensor_product_of_tori_matches_t4():
    a = ce_complex(2, {})
    product = tensor_product(a, ce_complex(2, {}))
    assert underlying_betti(product) == (1, 4, 6, 4, 1)
    assert product.manifold_dim == 4


def test_tensor_product_renames_colliding_generators():
    a = ce_complex(2, {})
    product = tensor_product(a, ce_complex(2, {}))
    names = [g.name for g in product.generators]
    assert len(set(names)) == 4


def sphere():
    """H*(S^2) = Λ(x)/(x^2)."""
    return CDGAModel([("x", 2)], None, 2, power_cap=1)


def test_tensor_product_of_truncated_spheres():
    product = tensor_product(sphere(), sphere())
    assert tuple(product.complex().dims) == (1, 0, 2, 0, 1)
    assert product.manifold_dim == 4
    assert underlying_betti(product) == underlying_betti(builtin("s2xs2")[0])


def test_tensor_product_rejects_mismatched_caps():
    cp2, _ = builtin("cp2")
    with pytest.raises(ShapeMismatch):
        tensor_product(cp2, sphere())


def test_tensor_product_rejects_a_power_truncated_by_degree():
    # Λ(y) on S^2 with the default cap 2 drops y^2 only by degree; the
    # shared cap of cp2 x S^2 would keep it and give wrong Betti numbers.
    cp2, _ = builtin("cp2")
    with pytest.raises(ShapeMismatch, match="y\\^2"):
        tensor_product(cp2, CDGAModel([("y", 2)], None, 2))
    # The minimal model of CP^2 (dy = x^3) keeps x^3 only above its top
    # degree, so its product with a 4-manifold would keep it as well.
    minimal = CDGAModel([("x", 2), ("y", 5)], {"y": [(1, ["x"] * 3)]}, 4)
    with pytest.raises(ShapeMismatch, match="x\\^4"):
        tensor_product(minimal, builtin("kodaira_thurston")[0])


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@pytest.mark.parametrize("left, right, forms, k", [
    ("cp2", "cp2",
     ([(1, ["x"]), (1, ["x_2"])],
      [(2, ["x"]), (-3, ["x_2"])]), 1),
    ("cp2", "kodaira_thurston",
     ([(1, ["x"]), (1, ["e1", "e2"]), (1, ["e3", "e4"])],
      [(3, ["x"]), (1, ["e1", "e2"]), (-2, ["e3", "e4"]),
       (1, ["e1", "e3"])]), 0),
    ("s2xs2", "t4",
     ([(1, ["x"]), (1, ["y"]), (1, ["e1", "e2"]), (1, ["e3", "e4"])],
      [(3, ["x"]), (-1, ["y"]), (1, ["e1", "e4"]), (1, ["e2", "e3"])]),
     0),
])
def test_counting_formula_on_8_dimensional_products(left, right, forms, k):
    # k(p = 0) = chi(M) mod 2 on each product, for two closed
    # nondegenerate forms that are not multiples of each other.
    a, b = builtin(left)[0], builtin(right)[0]
    model = tensor_product(a, b)
    manifold_b = underlying_betti(model)
    assert manifold_b == convolve(underlying_betti(a), underlying_betti(b))
    ks = []
    for terms in forms:
        w = model.form(terms)
        assert check_symplectic(model, w).passed
        ks.append(semi_characteristic(
            betti(cone(*model_cone_inputs(model, w)))))
    assert ks == [k, k]
    assert k % 2 == euler_characteristic(manifold_b) % 2


def test_check_symplectic_accepts_standard_forms():
    for name in ("t2", "t4", "kodaira_thurston", "cp2", "s2xs2"):
        model, w = builtin(name)
        verdict = check_symplectic(model, w)
        assert verdict.closed and verdict.nondegenerate and verdict.degree_ok
        assert verdict.passed


def test_check_symplectic_rejects_degenerate_form_on_t4():
    model, _ = builtin("t4")
    w = model.form([(1, ["e1", "e2"])])
    verdict = check_symplectic(model, w)
    assert verdict.closed
    assert not verdict.nondegenerate
    assert not verdict.passed


def test_check_symplectic_detects_non_closed_form():
    model, _ = builtin("kodaira_thurston")
    w = model.form([(1, ["e1", "e4"]), (1, ["e2", "e3"])])
    verdict = check_symplectic(model, w)
    assert not verdict.closed
    assert not verdict.passed
    assert "d w" in verdict.detail


def test_check_symplectic_mixed_degree_form_is_a_verdict():
    # A sum of a 2-form and a 1-form has no single degree; the check
    # reports that instead of raising.
    model = ce_complex(4, {})
    w = model.form([(1, ["e1", "e2"]), (1, ["e3"])])
    verdict = check_symplectic(model, w)
    assert not verdict.degree_ok
    assert not verdict.passed
    assert "not of degree 2" in verdict.detail


def test_multiplication_matrix_requires_closed_form():
    model, _ = builtin("kodaira_thurston")
    w = model.form([(1, ["e1", "e4"])])
    with pytest.raises(NotClosed):
        multiplication_matrix(model, w)


def test_multiplication_matrix_squares_forms():
    model, w = builtin("t4")
    wmap = multiplication_matrix(model, w)
    # omega wedge omega in coordinates equals the power map on the unit
    unit = SparseMat.column([1])
    via_map = wmap.power_map(0, 2) @ unit
    ww = w * w
    vec = model.element_vector(ww, 4)
    assert via_map == vec


def test_builtin_names_and_unknown():
    assert set(BUILTIN_NAMES) == {"cp2", "s2xs2", "t2", "t4",
                                  "kodaira_thurston"}
    for name in BUILTIN_NAMES:
        model, w = builtin(name)
        assert model.manifold_dim in (2, 4)
    with pytest.raises(UnknownName):
        builtin("t6")


def test_model_cone_inputs_requires_form_for_cdga():
    model, _ = builtin("t2")
    with pytest.raises(ShapeMismatch):
        model_cone_inputs(model)


def test_random_nilpotent_ce_always_closes():
    rng = Random(91)
    for _ in range(40):
        model = random_nilpotent_ce(rng.randint(2, 6), rng)
        for gen in model.generators:
            dd = model.d(model.d(model.gen(gen.name)))
            assert dd.is_zero()


def test_random_closed_two_form_is_closed():
    rng = Random(92)
    for _ in range(40):
        model = random_nilpotent_ce(rng.randint(2, 5), rng)
        w = random_closed_two_form(model, rng)
        assert model.d(w).is_zero()
        if not w.is_zero():
            assert w.degree() == 2


def test_underlying_betti_against_dense_oracle():
    rng = Random(93)
    for _ in range(10):
        model = random_nilpotent_ce(rng.randint(2, 5), rng)
        cx = model.complex()
        dense = [dense_from_sparse(cx.d_map(k)) for k in range(cx.top)]
        assert list(betti(cx)) == dense_betti(list(cx.dims), dense)


def test_cdga_rejects_bad_generator_data():
    with pytest.raises(ValueError):
        CDGAModel([("x", 1), ("x", 1)], None, 2)
    with pytest.raises(ValueError):
        CDGAModel([("x", 0)], None, 2)
    with pytest.raises(UnknownName):
        CDGAModel([("x", 1)], {"y": [(1, ["x"])]}, 2)


def test_cdga_differential_degree_check():
    with pytest.raises(ShapeMismatch):
        CDGAModel([("x", 1), ("y", 1), ("z", 1)],
                  {"z": [(1, ["x"])]}, 3)

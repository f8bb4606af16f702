"""Graded-commutative models: Leibniz differentials, Koszul signs,
Chevalley-Eilenberg builders, tensor products, symplectic checks."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from hypothesis import given, settings, strategies as st

import symsemi.models as models_module
from symsemi.complexes import (ChainMapViolation, InvalidComplex, betti, cone,
                               euler_characteristic, semi_characteristic)
from symsemi.errors import InputError
from symsemi.builders import (BUILTIN_NAMES, builtin, ce_complex,
                              random_closed_two_form, random_nilpotent_ce,
                              tensor_product)
from symsemi.models import (BASIS_LIMIT, CDGAModel, Element,
                            JacobiViolation, NotClosed, ShapeMismatch,
                            UnknownName, check_symplectic, model_cone_inputs,
                            multiplication_matrix)
from symsemi.qlinalg import SparseMat

from oracles import (basis_oracle, combination_oracle, d_matrix_oracle,
                     dense_betti, dense_from_sparse, omega_matrix_oracle,
                     product_oracle, top_power_nonzero_oracle)


def underlying_betti(model):
    cx = model.complex()
    return tuple(betti(cx))


def random_element(model, rng, degree):
    basis = model.basis(degree)
    if not basis:
        return Element(model, {})
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
            lhs = model.d(product_oracle(a, b))
            rhs = combination_oracle(model, [
                (1, product_oracle(model.d(a), b)),
                (sign, product_oracle(a, model.d(b)))])
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
    assert model.form([(1, ["e1", "e2"])]) == \
        model.form([(-1, ["e2", "e1"])])
    assert model.form([(1, ["e1", "e1"])]).is_zero()
    w = model.form([(1, ["e1", "e2"]), (1, ["e3", "e4"])])
    ww = product_oracle(w, w)
    assert ww == model.form([(2, ["e1", "e2", "e3", "e4"])])


def test_form_normalizes_generator_order():
    model = ce_complex(3, {})
    assert model.form([(1, ["e2", "e1"])]) == model.form([(-1, ["e1", "e2"])])


def test_element_degree_and_mixed_degree_rejection():
    model = ce_complex(3, {})
    w = model.form([(1, ["e1", "e2"])])
    assert w.degree() == 2
    mixed = Element(model, {**w.coeffs, (): 1})
    with pytest.raises(ValueError):
        mixed.degree()


def test_even_generator_powers_truncate():
    model = CDGAModel([("x", 2)], None, 4)
    assert not model.form([(1, ["x", "x"])]).is_zero()
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


def test_check_symplectic_leaves_the_model_caches_as_it_found_them():
    # Without ω maps the verdict builds its bases and tables, d w's
    # included, on copies of the caches; the model keeps what it had.
    for name in ("cp2", "s2xs2", "kodaira_thurston"):
        model, w = builtin(name)
        before = [dict(model._basis_cache), dict(model._index),
                  dict(model._times_cache)]
        assert check_symplectic(model, w).passed
        assert [model._basis_cache, model._index,
                model._times_cache] == before


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
    unit = SparseMat.from_rows([[1]])
    via_map = wmap.power_map(0, 2) @ unit
    top = product_oracle(w, w).coeffs
    assert via_map == SparseMat.from_rows(
        [[top.get(mono, 0)] for mono in model.basis(4)])


def test_builtin_names_and_unknown():
    assert set(BUILTIN_NAMES) == {"cp2", "s2xs2", "t2", "t4",
                                  "kodaira_thurston"}
    for name in BUILTIN_NAMES:
        model, w = builtin(name)
        assert model.manifold_dim in (2, 4)
    with pytest.raises(UnknownName):
        builtin("t6")


def test_unknown_names_say_what_is_unknown():
    model, _ = builtin("t2")
    for call, want in ((lambda: builtin("t6"), "unknown builtin model 't6'"),
                       (lambda: model.gen("zz"), "unknown generator 'zz'"),
                       (lambda: model.form([(1, ["zz"])]),
                        "unknown generator 'zz'"),
                       (lambda: CDGAModel([("x", 1)], {"y": []}, 2),
                        "unknown generator 'y'")):
        with pytest.raises(UnknownName) as info:
            call()
        assert str(info.value) == want
        assert isinstance(info.value, KeyError)


def test_cdga_basis_budget():
    # Checked before any basis is listed: prod_g (1 + e_g), e_g = 1 for odd
    # g and min(power_cap, dim // |g|) for even g, and dim + 1 degrees.
    assert BASIS_LIMIT == 4096
    assert len(ce_complex(12, {}).basis(6)) == 924
    CDGAModel([("x", 2)], None, 4095)
    CDGAModel([(f"y{i}", 2) for i in range(6)], None, 12, power_cap=3)
    for args in (([(f"e{i}", 1) for i in range(13)], None, 13),
                 ([("x", 2)], None, 4096),
                 ([(f"y{i}", 2) for i in range(6)], None, 12, 4),
                 ([("x", 1)], None, 10 ** 8)):
        with pytest.raises(InputError, match="over the budget of 4096"):
            CDGAModel(*args)


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


# -- the integer operators against the one-monomial-at-a-time build ------


def operator_cases():
    """(model, closed 2-form) pairs: the builtins, random nilpotent models
    on 4, 6 and 8 generators, cp2 x Kodaira-Thurston (even and odd
    generators), Λ(e1, e2, e3, y) with d y = e1 e2 e3, whose even
    generator is not closed, so ∂_y meets the power of y, and
    Λ(x, e, z)/(x^3) with d z = x^2, where x^2 times x^2 is cut."""
    cases = [builtin(name) for name in BUILTIN_NAMES]
    rng = Random(2024)
    for n in (4, 6, 8):
        model = random_nilpotent_ce(n, rng)
        cases.append((model, random_closed_two_form(model, rng)))
    product = tensor_product(builtin("cp2")[0],
                             builtin("kodaira_thurston")[0])
    cases.append((product, product.form(
        [(3, ["x"]), (1, ["e1", "e2"]), (-2, ["e3", "e4"]),
         (1, ["e1", "e3"])])))
    twisted = CDGAModel([("e1", 1), ("e2", 1), ("e3", 1), ("y", 2)],
                        {"y": [(1, ["e1", "e2", "e3"])]}, 8, power_cap=3)
    cases.append((twisted, twisted.form([(2, ["e1", "e2"]),
                                         (1, ["e2", "e3"])])))
    squares = CDGAModel([("x", 2), ("e", 1), ("z", 3)],
                        {"z": [(1, ["x", "x"])]}, 6, power_cap=2)
    cases.append((squares, squares.form([(1, ["x"])])))
    return cases


def test_integer_operators_match_the_monomial_oracle():
    for model, w in operator_cases():
        top = model.manifold_dim
        for k in range(top + 3):
            assert model.basis(k) == basis_oracle(model, k)
        for k in range(top + 1):
            assert model.d_matrix(k) == d_matrix_oracle(model, k)
        wmap = multiplication_matrix(model, w)
        assert list(wmap.maps) == [omega_matrix_oracle(model, w, k)
                                   for k in range(top - 1)]


def test_the_power_of_y_enters_its_derivative():
    model = next(m for m, _ in operator_cases() if {"e1", "y"} <= set(m.index))
    y2 = model.basis(4).index((3, 3))
    col = {i: v for (i, j), v in model.d_matrix(4).entries.items() if j == y2}
    # d(y^2) = 2 y e1 e2 e3
    assert list(col.values()) == [2]
    assert model.basis(5)[next(iter(col))] == (0, 1, 2, 3)


def _flip_first(mat: SparseMat, rows_that_matter) -> SparseMat:
    """mat with the sign of one entry flipped, in a row that matters."""
    key = next(k for k in sorted(mat.entries) if k[0] in rows_that_matter)
    entries = dict(mat.entries)
    entries[key] = -entries[key]
    return SparseMat(mat.rows, mat.cols, entries)


def _nonzero_columns(mat: SparseMat) -> set[int]:
    return {j for _, j in mat.entries}


def test_a_wrong_d_entry_is_refused(monkeypatch):
    model = random_nilpotent_ce(6, Random(5))
    d2 = model.d_matrix(2)
    right = CDGAModel.d_matrix

    def wrong(self, k):
        built = right(self, k)
        # An entry of d_1 into a 2-form that d_2 does not kill.
        return _flip_first(built, _nonzero_columns(d2)) if k == 1 \
            else built

    monkeypatch.setattr(CDGAModel, "d_matrix", wrong)
    with pytest.raises(InvalidComplex, match=r"d\[2\] d\[1\] != 0"):
        random_nilpotent_ce(6, Random(5)).complex()


def test_a_flipped_omega_entry_is_refused(monkeypatch):
    rng = Random(5)
    model = random_nilpotent_ce(6, rng)
    w = random_closed_two_form(model, rng)
    d3 = model.complex().d_map(3)
    right = models_module._omega_matrix

    def flipped(m, terms, den, k):
        built = right(m, terms, den, k)
        # An entry of L_1 into a 3-form that d_3 does not kill.
        return _flip_first(built, _nonzero_columns(d3)) if k == 1 else built

    monkeypatch.setattr(models_module, "_omega_matrix", flipped)
    with pytest.raises(ChainMapViolation, match="d L != L d at degree 1"):
        multiplication_matrix(model, w)


def degenerate_forms(model, w):
    """w and, when it has two or more terms, its first term alone."""
    terms = sorted(w.coeffs.items())
    return [w] + ([Element(model, dict(terms[:1]))] if len(terms) > 1 else [])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.sampled_from((4, 6, 8)), st.integers(0, 10 ** 6))
def test_nondegeneracy_from_the_omega_maps_matches_element_powers(n, seed):
    rng = Random(seed)
    model = random_nilpotent_ce(n, rng)
    for w in degenerate_forms(model, random_closed_two_form(model, rng)):
        if w.is_zero() or not model.d(w).is_zero():
            continue
        want = top_power_nonzero_oracle(model, w)
        assert check_symplectic(model, w).nondegenerate == want
        wmap = multiplication_matrix(model, w)
        assert check_symplectic(model, w, wmap).nondegenerate == want


def test_nondegeneracy_verdicts_on_the_builtins():
    seen = set()
    for model, w in operator_cases()[:5]:
        for form in degenerate_forms(model, w):
            want = top_power_nonzero_oracle(model, form)
            seen.add(want)
            assert check_symplectic(model, form).nondegenerate == want
            wmap = multiplication_matrix(model, form)
            assert check_symplectic(model, form, wmap).nondegenerate == want
    assert seen == {True, False}

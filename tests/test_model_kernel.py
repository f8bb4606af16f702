"""Property tests of the monomial kernel ``CDGAModel._merge`` and of the
differential ``CDGAModel.d`` against the insertion-sort reference product.

The models mix odd and even generators under a ``power_cap``: cp2, s2xs2,
a free algebra on generators of degrees 1-4, random nilpotent
Chevalley-Eilenberg models, and tensor products of these.  Even generators
are closed in all of them, so the power truncation is a quotient by a
dg-ideal and the Leibniz rule holds in the truncated algebra.  Hypothesis
is derandomized, so every run draws the same cases.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from symsemi.models import (CDGAModel, Element, builtin, random_nilpotent_ce,
                            tensor_product)

from oracles import combination_oracle, product_oracle, sorted_with_sign

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def free_mixed(cap: int) -> CDGAModel:
    """Λ(a, x, b, y) with |a| = 1, |x| = |y| = 2, |b| = 3 and d = 0."""
    return CDGAModel([("a", 1), ("x", 2), ("b", 3), ("y", 2)], None, 8,
                     power_cap=cap)


def model_for(kind: int, seed: int) -> CDGAModel:
    rng = Random(seed)
    if kind == 0:
        return builtin("cp2")[0]
    if kind == 1:
        return builtin("s2xs2")[0]
    if kind == 2:
        return free_mixed(rng.randint(1, 3))
    if kind == 3:
        return random_nilpotent_ce(rng.randint(3, 6), rng)
    if kind == 4:
        return tensor_product(builtin("cp2")[0],
                              random_nilpotent_ce(rng.randint(3, 5), rng))
    if kind == 5:
        return tensor_product(builtin("s2xs2")[0],
                              random_nilpotent_ce(rng.randint(3, 4), rng))
    return tensor_product(free_mixed(2),
                          random_nilpotent_ce(rng.randint(2, 4), rng))


MODELS = st.builds(model_for, st.integers(0, 6), st.integers(0, 10 ** 6))


def homogeneous(data, model: CDGAModel) -> tuple[Element, int]:
    """A random element of one degree from 1 to 3 with up to four basis
    monomials; low degrees keep most products nonzero."""
    degree = data.draw(st.integers(1, 3))
    basis = model.basis(degree)
    if not basis:
        return Element(model, {}), degree
    monos = data.draw(st.lists(st.sampled_from(basis), min_size=1,
                               max_size=4))
    coeffs = {m: Fraction(data.draw(st.integers(-3, 3)),
                          data.draw(st.integers(1, 2))) for m in monos}
    return Element(model, coeffs), degree


@SETTINGS
@given(MODELS, st.data())
def test_merge_matches_the_sorting_reference(model, data):
    for _ in range(8):
        a, _ = homogeneous(data, model)
        b, _ = homogeneous(data, model)
        for m1 in a.coeffs:
            for m2 in b.coeffs:
                mono, sign = model._merge(m1, m2)
                want = sorted_with_sign(model, m1 + m2)
                assert (mono, sign) == want or sign == want[1] == 0


@SETTINGS
@given(MODELS, st.data())
def test_leibniz_rule_and_d_squared(model, data):
    (a, da), (b, _) = (homogeneous(data, model) for _ in range(2))
    assert model.d(product_oracle(a, b)) == combination_oracle(model, [
        (1, product_oracle(model.d(a), b)),
        ((-1) ** da, product_oracle(a, model.d(b)))])
    assert model.d(model.d(a)).is_zero()


def test_hand_computed_koszul_signs():
    m = free_mixed(2)

    def swaps(p, q, sign):
        return m.form([(1, [q, p])]) == m.form([(sign, [p, q])])

    assert swaps("a", "b", -1)                  # |a||b| = 3
    assert swaps("a", "x", 1) and swaps("b", "y", 1)    # an even factor
    assert swaps("x", "y", 1)
    assert m.form([(1, ["b", "y", "x", "a"])]) == \
        m.form([(-1, ["a", "x", "b", "y"])])   # b passes a once
    assert m._merge((0, 2), (0,)) == ((), 0)    # a·a = 0
    assert m._merge((1, 2), (0,)) == ((0, 1, 2), -1)
    assert m._merge((0, 1), (1, 3)) == ((0, 1, 1, 3), 1)
    assert m._merge((1, 1), (1,)) == ((), 0)    # x^3 above the cap
    ce = random_nilpotent_ce(4, Random(0))
    # e4·(e1 e2 e3) = -(e1 e2 e3 e4): e4 passes three odd generators.
    assert ce._merge((3,), (0, 1, 2)) == ((0, 1, 2, 3), -1)
    assert ce._merge((1, 3), (0, 2)) == ((0, 1, 2, 3), -1)


def test_power_cap_truncates_products():
    cp2, _ = builtin("cp2")
    assert not cp2.form([(1, ["x", "x"])]).is_zero()
    assert cp2.form([(1, ["x", "x", "x"])]).is_zero()
    s2xs2, w = builtin("s2xs2")
    assert s2xs2.form([(1, ["x", "x"])]).is_zero()
    assert product_oracle(w, w) == s2xs2.form([(2, ["x", "y"])])

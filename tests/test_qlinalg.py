"""Exact sparse linear algebra against dense fraction-free oracles."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from symsemi.complexes import cone
from symsemi.models import (model_cone_inputs, random_closed_two_form,
                            random_nilpotent_ce)
from symsemi import qlinalg
from symsemi.qlinalg import (SparseMat, _eliminate, det, kernel_basis, rank,
                             rref)
from symsemi.suite import NotSkewSymmetric, skew_kernel_parity

from oracles import (bareiss_rank, dense_det, dense_from_sparse,
                     dense_gauss_jordan, dense_matmul, sparse_block)


def random_sparse(rng: Random, rows: int, cols: int,
                  density: float = 0.5, span: int = 9) -> SparseMat:
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-span, span),
                                           rng.randint(1, 4))
    return SparseMat(rows, cols, entries)


def test_rref_identity():
    reduced, r, pivots = rref(SparseMat.identity(3))
    assert r == 3
    assert pivots == [0, 1, 2]
    assert reduced == SparseMat.identity(3)


def test_rref_single_jordan_block():
    m = SparseMat.from_rows([[0, 1], [0, 0]])
    reduced, r, pivots = rref(m)
    assert r == 1
    assert pivots == [1]
    assert reduced == m


def test_rref_reduced_form_properties():
    rng = Random(31)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        reduced, r, pivots = rref(m)
        assert len(pivots) == r
        for row, col in enumerate(pivots):
            assert reduced.get(row, col) == 1
            for other in range(reduced.rows):
                if other != row:
                    assert reduced.get(other, col) == 0


def test_rank_matches_bareiss_oracle_5x7():
    rng = Random(1101)
    for _ in range(40):
        m = random_sparse(rng, 5, 7)
        assert rank(m) == bareiss_rank(dense_from_sparse(m))


def edge_shapes() -> list[SparseMat]:
    """Empty, all-zero and singular matrices, square and not."""
    singular = SparseMat.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    return [SparseMat(0, 0), SparseMat(0, 3), SparseMat(3, 0),
            SparseMat(3, 3), SparseMat(2, 4), singular,
            singular.transpose(), SparseMat.from_rows([[0, 1], [0, 0]])]


def test_rank_matches_bareiss_oracle_other_shapes():
    rng = Random(1102)
    cases = [random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8),
                           density=rng.choice([0.2, 0.5, 0.9]))
             for _ in range(40)]
    for m in cases + edge_shapes():
        assert rank(m) == bareiss_rank(dense_from_sparse(m))


def test_rank_matches_bareiss_oracle_on_cone_differentials():
    rng = Random(1103)
    for _ in range(3):
        model = random_nilpotent_ce(6, rng)
        cx, wmap = model_cone_inputs(model, random_closed_two_form(model, rng))
        for p in (0, 1):
            for m in cone(cx, wmap, p).d:
                assert rank(m) == bareiss_rank(dense_from_sparse(m))


def test_rank_equals_transpose_rank_200_random():
    rng = Random(7)
    for _ in range(200):
        m = random_sparse(rng, rng.randint(1, 20), rng.randint(1, 20),
                          density=0.3)
        assert rank(m) == rank(m.transpose())


def test_kernel_of_identity_is_empty():
    assert kernel_basis(SparseMat.identity(2)).cols == 0


def test_kernel_of_row_sum():
    ker = kernel_basis(SparseMat.from_rows([[1, 1]]))
    assert ker.shape == (2, 1)
    assert ker.get(0, 0) == -1
    assert ker.get(1, 0) == 1


def test_kernel_of_rank3_4x6():
    rng = Random(55)
    while True:
        left = random_sparse(rng, 4, 3, density=0.9)
        right = random_sparse(rng, 3, 6, density=0.9)
        if rank(left) == 3 and rank(right) == 3:
            break
    m = left @ right
    assert bareiss_rank(dense_from_sparse(m)) == 3
    ker = kernel_basis(m)
    assert ker.cols == 3
    assert (m @ ker).is_zero()
    assert rank(ker) == 3


def test_kernel_annihilates_exactly():
    rng = Random(56)
    for _ in range(30):
        m = random_sparse(rng, rng.randint(1, 7), rng.randint(1, 7))
        ker = kernel_basis(m)
        assert ker.cols == m.cols - rank(m)
        assert (m @ ker).is_zero()


def test_det_matches_cofactor_oracle():
    rng = Random(59)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 4)
        cases.append(random_sparse(rng, n, n, density=0.8))
    squares = [m for m in edge_shapes() if m.rows == m.cols]
    for m in cases + squares:
        assert det(m) == dense_det(dense_from_sparse(m))
        assert (det(m) == 0) == (rank(m) < m.rows)
    assert det(SparseMat(0, 0)) == 1 and rank(SparseMat(0, 0)) == 0


def test_det_is_multiplicative():
    rng = Random(60)
    for _ in range(15):
        a = random_sparse(rng, 3, 3, density=0.9)
        b = random_sparse(rng, 3, 3, density=0.9)
        assert det(a @ b) == det(a) * det(b)


def test_skew_parity_2x2_symplectic_block():
    assert skew_kernel_parity(SparseMat.from_rows([[0, 1], [-1, 0]])) == (0, 0)


def test_skew_parity_3x3_with_kernel():
    m = SparseMat.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert skew_kernel_parity(m) == (1, 1)


def test_skew_parity_6x6_rank_four():
    j = SparseMat.from_rows([[0, 1, 0, 0],
                             [-1, 0, 0, 0],
                             [0, 0, 0, 1],
                             [0, 0, -1, 0]])
    rng = Random(61)
    while True:
        b = random_sparse(rng, 4, 6, density=0.8)
        s = b.transpose() @ j @ b
        if bareiss_rank(dense_from_sparse(s)) == 4:
            break
    assert skew_kernel_parity(s) == (2, 0)


def test_skew_parity_raises_on_odd_rank(monkeypatch):
    monkeypatch.setattr("symsemi.suite.rank", lambda m: 1)
    with pytest.raises(RuntimeError, match="odd rank"):
        skew_kernel_parity(SparseMat.from_rows([[0, 1], [-1, 0]]))


def test_skew_parity_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        skew_kernel_parity(SparseMat.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(NotSkewSymmetric):
        skew_kernel_parity(SparseMat.from_rows([[1, 0], [0, 1]]))


def test_skew_kernel_parity_equals_size_parity():
    rng = Random(62)
    for _ in range(60):
        n = rng.randint(1, 12)
        m = random_sparse(rng, n, n, density=0.5)
        s = m - m.transpose()
        ker_dim, parity = skew_kernel_parity(s)
        assert parity == n % 2
        assert ker_dim % 2 == n % 2
        assert (n - ker_dim) % 2 == 0


def test_transpose_of_product():
    rng = Random(63)
    for _ in range(10):
        a = random_sparse(rng, 3, 5)
        b = random_sparse(rng, 5, 2)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


# -- the integer kernels on wide rationals --------------------------------


def big_fraction(rng: Random, bits: int = 72) -> Fraction:
    """A nonzero rational of either sign with numerator and denominator of
    ``bits`` bits before reduction (64 or more after it, in practice)."""
    top = 1 << (bits - 1)
    return Fraction(rng.choice((-1, 1)) * (top | rng.getrandbits(bits - 1)),
                    top | rng.getrandbits(bits - 1))


def big_sparse(rng: Random, rows: int, cols: int,
               density: float = 0.7) -> SparseMat:
    return SparseMat(rows, cols, {
        (i, j): big_fraction(rng) for i in range(rows) for j in range(cols)
        if rng.random() < density})


def big_cases(rng: Random) -> list[SparseMat]:
    """Wide-rational matrices: random, of rank below both sides (a product
    through a thin middle), and with zero rows and scaled copies of rows."""
    cases = []
    for _ in range(15):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(big_sparse(rng, rows, cols))
        thin = rng.randint(0, min(rows, cols) - 1)
        cases.append(big_sparse(rng, rows, thin, 0.9)
                     @ big_sparse(rng, thin, cols, 0.9))
        base = big_sparse(rng, rows, cols)
        copy, scale = rng.randrange(rows), big_fraction(rng)
        entries = {}
        for (i, j), v in base.entries.items():
            entries[(2 * i, j)] = v
            if i == copy:
                entries[(2 * rows, j)] = v * scale
        # Rows 1, 3, ... stay zero; row 2*rows is a multiple of row 2*copy.
        cases.append(SparseMat(2 * rows + 1, cols, entries))
    return cases


def assert_reduced_entries(m: SparseMat) -> None:
    for v in m.entries.values():
        assert type(v) is Fraction and v != 0
        assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def assert_elimination_matches_oracles(m: SparseMat) -> int:
    """rank, kernel_basis, rref and det of m against the dense oracles;
    returns the rank."""
    rk = rank(m)
    dense = dense_from_sparse(m)
    assert rk == bareiss_rank(dense)
    ker = kernel_basis(m)
    assert ker.shape == (m.cols, m.cols - rk)
    assert all(v == 0 for row in dense_matmul(dense, dense_from_sparse(ker))
               for v in row)
    assert rank(ker) == ker.cols
    reduced, rk2, pivots = rref(m)
    assert rk2 == rk
    oracle_rows, _, oracle_pivots = dense_gauss_jordan(dense, [[]] * m.rows)
    assert pivots == oracle_pivots
    assert dense_from_sparse(reduced) == [
        [Fraction(v) for v in row] for row in oracle_rows]
    assert_reduced_entries(ker)
    assert_reduced_entries(reduced)
    if m.rows == m.cols:
        assert det(m) == dense_det(dense)
    if m.rows > m.cols:
        square = SparseMat(m.cols, m.cols, {
            k: v for k, v in m.entries.items() if k[0] < m.cols})
        assert det(square) == dense_det(dense_from_sparse(square))
    return rk


def pivot_cases() -> list[SparseMat]:
    """Matrices on which the smallest entry of a pivot column is not in
    the first row that holds it, so elimination swaps rows: ties on the
    size broken by the entry count, then by the row index, swaps that flip
    the sign of det, and fractions whose smallest value has the largest
    numerator once the row is scaled to integers."""
    rows = [
        [[3, 1], [1, 2]],                          # det 5: one swap
        [[0, 5, 1], [4, 7, 2], [-1, 3, 3]],        # det -51: one swap
        [[2, 1, 1], [2, 0, 1], [-2, 3, 5]],        # tie on |2|: fewest entries
        [[2, 1, 0], [-2, 0, 1], [2, 0, 1]],        # tie on size and count
        [[6, 4, 2, 1], [3, 1, 1, 0], [9, 5, 3, 1], [-3, 2, 7, 5]],
        [[Fraction(7, 2), 1, 0], [Fraction(1, 3), 5, 2], [1, 1, 1]],
        [[5, 1, 0, 0], [0, 0, 4, 1], [1, 0, 0, 3], [0, 1, 2, 0]],
        [[4, 2], [2, 1], [-6, -3]],                # rank 1 after a swap
    ]
    return [SparseMat.from_rows(r) for r in rows]


def test_size_pivoting_matches_oracles_and_flips_det_signs():
    dets = [det(m) for m in pivot_cases() if m.rows == m.cols]
    assert any(d < 0 for d in dets) and any(d > 0 for d in dets)
    assert det(pivot_cases()[0]) == 5 and det(pivot_cases()[1]) == -51
    # The pivot row: the smallest entry, then the fewest entries.
    assert _eliminate(pivot_cases()[0])[0][0] == {0: 1, 1: 2}
    assert _eliminate(pivot_cases()[2])[0][0] == {0: 2, 2: 1}
    for m in pivot_cases():
        assert_elimination_matches_oracles(m)
        # Swapping two rows flips the sign of det and changes nothing else.
        swapped = SparseMat(m.rows, m.cols, {
            ({0: 1, 1: 0}.get(i, i), j): v for (i, j), v in m.entries.items()})
        assert rank(swapped) == rank(m)
        assert rref(swapped) == rref(m)
        if m.rows == m.cols:
            assert det(swapped) == -det(m)


def test_integer_elimination_on_wide_rationals_matches_oracles():
    cases = big_cases(Random(65))
    entries = [v for m in cases for v in m.entries.values()]
    assert all(min(v.numerator.bit_length(), v.denominator.bit_length()) >= 64
               for m in cases[0::3] for v in m.entries.values())
    assert any(v < 0 for v in entries) and any(v > 0 for v in entries)
    deficient = 0
    for m in cases:
        rk = assert_elimination_matches_oracles(m)
        deficient += rk < min(m.rows, m.cols)
    assert deficient >= 15


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_rank_of_planted_rank_integer_matrices(rows, cols, data):
    # m = P (L U) Q with L (rows x r) and U (r x cols) of full rank r:
    # unit lower / upper trapezoids with random sparse integers below /
    # above the diagonal, P and Q permutations.
    r = data.draw(st.integers(0, min(rows, cols)))
    small = st.integers(-4, 4)
    low = [[1 if i == j else data.draw(small) if i > j and
            data.draw(st.booleans()) else 0 for j in range(r)]
           for i in range(rows)]
    up = [[1 if i == j else data.draw(small) if j > i and
           data.draw(st.booleans()) else 0 for j in range(cols)]
          for i in range(r)]
    m = (SparseMat(rows, r, {(i, j): v for i, row in enumerate(low)
                             for j, v in enumerate(row) if v})
         @ SparseMat(r, cols, {(i, j): v for i, row in enumerate(up)
                               for j, v in enumerate(row) if v}))
    p = data.draw(st.permutations(range(rows)))
    q = data.draw(st.permutations(range(cols)))
    m = SparseMat(rows, cols, {(p[i], q[j]): v
                               for (i, j), v in m.entries.items()})
    assert assert_elimination_matches_oracles(m) == r


def test_integer_product_on_unrelated_denominators_matches_oracle():
    rng = Random(66)
    for _ in range(20):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a, b = big_sparse(rng, rows, inner), big_sparse(rng, inner, cols)
        # [A | tA] @ [[tX, B], [-X, tB]]: the X columns cancel to zero.
        t = big_fraction(rng)
        x = big_sparse(rng, inner, cols, 0.9)
        wide = sparse_block([[a, a.scale(t)]])
        tall = sparse_block([[x.scale(t), b], [-x, b.scale(t)]])
        for left, right in ((a, b), (wide, tall)):
            prod = left @ right
            assert dense_from_sparse(prod) == dense_matmul(
                dense_from_sparse(left), dense_from_sparse(right))
            assert_reduced_entries(prod)
        assert all(c >= cols for (_, c) in (wide @ tall).entries)
        assert (wide @ sparse_block([[x.scale(t)], [-x]])).is_zero()


# -- the one stored form against a dense reference ------------------------
#
# A reference matrix is (rows, cols, dense list of Fraction rows); its
# arithmetic is written out here, entry by entry.


def ref_entries(ref) -> dict:
    return {(i, j): v for i, row in enumerate(ref[2])
            for j, v in enumerate(row) if v}


def ref_map(f, *refs):
    rows, cols = refs[0][:2]
    return rows, cols, [[f(*(r[2][i][j] for r in refs)) for j in range(cols)]
                        for i in range(rows)]


def ref_matmul(a, b):
    return a[0], b[1], [[sum((a[2][i][k] * b[2][k][j] for k in range(a[1])),
                             Fraction(0)) for j in range(b[1])]
                        for i in range(a[0])]


def ref_transpose(a):
    return a[1], a[0], [[a[2][i][j] for i in range(a[0])]
                        for j in range(a[1])]


@st.composite
def ref_matrices(draw, rows, cols):
    """Rational matrices over a few denominators, whose rows and columns
    outside a drawn subset are empty."""
    live_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    live_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    value = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-6, max_value=6, max_denominator=12))
    return rows, cols, [[draw(value) if i in live_rows and j in live_cols
                         else Fraction(0) for j in range(cols)]
                        for i in range(rows)]


def assert_matches(m: SparseMat, ref) -> None:
    """Every reading of m against the reference, and the stored form:
    integer numerators, none zero, over the lcm of the reduced
    denominators."""
    rows, cols, dense = ref
    want = ref_entries(ref)
    assert m.shape == (rows, cols)
    assert m.entries == want and m.to_rows() == dense
    assert all(type(v) is Fraction for v in m.entries.values())
    assert all(m.get(i, j) == dense[i][j]
               for i in range(rows) for j in range(cols))
    assert m.nnz() == len(want) and m.is_zero() == (not want)
    ints, den = m._ints
    assert den == lcm(*(v.denominator for v in want.values()))
    assert all(type(v) is int and v for row in ints.values() for _, v in row)
    assert m == SparseMat(rows, cols, dict(reversed(want.items())))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_stored_form_matches_a_dense_reference(data):
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    ra, rb = (data.draw(ref_matrices(rows, inner)) for _ in range(2))
    rc = data.draw(ref_matrices(inner, cols))
    # Zeros are passed in explicitly and dropped.
    a, b, c = (SparseMat(r[0], r[1], {(i, j): v for i, row in enumerate(r[2])
                                      for j, v in enumerate(row)})
               for r in (ra, rb, rc))
    for m, ref in ((a, ra), (b, rb), (c, rc)):
        assert_matches(m, ref)
    assert (a == b) == (ra == rb)
    assert_matches(a + b, ref_map(lambda x, y: x + y, ra, rb))
    assert_matches(a - b, ref_map(lambda x, y: x - y, ra, rb))
    assert_matches(-a, ref_map(lambda x: -x, ra))
    factor = data.draw(st.fractions(min_value=-5, max_value=5,
                                    max_denominator=7))
    for f in (0, -3, Fraction(-2, 3), factor):
        assert_matches(a.scale(f), ref_map(lambda x: f * x, ra))
    assert_matches(a.transpose(), ref_transpose(ra))
    assert_matches(a @ c, ref_matmul(ra, rc))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 30),
       st.integers(1, 8), st.data())
def test_from_ints_reduces_and_drops_zeros(rows, cols, den, extra, data):
    # Numerators over den * extra, an unreduced denominator, with explicit
    # zeros and empty rows: the same matrix as the reduced fractions.
    nums = [[data.draw(st.integers(-3, 3)) for _ in range(cols)]
            for _ in range(rows)]
    acc = {i: [(j, extra * v) for j, v in enumerate(row)]
           for i, row in enumerate(nums)}
    m = SparseMat._from_ints(rows, cols, acc, den * extra)
    ref = rows, cols, [[Fraction(v, den) for v in row] for row in nums]
    assert_matches(m, ref)
    assert m == SparseMat(rows, cols, ref_entries(ref))


def test_integer_constructors_build_no_fraction(monkeypatch):
    # Products, sums, transposes, ranks and a whole cone run on numerators:
    # no Fraction is built inside qlinalg, only where entries are read.
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    rng = Random(67)
    a, b = random_sparse(rng, 4, 5), random_sparse(rng, 5, 3)
    model = random_nilpotent_ce(6, rng)
    # Checking that w is closed reads d w as fractions: done before.
    cx, wmap = model_cone_inputs(model, random_closed_two_form(model, rng))
    monkeypatch.setattr(qlinalg, "Fraction", Counted)
    SparseMat._from_ints(3, 3, {0: [(0, 6), (2, 0)], 2: [(1, -4)]}, 8)
    product = a @ b
    assert (product - a @ b).is_zero()
    rank(a @ a.transpose() + (a @ b @ b.transpose()).scale(-2) @ a.transpose())
    for k in range(model.manifold_dim + 1):
        model.d_matrix(k)
    ranks = [rank(mat) for mat in cone(cx, wmap, p=1).d]
    assert made == [] and ranks
    assert type(product.get(0, 0)) is Counted

"""Exact sparse linear algebra against dense fraction-free oracles."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from symsemi.complexes import cone
from symsemi.models import (model_cone_inputs, random_closed_two_form,
                            random_nilpotent_ce)
from symsemi.qlinalg import (NotSkewSymmetric, SparseMat, det, inverse,
                             kernel_basis, rank, rref, skew_kernel_parity,
                             solve)

from oracles import bareiss_rank, dense_det, dense_from_sparse


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


def test_solve_recovers_consistent_systems():
    rng = Random(57)
    solved = 0
    for _ in range(30):
        m = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = random_sparse(rng, m.cols, 1, density=0.8)
        rhs = m @ x
        y = solve(m, rhs)
        assert y is not None
        assert m @ y == rhs
        solved += 1
    assert solved == 30


def test_solve_detects_inconsistency():
    m = SparseMat.from_rows([[1, 1], [1, 1]])
    rhs = SparseMat.column([0, 1])
    assert solve(m, rhs) is None


def test_inverse_roundtrip():
    rng = Random(58)
    count = 0
    while count < 15:
        m = random_sparse(rng, 4, 4, density=0.8)
        if not det(m):
            continue
        inv = inverse(m)
        assert inv @ m == SparseMat.identity(4)
        assert m @ inv == SparseMat.identity(4)
        count += 1


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
    monkeypatch.setattr("symsemi.qlinalg.rank", lambda m: 1)
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


def test_block_assembly_matches_dense_layout():
    a = SparseMat.from_rows([[1, 2], [3, 4]])
    b = SparseMat.from_rows([[5], [6]])
    c = SparseMat.from_rows([[7, 8]])
    d = SparseMat.from_rows([[9]])
    m = SparseMat.block([[a, b], [c, d]])
    assert m.shape == (3, 3)
    assert dense_from_sparse(m) == [
        [1, 2, 5], [3, 4, 6], [7, 8, 9]]


def test_block_infers_shapes_from_none():
    a = SparseMat.from_rows([[1, 2], [3, 4]])
    m = SparseMat.block([[a, None], [None, a]])
    assert m.shape == (4, 4)
    assert m.get(2, 0) == 0
    assert m.get(2, 2) == 1


def test_transpose_of_product():
    rng = Random(63)
    for _ in range(10):
        a = random_sparse(rng, 3, 5)
        b = random_sparse(rng, 5, 2)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()

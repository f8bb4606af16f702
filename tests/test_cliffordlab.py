"""Tests for the Clifford identities and the finite oscillator model."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from symsemi import clifford as clf
from symsemi import cliffordlab as cl
from symsemi import exterior as ex
from symsemi import sectors
from symsemi.errors import CheckFailure
from symsemi.jacobi import _jacobi_eigh
from symsemi.matrixio import load_matrix_rows
from symsemi.oscillator_job import spectrum_table
from symsemi.qlinalg import SparseMat, kernel_basis
from symsemi.cliffordlab import (
    MODEL_DIM_LIMIT,
    NoRationalRoot,
    SECTOR_LIMIT,
    Sector,
    Singular,
    UnexpectedKernel,
    eta_scaling,
    kernel_and_parity,
    model_L,
    spectrum_scaling,
)
from symsemi.sectors import (
    TruncationTooSmall,
    random_model_matrix,
    random_rational_orthogonal,
    sector_matrix_D,
    sector_matrix_L,
)
from symsemi.exterior import BadDimension
from symsemi.clifford import (
    CLIFFORD_DIM_LIMIT,
    NotUnit,
    random_rational_unit_vector,
    verify_car,
    verify_complex_structure,
    verify_volume_omega,
    verify_volume_star,
)
from oracles import (car_oracle, dense_from_sparse, dense_inverse,
                     dense_solve, gaussian_matching_oracle,
                     gaussian_moment_oracle, mono_compose_oracle,
                     mono_generator_oracle, mono_star_oracle,
                     mono_to_sparse, mono_transpose_oracle,
                     sparse_block, star_sign_oracle)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
EYE4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
EYE16 = [[1 if i == j else 0 for j in range(16)] for i in range(16)]
SHEAR = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


# -- exterior-algebra operators ------------------------------------------


def column(op, mask):
    """Where the monomial op sends the basis form of mask: {image: sign}."""
    return {mask ^ op.key: v for v, bits in op.classes if bits >> mask & 1}


def per_mask(op, m):
    """(perm, sign) of a monomial operator over the 2^m masks, looked up
    mask by mask in its classes: the pairs the per-mask oracles take."""
    masks = range(1 << m)
    return (tuple(s ^ op.key for s in masks),
            tuple(next((v for v, bits in op.classes if bits >> s & 1), 0)
                  for s in masks))


def entries(pair):
    """{(row, col): sign} of a (perm, sign) pair, killed forms left out:
    where the zero operator sends them is arbitrary."""
    return {(r, s): x for s, (r, x) in enumerate(zip(*pair)) if x}


def to_sparse(m, terms):
    """``mono_to_sparse`` of (coeff, monomial operator) terms."""
    return mono_to_sparse(m, [(c, per_mask(op, m)) for c, op in terms])


def test_chat_on_scalar_is_wedge():
    # chat(e_1) applied to the empty form is e^1 (mask 1).
    assert column(ex._generator(4, 0, 1, 1), 0) == {1: 1}


def test_c_on_scalar_is_wedge_too():
    assert column(ex._generator(4, 0, 1, -1), 0) == {1: 1}


def test_volume_action_examples():
    vol = clf._dvol(4)
    # On the empty form it produces the volume form with sign +1.
    assert column(vol, 0) == {15: 1}
    # On e^1 it produces -e^{234} (mask 0b1110 = 14).
    assert column(vol, 1) == {14: -1}


def test_volume_action_is_its_own_transpose():
    for m in (4, 8):
        vol = clf._dvol(m)
        assert ex._transpose(vol) == vol


def test_double_star_sign_by_degree():
    m = 4
    twice = ex._compose(clf._star(m), clf._star(m))
    for mask in range(1 << m):
        k = bin(mask).count("1")
        expect = -1 if (k * (m - k)) % 2 else 1
        assert column(twice, mask) == {mask: expect}
    # Degree 1 in dimension 4 really does pick up the sign.
    assert column(twice, 1) == {1: -1}


def test_star_signs_match_permutation_oracle():
    m = 4
    star = clf._star(m)
    full = (1 << m) - 1
    for mask in range(1 << m):
        assert column(star, mask) == {full & ~mask: star_sign_oracle(mask, m)}


def test_omega_wedge_on_scalar():
    # The standard form pairs coordinates (1,2) and (3,4).
    col = {}
    for w in ex._omega_terms(4):
        col.update(column(w, 0))
    assert col == {0b0011: 1, 0b1100: 1}


def skew_matrix(m):
    """The eta source operator skew(omega) of the engine, one column per
    basis form."""
    entries = {}
    for c in range(1 << m):
        out, den = cl._omega_skew(m, {c: 1}, True)
        entries.update(((r, c), Fraction(x, den)) for r, x in out.items())
    return SparseMat(1 << m, 1 << m, entries)


def test_omega_skew_is_skew_symmetric():
    sk = skew_matrix(4)
    assert not sk.is_zero()
    assert sk.transpose() == sk.scale(-1)
    z = SparseMat.zeros(16, 16)
    block = sparse_block([[sk, z], [z, sk.scale(-1)]])
    assert block.transpose() == block.scale(-1)


# -- identity verdicts ----------------------------------------------------


def test_car_identities_exact_m4_and_m8():
    for m in (4, 8):
        verdict = verify_car(m)
        assert verdict.passed
        assert verdict.max_residual == 0.0
        # Independent signed-permutation check of the same relations.
        assert car_oracle(m)


def test_volume_identities_exact_m4_and_m8():
    for m in (4, 8):
        for verify in (verify_volume_star, verify_volume_omega):
            verdict = verify(m)
            assert verdict.passed and verdict.max_residual == 0.0


def test_volume_identities_reject_m6():
    with pytest.raises(BadDimension):
        verify_volume_star(6)


def test_dimension_limits():
    # One limit per operator family, whatever the arithmetic mode.
    assert CLIFFORD_DIM_LIMIT == MODEL_DIM_LIMIT == 12
    for verify in (verify_car, verify_volume_star, verify_volume_omega):
        with pytest.raises(BadDimension, match="exceeds the limit 12"):
            verify(CLIFFORD_DIM_LIMIT + 4)
    with pytest.raises(BadDimension, match="exceeds the limit 12"):
        verify_complex_structure([1] + [0] * CLIFFORD_DIM_LIMIT)
    with pytest.raises(BadDimension, match="exceeds the limit 12"):
        model_L(EYE16, "exact")


def test_model_limit_holds_in_float_mode():
    # L2 has about m^2 2^m / 2 entries in either arithmetic, so the model
    # refuses m = 16 up front in float mode too.
    with pytest.raises(BadDimension, match="exceeds the limit 12"):
        model_L(EYE16, "float")


def test_complex_structure_canonical_vector():
    verdict = verify_complex_structure(
        [Fraction(3, 5), Fraction(4, 5), 0, 0])
    assert verdict.passed and verdict.max_residual == 0.0


def test_complex_structure_random_unit_vectors():
    rng = Random(31)
    for _ in range(10):
        v = random_rational_unit_vector(4, rng)
        assert sum(x * x for x in v) == 1
        assert verify_complex_structure(v).passed


def test_complex_structure_rejects_non_unit():
    with pytest.raises(NotUnit):
        verify_complex_structure([2, 0, 0, 0])


# -- signed permutations against sparse products -------------------------


def ref_wedge(m, i):
    """e_i wedge, its sign the parity of the permutation sorting
    [i, S ascending], found by counting inverted pairs."""
    entries = {}
    for mask in range(1 << m):
        if mask >> i & 1:
            continue
        seq = [i] + [j for j in range(m) if mask >> j & 1]
        inv = sum(a > b for k, a in enumerate(seq) for b in seq[k + 1:])
        entries[(mask | 1 << i, mask)] = -1 if inv % 2 else 1
    return SparseMat(1 << m, 1 << m, entries)


def ref_chat(m, i, kind="chat"):
    # Contraction is the adjoint of the wedge in the orthonormal basis.
    w = ref_wedge(m, i)
    return w + w.transpose() if kind == "chat" else w - w.transpose()


def ref_dvol(m):
    out = SparseMat.identity(1 << m)
    for i in range(m):
        out = out @ ref_chat(m, i)
    return out


def ref_omega_skew(m):
    """skew(omega) = 1/2 sum_k (w_k^t - w_k), w_k = (e_2k wedge)(e_2k+1
    wedge), from the reference wedges."""
    out = SparseMat.zeros(1 << m, 1 << m)
    for i in range(0, m, 2):
        w = ref_wedge(m, i) @ ref_wedge(m, i + 1)
        out = out + (w.transpose() - w).scale(Fraction(1, 2))
    return out


def test_signed_permutations_match_sparse_products():
    for m in (4, 8):
        for i in range(m):
            for wedge, contract, kind in ((1, 1, "chat"), (1, -1, "c")):
                ref = ref_chat(m, i, kind)
                op = ex._generator(m, i, wedge, contract)
                assert to_sparse(m, [(1, op)]) == ref
        vol = ref_dvol(m)
        assert to_sparse(m, [(1, clf._dvol(m))]) == vol
        form = SparseMat.zeros(1 << m, 1 << m)
        for i in range(0, m, 2):
            form = form + ref_wedge(m, i) @ ref_wedge(m, i + 1)
        assert to_sparse(m, [(1, w) for w in ex._omega_terms(m)]) == form
        v = random_rational_unit_vector(m, Random(m))
        ch = SparseMat.zeros(1 << m, 1 << m)
        for i, x in enumerate(v):
            ch = ch + ref_chat(m, i).scale(x)
        assert to_sparse(m, clf._chat_square(v)) == ch @ ch
        assert ch @ ch == SparseMat.identity(1 << m)


def sparse_verdicts(m, v):
    """The four checks as sparse matrix products: the Clifford generators
    as matrices of ``exterior._generator`` (looked up on each call, so a
    patched generator reaches them), the star from ``star_sign_oracle``."""
    def verdict(diffs):
        worst, culprit = 0.0, ""
        for label, mat in diffs:
            r = max((abs(float(x)) for x in mat.entries.values()),
                    default=0.0)
            if r > worst:
                worst, culprit = r, label
        return worst, culprit

    def gen(i, wedge, contract):
        return to_sparse(m, [(1, ex._generator(m, i, wedge, contract))])

    n = 1 << m
    eye, zero = SparseMat.identity(n), SparseMat.zeros(n, n)
    chat = [gen(i, 1, 1) for i in range(m)]
    cc = [gen(i, 1, -1) for i in range(m)]
    car = []
    for i in range(m):
        for j in range(i, m):
            delta = eye.scale(2) if i == j else zero
            car.append((f"chat anticommutator ({i},{j})",
                        chat[i] @ chat[j] + chat[j] @ chat[i] - delta))
            car.append((f"c anticommutator ({i},{j})",
                        cc[i] @ cc[j] + cc[j] @ cc[i] + delta))
    for i in range(m):
        for j in range(m):
            car.append((f"mixed anticommutator ({i},{j})",
                        cc[i] @ chat[j] + chat[j] @ cc[i]))
    vol = eye
    for op in chat:
        vol = vol @ op

    def degree_sign(mask):
        k = bin(mask).count("1")
        return -1 if (k * (k + 1) // 2) % 2 else 1

    signed = SparseMat(n, n, {(c ^ (n - 1), c): star_sign_oracle(c, m)
                              * degree_sign(c) for c in range(n)})
    form = zero
    for i in range(0, m, 2):
        form = form + gen(i, 1, 0) @ gen(i + 1, 1, 0)
    ch = to_sparse(m, [(x, ex._generator(m, i, 1, 1))
                       for i, x in enumerate(v) if x])
    j = sparse_block([[zero, -ch], [ch, zero]])
    return {
        "car": verdict(car),
        "star": verdict([("chat(dvol) vs signed star", vol - signed),
                         ("chat(dvol) symmetry", vol - vol.transpose())]),
        "omega": verdict([("intertwining",
                           vol @ form.transpose() + form @ vol)]),
        "complex-structure": verdict([("J^2 + 1",
                                       j @ j + SparseMat.identity(2 * n))]),
    }


def engine_verdicts(m, v):
    return {v.name: v for v in (verify_car(m), verify_volume_star(m),
                                verify_volume_omega(m),
                                verify_complex_structure(v))}


def test_verdicts_match_sparse_products_with_a_flipped_sign(monkeypatch):
    generator = ex._generator

    def flipped(m, i, wedge, contract):
        # One sign of e_2 wedge (and so of chat(e_2) and c(e_2)) is wrong:
        # mask 0 moves to the class of the opposite value.
        op = generator(m, i, wedge, contract)
        if i != 1:
            return op
        parts = {}
        for v, bits in op.classes:
            for x, y in ((v, bits & ~1), (-v, bits & 1)):
                if y:
                    parts[x] = parts.get(x, 0) | y
        return ex._Mono(op.key, tuple(sorted(parts.items())))

    for m in (4, 8):
        v = [Fraction(3, 5), Fraction(4, 5)] + [0] * (m - 2)
        for verdict in engine_verdicts(m, v).values():
            assert verdict.passed and verdict.max_residual == 0.0
        with monkeypatch.context() as patch:
            # The checks build on the kernel's generators and on their
            # own name for it.
            patch.setattr(ex, "_generator", flipped)
            patch.setattr(clf, "_generator", flipped)
            want = sparse_verdicts(m, v)
            got = engine_verdicts(m, v)
        for name, (residual, culprit) in want.items():
            assert not got[name].passed
            assert got[name].max_residual == residual > 0
            assert got[name].detail == \
                f"largest residual {residual:.3e} in {culprit}"


WEIGHTS = ((1, 1), (1, -1), (1, 0), (0, 1), (Fraction(2, 3), Fraction(-5, 7)))


def random_mono(m, rng, key=None):
    """A monomial operator with a random XOR key (or ``key``) and random
    signs in {-1, 0, 1}, its canonical classes built mask by mask."""
    parts = {}
    for s in range(1 << m):
        v = rng.choice((-1, 0, 1))
        if v:
            parts[v] = parts.get(v, 0) | 1 << s
    return ex._Mono(rng.randrange(1 << m) if key is None else key,
                    tuple(sorted(parts.items())))


def assert_canonical(op, m):
    """Nonzero distinct values, ascending, on nonzero disjoint bitsets of
    the 2^m masks."""
    values = [v for v, _ in op.classes]
    assert all(values) and values == sorted(set(values))
    seen = 0
    for _, bits in op.classes:
        assert 0 < bits < 1 << (1 << m) and not bits & seen
        seen |= bits


def test_bit_parallel_kernel_matches_the_per_mask_oracles():
    # The delta-swap masks cover every dimension either user accepts.
    assert max(CLIFFORD_DIM_LIMIT, MODEL_DIM_LIMIT) <= len(ex._CLEAR)
    rng = Random(27)
    for m in range(1, CLIFFORD_DIM_LIMIT + 1):
        n = 1 << m
        for i in range(m):
            for wedge, contract in WEIGHTS:
                op = ex._generator(m, i, wedge, contract)
                assert_canonical(op, m)
                assert per_mask(op, m) == \
                    mono_generator_oracle(m, i, wedge, contract)
        assert per_mask(clf._star(m), m) == mono_star_oracle(m)
        vol = (tuple(range(n)), (1,) * n)
        for i in range(m):
            vol = mono_compose_oracle(vol, mono_generator_oracle(m, i, 1, 1))
        assert per_mask(clf._dvol(m), m) == vol
        ops = [random_mono(m, rng) for _ in range(2)] + [
            ex._generator(m, rng.randrange(m), *rng.choice(WEIGHTS))
            for _ in range(2)]
        for a in ops:
            assert entries(per_mask(ex._transpose(a), m)) == \
                entries(mono_transpose_oracle(per_mask(a, m)))
            for b in ops:
                ab = ex._compose(a, b)
                assert_canonical(ab, m)
                assert entries(per_mask(ab, m)) == entries(
                    mono_compose_oracle(per_mask(a, m), per_mask(b, m)))
                assert entries(per_mask(ex._transpose(ab), m)) == \
                    entries(mono_transpose_oracle(per_mask(ab, m)))
        # Weighted sums: two random operators on one key with overlapping
        # classes, a generator on another, and a term that cancels.
        key = rng.randrange(n)
        x, y = random_mono(m, rng, key), random_mono(m, rng, key)
        g = ops[2]
        terms = [(Fraction(1, 3), x), (2, y), (Fraction(-3, 4), g),
                 (-Fraction(1, 3), x), (Fraction(1, 2), x)]
        total = ex._sum(terms)
        for op in total:
            assert_canonical(op, m)
        assert len({op.key for op in total}) == len(total)
        assert to_sparse(m, [(1, op) for op in total]) == \
            to_sparse(m, terms)
        assert ex._sum([(Fraction(1, 3), x), (-Fraction(1, 3), x)]) == []


def test_sum_keeps_keys_apart_and_cancels_within_one():
    # Different keys share no entry: 1/2 chat(e_1) + 1/3 chat(e_2) has
    # largest entry 1/2, not 5/6.
    m = 2
    a, b = ex._generator(m, 0, 1, 1), ex._generator(m, 1, 1, 1)
    both = [(Fraction(1, 2), a), (Fraction(1, 3), b)]
    assert [op.key for op in ex._sum(both)] == [1, 2]
    assert clf._verdict("sum", m, [("both", both)]).max_residual == 0.5
    # Terms of one key cancel exactly: chat + c = 2 wedge, and a - a = 0.
    assert ex._sum([(1, a), (1, ex._generator(m, 0, 1, -1))]) == \
        [ex._generator(m, 0, 2, 0)]
    assert ex._sum([(1, a), (-1, a)]) == []
    assert clf._verdict("sum", m, [("zero", [(1, a), (-1, a)])]).passed


# -- the model operator ---------------------------------------------------


def test_model_operator_diag_1234():
    op = model_L([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    assert op.mode == "exact"
    assert op.det_sign == 1
    assert op.trace_sqrt() == 10
    assert op.sqrt_gram @ op.sqrt_gram == op.a.transpose() @ op.a


def test_model_rejects_bad_inputs():
    with pytest.raises(Singular):
        model_L([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(BadDimension):
        model_L([[1 if i == j else 0 for j in range(6)] for i in range(6)])
    with pytest.raises(ValueError):
        model_L(EYE4, "sideways")


def test_model_exact_mode_needs_rational_root():
    import numpy as np

    with pytest.raises(NoRationalRoot):
        model_L(SHEAR, "exact")
    # Float mode happily approximates the same matrix.
    op = model_L(SHEAR, "float")
    assert op.mode == "float"
    s = np.array(op.sqrt_gram.to_rows(), dtype=float)
    a = np.array(op.a.to_rows(), dtype=float)
    assert np.abs(s @ s - a.T @ a).max() <= 1e-9


def test_model_has_two_modes():
    with pytest.raises(ValueError, match="bad mode 'auto'"):
        model_L(EYE4, "auto")


def repeated_singular_value_matrix(sign):
    """A = R diag(1, 2, 2, 3/2) Q with R, Q rational rotations, the first
    row negated for sign -1: A^t A is not diagonal, and its eigenvalue 4
    has a 2-dimensional eigenspace."""
    rng = Random(61)
    r, q = (random_rational_orthogonal(4, rng) for _ in range(2))
    d = SparseMat(4, 4, dict(zip(((i, i) for i in range(4)),
                                 (1, 2, 2, Fraction(3, 2)))))
    a = r @ d @ q
    return SparseMat(4, 4, {(i, j): -v if i == 0 and sign < 0 else v
                            for (i, j), v in a.entries.items()})


def test_model_sqrt_gram_validation():
    # S comes from factors of A that are checked exactly: a wrong singular
    # value, a non-orthogonal eigenbasis of the repeated one, or too few
    # vectors is refused.
    a = repeated_singular_value_matrix(1)
    gram = a.transpose() @ a
    sigma, w = cl._rational_eigenbasis(gram)
    assert sigma == [Fraction(1), Fraction(3, 2), 2, 2]
    op = model_L(a, "exact")
    assert op.sqrt_gram == op.sqrt_gram.transpose()
    assert op.sqrt_gram @ op.sqrt_gram == gram
    wrong = [sigma[0] + 1] + sigma[1:]
    slanted = w[:3] + [[x + y for x, y in zip(w[2], w[3])]]
    for bad_sigma, bad_w, message in (
            (wrong, w, "2 is not a singular value of A"),
            (sigma, slanted, "not orthogonal"),
            (sigma[:3], w[:3], "found them on 3 of 4 dimensions")):
        with pytest.raises(NoRationalRoot, match=message):
            cl._checked_factors(a, gram, bad_sigma, bad_w)


def test_a_repeated_singular_value_passes_exactly():
    # Gram-Schmidt inside the repeated singular value gives the eta
    # expansion an orthogonal joint eigenbasis; the closed form agrees
    # with float mode and with the Gaussian-norm definition.
    for sign in (1, -1):
        a = repeated_singular_value_matrix(sign)
        op = model_L(a, "exact")
        assert kernel_and_parity(op) == (0 if sign > 0 else 1)
        assert spectrum_scaling(op, cap=3).passed
        verdict = eta_scaling(op)
        assert verdict.passed and verdict.mode == "exact"
        approx = eta_scaling(model_L(a, "float"))
        assert abs(approx.c1_squared / verdict.c1_squared - 1) <= 1e-12
        assert old_definition_c1_squared(
            op, 4, gaussian_matching_oracle) == verdict.c1_squared


def flipped_involution(op):
    """op with J_0 negated through its factor a_0: still an involution
    that commutes with the other J_k, but L2 is no longer
    tr S + sum_k sigma_k J_k."""
    f = op.factors
    a = (tuple(-x for x in f.a[0]),) + f.a[1:]
    return op.replace(factors=f._replace(a=a))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_broken_involution_breaks_the_l2_identity(mode):
    # The model checks its L2 identity whenever it is built, ``replace``
    # included, so no check ever runs on a broken J_k: the m x m identity
    # A sum_k w_k w_k^t / |w_k|^2 == A fails for a negated a_0.
    op = model_L(random_model_matrix(4, Random(7), -1), mode)
    assert eta_scaling(op).passed
    with pytest.raises(UnexpectedKernel,
                       match=r"L2 is not tr S \+ sum_k sigma_k J_k \(max "):
        flipped_involution(op)


def test_float_l2_identity_allows_the_tolerance_over_m():
    # An entry of the difference of two L2 is a +-sum of up to m entries
    # of A' - A (a diagonal one of all m), so the m x m check allows
    # tolerance() / m per entry: then no L2 entry is off by more than
    # tolerance().  A bump of a_0 moves A'_00 alone.
    op = model_L(EYE4, "float")
    f = op.factors
    assert f.w[0] == (1.0, 0.0, 0.0, 0.0) and f.sigma[0] == f.norm[0]
    for share, refused in ((0.9, False), (1.1, True)):
        bump = share * op.tolerance() / 4
        a = ((f.a[0][0] + bump,) + f.a[0][1:],) + f.a[1:]
        if refused:
            with pytest.raises(UnexpectedKernel, match=r"\(max "):
                op.replace(factors=f._replace(a=a))
        else:
            op.replace(factors=f._replace(a=a))


def test_jacobi_matches_numpy_eigh():
    import numpy as np

    rng = Random(67)
    for n in (4, 8, 4, 8):
        rows = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        g = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        values, vectors = _jacobi_eigh(SparseMat.from_rows(g))
        want, _ = np.linalg.eigh(np.array(g))
        assert np.allclose(sorted(values), want, rtol=0, atol=1e-12)
        v = np.array(vectors)
        assert np.allclose(v @ v.T, np.eye(n), rtol=0, atol=1e-13)
        assert np.allclose(np.array(g) @ v.T, v.T * np.array(values),
                           rtol=0, atol=1e-12)


def test_form_operator_matches_clifford_products():
    # L2 = tr(S) + sum_j c(e_j) chat(A e_j), built the long way from the
    # reference Clifford matrices.  A float model's tr S is a binary
    # rational, so its L2 is exact too, and both modes compare equal.
    for m in (4, 8):
        rng = Random(m)
        chat = [ref_chat(m, i) for i in range(m)]
        cc = [ref_chat(m, i, "c") for i in range(m)]
        for sign in (1, -1, 1):
            a = random_model_matrix(m, rng, sign)
            rows = a.to_rows()
            products = SparseMat.zeros(1 << m, 1 << m)
            for j in range(m):
                image = SparseMat.zeros(1 << m, 1 << m)
                for i in range(m):
                    image = image + chat[i].scale(rows[i][j])
                products = products + cc[j] @ image
            for mode in ("exact", "float"):
                op = model_L(a, mode)
                want = products + SparseMat.identity(1 << m).scale(
                    op.trace_sqrt())
                assert l2_matrix(op).entries == want.entries


def l2_matrix(op):
    """L2 as a SparseMat: the model operator at T = 1 on the cap-0
    sector, where lap and flow vanish."""
    return sector_matrix_L(op, 0, 1)


def test_kernel_and_parity_examples():
    op = model_L(EYE4)
    assert kernel_and_parity(op) == 0
    flipped = model_L([[-1, 0, 0, 0], [0, 1, 0, 0],
                       [0, 0, 1, 0], [0, 0, 0, 1]])
    assert kernel_and_parity(flipped) == 1
    # A higher polynomial cap finds no additional kernel.
    assert kernel_basis(sector_matrix_L(op, 1, 1)).cols == 1


def test_kernel_and_parity_float_mode():
    rng = Random(17)
    rows = [[Fraction(rng.randint(1, 3)) if j > i else Fraction(0)
             for j in range(4)] for i in range(4)]
    for i in range(4):
        rows[i][i] = Fraction(rng.randint(1, 3))
    op = model_L(rows, "float")
    assert op.det_sign == 1
    assert kernel_and_parity(op) == 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_stored_ground_form_outside_the_kernel_is_refused(mode):
    # The model checks its ground form whenever it is built, ``replace``
    # included: one basis form of delta's parity is not in the kernel
    # line, and an empty or mixed-parity form is refused outright.
    op = model_L(random_model_matrix(4, Random(7), -1), mode)
    assert len(op.ground) > 1
    with pytest.raises(UnexpectedKernel,
                       match=r"L2 does not annihilate the ground form "
                             r"\(largest entry "):
        op.replace(ground={next(iter(op.ground)): 1})
    for bad in ({}, {0: 1, 1: 1}):
        with pytest.raises(UnexpectedKernel, match="zero or of mixed"):
            op.replace(ground=bad)


# -- spectrum and eta scaling --------------------------------------------


def flat(spectrum):
    """The (value, multiplicity) pairs of a spectrum as the ascending
    tuple of its eigenvalues, each repeated by its multiplicity."""
    return tuple(v for v, mult in spectrum for _ in range(mult))


def test_spectrum_scaling_identity_matrix():
    verdict = spectrum_scaling(model_L(EYE4, "exact"), cap=2)
    assert verdict.passed
    assert verdict.mode == "exact"
    assert verdict.structure_ok and verdict.blocks_match
    assert verdict.max_deviation == 0.0
    assert verdict.gap == 2.0
    assert flat(verdict.spectrum)[0] == 0.0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_spectrum_scaling_reads_only_numerators(mode, monkeypatch):
    # The structure, leak and trace checks read the sector parts' integer
    # numerators: no fraction view of a matrix is built during the call.
    op = model_L(random_model_matrix(4, Random(7), -1), mode)
    want = spectrum_scaling(op, cap=3)

    def refuse(*args):
        raise AssertionError("spectrum_scaling read a fraction view")

    monkeypatch.setattr(SparseMat, "entries", property(refuse))
    monkeypatch.setattr(SparseMat, "to_rows", refuse)
    assert spectrum_scaling(op, cap=3) == want


def reference_block_spectrum(op, cap):
    """Every eigenvalue of the degree <= cap blocks, sorted, one per
    (monomial, subset) pair: 2 alpha.sigma + 2 sum_(k in I) sigma_k, each
    a numerator over one denominator, divided once."""
    sigma = [Fraction(x) for x in op.factors.sigma]
    den = math.lcm(*(x.denominator for x in sigma))
    twice = [int(2 * x * den) for x in sigma]
    form = [0]
    for t in twice:
        form += [f + t for f in form]
    return tuple(n / den for n in sorted(
        sum(c) + f for d in range(cap + 1)
        for c in combinations_with_replacement(twice, d) for f in form))


@settings(max_examples=15, deadline=None)
@given(m=st.sampled_from([4, 8]), cap=st.integers(2, 4),
       mode=st.sampled_from(["exact", "float"]), seed=st.integers(0, 99),
       values=st.lists(st.sampled_from([Fraction(1, 2), 1, 2, 3]),
                       min_size=8, max_size=8))
@example(m=4, cap=2, mode="exact", seed=0, values=[1] * 8)
@example(m=4, cap=4, mode="float", seed=0, values=[1, 1, 2, 2] * 2)
@example(m=8, cap=3, mode="exact", seed=1, values=[1] * 8)
def test_block_spectrum_counts_every_eigenvalue(m, cap, mode, seed, values):
    # A = Q diag(values) has the values as singular values, repeated ones
    # included; the pairs are ascending and distinct, their multiplicities
    # add to the sector's size, and expanded they are the sorted sums.
    q = random_rational_orthogonal(m, Random(seed))
    op = model_L(q @ SparseMat(m, m, {(i, i): values[i] for i in range(m)}),
                 mode)
    pairs = cl._block_spectrum(op, cap)
    assert all(x < y for (x, _), (y, _) in zip(pairs, pairs[1:]))
    assert sum(mult for _, mult in pairs) == Sector(m, cap).size
    assert flat(pairs) == reference_block_spectrum(op, cap)


def test_spectrum_scaling_degenerate_diagonal():
    op = model_L([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
                 "exact")
    verdict = spectrum_scaling(op, cap=2)
    assert verdict.passed and verdict.blocks_match


def test_spectrum_scaling_input_guards():
    op = model_L(EYE4)
    with pytest.raises(ValueError):
        spectrum_scaling(op, cap=1)


def test_spectrum_scaling_catches_a_coupling_in_a_diagonal_block(
        monkeypatch):
    # An entry of lap inside a diagonal block makes that block of
    # flow + lap / T depend on T; the exact block comparison must see it
    # in both modes.  lap is the k x k polynomial factor.
    sector_parts = cl._sector_parts

    def leaky_lap(op, sec):
        lap, flow = sector_parts(op, sec)
        k = len(sec.monomials)
        leak = SparseMat(k, k, {(0, 0): Fraction(1)})
        return lap + leak, flow

    monkeypatch.setattr(cl, "_sector_parts", leaky_lap)
    for op in (model_L(EYE4, "exact"), model_L(SHEAR, "float")):
        verdict = spectrum_scaling(op, cap=2)
        assert not verdict.passed
        assert verdict.structure_ok and not verdict.blocks_match
        assert verdict.detail == "diagonal blocks differ across T"
        assert verdict.max_deviation == 1.0


def dense_block_spectrum(op, cap, t):
    """Reference spectrum: each degree-diagonal block of the full sector
    operator divided by t, solved densely, with no use of its product
    structure.  A block is first split into the connected components of
    its nonzero pattern, a reordering of the basis that changes no
    eigenvalue."""
    import numpy as np

    sec = Sector(op.m, cap)
    entries = sector_matrix_L(op, cap, t).scale(Fraction(1, t)).entries
    out = []
    for deg in range(cap + 1):
        idx = [i for i in range(sec.size)
               if sum(sec.monomials[i >> op.m]) == deg]
        pos = {i: n for n, i in enumerate(idx)}
        inside = [(pos[r], pos[c], v) for (r, c), v in entries.items()
                  if r in pos and c in pos]
        root = list(range(len(idx)))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for r, c, _ in inside:
            root[find(r)] = find(c)
        groups: dict[int, list[int]] = {}
        for i in range(len(idx)):
            groups.setdefault(find(i), []).append(i)
        where = {i: n for members in groups.values()
                 for n, i in enumerate(members)}
        blocks = {g: np.zeros((len(members), len(members)))
                  for g, members in groups.items()}
        for r, c, v in inside:
            blocks[find(r)][where[r], where[c]] = float(v)
        for block in blocks.values():
            out.extend(np.linalg.eigvals(block).real.tolist())
    return sorted(out)


def rotated_diagonal(rng, sign):
    """A = Q D with Q rational orthogonal and D positive diagonal, the
    first row negated for sign -1: A is not diagonal, A^t A = D^2 is."""
    q = random_rational_orthogonal(4, rng)
    d = SparseMat(4, 4, {(i, i): Fraction(rng.randint(1, 6),
                                          rng.randint(1, 3))
                         for i in range(4)})
    a = q @ d
    return SparseMat(4, 4, {(r, c): -v if r == 0 and sign < 0 else v
                            for (r, c), v in a.entries.items()})


def test_factored_spectrum_matches_the_dense_blocks():
    # The closed-form spectrum against the eigenvalues of the full degree
    # blocks, at a coupling T = 10 that the diagonal blocks must not see.
    rng = Random(41)
    cases = [(model_L(random_model_matrix(4, rng, sign), "exact"),
              (2, 3, 4)) for sign in (1, -1)]
    cases.append((model_L(SHEAR, "float"), (2, 3, 4)))
    # The exact path of the CLI: a non-diagonal A whose S is diagonal.
    for sign in (1, -1):
        op = model_L(rotated_diagonal(rng, sign), "exact")
        assert any(r != c for (r, c) in op.a.entries)
        assert all(r == c for (r, c) in op.sqrt_gram.entries)
        assert op.det_sign == sign
        cases.append((op, (2, 3, 4, 5)))
    values = (2, Fraction(1, 2), 3, -1, 5, Fraction(3, 2), 7, 4)
    cases.append((model_L([[values[i] if i == j else 0 for j in range(8)]
                           for i in range(8)], "exact"), (2,)))
    for op, caps in cases:
        for cap in caps:
            pairs = spectrum_scaling(op, cap=cap).spectrum
            got, want = flat(pairs), dense_block_spectrum(op, cap, 10)
            assert len(got) == len(want) == Sector(op.m, cap).size
            assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9
            assert spectrum_table(pairs) == \
                spectrum_table((v, 1) for v in want)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_trace_guard_catches_a_changed_form_operator(mode, monkeypatch):
    # The m x m identity and the closed forms never apply L2, so the check
    # L2 delta = 0 must: an ``_l2_apply`` that adds one to an entry on
    # delta's support is refused when the model is built and on
    # ``replace``.
    a = rotated_diagonal(Random(5), -1)
    op = model_L(a, mode)
    apply = cl._l2_apply

    def bumped(model, vec):
        image, den = apply(model, vec)
        top = max(vec)
        return {**image, top: image.get(top, 0) + den}, den

    monkeypatch.setattr(cl, "_l2_apply", bumped)
    message = (r"L2 does not annihilate the ground form "
               r"\(largest entry 1\.000e\+00\)")
    with pytest.raises(UnexpectedKernel, match=message):
        model_L(a, mode)
    with pytest.raises(UnexpectedKernel, match=message):
        op.replace(ground=dict(op.ground))


def test_spectrum_scaling_in_dimension_eight():
    import numpy as np

    values = (2, Fraction(1, 2), 3, -1, 5, Fraction(3, 2), 7, 4)
    diag = [[values[i] if i == j else 0 for j in range(8)] for i in range(8)]
    a = random_model_matrix(8, Random(1), -1)
    for op in (model_L(diag, "exact"), model_L(a, "exact")):
        verdict = spectrum_scaling(op, cap=2)
        assert verdict.passed and verdict.mode == "exact"
        spectrum = flat(verdict.spectrum)
        assert len(spectrum) == Sector(8, 2).size
        assert sum(abs(x) <= 1e-8 for x in spectrum) == 1
        s_min = float(np.linalg.eigvalsh(
            np.array(op.sqrt_gram.to_rows(), dtype=float)).min())
        assert abs(verdict.gap - 2 * s_min) <= 1e-9


def test_eta_scaling_identity_matrix():
    verdict = eta_scaling(model_L(EYE4, "exact"))
    assert verdict.passed
    assert verdict.mode == "exact"
    assert verdict.c1_squared == Fraction(1, 8)
    assert verdict.orthogonal
    assert not verdict.source_vanished
    assert abs(verdict.c1 - 0.3535533905932738) < 1e-15


def test_eta_scaling_float_mode():
    verdict = eta_scaling(model_L(EYE4, "float"))
    assert verdict.passed
    assert abs(verdict.c1 - 0.35355339059327373) <= 1e-6


def test_float_mode_matches_exact_mode_on_non_diagonal_gram():
    # A^t A is not diagonal here: exact mode checks rational factors found
    # from a float hint, float mode runs on the float factors.
    for sign in (1, -1):
        a = random_model_matrix(4, Random(11), sign)
        assert any(r != c for (r, c) in (a.transpose() @ a).entries)
        exact_op = model_L(a, "exact")
        float_op = model_L(a, "float")
        exact = eta_scaling(exact_op)
        approx = eta_scaling(float_op)
        assert exact.passed and approx.passed and approx.mode == "float"
        want = float(exact.c1_squared)
        assert abs(approx.c1_squared - want) <= 1e-9 * want
        exact = spectrum_scaling(exact_op, cap=2)
        approx = spectrum_scaling(float_op, cap=2)
        assert exact.passed and approx.passed and approx.mode == "float"
        # The numeric S enters as binary rationals, so the float model's
        # diagonal blocks are compared exactly too.
        assert approx.structure_ok and approx.blocks_match
        assert approx.max_deviation == 0.0
        got, want = flat(approx.spectrum), flat(exact.spectrum)
        scale = max(abs(x) for x in want)
        assert len(got) == len(want)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9 * scale


def test_eta_source_orthogonal_to_ground_state():
    # The skew form action applied to the ground form is orthogonal to it,
    # for random coefficient matrices of both determinant signs.
    rng = Random(19)
    skew = ref_omega_skew(4)
    for trial in range(20):
        op = model_L(random_model_matrix(4, rng, 1 if trial % 2 else -1))
        ker = kernel_basis(l2_matrix(op))
        assert ker.cols == 1
        src = skew @ ker
        dot = sum((src.get(r, 0) * ker.get(r, 0) for r in range(16)),
                  Fraction(0))
        assert dot == 0


def test_eta_source_matches_the_sparse_oracle():
    # The source skew(omega) delta that eta builds from the omega
    # monomials, against the reference wedges' sparse product.
    rng = Random(43)
    ops = [model_L(random_model_matrix(4, rng, 1 if trial % 2 else -1))
           for trial in range(10)]
    ops.append(model_L(load_matrix_rows(str(SAMPLES / "matrix_random_8.txt"))))
    for op in ops:
        delta = op.ground
        source, src_den = cl._omega_skew(op.m, delta, True)
        assert src_den == 2 and source
        assert all(isinstance(x, int) and x for x in source.values())
        want = ref_omega_skew(op.m) @ SparseMat(1 << op.m, 1, {
            (t, 0): Fraction(x) for t, x in delta.items()})
        assert {t: Fraction(x, src_den) for t, x in source.items()} == {
            r: v for (r, _), v in want.entries.items()}


# -- sector machinery -----------------------------------------------------


def test_sector_budget_is_checked_before_assembly(monkeypatch):
    # A sector holds C(m + cap, m) 2^m forms; one over SECTOR_LIMIT is
    # refused from that count, before a monomial is listed.  At m = 8 the
    # limit falls between caps 6 and 7.
    assert SECTOR_LIMIT == 1 << 20
    assert Sector(8, 6).size == 768768
    with pytest.raises(BadDimension, match="holds 1647360 forms, over the "
                                           "budget of 1048576"):
        Sector(8, 7)
    monkeypatch.setattr(cl, "SECTOR_LIMIT", 560)
    assert Sector(4, 3).size == 560
    with pytest.raises(BadDimension, match="holds 1120 forms"):
        Sector(4, 4)


def test_sector_bases_are_prefix_compatible():
    small = Sector(4, 1)
    large = Sector(4, 2)
    assert large.monomials[:len(small.monomials)] == small.monomials
    assert sum(small.monomials[-1]) == 1


def test_dirac_squares_to_laplacian():
    op = model_L(random_model_matrix(4, Random(5), -1), "exact")
    size = Sector(4, 2).size
    # At T = 1 a coupling factor on the wrong sector part goes unnoticed.
    for t in (1, Fraction(7, 3), 10):
        comp = sector_matrix_D(op, 3, 4, t) @ sector_matrix_D(op, 2, 3, t)
        lap = sector_matrix_L(op, 2, t)
        # The composite never escapes the degree <= 2 block ...
        assert all(r < size for (r, _) in comp.entries)
        # ... and agrees with the second-order operator there, exactly.
        sub = SparseMat(size, size, dict(comp.entries))
        assert sub == lap


def test_dirac_annihilates_ground_state():
    op = model_L(random_model_matrix(4, Random(5), -1), "exact")
    delta = kernel_basis(l2_matrix(op))
    assert (sector_matrix_D(op, 0, 1, 1) @ delta).is_zero()


def test_dirac_truncation_guard():
    op = model_L(EYE4)
    with pytest.raises(TruncationTooSmall):
        sector_matrix_D(op, 0, 0, 1)


def old_definition_c1_squared(op, t, moment):
    """C1^2 = T ||eta||^2 / ||delta_hat||^2 on the whole degree <= 1
    sector at coupling t: one solution y of L_hat y = D_hat(source), eta
    its part Gaussian-orthogonal to the ground state delta_hat, and the
    Gram of the monomials under the weight exp(-t x^t S x) taken from
    ``moment(covariance, alpha)``."""
    sec = Sector(op.m, 1)
    n = 1 << op.m
    delta = kernel_basis(l2_matrix(op))
    rhs = sector_matrix_D(op, 0, 1, t) @ (ref_omega_skew(op.m) @ delta)
    y = SparseMat.from_rows([[v] for v in dense_solve(
        dense_from_sparse(sector_matrix_L(op, 1, t)),
        [rhs.get(r, 0) for r in range(rhs.rows)])])
    cov = dense_inverse(dense_from_sparse(op.sqrt_gram.scale(2 * t)))
    gram = [[Fraction(str(moment(cov, tuple(x + z for x, z in zip(a, b)))))
             for b in sec.monomials] for a in sec.monomials]

    def inner(u, v):
        return sum((x * gram[p // n][q // n] * z for p, x in u.items()
                    for q, z in v.items() if p % n == q % n), Fraction(0))

    ground = {r: v for (r, _), v in delta.entries.items()}
    sol = {r: v for (r, _), v in y.entries.items()}
    norm = inner(ground, ground)
    proj = inner(sol, ground) / norm
    eta = {r: sol.get(r, 0) - proj * ground.get(r, 0)
           for r in sol.keys() | ground.keys()}
    return t * inner(eta, eta) / norm


def test_c1_squared_matches_the_gaussian_norm_definition():
    # The closed form on the degree-1 block against the definition it
    # replaces, with moments from the two Gaussian oracles.  Symbolic
    # integration costs about 0.2 s a moment, so it covers A = I at T = 1
    # and Wick pairings cover every case at T = 1, 4 and 16.
    ops = [model_L(EYE4, "exact")]
    for sign in (1, -1):
        ops.append(model_L(random_model_matrix(4, Random(11), sign)))
        assert any(r != c for (r, c) in ops[-1].sqrt_gram.entries)
    want = [eta_scaling(op).c1_squared for op in ops]
    assert want[0] == Fraction(1, 8)
    assert old_definition_c1_squared(ops[0], 1, gaussian_moment_oracle) \
        == want[0]
    for op, value in zip(ops, want):
        for t in (1, 4, 16):
            assert old_definition_c1_squared(
                op, t, gaussian_matching_oracle) == value


def joint_eigenbasis(op, delta):
    """The 2^m vectors f_eps = prod_(k in eps) c(w_k) delta, k descending,
    and their levels 2 sum_(k in eps) sigma_k under L2."""
    f = op.factors
    cs, _ = cl._clifford_gens(op.m)
    basis, level = [delta], [0]
    for eps in range(1, 1 << op.m):
        k = eps.bit_length() - 1
        basis.append(cl._clifford_apply(basis[eps ^ 1 << k], f.w[k], cs))
        level.append(level[eps ^ 1 << k] + 2 * f.sigma[k])
    return basis, level


def eta_sources(op, source, src_den):
    """rho_j = (chat(a_j) / scale - sigma_j c(w_j)) source / src_den, the
    degree-1 source along w_j, as (numerators, denominator) pairs:
    integers if exact, floats over 1 if float."""
    f = op.factors
    cs, chats = cl._clifford_gens(op.m)
    out = []
    for j, s in enumerate(f.sigma):
        p, q = (s.numerator, s.denominator) if op.mode == "exact" else (s, 1)
        rho = cl._clifford_apply(
            source, [-f.scale * p * x for x in f.w[j]], cs,
            cl._clifford_apply(source, [q * x for x in f.a[j]], chats))
        out.append((rho, src_den * f.scale * q))
    return out


def eigenbasis_c1_squared(op):
    """Reference C1^2 by a solve in the joint eigenbasis: 1/2 sum_j |z_j|^2
    / (sigma_j |w_j|^2 |delta|^2), where along w_j the degree-1 block is
    (2 sigma_j + L2) z_j = rho_j (``eta_sources``), solved in the f_eps
    of ``joint_eigenbasis`` (zero terms dropped) and checked against L2
    applied by ``_l2_apply``: on integers if exact, to ``_FLOAT_CUT`` of
    rho_j if float.  It does 2^m-wide work for each of the m sources."""
    f = op.factors
    exact = op.mode == "exact"
    delta = op.ground
    source, src_den = cl._omega_skew(op.m, delta, exact)
    basis, level = joint_eigenbasis(op, delta)
    sizes = [cl._dot(b.values(), b.values()) for b in basis]
    total = 0
    for j, (rho, rho_den) in enumerate(eta_sources(op, source, src_den)):
        # sigma_j = p / q, z_j = z / common.
        s = f.sigma[j]
        p, q = (s.numerator, s.denominator) if exact else (s, 1)
        inner = [sum(y * b.get(t, 0) for t, y in rho.items()) for b in basis]
        coeffs = {eps: x / (sizes[eps] * rho_den * (2 * s + level[eps]))
                  for eps, x in enumerate(inner) if x}
        common = math.lcm(*(c.denominator for c in coeffs.values())) \
            if exact else 1
        z: dict = {}
        for eps, c in coeffs.items():
            c = int(c * common) if exact else c
            for t, y in basis[eps].items():
                z[t] = z.get(t, 0) + c * y
        lz, den = cl._l2_apply(op, z)
        # (2 p / q + L2 numerators / den) z / common == rho / rho_den.
        got = {t: rho_den * (2 * p * den * z.get(t, 0) + q * lz.get(t, 0))
               for t in z.keys() | lz.keys()}
        want = {t: q * den * common * x for t, x in rho.items()}
        assert cl._residual(got, want) <= (
            0 if exact else cl._FLOAT_CUT * cl._residual(want, {}))
        total += cl._dot(z.values(), z.values()) / (
            common * common * s * cl._dot(f.w[j], f.w[j]))
    return total / 2 / cl._dot(delta.values(), delta.values())


# The samples with rational singular values; matrix_random_12 is left
# out, as the reference solve takes about a minute there.
EXACT_SAMPLES = ("matrix_diag_1234", "matrix_diag_8", "matrix_random_8",
                 "matrix_rational_svd_4", "matrix_rotated_4")


def random_models(cases):
    """random_model_matrix(m, Random(s), sign) for each (m, seeds) in
    cases, every seed and both signs."""
    return [random_model_matrix(m, Random(s), sign) for m, seeds in cases
            for s in seeds for sign in (1, -1)]


def test_closed_form_c1_squared_matches_the_eigenbasis_solve():
    # The reported closed form against the 2^m solve it replaced: the same
    # Fraction in exact mode, and within 1e-12 relative in float mode.
    mats = random_models(((4, range(1, 9)), (8, range(1, 4))))
    mats += [load_matrix_rows(str(SAMPLES / f"{name}.txt"))
             for name in EXACT_SAMPLES]
    for a in mats:
        op = model_L(a, "exact")
        assert eta_scaling(op).c1_squared == eigenbasis_c1_squared(op)
    for a in mats + [SHEAR]:
        op = model_L(a, "float")
        want = eigenbasis_c1_squared(op)
        assert abs(eta_scaling(op).c1_squared / want - 1) <= 1e-12


def test_eta_sources_lie_on_the_single_flips():
    # The lemma behind the closed form, on all 2^m vectors f_eps: rho_j has
    # no part along f_eps unless eps = {k} with k != j, where
    # <rho_j, f_k> = -sigma_j N_jk |delta|^2 |w_j| |w_k|
    #              = -sigma_j n_jk |delta|^2 / 2,
    # n_jk = omega(w_j, w_k) + omega(a_j, a_k) / (scale^2 sigma_j sigma_k);
    # and the f_k are orthogonal and carry all of |rho_j|^2.
    for a in random_models(((4, range(1, 5)), (8, range(1, 2)))):
        op = model_L(a, "exact")
        f = op.factors
        delta = op.ground
        source, src_den = cl._omega_skew(op.m, delta, True)
        basis, _ = joint_eigenbasis(op, delta)
        size = cl._dot(delta.values(), delta.values())
        for k in range(op.m):
            for h in range(op.m):
                inner = sum(x * basis[1 << h].get(t, 0)
                            for t, x in basis[1 << k].items())
                assert inner == (size * cl._dot(f.w[k], f.w[k]) if h == k
                                 else 0)
        for j, (rho, den) in enumerate(eta_sources(op, source, src_den)):
            along = []
            for eps, b in enumerate(basis):
                inner = Fraction(sum(y * b.get(t, 0) for t, y in rho.items()),
                                 den)
                if eps.bit_count() != 1 or eps == 1 << j:
                    assert inner == 0
                    continue
                k = eps.bit_length() - 1
                n = cl._omega(f.w[j], f.w[k]) + cl._omega(f.a[j], f.a[k]) / (
                    f.scale ** 2 * f.sigma[j] * f.sigma[k])
                assert inner == -f.sigma[j] * n * size / 2
                along.append(inner ** 2 / (size * cl._dot(f.w[k], f.w[k])))
            assert sum(along) == Fraction(cl._dot(rho.values(), rho.values()),
                                          den * den)


def check_cap1(op):
    """Check the cap-1 sector exactly against the closed forms that the
    closed-form C1^2 assumes, T times fixed operators: lap has no entry and
    flow is x_b -> 2 sum_a S_ba x_a, so ``sector_matrix_L`` is T (flow
    tensor 1 + 1 tensor L2) at every T; the cap-0 to cap-1
    ``sector_matrix_D`` at T = 1 is sum_j x_j (chat(A e_j) - c(S e_j)),
    which that builder scales by T, compared entry by entry with a closed
    form of m^2 weighted generators.  The builders are looked up on their
    modules at each call, so a patched one is what gets checked."""
    m, sec = op.m, Sector(op.m, 1)
    # Degree-1 monomials are ordered by exponent tuple, not by variable.
    var = [mono.index(1) for mono in sec.monomials[1:]]
    s_rows, a_rows = op.sqrt_gram.to_rows(), op.a.to_rows()
    lap, flow = cl._sector_parts(op, sec)
    if lap.entries or flow != SparseMat(m + 1, m + 1, {
            (i + 1, k + 1): 2 * s_rows[var[k]][var[i]]
            for i in range(m) for k in range(m)}):
        raise CheckFailure("eta check: the cap-1 L is not "
                           "T (flow tensor 1 + 1 tensor L2)")
    want = {}
    for k, j in enumerate(var, 1):
        for i in range(m):
            # A_ij chat(e_i) - S_ij c(e_i) is (A_ij - S_ij) times the wedge
            # plus (A_ij + S_ij) times the contraction by e_i; the m terms
            # of one block have different permutations and never meet.
            a, s = a_rows[i][j], s_rows[i][j]
            perm, sign = per_mask(ex._generator(m, i, a - s, a + s), m)
            want.update((((k << m) + r, c), y)
                        for c, (r, y) in enumerate(zip(perm, sign)) if y)
    got = sectors.sector_matrix_D(op, 0, 1, 1)
    if got.shape != ((m + 1) << m, 1 << m) or got.entries != want:
        raise CheckFailure("eta check: the cap-1 D is not "
                           "T sum_j x_j (chat(A e_j) - c(S e_j))")


def cap1_mutants():
    """(module, name, mutant, message) tuples that break the cap-1 sector eta
    relies on.  In ``_sector_parts`` at cap 1: a lap entry, an entry of
    flow off its diagonal (zero there for A = I) and one across degrees.
    In ``sector_matrix_D``: a T^2 term on a degree-1 row and a T-linear
    term on the degree-0 row, both seen at the T = 1 of the check.  The
    exact comparisons of ``check_cap1`` catch each."""
    parts, build_d = cl._sector_parts, sectors.sector_matrix_D
    wrong_l = (r"eta check: the cap-1 L is not "
               r"T \(flow tensor 1 \+ 1 tensor L2\)")
    wrong_d = r"eta check: the cap-1 D is not T sum_j x_j"

    def bump_parts(part, r, c):
        def mutant(op, sec):
            pair = list(parts(op, sec))
            if sec.cap == 1:
                k = len(sec.monomials)
                pair[part] += SparseMat(k, k, {(r, c): Fraction(1)})
            return tuple(pair)
        return cl, "_sector_parts", mutant, wrong_l

    def bump_d(entry):
        def mutant(op, cap_in, cap_out, t):
            mat = build_d(op, cap_in, cap_out, t)
            r, c, power = entry(1 << op.m)
            return mat + SparseMat(mat.rows, mat.cols, {(r, c): t ** power})
        return sectors, "sector_matrix_D", mutant, wrong_d

    return [bump_parts(0, 0, 1), bump_parts(1, 1, 2), bump_parts(1, 0, 1),
            bump_d(lambda n: (n, 0, 2)), bump_d(lambda n: (0, 0, 1))]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_eta_homogeneity_is_asserted(mode, monkeypatch):
    # eta_scaling reads no sector builder: its closed form assumes that
    # the cap-1 L and D are T times fixed operators.  ``check_cap1``
    # certifies that on random models of both signs, and each mutant of
    # a builder breaks it.
    for m, sign in ((4, 1), (4, -1), (8, 1), (8, -1)):
        op = model_L(random_model_matrix(m, Random(m), sign), mode)
        assert any(r != c for (r, c) in op.sqrt_gram.entries)
        check_cap1(op)
        for module, name, mutant, message in cap1_mutants():
            with monkeypatch.context() as patch:
                patch.setattr(module, name, mutant)
                with pytest.raises(CheckFailure, match=message):
                    check_cap1(op)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sector_builders_are_affine_in_T(mode):
    # eta checks the cap-1 L on its T-free parts and the cap-1 D at T = 1;
    # that certifies every T only because both builders are affine in T:
    # equal steps in T give equal, nonzero steps in the matrix.
    op = model_L(random_model_matrix(4, Random(13), -1), mode)
    assert any(r != c for (r, c) in op.a.entries)
    for build in (lambda t: sector_matrix_L(op, 2, t),
                  lambda t: sector_matrix_D(op, 1, 2, t)):
        one, two, three = map(build, (1, 2, 3))
        assert not (two - one).is_zero()
        assert three - two == two - one


@pytest.mark.parametrize("sign", [1, -1])
def test_random_8x8_model_passes_exactly(sign):
    # A^t A is a full 8 x 8 matrix with one repeated singular value; every
    # check runs exact, with no elimination on the 256 x 256 L2.
    a = random_model_matrix(8, Random(1), sign)
    op = model_L(a, "exact")
    assert any(r != c for (r, c) in op.sqrt_gram.entries)
    assert kernel_and_parity(op) == (0 if sign > 0 else 1)
    assert spectrum_scaling(op, cap=2).passed
    verdict = eta_scaling(op)
    assert verdict.passed and verdict.mode == "exact"
    assert abs(float(verdict.c1_squared) - (0.04380150457583586 if sign > 0
                                            else 0.036750805240422985)) \
        <= 1e-15


@pytest.mark.parametrize("sign", [1, -1])
def test_random_8x8_model_passes_in_float_mode(sign):
    # Float mode on a full 8 x 8 A^t A: the parity of exact mode, and its
    # spectrum and C1^2 to within rounding.
    a = random_model_matrix(8, Random(1), sign)
    exact_op, float_op = model_L(a, "exact"), model_L(a, "float")
    assert kernel_and_parity(float_op) == kernel_and_parity(exact_op) \
        == (0 if sign > 0 else 1)
    exact = spectrum_scaling(exact_op, cap=2)
    approx = spectrum_scaling(float_op, cap=2)
    assert approx.passed and approx.mode == "float"
    got, want = flat(approx.spectrum), flat(exact.spectrum)
    assert len(got) == len(want)
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9
    want = eta_scaling(exact_op).c1_squared
    verdict = eta_scaling(float_op)
    assert verdict.passed and verdict.mode == "float"
    assert abs(verdict.c1_squared - want) <= 1e-12 * want


def test_random_12x12_sample_passes_exactly():
    # The model limit: a full 12 x 12 A^t A with three repeated singular
    # values.  The kernel, the cap-2 spectrum and eta all run exact, on
    # one 4096-form L2; the 2^m reference solve gives the same C1^2 in
    # about a minute, too slow to repeat here.
    rows = load_matrix_rows(str(SAMPLES / "matrix_random_12.txt"))
    a = random_model_matrix(12, Random(1), -1)
    assert SparseMat.from_rows(rows) == a
    op = model_L(rows, "exact")
    assert op.m == MODEL_DIM_LIMIT == 12
    assert kernel_and_parity(op) == 1
    verdict = spectrum_scaling(op, cap=2)
    assert verdict.passed
    assert len(flat(verdict.spectrum)) == Sector(12, 2).size
    assert verdict.gap == 4 / 3
    eta = eta_scaling(op)
    assert eta.passed and eta.c1_squared == Fraction(
        551994603010280984169182257896609986475810149458679,
        4612867968304712577926305248900254458007812500000000)


def test_float_eta_at_the_model_limit():
    # Float mode on the 12 x 12 sample: the parity and C1^2 that exact
    # mode certifies (test_random_12x12_sample_passes_exactly), and on the
    # diagonal 8 x 8 sample the exact C1^2 to within rounding.
    rows = load_matrix_rows(str(SAMPLES / "matrix_random_12.txt"))
    op = model_L(rows, "float")
    assert op.m == MODEL_DIM_LIMIT and kernel_and_parity(op) == 1
    verdict = eta_scaling(op)
    assert verdict.passed and verdict.mode == "float"
    want = Fraction(
        551994603010280984169182257896609986475810149458679,
        4612867968304712577926305248900254458007812500000000)
    assert abs(verdict.c1_squared / want - 1) <= 1e-12
    rows = load_matrix_rows(str(SAMPLES / "matrix_diag_8.txt"))
    assert eta_scaling(model_L(rows, "exact")).c1_squared \
        == Fraction(61, 770)
    verdict = eta_scaling(model_L(rows, "float"))
    assert verdict.passed and verdict.mode == "float"
    assert abs(verdict.c1_squared - 61 / 770) <= 1e-12


# -- rational random sources ----------------------------------------------


def test_random_orthogonal_is_orthogonal():
    rng = Random(23)
    for _ in range(5):
        q = random_rational_orthogonal(4, rng)
        assert q.transpose() @ q == SparseMat.identity(4)
    # The unit vector is the first column of the same random rotation.
    for m in (4, 8, 12):
        q = random_rational_orthogonal(m, Random(m))
        assert random_rational_unit_vector(m, Random(m)) == [
            q.get(i, 0) for i in range(m)]


def test_random_model_matrix_contract():
    rng = Random(29)
    for sign in (1, -1):
        a = random_model_matrix(4, rng, sign)
        op = model_L(a, "exact")
        assert op.det_sign == sign
        s = op.sqrt_gram
        assert s == s.transpose()
        assert s @ s == a.transpose() @ a

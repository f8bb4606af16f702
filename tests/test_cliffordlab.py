"""Tests for the Clifford identities and the finite oscillator model."""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from symsemi import cliffordlab as cl
from symsemi.errors import CheckFailure
from symsemi.modelio import load_matrix_rows
from symsemi.qlinalg import SparseMat, kernel_basis
from symsemi.report import spectrum_table
from symsemi.cliffordlab import (
    BadDimension,
    CLIFFORD_DIM_LIMIT,
    DimensionMismatch,
    MODEL_DIM_LIMIT,
    NoRationalRoot,
    NotUnit,
    SECTOR_LIMIT,
    Sector,
    Singular,
    TruncationTooSmall,
    UnexpectedKernel,
    clifford,
    dvol_action,
    eta_scaling,
    hodge_star,
    kernel_and_parity,
    model_L,
    omega_skew,
    omega_wedge,
    random_model_matrix,
    random_rational_orthogonal,
    random_rational_unit_vector,
    sector_matrix_D,
    sector_matrix_L,
    spectrum_scaling,
    verify_car,
    verify_complex_structure,
    verify_volume_omega,
    verify_volume_star,
)
from oracles import (car_oracle, dense_from_sparse, dense_inverse,
                     dense_solve, gaussian_matching_oracle,
                     gaussian_moment_oracle, star_sign_oracle)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
EYE4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
EYE12 = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
SHEAR = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def basis_vector(m, i):
    return [1 if j == i else 0 for j in range(m)]


# -- exterior-algebra operators ------------------------------------------


def test_chat_on_scalar_is_wedge():
    # chat(e_1) applied to the empty form is e^1 (mask 1).
    op = clifford(basis_vector(4, 0), "chat")
    col = {r: v for (r, c), v in op.entries.items() if c == 0}
    assert col == {1: Fraction(1)}


def test_c_on_scalar_is_wedge_too():
    op = clifford(basis_vector(4, 0), "c")
    col = {r: v for (r, c), v in op.entries.items() if c == 0}
    assert col == {1: Fraction(1)}


def test_clifford_rejects_bad_input():
    with pytest.raises(ValueError):
        clifford([1, 0, 0, 0], "dagger")
    with pytest.raises(DimensionMismatch):
        clifford([], "chat")


def test_volume_action_examples():
    vol = dvol_action(4)
    # On the empty form it produces the volume form with sign +1.
    assert {r: v for (r, c), v in vol.entries.items() if c == 0} == {
        15: Fraction(1)}
    # On e^1 it produces -e^{234} (mask 0b1110 = 14).
    assert {r: v for (r, c), v in vol.entries.items() if c == 1} == {
        14: Fraction(-1)}


def test_volume_action_is_its_own_transpose():
    vol = dvol_action(4)
    assert vol == vol.transpose()
    vol8 = dvol_action(8)
    assert vol8 == vol8.transpose()


def test_volume_action_needs_multiple_of_four():
    with pytest.raises(BadDimension):
        dvol_action(6)


def test_double_star_sign_by_degree():
    m = 4
    twice = hodge_star(m) @ hodge_star(m)
    for mask in range(1 << m):
        k = bin(mask).count("1")
        expect = Fraction(-1 if (k * (m - k)) % 2 else 1)
        assert twice.get(mask, mask) == expect
    # Degree 1 in dimension 4 really does pick up the sign.
    assert twice.get(1, 1) == -1


def test_star_signs_match_permutation_oracle():
    m = 4
    star = hodge_star(m)
    full = (1 << m) - 1
    for mask in range(1 << m):
        assert star.get(full & ~mask, mask) == star_sign_oracle(mask, m)


def test_omega_wedge_on_scalar():
    # The standard form pairs coordinates (1,2) and (3,4).
    col = {r: v for (r, c), v in omega_wedge(4).entries.items() if c == 0}
    assert col == {0b0011: Fraction(1), 0b1100: Fraction(1)}


def test_omega_skew_is_skew_symmetric():
    sk = omega_skew(4)
    assert sk.transpose() == sk.scale(-1)
    z = SparseMat.zeros(16, 16)
    block = SparseMat.block([[sk, z], [z, sk.scale(-1)]])
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
    assert CLIFFORD_DIM_LIMIT == 12 and MODEL_DIM_LIMIT == 8
    for verify in (verify_car, verify_volume_star, verify_volume_omega):
        with pytest.raises(BadDimension, match="exceeds the limit 12"):
            verify(CLIFFORD_DIM_LIMIT + 4)
    with pytest.raises(BadDimension, match="exceeds the limit 12"):
        verify_complex_structure([1] + [0] * CLIFFORD_DIM_LIMIT)
    with pytest.raises(BadDimension, match="exceeds the limit 8"):
        model_L(EYE12, "exact")


def test_model_limit_holds_in_float_mode():
    # The model's cost grows like 4^m in either arithmetic, so it refuses
    # m = 12 up front in float mode too.
    with pytest.raises(BadDimension, match="exceeds the limit 8"):
        model_L(EYE12, "float")


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


def test_signed_permutations_match_sparse_products():
    for m in (4, 8):
        for i in range(m):
            for wedge, contract, kind in ((1, 1, "chat"), (1, -1, "c")):
                ref = ref_chat(m, i, kind)
                op = cl._generator(m, i, wedge, contract)
                assert cl._to_sparse(m, [(1, op)]) == ref
                assert clifford(basis_vector(m, i), kind) == ref
        vol = ref_dvol(m)
        assert cl._to_sparse(m, [(1, cl._dvol(m))]) == vol
        assert dvol_action(m) == vol
        form = SparseMat.zeros(1 << m, 1 << m)
        for i in range(0, m, 2):
            form = form + ref_wedge(m, i) @ ref_wedge(m, i + 1)
        assert cl._to_sparse(m, [(1, w) for w in cl._omega_terms(m)]) == form
        assert omega_wedge(m) == form
        v = random_rational_unit_vector(m, Random(m))
        ch = SparseMat.zeros(1 << m, 1 << m)
        for i, x in enumerate(v):
            ch = ch + ref_chat(m, i).scale(x)
        assert cl._to_sparse(m, cl._chat_square(v)) == ch @ ch
        assert ch @ ch == SparseMat.identity(1 << m)


def sparse_verdicts(m, v):
    """The four checks as products of the public sparse operators."""
    def verdict(diffs):
        worst, culprit = 0.0, ""
        for label, mat in diffs:
            r = max((abs(float(x)) for x in mat.entries.values()),
                    default=0.0)
            if r > worst:
                worst, culprit = r, label
        return worst, culprit

    n = 1 << m
    eye, zero = SparseMat.identity(n), SparseMat.zeros(n, n)
    chat = [clifford(basis_vector(m, i), "chat") for i in range(m)]
    cc = [clifford(basis_vector(m, i), "c") for i in range(m)]
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

    signed = SparseMat(n, n, {(r, c): x * degree_sign(c) for (r, c), x
                              in hodge_star(m).entries.items()})
    form = omega_wedge(m)
    ch = clifford(v, "chat")
    j = SparseMat.block([[zero, -ch], [ch, zero]])
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
    generator = cl._generator

    def flipped(m, i, wedge, contract):
        # One sign of e_2 wedge (and so of chat(e_2) and c(e_2)) is wrong.
        op = generator(m, i, wedge, contract)
        if i != 1:
            return op
        return cl._Mono(op.perm, (-op.sign[0],) + op.sign[1:])

    for m in (4, 8):
        v = [Fraction(3, 5), Fraction(4, 5)] + [0] * (m - 2)
        for verdict in engine_verdicts(m, v).values():
            assert verdict.passed and verdict.max_residual == 0.0
        monkeypatch.setattr(cl, "_generator", flipped)
        want = sparse_verdicts(m, v)
        got = engine_verdicts(m, v)
        monkeypatch.setattr(cl, "_generator", generator)
        for name, (residual, culprit) in want.items():
            assert not got[name].passed
            assert got[name].max_residual == residual > 0
            assert got[name].detail == \
                f"largest residual {residual:.3e} in {culprit}"


def test_max_entry_merges_terms_on_different_permutations():
    # Two monomials with different permutations that meet in one entry.
    a = cl._Mono((1, 0, 2, 3), (1, 1, 1, 1))
    b = cl._Mono((1, 2, 0, 3), (1, 1, 1, 1))
    assert cl._max_entry([(Fraction(1, 2), a), (Fraction(1, 3), b)]) == \
        Fraction(5, 6)
    assert cl._max_entry([(1, a), (-1, a)]) == 0


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
        assert spectrum_scaling(op, (1, 10, 100), cap=3).passed
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
    # included, so no check ever runs on a broken J_k.
    op = model_L(random_model_matrix(4, Random(7), -1), mode)
    assert eta_scaling(op).passed
    with pytest.raises(UnexpectedKernel,
                       match=r"L2 is not tr S \+ sum_k sigma_k J_k"):
        flipped_involution(op)


def test_jacobi_matches_numpy_eigh():
    import numpy as np

    rng = Random(67)
    for n in (4, 8, 4, 8):
        rows = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        g = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        values, vectors = cl._jacobi_eigh(SparseMat.from_rows(g))
        want, _ = np.linalg.eigh(np.array(g))
        assert np.allclose(sorted(values), want, rtol=0, atol=1e-12)
        v = np.array(vectors)
        assert np.allclose(v @ v.T, np.eye(n), rtol=0, atol=1e-13)
        assert np.allclose(np.array(g) @ v.T, v.T * np.array(values),
                           rtol=0, atol=1e-12)


def test_form_operator_matches_clifford_products():
    # L2 = tr(S) + sum_j c(e_j) chat(A e_j), built the long way from the
    # public Clifford builders.
    for m in (4, 8):
        rng = Random(m)
        for sign in (1, -1, 1):
            a = random_model_matrix(m, rng, sign)
            op = model_L(a, "exact")
            want = SparseMat.identity(1 << m).scale(op.trace_sqrt())
            cols = a.to_rows()
            for j in range(m):
                col = [cols[i][j] for i in range(m)]
                want = want + (clifford(basis_vector(m, j), "c")
                               @ clifford(col, "chat"))
            assert op.form_op.entries == want.entries


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


def broken_form_ops():
    """Two corruptions of L2 on the 16 masks of m = 4: identity on masks
    2-15 only (a 2-dimensional kernel), and row 0 = e0 - e1 with row 1
    empty (a 1-dimensional kernel spanning the even mask 0 and the odd
    mask 1).  Neither is tr S + sum_k sigma_k J_k."""
    rest = {(i, i): Fraction(1) for i in range(2, 16)}
    return (SparseMat(16, 16, rest),
            SparseMat(16, 16, {**rest, (0, 0): Fraction(1),
                               (0, 1): Fraction(-1)}))


def test_broken_kernels_raise_in_both_modes():
    # The kernel and eta checks both rest on the L2 identity, which the
    # model checks when it is built: it refuses either corruption in both
    # modes before any check could run on it.
    for op in (model_L(EYE4, "exact"), model_L(SHEAR, "float")):
        for broken in broken_form_ops():
            with pytest.raises(UnexpectedKernel,
                               match=r"L2 is not tr S \+ sum_k sigma_k J_k"):
                op.replace(form_op=broken)


# -- spectrum and eta scaling --------------------------------------------


def test_spectrum_scaling_identity_matrix():
    verdict = spectrum_scaling(model_L(EYE4, "exact"), (1, 10, 100),
                               cap=2)
    assert verdict.passed
    assert verdict.mode == "exact"
    assert verdict.structure_ok and verdict.blocks_match
    assert verdict.max_deviation == 0.0
    assert verdict.gap == 2.0
    assert verdict.spectrum[0] == 0.0


def test_spectrum_scaling_degenerate_diagonal():
    op = model_L([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
                 "exact")
    verdict = spectrum_scaling(op, (1, 10, 100), cap=2)
    assert verdict.passed and verdict.blocks_match


def test_spectrum_scaling_input_guards():
    op = model_L(EYE4)
    with pytest.raises(ValueError):
        spectrum_scaling(op, (1, 10), cap=2)
    with pytest.raises(ValueError):
        spectrum_scaling(op, (1, 10, 100), cap=1)
    with pytest.raises(ValueError):
        spectrum_scaling(op, (1, 1, 10), cap=2)


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
        verdict = spectrum_scaling(op, (1, 10, 100), cap=2)
        assert not verdict.passed
        assert verdict.structure_ok and not verdict.blocks_match
        assert verdict.detail == "diagonal blocks differ across T"
        assert verdict.max_deviation == 0.99


def dense_block_spectrum(op, cap, t):
    """Reference spectrum: each degree-diagonal block of the full sector
    operator divided by t, solved densely, with no use of its product
    structure.  A block is first split into the connected components of
    its nonzero pattern, a reordering of the basis that changes no
    eigenvalue."""
    import numpy as np

    sec = Sector(op.m, cap)
    mat = sector_matrix_L(op, cap, t).scale(Fraction(1, t))
    out = []
    for deg in range(cap + 1):
        idx = [i for i in range(sec.size)
               if sum(sec.monomials[i >> op.m]) == deg]
        pos = {i: n for n, i in enumerate(idx)}
        inside = [(pos[r], pos[c], v) for (r, c), v in mat.entries.items()
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
            got = spectrum_scaling(op, (1, 10, 100), cap=cap).spectrum
            want = dense_block_spectrum(op, cap, 10)
            assert len(got) == len(want) == Sector(op.m, cap).size
            assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9
            assert spectrum_table(got) == spectrum_table(want)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_trace_guard_catches_a_changed_form_operator(mode, monkeypatch):
    # The closed form never reads the assembled L2, so the trace guard
    # must.  ``_form_operator`` builds both L2 and the right side of its
    # identity, so an entry it adds passes the model's own check; one
    # added off the diagonal, where its transpose is nonzero, changes
    # tr L2^2 alone.
    a = rotated_diagonal(Random(5), -1)
    op = model_L(a, mode)
    form = op.form_op.entries
    r, c = next(k for k in sorted(form) if k[0] != k[1] and k[::-1] in form)
    build = cl._form_operator
    monkeypatch.setattr(cl, "_form_operator", lambda *args: build(
        *args) + SparseMat(16, 16, {(r, c): Fraction(1)}))
    bumped = model_L(a, mode)
    assert bumped.form_op - op.form_op == SparseMat(16, 16, {(r, c): 1})
    assert spectrum_scaling(op, (1, 10, 100), cap=2).passed
    with pytest.raises(CheckFailure, match=r"trace guard: tr L2\^2 = "):
        spectrum_scaling(bumped, (1, 10, 100), cap=2)


def test_spectrum_scaling_in_dimension_eight():
    import numpy as np

    values = (2, Fraction(1, 2), 3, -1, 5, Fraction(3, 2), 7, 4)
    diag = [[values[i] if i == j else 0 for j in range(8)] for i in range(8)]
    a = random_model_matrix(8, Random(1), -1)
    for op in (model_L(diag, "exact"), model_L(a, "exact")):
        verdict = spectrum_scaling(op, (1, 10, 100), cap=2)
        assert verdict.passed and verdict.mode == "exact"
        assert len(verdict.spectrum) == Sector(8, 2).size
        assert sum(abs(x) <= 1e-8 for x in verdict.spectrum) == 1
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
        exact = spectrum_scaling(exact_op, (1, 10, 100), cap=2)
        approx = spectrum_scaling(float_op, (1, 10, 100), cap=2)
        assert exact.passed and approx.passed and approx.mode == "float"
        # The numeric S enters as binary rationals, so the float model's
        # diagonal blocks are compared exactly too.
        assert approx.structure_ok and approx.blocks_match
        assert approx.max_deviation == 0.0
        scale = max(abs(x) for x in exact.spectrum)
        assert len(approx.spectrum) == len(exact.spectrum)
        assert max(abs(x - y) for x, y in
                   zip(approx.spectrum, exact.spectrum)) <= 1e-9 * scale


def test_eta_source_orthogonal_to_ground_state():
    # The skew form action applied to the ground form is orthogonal to it,
    # for random coefficient matrices of both determinant signs.
    rng = Random(19)
    skew = omega_skew(4)
    for trial in range(20):
        op = model_L(random_model_matrix(4, rng, 1 if trial % 2 else -1))
        ker = kernel_basis(op.form_op)
        assert ker.cols == 1
        src = skew @ ker
        dot = sum((src.get(r, 0) * ker.get(r, 0) for r in range(16)),
                  Fraction(0))
        assert dot == 0


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
    delta = kernel_basis(op.form_op)
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
    delta = kernel_basis(op.form_op)
    rhs = sector_matrix_D(op, 0, 1, t) @ (omega_skew(op.m) @ delta)
    y = SparseMat.column(dense_solve(
        dense_from_sparse(sector_matrix_L(op, 1, t)),
        [rhs.get(r, 0) for r in range(rhs.rows)]))
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


def cap1_mutants():
    """(name, mutant, message) triples that break the cap-1 sector eta
    relies on.  In ``_sector_parts`` at cap 1: a lap entry, an entry of
    flow off its diagonal (zero there for A = I) and one across degrees.
    In ``sector_matrix_D``: a T^2 term on a degree-1 row and a T-linear
    term on the degree-0 row, both seen at the T = 1 of the check.  The
    exact comparisons with the closed forms catch each."""
    parts, build_d = cl._sector_parts, cl.sector_matrix_D
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
        return "_sector_parts", mutant, wrong_l

    def bump_d(entry):
        def mutant(op, cap_in, cap_out, t):
            mat = build_d(op, cap_in, cap_out, t)
            r, c, power = entry(1 << op.m)
            return mat + SparseMat(mat.rows, mat.cols, {(r, c): t ** power})
        return "sector_matrix_D", mutant, wrong_d

    return [bump_parts(0, 0, 1), bump_parts(1, 1, 2), bump_parts(1, 0, 1),
            bump_d(lambda n: (n, 0, 2)), bump_d(lambda n: (0, 0, 1))]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_eta_homogeneity_is_asserted(mode, monkeypatch):
    op = model_L(EYE4 if mode == "exact" else SHEAR, mode)
    assert eta_scaling(op).passed
    for name, mutant, message in cap1_mutants():
        with monkeypatch.context() as patch:
            patch.setattr(cl, name, mutant)
            with pytest.raises(CheckFailure, match=message):
                eta_scaling(op)


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
    assert spectrum_scaling(op, (1, 10, 100), cap=2).passed
    verdict = eta_scaling(op)
    assert verdict.passed and verdict.mode == "exact"
    assert abs(float(verdict.c1_squared) - (0.04380150457583586 if sign > 0
                                            else 0.036750805240422985)) \
        <= 1e-15


@pytest.mark.parametrize("sign", [1, -1])
def test_random_8x8_model_passes_in_float_mode(sign):
    # Float mode at the model limit on a full A^t A: the parity of exact
    # mode, and its spectrum and C1^2 to within rounding.
    a = random_model_matrix(8, Random(1), sign)
    exact_op, float_op = model_L(a, "exact"), model_L(a, "float")
    assert kernel_and_parity(float_op) == kernel_and_parity(exact_op) \
        == (0 if sign > 0 else 1)
    exact = spectrum_scaling(exact_op, (1, 10, 100), cap=2)
    approx = spectrum_scaling(float_op, (1, 10, 100), cap=2)
    assert approx.passed and approx.mode == "float"
    assert len(approx.spectrum) == len(exact.spectrum)
    assert max(abs(x - y) for x, y in
               zip(approx.spectrum, exact.spectrum)) <= 1e-9
    want = eta_scaling(exact_op).c1_squared
    verdict = eta_scaling(float_op)
    assert verdict.passed and verdict.mode == "float"
    assert abs(verdict.c1_squared - want) <= 1e-12 * want


def test_float_eta_at_the_model_limit():
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

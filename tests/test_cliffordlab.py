"""Tests for the Clifford identities and the finite oscillator model."""
from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from symsemi import cliffordlab as cl
from symsemi.errors import CheckFailure
from symsemi.qlinalg import SparseMat, kernel_basis
from symsemi.report import spectrum_table
from symsemi.cliffordlab import (
    BadDimension,
    CLIFFORD_DIM_LIMIT,
    DimensionMismatch,
    MODEL_DIM_LIMIT,
    NoRationalRoot,
    NotUnit,
    Sector,
    Singular,
    TruncationTooSmall,
    UnexpectedKernel,
    clifford,
    dvol_action,
    eta_scaling,
    gaussian_gram,
    gaussian_moment,
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
from oracles import (car_oracle, gaussian_matching_oracle,
                     gaussian_moment_oracle, star_sign_oracle)

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
        model_L(EYE12, 1, "exact")


def test_model_limit_holds_in_float_mode():
    # A float solve at m = 12 would need a dense 53,248-wide sector, so the
    # model refuses it up front in every mode.
    for mode in ("float", "auto"):
        with pytest.raises(BadDimension, match="exceeds the limit 8"):
            model_L(EYE12, 1, mode)


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
    op = model_L([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]], 1)
    assert op.mode == "exact"
    assert op.det_sign == 1
    assert op.trace_sqrt() == 10
    assert op.sqrt_gram @ op.sqrt_gram == op.a.transpose() @ op.a


def test_model_rejects_bad_inputs():
    with pytest.raises(Singular):
        model_L([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1)
    with pytest.raises(BadDimension):
        model_L([[1 if i == j else 0 for j in range(6)] for i in range(6)], 1)
    with pytest.raises(ValueError):
        model_L(EYE4, 0)
    with pytest.raises(ValueError):
        model_L(EYE4, 1, "sideways")


def test_model_exact_mode_needs_rational_root():
    import numpy as np

    with pytest.raises(NoRationalRoot):
        model_L(SHEAR, 1, "exact")
    # Float mode happily approximates the same matrix.
    op = model_L(SHEAR, 1, "float")
    assert op.mode == "float"
    s = np.array(op.sqrt_gram.to_rows(), dtype=float)
    a = np.array(op.a.to_rows(), dtype=float)
    assert np.abs(s @ s - a.T @ a).max() <= 1e-9


def test_model_has_two_modes():
    with pytest.raises(ValueError, match="bad mode 'auto'"):
        model_L(EYE4, 1, "auto")
    # Float mode takes its square root from numpy, never a supplied one.
    with pytest.raises(ValueError, match="exact mode only"):
        model_L(EYE4, 1, "float", sqrt_gram=SparseMat.identity(4))


def test_model_sqrt_gram_validation():
    bad = SparseMat.from_rows([[2, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        model_L(EYE4, 1, "exact", sqrt_gram=bad)
    asym = SparseMat.from_rows([[1, 1, 0, 0], [0, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        model_L(EYE4, 1, "exact", sqrt_gram=asym)


def test_form_operator_matches_clifford_products():
    # L2 = tr(S) + sum_j c(e_j) chat(A e_j), built the long way from the
    # public Clifford builders.
    for m in (4, 8):
        rng = Random(m)
        for sign in (1, -1, 1):
            a, s = random_model_matrix(m, rng, sign)
            op = model_L(a, 1, "exact", sqrt_gram=s)
            want = SparseMat.identity(1 << m).scale(op.trace_sqrt())
            cols = a.to_rows()
            for j in range(m):
                col = [cols[i][j] for i in range(m)]
                want = want + (clifford(basis_vector(m, j), "c")
                               @ clifford(col, "chat"))
            assert op.form_op.entries == want.entries


def test_kernel_and_parity_examples():
    op = model_L(EYE4, 1)
    assert kernel_and_parity(op) == 0
    flipped = model_L([[-1, 0, 0, 0], [0, 1, 0, 0],
                       [0, 0, 1, 0], [0, 0, 0, 1]], 1)
    assert kernel_and_parity(flipped) == 1
    # A higher polynomial cap finds no additional kernel.
    assert kernel_basis(sector_matrix_L(op, 1)).cols == 1


def test_kernel_and_parity_float_mode():
    rng = Random(17)
    rows = [[Fraction(rng.randint(1, 3)) if j > i else Fraction(0)
             for j in range(4)] for i in range(4)]
    for i in range(4):
        rows[i][i] = Fraction(rng.randint(1, 3))
    op = model_L(rows, 1, "float")
    assert op.det_sign == 1
    assert kernel_and_parity(op) == 0


def broken_form_ops(op):
    """Two corruptions of L2 on the 16 masks of m = 4: identity on masks
    2-15 only (a 2-dimensional kernel), and row 0 = e0 - e1 with row 1
    empty (a 1-dimensional kernel spanning the even mask 0 and the odd
    mask 1)."""
    rest = {(i, i): Fraction(1) for i in range(2, 16)}
    two_dim = SparseMat(16, 16, rest)
    mixed = SparseMat(16, 16, {**rest, (0, 0): Fraction(1),
                               (0, 1): Fraction(-1)})
    return ((op.replace(form_op=two_dim), "kernel dimension 2 at cap 0"),
            (op.replace(form_op=mixed), "mixes form parities"))


def test_broken_kernels_raise_in_both_modes():
    # The kernel check and the ground form of the eta correction share
    # one kernel routine, so both refuse either corruption in both modes.
    for op in (model_L(EYE4, 1, "exact"), model_L(SHEAR, 1, "float")):
        for broken, message in broken_form_ops(op):
            with pytest.raises(UnexpectedKernel, match=message):
                kernel_and_parity(broken)
            with pytest.raises(UnexpectedKernel, match=message):
                eta_scaling(broken, (1, 4, 16))


# -- spectrum and eta scaling --------------------------------------------


def test_spectrum_scaling_identity_matrix():
    verdict = spectrum_scaling(model_L(EYE4, 1, "exact"), (1, 10, 100),
                               cap=2)
    assert verdict.passed
    assert verdict.mode == "exact"
    assert verdict.structure_ok and verdict.blocks_match
    assert verdict.max_deviation == 0.0
    assert verdict.gap == 2.0
    assert verdict.spectrum[0] == 0.0


def test_spectrum_scaling_degenerate_diagonal():
    op = model_L([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
                 1, "exact")
    verdict = spectrum_scaling(op, (1, 10, 100), cap=2)
    assert verdict.passed and verdict.blocks_match


def test_spectrum_scaling_input_guards():
    op = model_L(EYE4, 1)
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
    for op in (model_L(EYE4, 1, "exact"), model_L(SHEAR, 1, "float")):
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
    mat = sector_matrix_L(op.replace(T=Fraction(t)), cap).scale(
        Fraction(1, t))
    out = []
    for deg in range(cap + 1):
        idx = [i for i in range(sec.size) if sec.degree_of(i) == deg]
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
    cases = [(model_L(a, 1, "exact", sqrt_gram=s), (2, 3, 4)) for a, s in
             (random_model_matrix(4, rng, sign) for sign in (1, -1))]
    cases.append((model_L(SHEAR, 1, "float"), (2, 3, 4)))
    # The exact path of the CLI: a non-diagonal A whose S is diagonal.
    for sign in (1, -1):
        op = model_L(rotated_diagonal(rng, sign), 1, "exact")
        assert any(r != c for (r, c) in op.a.entries)
        assert all(r == c for (r, c) in op.sqrt_gram.entries)
        assert op.det_sign == sign
        cases.append((op, (2, 3, 4, 5)))
    values = (2, Fraction(1, 2), 3, -1, 5, Fraction(3, 2), 7, 4)
    cases.append((model_L([[values[i] if i == j else 0 for j in range(8)]
                           for i in range(8)], 1, "exact"), (2,)))
    for op, caps in cases:
        for cap in caps:
            got = spectrum_scaling(op, (1, 10, 100), cap=cap).spectrum
            want = dense_block_spectrum(op, cap, 10)
            assert len(got) == len(want) == Sector(op.m, cap).size
            assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-9
            assert spectrum_table(got) == spectrum_table(want)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_trace_guard_catches_a_changed_form_operator(mode):
    # The closed form never reads the assembled L2, so the trace guard
    # must: one entry added off the diagonal, where its transpose is
    # nonzero, changes tr L2^2 alone.
    rng = Random(5)
    op = model_L(rotated_diagonal(rng, -1), 1, mode)
    form = op.form_op.entries
    r, c = next(k for k in sorted(form) if k[0] != k[1] and k[::-1] in form)
    bumped = op.replace(form_op=op.form_op + SparseMat(
        16, 16, {(r, c): Fraction(1)}))
    assert spectrum_scaling(op, (1, 10, 100), cap=2).passed
    with pytest.raises(CheckFailure, match=r"trace guard: tr L2\^2 = "):
        spectrum_scaling(bumped, (1, 10, 100), cap=2)


def test_spectrum_scaling_in_dimension_eight():
    import numpy as np

    values = (2, Fraction(1, 2), 3, -1, 5, Fraction(3, 2), 7, 4)
    diag = [[values[i] if i == j else 0 for j in range(8)] for i in range(8)]
    a, s = random_model_matrix(8, Random(1), -1)
    for op in (model_L(diag, 1, "exact"),
               model_L(a, 1, "exact", sqrt_gram=s)):
        verdict = spectrum_scaling(op, (1, 10, 100), cap=2)
        assert verdict.passed and verdict.mode == "exact"
        assert len(verdict.spectrum) == Sector(8, 2).size
        assert sum(abs(x) <= 1e-8 for x in verdict.spectrum) == 1
        s_min = float(np.linalg.eigvalsh(
            np.array(op.sqrt_gram.to_rows(), dtype=float)).min())
        assert abs(verdict.gap - 2 * s_min) <= 1e-9


def test_eta_scaling_identity_matrix():
    verdict = eta_scaling(model_L(EYE4, 1, "exact"), (1, 4, 16))
    assert verdict.passed
    assert verdict.mode == "exact"
    assert verdict.c1_squared == Fraction(1, 8)
    assert verdict.constant and verdict.orthogonal
    assert not verdict.source_vanished
    assert abs(verdict.c1 - 0.3535533905932738) < 1e-15


def test_eta_scaling_float_mode():
    verdict = eta_scaling(model_L(EYE4, 1, "float"), (1, 4, 16))
    assert verdict.passed
    assert abs(verdict.c1 - 0.35355339059327373) <= 1e-6


def test_float_mode_matches_exact_mode_on_non_diagonal_gram():
    # A^t A is not diagonal here, so float mode takes a numeric square root
    # and its own correction solve; exact mode gets S supplied.
    for sign in (1, -1):
        a, s = random_model_matrix(4, Random(11), sign)
        assert any(r != c for (r, c) in (a.transpose() @ a).entries)
        exact_op = model_L(a, 1, "exact", sqrt_gram=s)
        float_op = model_L(a, 1, "float")
        exact = eta_scaling(exact_op, (1, 4, 16))
        approx = eta_scaling(float_op, (1, 4, 16))
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


def test_eta_scaling_input_guards():
    op = model_L(EYE4, 1)
    with pytest.raises(ValueError):
        eta_scaling(op, (5,))


def test_eta_source_orthogonal_to_ground_state():
    # The skew form action applied to the ground form is orthogonal to it,
    # for random coefficient matrices of both determinant signs.
    rng = Random(19)
    skew = omega_skew(4)
    for trial in range(20):
        a, s = random_model_matrix(4, rng, 1 if trial % 2 else -1)
        op = model_L(a, 1, "exact", sqrt_gram=s)
        ker = kernel_basis(op.form_op)
        assert ker.cols == 1
        src = skew @ ker
        dot = sum((src.get(r, 0) * ker.get(r, 0) for r in range(16)),
                  Fraction(0))
        assert dot == 0


# -- sector machinery -----------------------------------------------------


def test_sector_bases_are_prefix_compatible():
    small = Sector(4, 1)
    large = Sector(4, 2)
    assert large.monomials[:len(small.monomials)] == small.monomials
    assert small.degree_of((len(small.monomials) - 1) << 4) == 1


def test_dirac_squares_to_laplacian():
    rng = Random(5)
    a, s = random_model_matrix(4, rng, -1)
    size = Sector(4, 2).size
    # At T = 1 a coupling factor on the wrong sector part goes unnoticed.
    for t in (1, Fraction(7, 3), 10):
        op = model_L(a, t, "exact", sqrt_gram=s)
        comp = sector_matrix_D(op, 3, 4) @ sector_matrix_D(op, 2, 3)
        lap = sector_matrix_L(op, 2)
        # The composite never escapes the degree <= 2 block ...
        assert all(r < size for (r, _) in comp.entries)
        # ... and agrees with the second-order operator there, exactly.
        sub = SparseMat(size, size, dict(comp.entries))
        assert sub == lap


def test_dirac_annihilates_ground_state():
    rng = Random(5)
    a, s = random_model_matrix(4, rng, -1)
    op = model_L(a, 1, "exact", sqrt_gram=s)
    delta = kernel_basis(op.form_op)
    assert (sector_matrix_D(op, 0, 1) @ delta).is_zero()


def test_dirac_truncation_guard():
    op = model_L(EYE4, 1)
    with pytest.raises(TruncationTooSmall):
        sector_matrix_D(op, 0, 0)


def test_gaussian_gram_low_degrees():
    op = model_L(EYE4, 1)
    gram = gaussian_gram(op, 1)
    # Constant monomial then the four coordinates, variance 1/2 each.
    expect = [[Fraction(1), 0, 0, 0, 0]] + [
        [0] * (1 + i) + [Fraction(1, 2)] + [0] * (3 - i) for i in range(4)]
    assert gram.to_rows() == [[Fraction(x) for x in row] for row in expect]


def test_gaussian_moments_match_symbolic_integration():
    half = [[Fraction(1, 2)]]
    cache: dict = {}
    for alpha, expect in (((2,), Fraction(1, 2)), ((4,), Fraction(3, 4)),
                          ((6,), Fraction(15, 8)), ((3,), Fraction(0))):
        got = gaussian_moment(half, alpha, cache)
        assert got == expect
        assert got == gaussian_moment_oracle(half, alpha)
    cov = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert gaussian_moment(cov, (1, 1), {}) == gaussian_moment_oracle(
        cov, (1, 1)) == 1


def test_gaussian_moments_match_wick_pairings():
    cov = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    cache: dict = {}
    for alpha, expect in (((1, 1), Fraction(1)), ((2, 2), Fraction(4)),
                          ((3, 1), Fraction(6)), ((1, 2), Fraction(0))):
        got = gaussian_moment(cov, alpha, cache)
        assert got == expect
        assert got == gaussian_matching_oracle(cov, alpha)
    rng = Random(37)
    dense = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
             for _ in range(3)]
    sym = [[dense[i][j] + dense[j][i] for j in range(3)] for i in range(3)]
    cache = {}
    for alpha in ((2, 0, 0), (1, 1, 0), (2, 1, 1), (0, 2, 2), (1, 1, 2)):
        assert gaussian_moment(sym, alpha, cache) == \
            gaussian_matching_oracle(sym, alpha)


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
        a, s = random_model_matrix(4, rng, sign)
        assert s == s.transpose()
        assert s @ s == a.transpose() @ a
        op = model_L(a, 1, "exact", sqrt_gram=s)
        assert op.det_sign == sign

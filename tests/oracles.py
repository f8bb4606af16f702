"""Independent oracles for cross-checking engine output.

Each helper recomputes something the package also computes, using a
different algorithm on a different representation (dense row lists,
fraction-free elimination, signed permutations, symbolic integration), so
agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

from fractions import Fraction


# -- dense exact linear algebra ------------------------------------------


def dense_from_sparse(mat) -> list[list[Fraction]]:
    dense = dense_zeros(mat.rows, mat.cols)
    for (i, j), v in mat.entries.items():
        dense[i][j] = v
    return dense


def dense_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def dense_zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def dense_matmul(a, b) -> list[list[Fraction]]:
    inner = len(b)
    if a and len(a[0]) != inner:
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = dense_zeros(len(a), cols)
    for i, row in enumerate(a):
        for k, v in enumerate(row):
            if v:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        out[i][j] += v * brow[j]
    return out


def dense_transpose(a) -> list[list[Fraction]]:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def sparse_block(grid):
    """The SparseMat laid out from ``grid``, rows of SparseMat blocks with
    every block given: each block's entries shifted by the heights and
    widths of the blocks above it and to its left."""
    from symsemi.qlinalg import SparseMat

    entries, top = {}, 0
    for brow in grid:
        left = 0
        for blk in brow:
            entries.update(((top + i, left + j), v)
                           for (i, j), v in blk.entries.items())
            left += blk.cols
        top += brow[0].rows
    return SparseMat(top, left, entries)


def bareiss_rank(rows) -> int:
    """Rank by fraction-free Bareiss elimination (dense, with pivoting)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    prev = Fraction(1)
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                mat[r][c] = (mat[row][col] * mat[r][c]
                             - mat[r][col] * mat[row][c]) / prev
            mat[r][col] = Fraction(0)
        prev = mat[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def dense_det(rows) -> Fraction:
    """Determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, v in enumerate(rows[0]):
        if not v:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * Fraction(v) * dense_det(minor)
    return total


def dense_gauss_jordan(rows, rhs):
    """Gauss-Jordan elimination on [rows | rhs] with Fraction entries,
    pivoting on the first nonzero entry of each column.  Returns
    (reduced rows, reduced rhs, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in rows]
    b = [[Fraction(v) for v in row] for row in rhs]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p], b[r], b[p] = a[p], a[r], b[p], b[r]
        lead = a[r][c]
        a[r] = [v / lead for v in a[r]]
        b[r] = [v / lead for v in b[r]]
        # Only the nonzero entries of the pivot row change the others.
        hits = [(j, y) for j, y in enumerate(a[r]) if y]
        rhs_hits = [(j, y) for j, y in enumerate(b[r]) if y]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                for j, y in hits:
                    a[i][j] -= f * y
                for j, y in rhs_hits:
                    b[i][j] -= f * y
        pivots.append(c)
        r += 1
    return a, b, pivots


def dense_solve(rows, rhs):
    """One solution x of rows @ x = rhs (rhs a list of numbers), with 0 in
    every free slot, or None when the system is inconsistent."""
    a, b, pivots = dense_gauss_jordan(rows, [[v] for v in rhs])
    if any(b[i][0] for i in range(len(pivots), len(a))):
        return None
    x = [Fraction(0)] * (len(a[0]) if a else 0)
    for i, c in enumerate(pivots):
        x[c] = b[i][0]
    return x


def dense_inverse(rows):
    """The inverse of a nonsingular square matrix, by Gauss-Jordan."""
    n = len(rows)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    _, inv, pivots = dense_gauss_jordan(rows, eye)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return inv


# -- by-hand cone assembly -----------------------------------------------


def dense_cone(dims, d, omega, p: int = 0):
    """Mapping cone data assembled from scratch on dense matrices.

    dims[k] for k = 0..top, d[k] is dims[k+1] x dims[k], omega[k] is
    dims[k+2] x dims[k].  Returns (cone_dims, cone_d) with cone degree k
    holding the degree-k piece plus the degree-(k - 2p - 1) piece and
    differential [[d, omega^(p+1)], [0, -d]].
    """
    shift = 2 * p + 1
    top = len(dims) - 1

    def dim(k):
        return dims[k] if 0 <= k <= top else 0

    def dmat(k):
        if 0 <= k < top:
            return d[k]
        return dense_zeros(dim(k + 1), dim(k))

    def omat(k):
        if 0 <= k <= top - 2:
            return omega[k]
        return dense_zeros(dim(k + 2), dim(k))

    def opower(k, power):
        out = dense_identity(dim(k))
        deg = k
        for _ in range(power):
            out = dense_matmul(omat(deg), out)
            deg += 2
        return out

    cone_top = top + shift
    cone_dims = [dim(k) + dim(k - shift) for k in range(cone_top + 1)]
    cone_d = []
    for k in range(cone_top):
        rows = cone_dims[k + 1]
        cols = cone_dims[k]
        out = dense_zeros(rows, cols)
        top_rows = dim(k + 1)
        top_cols = dim(k)
        for i, row in enumerate(dmat(k)):
            for j, v in enumerate(row):
                out[i][j] = Fraction(v)
        for i, row in enumerate(opower(k - shift, p + 1)):
            for j, v in enumerate(row):
                out[i][top_cols + j] = Fraction(v)
        for i, row in enumerate(dmat(k - shift)):
            for j, v in enumerate(row):
                out[top_rows + i][top_cols + j] = -Fraction(v)
        cone_d.append(out)
    return cone_dims, cone_d


def dense_betti(dims, d) -> list[int]:
    """Betti numbers of a dense complex: dim - rank(out) - rank(in)."""
    ranks = [bareiss_rank(mat) for mat in d]
    out = []
    for k, n in enumerate(dims):
        r_out = ranks[k] if k < len(ranks) else 0
        r_in = ranks[k - 1] if k >= 1 else 0
        out.append(n - r_out - r_in)
    return out


def dense_harmonic(dims, d) -> list[int]:
    """Kernel dimensions of d^t d + d d^t per degree, densely."""
    out = []
    for k, n in enumerate(dims):
        lap = dense_zeros(n, n)
        if k < len(d):
            dk = d[k]
            for i, row in enumerate(dense_matmul(dense_transpose(dk), dk)):
                for j, v in enumerate(row):
                    lap[i][j] += v
        if k >= 1:
            dk = d[k - 1]
            for i, row in enumerate(dense_matmul(dk, dense_transpose(dk))):
                for j, v in enumerate(row):
                    lap[i][j] += v
        out.append(n - bareiss_rank(lap))
    return out


# -- model operators, one monomial at a time ------------------------------


def basis_oracle(model, k: int) -> list[tuple[int, ...]]:
    """The monomials of degree k, by trying every exponent vector: at most
    1 for an odd generator and ``power_cap`` for an even one."""
    from itertools import product

    gens = model.generators
    ranges = [range(2 if g.degree % 2 else model.power_cap + 1)
              for g in gens]
    out = []
    for powers in product(*ranges):
        if sum(e * g.degree for e, g in zip(powers, gens)) == k:
            out.append(tuple(i for i, e in enumerate(powers)
                             for _ in range(e)))
    return sorted(out)


def sorted_with_sign(model, seq) -> tuple[tuple[int, ...], int]:
    """Reference product: insertion-sort the concatenated factors, one sign
    flip per swap of two odd generators; 0 for an odd repeat or a power
    above the cap."""
    arr, sign = list(seq), 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            if (model.generators[arr[j]].degree % 2
                    and model.generators[arr[j - 1]].degree % 2):
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for g in set(arr):
        limit = 1 if model.generators[g].degree % 2 else model.power_cap
        if arr.count(g) > limit:
            return (), 0
    return tuple(arr), sign


def combination_oracle(model, terms):
    """The Element Σ c·e over the (c, Element) pairs of terms."""
    from symsemi.models import Element

    out = {}
    for c, elt in terms:
        for mono, v in elt.coeffs.items():
            out[mono] = out.get(mono, 0) + c * v
    return Element(model, out)


def product_oracle(a, b):
    """The product of two Elements, each pair of monomials sorted by
    ``sorted_with_sign``."""
    from symsemi.models import Element

    out = {}
    for m1, x in a.coeffs.items():
        for m2, y in b.coeffs.items():
            mono, sign = sorted_with_sign(a.model, m1 + m2)
            if sign:
                out[mono] = out.get(mono, 0) + sign * x * y
    return Element(a.model, out)


def d_oracle(model, elt):
    """d elt by the graded Leibniz rule on each monomial's factor list:
    d g (as the model was given it) takes the place of the i-th factor g
    with the sign (-1)^(degree of the factors before it), and
    ``sorted_with_sign`` sorts the result."""
    from symsemi.models import Element

    out = {}
    for mono, c in elt.coeffs.items():
        before = 0
        for i, g in enumerate(mono):
            for dmono, v in model._dgen[g].items():
                prod, sign = sorted_with_sign(
                    model, mono[:i] + dmono + mono[i + 1:])
                if sign:
                    sign *= -1 if before % 2 else 1
                    out[prod] = out.get(prod, 0) + sign * c * v
            before += model.generators[g].degree
    return Element(model, out)


def d_matrix_oracle(model, k: int):
    """d out of degree k, one basis monomial at a time through
    ``d_oracle``, with no multiplication table."""
    from symsemi.models import Element
    from symsemi.qlinalg import SparseMat

    src = model.basis(k)
    tgt = {m: i for i, m in enumerate(model.basis(k + 1))}
    entries = {}
    for j, mono in enumerate(src):
        for out_mono, c in d_oracle(model, Element(model, {mono: 1})
                                    ).coeffs.items():
            entries[(tgt[out_mono], j)] = c
    return SparseMat(len(tgt), len(src), entries)


def omega_matrix_oracle(model, w, k: int):
    """Wedging with the 2-form w out of degree k, one basis monomial and
    one term of w at a time through ``sorted_with_sign``, with no
    multiplication table."""
    from symsemi.qlinalg import SparseMat

    tgt = {mono: i for i, mono in enumerate(model.basis(k + 2))}
    entries = {}
    for j, mono in enumerate(model.basis(k)):
        for wmono, c in w.coeffs.items():
            out_mono, sign = sorted_with_sign(model, wmono + mono)
            if sign:
                entries[(tgt[out_mono], j)] = c if sign > 0 else -c
    return SparseMat(len(tgt), len(model.basis(k)), entries)


def top_power_nonzero_oracle(model, w) -> bool:
    """w^(dim/2) != 0, by repeated ``product_oracle`` products."""
    from symsemi.models import Element

    power = Element(model, {(): 1})
    for _ in range(model.manifold_dim // 2):
        power = product_oracle(power, w)
    return not power.is_zero()


# -- signed-permutation Clifford oracle ----------------------------------


def _sign_below(mask: int, i: int) -> int:
    return -1 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1


def _apply_chat(i: int, mask: int):
    return mask ^ (1 << i), _sign_below(mask, i)


def _apply_c(i: int, mask: int):
    sign = _sign_below(mask, i)
    if mask & (1 << i):
        sign = -sign
    return mask ^ (1 << i), sign


def car_oracle(m: int) -> bool:
    """Anticommutation relations checked basis vector by basis vector.

    The generator actions are involutions mask -> mask ^ bit with a sign,
    so the check never builds a matrix: both orders of application land on
    the same basis vector and the signs must sum to 2, -2, or 0.
    """
    ops = {"chat": _apply_chat, "c": _apply_c}
    cases = (("chat", "chat", 2), ("c", "c", -2), ("c", "chat", 0))
    for kind_a, kind_b, coeff in cases:
        fa, fb = ops[kind_a], ops[kind_b]
        for i in range(m):
            for j in range(m):
                if kind_a == kind_b and j < i:
                    continue
                want = coeff if i == j else 0
                for mask in range(1 << m):
                    mid, s1 = fb(j, mask)
                    _, s2 = fa(i, mid)
                    mid, t1 = fa(i, mask)
                    _, t2 = fb(j, mid)
                    if s1 * s2 + t1 * t2 != want:
                        return False
    return True


def mono_generator_oracle(m: int, i: int, wedge: int, contract: int):
    """(perm, sign) of wedge * (e_i wedge) + contract * (e_i contract),
    one mask at a time: the operators of ``symsemi.exterior`` as they were
    built before their kernels ran on whole sequences."""
    bit = 1 << i
    below = bit - 1
    masks = range(1 << m)
    return (tuple(s ^ bit for s in masks),
            tuple((contract if s & bit else wedge)
                  * (-1 if (s & below).bit_count() & 1 else 1)
                  for s in masks))


def mono_to_sparse(m: int, terms):
    """The sum of coeff * op over the (coeff, (perm, sign)) in terms as a
    2^m x 2^m SparseMat, one Fraction entry at a time."""
    from symsemi.qlinalg import SparseMat

    entries: dict[tuple[int, int], Fraction] = {}
    for coeff, (perm, sign) in terms:
        for s, (r, x) in enumerate(zip(perm, sign)):
            entries[(r, s)] = entries.get((r, s), 0) + Fraction(coeff) * x
    return SparseMat(1 << m, 1 << m, entries)


def mono_compose_oracle(a, b):
    """a after b for (perm, sign) pairs, mask by mask."""
    return (tuple([a[0][p] for p in b[0]]),
            tuple([a[1][p] * x for p, x in zip(b[0], b[1])]))


def mono_transpose_oracle(a):
    perm = [0] * len(a[0])
    sign = [0] * len(a[0])
    for s, (p, x) in enumerate(zip(a[0], a[1])):
        perm[p] = s
        sign[p] = x
    return tuple(perm), tuple(sign)


def mono_star_oracle(m: int):
    """The Hodge star's (perm, sign), its sign counting, mask by mask, the
    complement's bits below each set bit."""
    full = (1 << m) - 1
    perm, sign = [], []
    for s in range(1 << m):
        comp = full ^ s
        inv = sum((comp & ((1 << i) - 1)).bit_count()
                  for i in range(m) if s >> i & 1)
        perm.append(comp)
        sign.append(-1 if inv % 2 else 1)
    return tuple(perm), tuple(sign)


def star_sign_oracle(mask: int, m: int) -> int:
    """Sign of the permutation sorting [S, complement of S] via sympy."""
    from sympy.combinatorics import Permutation

    subset = [i for i in range(m) if mask >> i & 1]
    rest = [i for i in range(m) if not mask >> i & 1]
    return int(Permutation(subset + rest).signature())


# -- symbolic Gaussian moments -------------------------------------------


def gaussian_moment_oracle(cov, alpha):
    """E[x^alpha] for a centered Gaussian, by symbolic integration.

    cov is the covariance matrix (dense rational rows); integrates the
    unnormalized density exp(-x^t cov^(-1) x / 2) with sympy and divides
    by the normalization.  Returns a sympy Rational.
    """
    import sympy as sp

    n = len(cov)
    xs = sp.symbols(f"x0:{n}", real=True)
    cmat = sp.Matrix([[sp.Rational(Fraction(v)) for v in row]
                      for row in cov])
    prec = cmat.inv()
    vec = sp.Matrix(xs)
    quad = (vec.T * prec * vec)[0, 0]
    density = sp.exp(-quad / 2)
    mono = sp.Integer(1)
    for x, a in zip(xs, alpha):
        mono *= x ** a
    limits = [(x, -sp.oo, sp.oo) for x in xs]
    numerator = sp.integrate(mono * density, *limits)
    denominator = sp.integrate(density, *limits)
    return sp.simplify(numerator / denominator)


def gaussian_matching_oracle(cov, alpha):
    """E[x^alpha] by explicit Wick pairing: sum over perfect matchings of
    the index multiset, each weighted by the product of covariances."""
    indices = []
    for i, e in enumerate(alpha):
        indices.extend([i] * e)
    if len(indices) % 2:
        return Fraction(0)

    def pairings(rest):
        if not rest:
            yield Fraction(1)
            return
        first, tail = rest[0], rest[1:]
        for pos in range(len(tail)):
            weight = cov[first][tail[pos]]
            if not weight:
                continue
            for sub in pairings(tail[:pos] + tail[pos + 1:]):
                yield weight * sub

    return sum(pairings(indices), Fraction(0))


# -- the command line --------------------------------------------------------


def build_parser():
    """The argparse parser the command line used before its table-driven
    parser: the reference grammar for ``symsemi.cli.parse``.  The two
    differ only as documented: argparse accepts unambiguous prefixes of
    option names, and words its usage messages its own way."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="symsemi",
        description="Exact semi-characteristic engine: mapping cones, "
                    "mod-2 zero counting, Clifford identities, and the "
                    "finite model operator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("compute",
                       help="cone Betti numbers and semi-characteristic")
    p.add_argument("model", help="model file or builtin:<name>")
    p.add_argument("--p", type=int, default=0,
                   help="cone parameter: pair degrees k and k-2p-1")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="skip the nondegeneracy requirement")
    common_output(p)

    p = sub.add_parser("verify",
                       help="check the mod-2 zero count against a census")
    p.add_argument("model", help="model file or builtin:<name>")
    p.add_argument("--census", required=True, help="census JSON file")
    common_output(p)

    p = sub.add_parser("clifford", help="algebraic identity checks")
    p.add_argument("--n", type=int, default=1,
                   help="quarter dimension: operators act on R^(4n) forms")
    p.add_argument("--checks", default="all",
                   help="comma list from car, star, omega, "
                        "complex-structure, all")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    common_output(p)

    p = sub.add_parser("oscillator",
                       help="model operator checks for a coefficient matrix")
    p.add_argument("--matrix", required=True,
                   help="text file with rows of rationals")
    p.add_argument("--degree-cap", type=int, default=2,
                   help="polynomial degree window for the spectrum")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    common_output(p)

    p = sub.add_parser("suite", help="run the builtin acceptance criteria")
    p.add_argument("--list", action="store_true",
                   help="list criteria without running them")
    return parser

"""Sector matrices of the oscillator model, and random model matrices.

The suite and the tests build the model operator and its Dirac-type
operator as ``SparseMat``s on polynomial-form sectors, and draw random
rational A; no subcommand does, so no job loads this module.
"""

from fractions import Fraction
from math import lcm
from random import Random

from .cliffordlab import (ModelOperator, Sector, _clifford_gens,
                          _l2_apply, _linear_mult_terms, _sector_parts)
from .clifford import _rotated_columns
from .errors import InputError
from .qlinalg import SparseMat


class TruncationTooSmall(InputError):
    """The polynomial degree cap cannot hold a required output."""


def _tensor_form(poly: SparseMat, form: SparseMat, m: int) -> SparseMat:
    """poly tensor 1 + 1 tensor form on (monomials) x (2^m form masks),
    index mono_index * 2^m + mask."""
    (prows, pden), (frows, fden) = poly._ints, form._ints
    den = lcm(pden, fden)
    ps, fs = den // pden, den // fden
    acc: dict[int, dict[int, int]] = {}
    for r in range(poly.rows):
        for mask in range(1 << m):
            row = acc[(r << m) + mask] = {
                (c << m) + mask: v * ps for c, v in prows.get(r, ())}
            for c, v in frows.get(mask, ()):
                key = (r << m) + c
                row[key] = row.get(key, 0) + v * fs
    return SparseMat._from_ints(poly.rows << m, poly.cols << m,
                                {i: row.items() for i, row in acc.items()},
                                den)


def sector_matrix_L(op: ModelOperator, cap: int, T) -> SparseMat:
    """Conjugated model operator (lap + T flow) tensor 1 + T (1 tensor L2)
    at coupling T on the degree <= cap sector; it keeps or lowers the
    degree, so no truncation error arises.  The one place that makes L2
    a ``SparseMat``, column s from ``_l2_apply`` on the basis form s: at
    cap 0 the result is T L2."""
    lap, flow = _sector_parts(op, Sector(op.m, cap))
    n = 1 << op.m
    l2: dict[tuple[int, int], Fraction] = {}
    for s in range(n):
        image, den = _l2_apply(op, {s: 1})
        l2.update(((t, s), Fraction(x, den)) for t, x in image.items())
    return _tensor_form(lap + flow.scale(T), SparseMat(n, n, l2).scale(T),
                        op.m)


def sector_matrix_D(op: ModelOperator, cap_in: int, cap_out: int, T
                    ) -> SparseMat:
    """Conjugated Dirac-type operator d + d* + T chat(X0) at coupling T
    from the cap_in into the cap_out sector; TruncationTooSmall when an
    output monomial exceeds cap_out (it raises the degree by one)."""
    sec_in, sec_out = Sector(op.m, cap_in), Sector(op.m, cap_out)
    T = Fraction(T)
    # Every coefficient as an integer numerator over den: mono[i] of
    # d/dx_i, and the rows of -T S and T A.
    den = T.denominator * lcm(op.sqrt_gram._ints[1], op.a._ints[1])
    s_rows, a_rows = ([[int(T * x * den) for x in row]
                       for row in mat.to_rows()]
                      for mat in (-op.sqrt_gram, op.a))
    cs, chats = _clifford_gens(op.m)
    acc: dict[int, dict[int, int]] = {}

    def add_block(out_mono: tuple[int, ...], col_base: int,
                  poly_coeff: int, form: tuple):
        if not poly_coeff:
            return
        if out_mono not in sec_out.mono_index:
            raise TruncationTooSmall(
                f"output degree {sum(out_mono)} exceeds cap {sec_out.cap}")
        row_base = sec_out.mono_index[out_mono] << op.m
        flip, signs = form
        for c, sgn in enumerate(signs):
            row = acc.setdefault(row_base + (c ^ flip), {})
            row[col_base + c] = row.get(col_base + c, 0) + poly_coeff * sgn

    for mi, mono in enumerate(sec_in.monomials):
        base = mi << op.m
        for i in range(op.m):
            # d + d* contributes c(e_i) (d/dx_i - T (Sx)_i),
            # T chat(X0) contributes T (Ax)_i chat(e_i).
            if mono[i] >= 1:
                down = list(mono)
                down[i] -= 1
                add_block(tuple(down), base, mono[i] * den, cs[i])
            for out_mono, c in _linear_mult_terms(s_rows, i, mono):
                add_block(out_mono, base, c, cs[i])
            for out_mono, c in _linear_mult_terms(a_rows, i, mono):
                add_block(out_mono, base, c, chats[i])
    return SparseMat._from_ints(sec_out.size, sec_in.size,
                                {i: row.items() for i, row in acc.items()},
                                den)


# -- rational random sources ---------------------------------------------


def random_rational_orthogonal(m: int, rng: Random) -> SparseMat:
    """Product of the ``_random_rotations``, whose cosine/sine pairs are
    Pythagorean: exactly orthogonal with determinant +1."""
    cols = _rotated_columns(m, rng, m)
    return SparseMat(m, m, {(i, k): col[i] for k, col in enumerate(cols)
                            for i in range(m)})


def random_model_matrix(m: int, rng: Random, det_sign: int = 1
                        ) -> SparseMat:
    """Random invertible A = R diag Q, R and Q rational orthogonal, with
    the absolute values of the diagonal as singular values; det_sign < 0
    negates its first entry."""
    if det_sign not in (1, -1):
        raise ValueError("det_sign must be +1 or -1")
    r, q = (random_rational_orthogonal(m, rng) for _ in range(2))
    d = SparseMat(m, m, {(i, i): Fraction(
        rng.randint(1, 6) * (det_sign if i == 0 else 1), rng.randint(1, 3))
        for i in range(m)})
    return r @ d @ q

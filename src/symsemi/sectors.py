"""Sector matrices of the oscillator model, and random model matrices.

The suite and the tests build the model operator and its Dirac-type
operator as ``SparseMat``s on polynomial-form sectors, and draw random
rational A; no subcommand does, so no job loads this module.
"""

from fractions import Fraction
from random import Random

from .cliffordlab import (ModelOperator, Sector, _clifford_gens,
                          _linear_mult_terms, _sector_parts)
from .clifford import _rotated_columns
from .errors import InputError
from .exterior import _Mono
from .qlinalg import SparseMat


class TruncationTooSmall(InputError):
    """The polynomial degree cap cannot hold a required output."""


def _tensor_form(poly: SparseMat, form: SparseMat, m: int) -> SparseMat:
    """poly tensor 1 + 1 tensor form on (monomials) x (2^m form masks),
    index mono_index * 2^m + mask."""
    entries: dict[tuple[int, int], Fraction] = {}
    for (r, c), v in poly.entries.items():
        for mask in range(1 << m):
            entries[((r << m) + mask, (c << m) + mask)] = v
    for base in range(0, poly.rows << m, 1 << m):
        for (r, c), v in form.entries.items():
            key = (base + r, base + c)
            entries[key] = entries.get(key, 0) + v
    return SparseMat(poly.rows << m, poly.cols << m, entries)


def sector_matrix_L(op: ModelOperator, cap: int, T) -> SparseMat:
    """Conjugated model operator (lap + T flow) tensor 1 + T (1 tensor L2)
    at coupling T on the degree <= cap sector; it keeps or lowers the
    degree, so no truncation error arises.  The one place that makes L2
    a ``SparseMat``: at cap 0 the result is T L2."""
    lap, flow = _sector_parts(op, Sector(op.m, cap))
    form, den = op.form_op
    l2 = SparseMat(1 << op.m, 1 << op.m,
                   {key: Fraction(v, den) for key, v in form.items()})
    return _tensor_form(lap + flow.scale(T), l2.scale(T), op.m)


def sector_matrix_D(op: ModelOperator, cap_in: int, cap_out: int, T
                    ) -> SparseMat:
    """Conjugated Dirac-type operator d + d* + T chat(X0) at coupling T
    from the cap_in into the cap_out sector; TruncationTooSmall when an
    output monomial exceeds cap_out (it raises the degree by one)."""
    sec_in, sec_out = Sector(op.m, cap_in), Sector(op.m, cap_out)
    s_rows, a_rows = op.sqrt_gram.to_rows(), op.a.to_rows()
    cs, chats = _clifford_gens(op.m)
    entries: dict[tuple[int, int], Fraction] = {}

    def add_block(out_mono: tuple[int, ...], col_base: int,
                  poly_coeff: Fraction, form: _Mono):
        if not poly_coeff:
            return
        if out_mono not in sec_out.mono_index:
            raise TruncationTooSmall(
                f"output degree {sum(out_mono)} exceeds cap {sec_out.cap}")
        row_base = sec_out.mono_index[out_mono] << op.m
        for c, (r, sgn) in enumerate(zip(form.perm, form.sign)):
            key = (row_base + r, col_base + c)
            entries[key] = entries.get(key, 0) + poly_coeff * sgn

    for mi, mono in enumerate(sec_in.monomials):
        base = mi << op.m
        for i in range(op.m):
            # d + d* contributes c(e_i) (d/dx_i - T (Sx)_i),
            # T chat(X0) contributes T (Ax)_i chat(e_i).
            if mono[i] >= 1:
                down = list(mono)
                down[i] -= 1
                add_block(tuple(down), base, Fraction(mono[i]), cs[i])
            for out_mono, c in _linear_mult_terms(s_rows, i, mono):
                add_block(out_mono, base, -T * c, cs[i])
            for out_mono, c in _linear_mult_terms(a_rows, i, mono):
                add_block(out_mono, base, T * c, chats[i])
    return SparseMat(sec_out.size, sec_in.size, entries)


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

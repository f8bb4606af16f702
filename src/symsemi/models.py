"""Finite cochain models of closed manifolds.

A ``CDGAModel`` is a free graded-commutative algebra on named generators
with a differential extended by the graded Leibniz rule.  Monomials are
sorted generator tuples; odd generators square to zero, and even
generators are capped at a finite power (quotient semantics: Λ(x)/(x^3) is
CP^2 with ``power_cap=2``).  Chevalley-Eilenberg models, the builtin
examples, random models and tensor products are built in ``builders``;
the two random builders the benchmark reads here resolve on first access.

One kernel multiplies monomials: ``CDGAModel._merge`` merges two sorted
monomials and takes the Koszul sign from the odd generators that cross.
``form`` runs on it, and so do the tables a model builds once per
generator g and degree: left multiplication μ(g) by g on the monomial
basis.  A longer monomial's table is composed from its generators'.  The
matrices are assembled from those tables in integers over one
denominator: the differential as d = Σ_g μ(d g)∘∂_g, with ∂_g the left
derivative by g, and the ω maps as L = Σ_t c_t μ(ω_t).  An ``Element``
is a form to name, compare and print; ``CDGAModel.d`` applies the d
matrices to its coordinates, and the package multiplies no forms.

Each invariant is decided where its fact is decided: d(d g) = 0 on the
generators (the Jacobi identity) when the model is built, one d matrix per
degree of the d g, d ω = 0 by ``multiplication_matrix``, the chain law
d L = L d by ``OmegaMap`` (``cone`` adds that of L^{p+1} for p >= 1), and
nondegeneracy by ``unit_power_vanishes`` on the ω maps.  ``GradedComplex``
decides d² = 0 on degrees 0..manifold_dim, as for any complex; only the
Jacobi check names the generator, reaches d g above manifold_dim and runs
on models that never build a complex.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .errors import InputError
from .qlinalg import SparseMat
from .complexes import GradedComplex, OmegaMap
from .record import Record


# Most basis monomials, or degrees, of a CDGAModel (Λ on 12 odd generators).
BASIS_LIMIT = 2 ** 12


class JacobiViolation(InputError):
    """The differential fails d(d(x)) = 0; for Chevalley-Eilenberg input
    this is a failure of the Jacobi identity."""


class ShapeMismatch(InputError):
    """Graded dimensions, degrees and supplied matrices disagree."""


class NotClosed(InputError):
    """A form required to be closed has nonzero differential."""


class UnknownName(InputError, KeyError):
    """Generator or builtin-model name not recognised."""

    __str__ = InputError.__str__    # KeyError's would quote the message


class Generator(Record):
    __slots__ = ("name", "degree")


def _accumulate(out: dict, mono: tuple[int, ...], value: Fraction) -> None:
    """Add ``value`` to ``out[mono]``; zero sums stay for ``Element`` to
    drop."""
    prev = out.get(mono)
    out[mono] = value if prev is None else prev + value


def _integer_terms(forms: Sequence[dict]
                   ) -> tuple[list[list[tuple[int, tuple]]], int]:
    """The terms of each {monomial: coefficient} dict as (integer
    numerator, monomial) pairs over one shared denominator, and that
    denominator."""
    den = lcm(*(c.denominator for f in forms for c in f.values()))
    return [[(c.numerator * (den // c.denominator), mono)
             for mono, c in f.items()] for f in forms], den


class Element:
    """Formal rational combination of monomials in a fixed CDGAModel."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: "CDGAModel",
                 coeffs: Mapping[tuple[int, ...], object]):
        self.model = model
        vals = ((mono, Fraction(raw)) for mono, raw in coeffs.items())
        self.coeffs = {mono: v for mono, v in vals if v}

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Common degree of all monomials; ShapeMismatch on mixed-degree
        sums."""
        degs = {self.model.mono_degree(m) for m in self.coeffs}
        if len(degs) > 1:
            raise ShapeMismatch(f"element of mixed degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and other.model is self.model
                and other.coeffs == self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.model.generators
        parts = []
        for mono in sorted(self.coeffs):
            term = "^".join(names[i].name for i in mono) if mono else "1"
            parts.append(f"({self.coeffs[mono]})*{term}")
        return " + ".join(parts)


class CDGAModel:
    """Free graded-commutative algebra with differential, truncated to
    degrees 0..manifold_dim.

    ``differential`` maps generator names to term lists
    ``[(coeff, [factor names...]), ...]``; d extends by the graded Leibniz
    rule and d^2 = 0 is checked on every generator at construction
    (JacobiViolation on failure).  ``power_cap`` (default manifold_dim) is
    the highest surviving power of every even generator, so
    ``CDGAModel([("x", 2)], None, 4, power_cap=2)`` is H*(CP^2).
    """

    def __init__(self, generators: Sequence[tuple[str, int]],
                 differential: Mapping[str, Sequence] | None,
                 manifold_dim: int, power_cap: int | None = None):
        self.generators = tuple(Generator(*g) for g in generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        if any(g.degree < 1 for g in self.generators):
            raise ValueError("generator degrees must be >= 1")
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        if manifold_dim < 0:
            raise ValueError("manifold_dim must be >= 0")
        self.manifold_dim = manifold_dim
        self.power_cap = manifold_dim if power_cap is None else power_cap
        self._odd = tuple(g.degree % 2 for g in self.generators)
        self._basis_cache: dict[int, list[tuple[int, ...]]] = {}
        # Position of each monomial in basis(k), filled in with it.
        self._index: dict[int, dict[tuple[int, ...], int]] = {}
        self._times_cache: dict[tuple[tuple[int, ...], int],
                                tuple[list[int], list[int]]] = {}
        self._complex: GradedComplex | None = None

        # The coefficients of each d g.  A model keeps no Element of its
        # own, which would refer back to it: with no reference cycle, a
        # model and its tables go as soon as it is dropped.
        self._dgen: list[dict] = [{}] * len(self.generators)
        if differential:
            for name, terms in differential.items():
                if name not in self.index:
                    raise UnknownName(f"unknown generator {name!r}")
                elt = self.form(terms)
                gi = self.index[name]
                want = self.generators[gi].degree + 1
                if not elt.is_zero() and elt.degree() != want:
                    raise ShapeMismatch(
                        f"d {name} has degree {elt.degree()}, expected {want}")
                self._dgen[gi] = elt.coeffs
        # Bases reach degree top: d out of manifold_dim, and d(d g).
        top = max([manifold_dim] + [g.degree + 2 for g, dg
                                    in zip(self.generators, self._dgen) if dg])
        bound = 1   # prod_g (1 + the most factors g in a monomial)
        for g in self.generators:
            if bound <= BASIS_LIMIT:
                bound *= 2 if g.degree % 2 else \
                    1 + min(self.power_cap, top // g.degree)
        if max(bound, top + 1) > BASIS_LIMIT:
            raise InputError(f"over the budget of {BASIS_LIMIT} basis "
                             f"monomials and degrees: {len(names)} "
                             f"generators in dimension {manifold_dim}")
        # The d g as integer numerators over one denominator, for d_matrix.
        terms, self._dden = _integer_terms(self._dgen)
        self._dterms = [(gi, t) for gi, t in enumerate(terms) if t]
        for g, ddg in zip(self.generators, self._d_forms(self._dgen)):
            if ddg:
                raise JacobiViolation(
                    f"d(d {g.name}) = {Element(self, ddg)!r} != 0")

    # -- element builders ------------------------------------------------

    def gen(self, name: str) -> Element:
        if name not in self.index:
            raise UnknownName(f"unknown generator {name!r}")
        return Element(self, {(self.index[name],): Fraction(1)})

    def form(self, terms: Sequence) -> Element:
        """Build an element from ``[(coeff, [generator names...]), ...]``."""
        out: dict[tuple[int, ...], Fraction] = {}
        for coeff, factors in terms:
            mono, sign = (), 1
            for name in factors:
                if name not in self.index:
                    raise UnknownName(f"unknown generator {name!r}")
                if sign:
                    mono, s = self._merge(mono, (self.index[name],))
                    sign *= s
            if sign:
                _accumulate(out, mono, sign * Fraction(coeff))
        return Element(self, out)

    # -- monomial arithmetic ---------------------------------------------

    def mono_degree(self, mono: tuple[int, ...]) -> int:
        return sum(self.generators[i].degree for i in mono)

    def _merge(self, a: tuple[int, ...], b: tuple[int, ...]
               ) -> tuple[tuple[int, ...], int]:
        """The product a·b of two sorted monomials: the sorted monomial and
        its Koszul sign, (-1) to the number of odd generators of b that
        pass an odd generator of a.  The sign is 0 if the product dies: an
        odd generator repeats, or an even power exceeds ``power_cap``."""
        if not a or not b or a[-1] < b[0]:
            return a + b, 1
        odd = self._odd
        left = 0                    # odd generators of a still to place
        for x in a:
            left += odd[x]
        out = []
        sign = 1
        i, na = 0, len(a)
        for y in b:
            while i < na and a[i] < y:
                left -= odd[a[i]]
                out.append(a[i])
                i += 1
            if i < na and a[i] == y:
                if odd[y] or a.count(y) + b.count(y) > self.power_cap:
                    return (), 0
            elif odd[y] and left & 1:
                sign = -sign
            out.append(y)
        out.extend(a[i:])
        return tuple(out), sign

    def d(self, elt: Element) -> Element:
        return Element(self, self._d_forms([elt.coeffs])[0])

    def _d_forms(self, forms: Sequence[dict]) -> list[dict]:
        """d of each {monomial: coefficient} form: one ``d_matrix(k)`` per
        degree k, applied to the forms' degree-k parts as columns."""
        terms, den = _integer_terms(forms)
        cols: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for j, form in enumerate(terms):
            for c, mono in form:
                k = self.mono_degree(mono)
                self.basis(k)
                if mono not in self._index[k]:
                    raise ShapeMismatch(f"monomial {mono} is not in the basis")
                cols.setdefault(k, {}).setdefault(
                    self._index[k][mono], []).append((j, c))
        out: list[dict] = [{} for _ in forms]
        for k, acc in cols.items():
            image = self.d_matrix(k) @ SparseMat._from_ints(
                len(self._index[k]), len(forms), acc, den)
            for (i, j), v in image.entries.items():
                out[j][self.basis(k + 1)[i]] = v
        return out

    # -- graded bases and matrices ---------------------------------------

    def basis(self, k: int) -> list[tuple[int, ...]]:
        """Sorted monomials of degree k, lexicographic in generator indices.

        A call for a degree not yet listed lists every degree up to k + 1
        (d out of degree k needs both): each generator in turn extends the
        monomials listed so far by each of its allowed powers."""
        if k < 0:
            return []
        if k not in self._basis_cache:
            top = k + 1
            by_degree: list[list[tuple[int, ...]]] = [
                [] for _ in range(top + 1)]
            by_degree[0].append(())
            for idx, g in enumerate(self.generators):
                limit = 1 if g.degree % 2 else self.power_cap
                # Downward, so that no monomial takes g twice over.
                for deg in range(top - g.degree, -1, -1):
                    for mono in by_degree[deg]:
                        most = min(limit, (top - deg) // g.degree)
                        for reps in range(1, most + 1):
                            by_degree[deg + reps * g.degree].append(
                                mono + (idx,) * reps)
            for deg, monos in enumerate(by_degree):
                monos.sort()
                self._basis_cache[deg] = monos
                self._index[deg] = {m: i for i, m in enumerate(monos)}
        return self._basis_cache[k]

    def _times(self, mono: tuple[int, ...], k: int
               ) -> tuple[list[int], list[int]]:
        """Left multiplication by the monomial mono on basis(k), as two
        lists: for the y-th basis monomial, mono·y = sign[y]·basis(k +
        |mono|)[index[y]], with sign[y] = 0 (and index[y] = 0) when the
        product vanishes.  A generator's table comes from ``_merge``; a
        longer monomial g·rest composes g's table after rest's."""
        table = self._times_cache.get((mono, k))
        if table is None:
            if len(mono) > 1:
                rest = mono[1:]
                inner, inner_sign = self._times(rest, k)
                outer, outer_sign = self._times(
                    mono[:1], k + self.mono_degree(rest))
                table = ([outer[i] if s else 0
                          for i, s in zip(inner, inner_sign)],
                         [s * outer_sign[i] if s else 0
                          for i, s in zip(inner, inner_sign)])
            else:
                g = mono[0]
                up = k + self.generators[g].degree
                self.basis(up)
                tgt = self._index[up]
                table = ([], [])
                for x in self.basis(k):
                    prod, s = ((), 0) if self._odd[g] and g in x else \
                        self._merge(mono, x)
                    table[0].append(tgt[prod] if s else 0)
                    table[1].append(s)
            self._times_cache[(mono, k)] = table
        return table

    def d_matrix(self, k: int) -> SparseMat:
        """d out of degree k, as Σ_g μ(d g)∘∂_g.  When g·y = s·x for basis
        monomials y and x, the left derivative ∂_g x is s·m·y, m the power
        of g in x (1 for odd g)."""
        src = self.basis(k)
        acc: dict[int, dict[int, int]] = {}
        for g, terms in self._dterms:
            below = k - self.generators[g].degree
            if below < 0:
                continue
            dg = [(c, self._times(mono, below)) for c, mono in terms]
            for y, (x, s) in enumerate(zip(*self._times((g,), below))):
                if s:
                    if not self._odd[g]:
                        s *= src[x].count(g)
                    for c, (index, sign) in dg:
                        t = sign[y]
                        if t:
                            row = acc.setdefault(index[y], {})
                            row[x] = row.get(x, 0) + s * t * c
        return SparseMat._from_ints(len(self.basis(k + 1)), len(src),
                                    {i: row.items() for i, row in acc.items()},
                                    self._dden)

    def complex(self) -> GradedComplex:
        """Cochain complex in degrees 0..manifold_dim."""
        if self._complex is None:
            top = self.manifold_dim
            if not self.d_matrix(top).is_zero():
                raise ShapeMismatch(
                    "differential does not vanish at the top degree; "
                    "the range 0..manifold_dim does not close")
            self._complex = GradedComplex(
                [len(self.basis(k)) for k in range(top + 1)],
                [self.d_matrix(k) for k in range(top)])
        return self._complex


# -- symplectic checks ---------------------------------------------------


class SymplecticVerdict(Record):
    __slots__ = ("closed", "nondegenerate", "degree_ok", "detail")
    _defaults = {"detail": ""}

    @property
    def passed(self) -> bool:
        return self.closed and self.nondegenerate and self.degree_ok


def _omega_matrix(m: CDGAModel, terms: Sequence[tuple[int, tuple]],
                  den: int, k: int) -> SparseMat:
    """L_k = Σ_t c_t μ(ω_t) on basis(k), the ω terms as integer numerators
    over den."""
    acc: dict[int, dict[int, int]] = {}
    for c, mono in terms:
        # Distinct terms of ω give distinct products ω_t·y, so each entry
        # is one signed coefficient.
        for y, (i, s) in enumerate(zip(*m._times(mono, k))):
            if s:
                acc.setdefault(i, {})[y] = s * c
    return SparseMat._from_ints(len(m.basis(k + 2)), len(m.basis(k)),
                                {i: row.items() for i, row in acc.items()},
                                den)


def multiplication_matrix(m: CDGAModel, w: Element) -> OmegaMap:
    """Degreewise matrices of wedging with a closed 2-form w.

    Raises NotClosed if d w != 0 (the chain-map identity for the cone is
    exactly closedness of w).
    """
    if w.model is not m:
        raise ShapeMismatch("form belongs to a different model")
    if not w.is_zero() and w.degree() != 2:
        raise ShapeMismatch(f"form has degree {w.degree()}, expected 2")
    dw = m.d(w)
    if not dw.is_zero():
        raise NotClosed(f"d w = {dw!r} != 0")
    cx = m.complex()
    (terms,), den = _integer_terms([w.coeffs])
    return OmegaMap(cx, [_omega_matrix(m, terms, den, k)
                         for k in range(max(cx.top - 1, 0))])


def unit_power_vanishes(omega_at: Callable[[int], SparseMat], dim0: int,
                        half: int) -> bool:
    """Whether ω^half kills the first degree-0 basis vector: the unit of a
    CDGA model, the distinguished class of a matrix file.  ``omega_at(k)``
    is the ω map out of degree k; only L_0, L_2, ..., L_{2 half - 2} are
    read, and applied to the vector one after another."""
    vec = SparseMat(dim0, 1, {(0, 0): 1})
    for k in range(0, 2 * half, 2):
        vec = omega_at(k) @ vec
    return vec.is_zero()


def check_symplectic(model: CDGAModel, w: Element | None = None,
                     wmap: OmegaMap | None = None) -> SymplecticVerdict:
    """Closedness and nondegeneracy verdict; carries failures, never raises.

    Nondegeneracy means w^(dim/2) != 0 in the algebra, read off the ω maps
    by ``unit_power_vanishes``: those of ``wmap`` when given (built by
    ``multiplication_matrix``, which decided d w = 0), else those of even
    degree, built here and dropped with the tables made for them.
    """
    if w is None or not isinstance(w, Element) or w.model is not model:
        return SymplecticVerdict(False, False, False,
                                 "need a 2-form from this model")
    if model.manifold_dim % 2:
        return SymplecticVerdict(False, False, False, "odd manifold_dim")
    if {model.mono_degree(mono) for mono in w.coeffs} != {2}:
        return SymplecticVerdict(False, False, False,
                                 "form is zero or not of degree 2")
    half = model.manifold_dim // 2
    if wmap is not None:
        return SymplecticVerdict(
            True, not unit_power_vanishes(wmap.map, 1, half), True, "")
    (terms,), den = _integer_terms([w.coeffs])
    # The bases and tables built for this verdict, d w's included, go with
    # it: the model keeps the caches it had before.
    kept = model._basis_cache, model._index, model._times_cache
    model._basis_cache, model._index, model._times_cache = map(dict, kept)
    dw = model.d(w)
    nondeg = not unit_power_vanishes(
        lambda k: _omega_matrix(model, terms, den, k), 1, half)
    model._basis_cache, model._index, model._times_cache = kept
    return SymplecticVerdict(dw.is_zero(), nondeg, True,
                             "" if dw.is_zero() else f"d w = {dw!r}")


def model_cone_inputs(model: CDGAModel, w: Element | None = None
                      ) -> tuple[GradedComplex, OmegaMap]:
    """The (complex, omega map) pair that the cone is built from."""
    if w is None:
        raise ShapeMismatch("the cone needs an explicit 2-form")
    return model.complex(), multiplication_matrix(model, w)


_BUILDERS = ("random_nilpotent_ce", "random_closed_two_form")


def __getattr__(name: str):
    """The names of ``builders`` that the benchmark reads here, imported on
    first access."""
    if name not in _BUILDERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import builders

    value = globals()[name] = getattr(builders, name)
    return value

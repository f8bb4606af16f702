"""Finite cochain models of closed manifolds.

Two flavours feed the cone machinery, both ``CDGAModel``:

* A free graded-commutative algebra on named generators with a
  differential extended by the graded Leibniz rule.  Monomials are sorted
  generator tuples; odd generators square to zero, and even generators are
  capped at a finite power (quotient semantics: Λ(x)/(x^3) is CP^2 with
  ``power_cap=2``).
* Chevalley-Eilenberg complexes ``ce_complex(n, structure)`` of Lie
  algebras, a CDGAModel on degree-1 generators with d e^k determined by the
  structure constants; d^2 = 0 is exactly the Jacobi identity.

One kernel multiplies monomials: ``CDGAModel._merge`` merges two sorted
monomials and takes the Koszul sign from the odd generators that cross.
The product, the Leibniz differential, the ω multiplication matrices and
``form`` all go through it, each accumulating one coefficient dict.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Mapping, Sequence

from .errors import InputError
from .qlinalg import SparseMat, kernel_basis
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


class Element:
    """Formal rational combination of monomials in a fixed CDGAModel."""

    __slots__ = ("model", "coeffs")

    def __init__(self, model: "CDGAModel",
                 coeffs: Mapping[tuple[int, ...], object]):
        self.model = model
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, raw in coeffs.items():
            val = raw if isinstance(raw, Fraction) else Fraction(raw)
            if val:
                clean[mono] = val
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Common degree of all monomials; ShapeMismatch on mixed-degree
        sums."""
        degs = {self.model.mono_degree(m) for m in self.coeffs}
        if len(degs) > 1:
            raise ShapeMismatch(f"element of mixed degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def __add__(self, other: "Element") -> "Element":
        if other.model is not self.model:
            raise ValueError("elements of different models")
        out = dict(self.coeffs)
        for mono, v in other.coeffs.items():
            _accumulate(out, mono, v)
        return Element(self.model, out)

    def __neg__(self) -> "Element":
        return Element(self.model, {m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, factor) -> "Element":
        f = Fraction(factor)
        return Element(self.model, {m: f * v for m, v in self.coeffs.items()})

    def __mul__(self, other: "Element") -> "Element":
        """Graded-commutative product with Koszul signs."""
        if other.model is not self.model:
            raise ValueError("elements of different models")
        merge = self.model._merge
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, a in self.coeffs.items():
            for m2, b in other.coeffs.items():
                mono, sign = merge(m1, m2)
                if sign:
                    _accumulate(out, mono, a * b if sign > 0 else -(a * b))
        return Element(self.model, out)

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

    def __init__(self, generators: Sequence[tuple[str, int] | Generator],
                 differential: Mapping[str, Sequence] | None,
                 manifold_dim: int, power_cap: int | None = None):
        gens = []
        for g in generators:
            gens.append(g if isinstance(g, Generator) else Generator(*g))
        self.generators: tuple[Generator, ...] = tuple(gens)
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
        bound = 1   # prod_g (1 + the most factors g in a monomial)
        for g in self.generators:
            if bound <= BASIS_LIMIT:
                bound *= 2 if g.degree % 2 else \
                    1 + min(self.power_cap, manifold_dim // g.degree)
        if max(bound, manifold_dim + 1) > BASIS_LIMIT:
            raise InputError(f"over the budget of {BASIS_LIMIT} basis "
                             f"monomials and degrees: {len(names)} "
                             f"generators in dimension {manifold_dim}")
        self._odd = tuple(g.degree % 2 for g in self.generators)
        self._basis_cache: dict[int, list[tuple[int, ...]]] = {}
        self._complex: GradedComplex | None = None

        self._dgen: list[Element] = [self.zero()] * len(self.generators)
        if differential:
            for name, terms in differential.items():
                if name not in self.index:
                    raise UnknownName(f"unknown generator {name!r}")
                elt = terms if isinstance(terms, Element) else self.form(terms)
                gi = self.index[name]
                want = self.generators[gi].degree + 1
                if not elt.is_zero() and elt.degree() != want:
                    raise ShapeMismatch(
                        f"d {name} has degree {elt.degree()}, expected {want}")
                self._dgen[gi] = elt
        for g, dg in zip(self.generators, self._dgen):
            rem = self.d(dg)
            if not rem.is_zero():
                raise JacobiViolation(f"d(d {g.name}) = {rem!r} != 0")

    # -- element builders ------------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def unit(self) -> Element:
        return Element(self, {(): Fraction(1)})

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

    def d_mono(self, mono: tuple[int, ...]) -> Element:
        """Leibniz rule.  d(g_i) replaces the i-th factor with sign
        (-1)^(|prefix|); moving it past the suffix gives (-1)^(|d g_i||suffix|)
        and merging it into the rest gives the merge sign."""
        degree = [self.generators[gi].degree for gi in mono]
        total = sum(degree)
        out: dict[tuple[int, ...], Fraction] = {}
        prefix_deg = 0
        for i, gi in enumerate(mono):
            dg = self._dgen[gi].coeffs
            if dg:
                rest = mono[:i] + mono[i + 1:]
                suffix_deg = total - prefix_deg - degree[i]
                flip = (prefix_deg + (degree[i] + 1) * suffix_deg) % 2
                for dmono, c in dg.items():
                    combined, s = self._merge(rest, dmono)
                    if s:
                        _accumulate(out, combined,
                                    -c if (s < 0) != flip else c)
            prefix_deg += degree[i]
        return Element(self, out)

    def d(self, elt: Element) -> Element:
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, c in elt.coeffs.items():
            for dmono, v in self.d_mono(mono).coeffs.items():
                _accumulate(out, dmono, c * v)
        return Element(self, out)

    # -- graded bases and matrices ---------------------------------------

    def basis(self, k: int) -> list[tuple[int, ...]]:
        """Sorted monomials of degree k, lexicographic in generator indices."""
        if k < 0:
            return []
        if k not in self._basis_cache:
            out: list[tuple[int, ...]] = []

            def extend(idx: int, remaining: int, current: list[int]):
                if remaining == 0:
                    out.append(tuple(current))
                    return
                if idx == len(self.generators):
                    return
                g = self.generators[idx]
                limit = 1 if g.degree % 2 else self.power_cap
                extend(idx + 1, remaining, current)
                reps = 0
                while reps < limit and (reps + 1) * g.degree <= remaining:
                    reps += 1
                    extend(idx + 1, remaining - reps * g.degree,
                           current + [idx] * reps)

            extend(0, k, [])
            self._basis_cache[k] = sorted(out)
        return self._basis_cache[k]

    def element_vector(self, elt: Element, k: int) -> SparseMat:
        """Coordinates of a degree-k element in basis(k), as a column."""
        basis = self.basis(k)
        pos = {m: i for i, m in enumerate(basis)}
        entries = {}
        for mono, c in elt.coeffs.items():
            if mono not in pos:
                raise ShapeMismatch(f"monomial {mono} not of degree {k}")
            entries[(pos[mono], 0)] = c
        return SparseMat(len(basis), 1, entries)

    def d_matrix(self, k: int) -> SparseMat:
        src = self.basis(k)
        tgt = {m: i for i, m in enumerate(self.basis(k + 1))}
        entries = {}
        for j, mono in enumerate(src):
            for out_mono, c in self.d_mono(mono).coeffs.items():
                entries[(tgt[out_mono], j)] = c
        return SparseMat(len(tgt), len(src), entries)

    def complex(self) -> GradedComplex:
        """Cochain complex in degrees 0..manifold_dim."""
        if self._complex is None:
            top = self.manifold_dim
            dims = [len(self.basis(k)) for k in range(top + 1)]
            for mono in self.basis(top):
                if not self.d_mono(mono).is_zero():
                    raise ShapeMismatch(
                        "differential does not vanish at the top degree; "
                        "the range 0..manifold_dim does not close")
            self._complex = GradedComplex(
                dims, [self.d_matrix(k) for k in range(top)])
        return self._complex


# -- Chevalley-Eilenberg -------------------------------------------------


def ce_complex(n: int, structure: Mapping[tuple[int, int, int], object]
               ) -> CDGAModel:
    """Chevalley-Eilenberg model of an n-dimensional Lie algebra.

    ``structure[(i, j, k)]`` with 1-based i < j is the coefficient of e_k in
    [e_i, e_j]; the differential is d e^k = -sum c^k_ij e^i e^j.  The d^2
    check performed by the model constructor is exactly the Jacobi identity
    (JacobiViolation on failure).
    """
    if n < 1:
        raise ValueError("need at least one generator")
    terms: dict[str, list] = {}
    for (i, j, k), raw in structure.items():
        if not (1 <= i < j <= n and 1 <= k <= n):
            raise ValueError(f"bad structure index ({i},{j},{k})")
        c = Fraction(raw)
        if c:
            terms.setdefault(f"e{k}", []).append((-c, [f"e{i}", f"e{j}"]))
    return CDGAModel([(f"e{i}", 1) for i in range(1, n + 1)], terms,
                     manifold_dim=n)


def random_nilpotent_ce(n: int, rng: Random) -> CDGAModel:
    """Random nilpotent Chevalley-Eilenberg model.

    d e^k is sampled from the closed 2-forms of the generators built so far
    (random central extension), so the structure constants are strictly
    triangular and d^2 = 0 holds by construction.
    """
    structure: dict[tuple[int, int, int], Fraction] = {}
    for k in range(2, n + 1):
        partial = ce_complex(k - 1, {key: v for key, v in structure.items()
                                     if key[1] < k})
        closed = kernel_basis(partial.d_matrix(2))
        basis2 = partial.basis(2)
        if closed.cols == 0:
            continue
        weights = [Fraction(rng.randint(-2, 2)) for _ in range(closed.cols)]
        for (row, col), v in closed.entries.items():
            coeff = weights[col] * v
            if coeff:
                gi, gj = basis2[row]
                key = (gi + 1, gj + 1, k)
                prev = structure.get(key, Fraction(0)) - coeff
                if prev:
                    structure[key] = prev
                else:
                    structure.pop(key, None)
    return ce_complex(n, structure)


def random_closed_two_form(m: CDGAModel, rng: Random) -> Element:
    """Random element of the kernel of d on degree 2 (may be zero)."""
    closed = kernel_basis(m.d_matrix(2))
    basis2 = m.basis(2)
    out: dict[tuple[int, ...], Fraction] = {}
    weights = [Fraction(rng.randint(-2, 2)) for _ in range(closed.cols)]
    if closed.cols and all(w == 0 for w in weights):
        weights[rng.randrange(closed.cols)] = Fraction(1)
    for (row, col), v in closed.entries.items():
        _accumulate(out, basis2[row], weights[col] * v)
    return Element(m, out)


# -- tensor products -----------------------------------------------------


def tensor_product(a: CDGAModel, b: CDGAModel) -> CDGAModel:
    """Tensor product of two CDGA models.

    Generator lists are concatenated (colliding names from the right factor
    get a ``_2`` suffix).  The product keeps the power cap shared by the
    factors that have even generators.  One global cap cannot truncate both
    factors correctly, so ShapeMismatch if those caps differ, or if the
    product would keep a power g^j that g's own factor truncates by degree
    (j·|g| above its manifold_dim, as y^2 in Λ(y) on S^2 with the default
    cap).
    """
    caps = {m.power_cap for m in (a, b)
            if any(g.degree % 2 == 0 for g in m.generators)}
    if len(caps) > 1:
        raise ShapeMismatch(
            f"factors truncate even generators at different powers "
            f"{sorted(caps)}")
    top = a.manifold_dim + b.manifold_dim
    cap = caps.pop() if caps else top
    for m in (a, b):
        for g in m.generators:
            kept = min(1 if g.degree % 2 else cap, top // g.degree)
            if kept * g.degree > m.manifold_dim:
                raise ShapeMismatch(
                    f"the product keeps {g.name}^{kept}, which its factor "
                    f"truncates by degree (manifold_dim {m.manifold_dim})")
    taken = {g.name for g in a.generators}
    rename = {}
    for g in b.generators:
        name = g.name
        while name in taken:
            name = name + "_2"
        rename[g.name] = name
        taken.add(name)
    gens = [(g.name, g.degree) for g in a.generators]
    gens += [(rename[g.name], g.degree) for g in b.generators]
    diff: dict[str, list] = {}
    for g, dg in zip(a.generators, a._dgen):
        if not dg.is_zero():
            diff[g.name] = [(c, [a.generators[i].name for i in mono])
                            for mono, c in dg.coeffs.items()]
    for g, dg in zip(b.generators, b._dgen):
        if not dg.is_zero():
            diff[rename[g.name]] = [
                (c, [rename[b.generators[i].name] for i in mono])
                for mono, c in dg.coeffs.items()]
    return CDGAModel(gens, diff, top, power_cap=cap)


# -- symplectic checks ---------------------------------------------------


class SymplecticVerdict(Record):
    __slots__ = ("closed", "nondegenerate", "degree_ok", "detail")
    _defaults = {"detail": ""}

    @property
    def passed(self) -> bool:
        return self.closed and self.nondegenerate and self.degree_ok


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
    maps = []
    for k in range(max(cx.top - 1, 0)):
        tgt = {mono: i for i, mono in enumerate(m.basis(k + 2))}
        entries = {}
        for j, mono in enumerate(m.basis(k)):
            # Distinct terms of w give distinct products w_t·mono, so each
            # entry is one signed coefficient.
            for wmono, c in w.coeffs.items():
                out_mono, sign = m._merge(wmono, mono)
                if sign:
                    entries[(tgt[out_mono], j)] = c if sign > 0 else -c
        maps.append(SparseMat(len(tgt), cx.dim(k), entries))
    return OmegaMap(cx, maps)


def check_symplectic(model: CDGAModel, w: Element | None = None
                     ) -> SymplecticVerdict:
    """Closedness and nondegeneracy verdict; carries failures, never raises.

    Nondegeneracy means w^(dim/2) != 0 in the algebra.
    """
    if w is None or not isinstance(w, Element) or w.model is not model:
        return SymplecticVerdict(False, False, False,
                                 "need a 2-form from this model")
    if model.manifold_dim % 2:
        return SymplecticVerdict(False, False, False, "odd manifold_dim")
    if {model.mono_degree(mono) for mono in w.coeffs} != {2}:
        return SymplecticVerdict(False, False, False,
                                 "form is zero or not of degree 2")
    dw = model.d(w)
    closed = dw.is_zero()
    power = model.unit()
    for _ in range(model.manifold_dim // 2):
        power = power * w
    nondeg = not power.is_zero()
    detail = "" if closed else f"d w = {dw!r}"
    return SymplecticVerdict(closed, nondeg, True, detail)


# -- builtins ------------------------------------------------------------


def builtin(name: str) -> tuple[CDGAModel, Element]:
    """Named example models: returns (model, omega), omega an Element.

    Conventions: tori use omega = e1^e2 (+ e3^e4); the nilmanifold model
    kodaira_thurston has the single relation d e4 = -e2^e3 and omega =
    e1^e2 + e3^e4 (e1^e4 is *not* closed here, so it cannot appear in
    omega).  cp2 is Λ(x)/(x^3) with omega = x, and s2xs2 is
    Λ(x, y)/(x^2, y^2) with omega = x + y.
    """
    if name == "t2":
        m = ce_complex(2, {})
        return m, m.form([(1, ["e1", "e2"])])
    if name == "t4":
        m = ce_complex(4, {})
        return m, m.form([(1, ["e1", "e2"]), (1, ["e3", "e4"])])
    if name == "kodaira_thurston":
        m = ce_complex(4, {(2, 3, 4): 1})
        return m, m.form([(1, ["e1", "e2"]), (1, ["e3", "e4"])])
    if name == "cp2":
        m = CDGAModel([("x", 2)], None, 4, power_cap=2)
        return m, m.gen("x")
    if name == "s2xs2":
        m = CDGAModel([("x", 2), ("y", 2)], None, 4, power_cap=1)
        return m, m.form([(1, ["x"]), (1, ["y"])])
    raise UnknownName(f"unknown builtin model {name!r}")


BUILTIN_NAMES = ("cp2", "s2xs2", "t2", "t4", "kodaira_thurston")


def model_cone_inputs(model: CDGAModel, w: Element | None = None
                      ) -> tuple[GradedComplex, OmegaMap]:
    """The (complex, omega map) pair that the cone is built from."""
    if w is None:
        raise ShapeMismatch("the cone needs an explicit 2-form")
    return model.complex(), multiplication_matrix(model, w)

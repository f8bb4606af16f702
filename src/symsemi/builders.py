"""Models built in code rather than read from a file.

* Chevalley-Eilenberg complexes ``ce_complex(n, structure)`` of Lie
  algebras, a CDGAModel on degree-1 generators with d e^k determined by the
  structure constants; d^2 = 0 is exactly the Jacobi identity.
* The five named examples of ``builtin`` (``builtin:<name>`` on the command
  line).
* Random nilpotent models and random closed 2-forms, for the suite, the
  tests and the benchmark's inputs.
* Tensor products of two models.

A ``compute`` or ``verify`` job on a model file never loads this module.
"""

from fractions import Fraction
from random import Random
from typing import Mapping

from .models import CDGAModel, Element, ShapeMismatch, UnknownName, _accumulate
from .qlinalg import kernel_basis


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

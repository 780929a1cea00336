"""From a weight matrix to the divisor of the affine cone and its projectivization.

The pipeline: a weight matrix (columns = weights of the ambient coordinates)
determines two exact sequences; the dual one fixes a projection `pi` of the
coordinate exponent lattice onto the lattice where the Chow fan lives.  Each
ray c of that fan carries the fiber of `pi` over it in the nonnegative
orthant, carried into the dual weight space.  The dual embedding spans
ker pi, so that fiber is x0 + emb(Y) with x0 = section(c), and the recipe
computes Y = {y : emb.y + x0 >= 0} in the dual coordinates
(`positive_fiber`), with no fiber in the exponent lattice and no image.
Boundary faces of those coefficients, projected along the degree
direction, assemble the divisor family of the projectivized variety.
"""

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from ._vecops import dot, scale_to_int
from .divisors import FansyDivisor, Label, PPDivisor, check_subdivision_structure
from .lattice import (
    LatticeMap,
    RationalMap,
    check_retraction,
    hnf_rows,
    identity_matrix,
    integral_section,
    kernel_basis,
    mat_mul,
    mat_vec,
    quotient_projection,
    rational_left_inverse,
    rational_solve,
    transpose,
)
from .polyhedra import (
    Cone,
    Polyhedron,
    common_refinement_fan,
    face_minimizing,
    map_image,
)


@dataclass(frozen=True)
class WeightSetup:
    """The two exact sequences derived from a weight matrix.

    `dstar` embeds the dual weight lattice into the exponent lattice; when
    the weights span their codomain honestly it is the literal transpose of
    `deg`, otherwise the canonical HNF basis of the saturated kernel of `pi`
    (the dual lattice is then an overlattice of the naive dual).
    """

    deg: LatticeMap
    pi: LatticeMap
    dstar: LatticeMap
    section: object          # LatticeMap or RationalMap with pi ∘ section = id
    degree_element: object   # coords in the dstar domain, or None
    saturated: bool


def build_setup(deg: LatticeMap, section=None) -> WeightSetup:
    """Derive pi, the dual embedding and a section from the weight matrix."""
    if deg.rank() != deg.rows:
        raise ValueError("weights do not span the codomain up to finite index")
    kb = kernel_basis(deg)
    pi = LatticeMap(transpose(kb.entries) if kb.entries and kb.entries[0] else (),
                    deg.domain, f"chow({deg.domain})", width=deg.cols)
    # the columns span Z^rows exactly when the HNF of the weights is the identity
    saturated = hnf_rows(transpose(deg.entries), deg.rows) == identity_matrix(deg.rows)
    dual_name = f"dual({deg.codomain})"
    if saturated:
        dstar = LatticeMap(transpose(deg.entries), dual_name, deg.domain)
    else:
        dstar = LatticeMap(kernel_basis(pi, name=dual_name).entries, dual_name, deg.domain)
    if section is None:
        sec = integral_section(pi)
    else:
        sec = section if hasattr(section, "entries") else RationalMap(section, pi.codomain, pi.domain)
        if mat_mul(pi.entries, sec.entries) != identity_matrix(pi.rows):
            raise ValueError("section does not split pi")
    e = degree_element_for(dstar)
    return WeightSetup(deg, pi, dstar, sec, e, saturated)


def degree_element_for(emb) -> object:
    """Lattice point of the dual with all pairings against the weights equal 1."""
    sol = _degree_solution(emb)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def _degree_solution(emb):
    """Rational coordinates pairing to 1 with every row of `emb`, checked, or None."""
    ones = tuple(1 for _ in range(emb.rows))
    sol = rational_solve(emb.entries, ones)
    if sol is None or mat_vec(emb.entries, sol) != ones:
        return None
    return sol


@functools.lru_cache(maxsize=None)
def positive_fiber(emb: LatticeMap, x0) -> Polyhedron:
    """Y = {y : emb.y + x0 >= 0}, the positive fiber over c in ker pi coordinates (cached).

    With emb spanning ker pi and x0 = section(c), pi^{-1}(c) = x0 + emb(Q^k)
    by exactness, and emb is injective, so y -> x0 + emb.y maps Y onto
    pi^{-1}(c) ∩ Q>=0^E one to one: a run in dimension k + 1, not dim E + 1.
    """
    return Polyhedron.from_halfspaces(emb.domain, emb.cols,
                                      [(row, -x) for row, x in zip(emb.entries, x0)])


def _zero_coords(emb, x0):
    """The v with x_v = 0 somewhere on the fiber x0 + emb(Y): x_v = emb_v.y + x0_v
    is >= 0 on Y, which is pointed, so least at a vertex, and v counts iff the
    row (emb_v, x0_v) is tight on a point (N, D) of Y."""
    *num, den = scale_to_int(tuple(x0) + (1,))
    points = positive_fiber(emb, x0).points
    return {v for v, (row, x) in enumerate(zip(emb.entries, num))
            if any(den * dot(row, p[:-1]) + x * p[-1] == 0 for p in points)}


@dataclass(frozen=True)
class RecipeDivisor:
    """A pp-divisor remembering which fan ray produced each term.

    `emb` is the embedding whose rows express the ambient coordinate forms on
    the coefficient space; boundary faces read the fiber `positive_fiber(emb, x0)`.
    """

    divisor: PPDivisor
    rays: tuple      # of (Label, ray vector), aligned with divisor.terms
    emb: LatticeMap
    sections: tuple  # of x0 = section(ray), aligned with divisor.terms


def _integer_ray(c):
    """`c` as a tuple of ints; ints and integral Fractions pass, anything else
    (floats, bools, proper fractions) is a ValueError naming the ray, and so
    is the zero vector, which spans no ray and gives no prime divisor."""
    c = tuple(c)
    if not all((isinstance(x, int) and not isinstance(x, bool))
               or (isinstance(x, Fraction) and x.denominator == 1) for x in c):
        raise ValueError(f"ray {c!r} must have integer entries")
    c = tuple(int(x) for x in c)
    if not any(c):
        raise ValueError(f"ray {c!r} is the zero vector, which spans no ray")
    return c


def pp_from_weights(setup: WeightSetup, rays=None, retraction=None, emb=None, labels=None,
                    max_chambers=10000) -> RecipeDivisor:
    """Coefficient per fan ray: the positive fiber carried into the dual space.

    With `retraction` (a RationalMap r splitting the embedding `emb` of the
    dual lattice, in whatever coordinates the caller likes) the coefficient
    is r(fiber); otherwise it is r(fiber - x0) in the canonical dual
    coordinates, x0 = section(c).  `emb` must span ker pi, so the fiber is
    x0 + emb(Y), Y = `positive_fiber(emb, x0)`, and as r ∘ emb = id the
    coefficient is Y + r(x0), or Y itself.  Explicit `rays` restrict the
    computation, e.g. to the rays known to meet a subvariety's quotient;
    without them the rays of the quotient fan `common_refinement_fan(pi)` are
    used, guarded by `max_chambers`.
    """
    pi = setup.pi
    if rays is None:
        fan = common_refinement_fan(pi, max_chambers=max_chambers)
        rays = fan.rays()
    rays = [_integer_ray(c) for c in rays]
    if not rays:
        raise ValueError("no rays: the recipe degenerates (trivial quotient)")
    if retraction is None:
        emb = setup.dstar
        retr = _default_retraction(setup)
    else:
        retr = retraction
        if retr.domain != pi.domain:
            raise ValueError("retraction must be defined on the exponent lattice")
        if emb is None:
            raise ValueError("a retraction needs the matching dual embedding")
        if not check_retraction(retr, emb):
            raise ValueError("retraction does not split the dual embedding")
        if any(any(x != 0 for x in row) for row in mat_mul(pi.entries, emb.entries)):
            raise ValueError("dual embedding does not land in the kernel of pi")
        if emb.cols != pi.cols - pi.rank():
            raise ValueError("dual embedding does not span the kernel of pi")
    if labels is None:
        labels = [Label.ray(c, pi.codomain) for c in rays]
    tail = _recipe_tail(retr, emb)
    terms = []
    aligned = []
    for label, c in zip(labels, rays):
        x0 = setup.section.apply(c)
        coeff = positive_fiber(emb, x0)
        if coeff.empty:
            raise ValueError(f"empty fiber over ray {c}: ray misses the orthant image")
        if retraction is not None:
            # + r(x0), as the homogeneous point (q r(x0), q)
            coeff = replace(coeff, ambient=retr.codomain)._translate_hom(
                mat_vec(retr.homogenised, scale_to_int(tuple(x0) + (1,))))
        terms.append((label, coeff))
        aligned.append((label, c, x0))
    div = PPDivisor(retr.codomain, retr.rows, tail, tuple(terms))
    order = {l: i for i, (l, _) in enumerate(div.terms)}
    aligned.sort(key=lambda t: order[t[0]])
    return RecipeDivisor(div, tuple(t[:2] for t in aligned), emb, tuple(t[2] for t in aligned))


def _default_retraction(setup) -> RationalMap:
    """The rational left inverse of the dual embedding, onto its domain."""
    dstar = setup.dstar
    return RationalMap(rational_left_inverse(dstar.entries), dstar.codomain, dstar.domain)


def _recipe_tail(retr, emb) -> Cone:
    """r(ker pi ∩ Q>=0^E) = {y : emb.y >= 0}, since emb spans ker pi and r ∘ emb = id."""
    return Cone.from_ineqs(retr.codomain, retr.rows, emb.entries)


def boundary_face(setup: WeightSetup, recipe: RecipeDivisor, label, v) -> Polyhedron:
    """The v-th boundary face of the coefficient at `label`, possibly empty.

    Empty exactly when the v-th coordinate is bounded away from zero on the
    fiber (`_zero_coords`); otherwise the face of the coefficient minimising
    that coordinate form.

    Kept as the reference for `projectivize`'s terms, and as a layer the benchmark traces.
    """
    delta = recipe.divisor.coefficient(label)
    if v not in _zero_coords(recipe.emb, recipe.sections[recipe.divisor.labels().index(label)]):
        return Polyhedron.empty_in(delta.ambient, delta.dim_ambient)
    form = recipe.emb.entries[v]
    return face_minimizing(delta, form)


def projectivize(setup: WeightSetup, recipe: RecipeDivisor, cell_labels=None,
                 target=None, verify=True) -> FansyDivisor:
    """One pp-divisor per ambient coordinate: project all boundary faces along
    the degree direction.  Duplicate cells (repeated coordinates) are merged.
    `target` names the quotient lattice.

    Each term is `map_image(boundary_face(...), p)`, built without the face
    or the image: every nonempty coefficient is conv(V) + tail (`PPDivisor`
    holds it to the divisor's tail), so its face minimising the v-th form u
    is conv(W) + face_u(tail), W the vertices of V minimising u, and
    p(A + B) = p(A) + p(B).  The term is the tail face's image, computed
    once per coordinate, plus conv(p(W)) (`Polyhedron._plus_hull`).
    """
    emb = recipe.emb
    if setup.degree_element is None:
        raise ValueError("no degree element: the setup is not projective")
    ambient = recipe.divisor.ambient
    # direction of the degree element in the recipe's coefficient coordinates
    # (it may have fractional coordinates there when the dual is an overlattice)
    e = _degree_solution(emb)
    if e is None:
        raise ValueError("degree element is not visible in the chosen coordinates")
    e_dir = scale_to_int(e)
    col = LatticeMap(tuple((x,) for x in e_dir), "degree-axis", ambient)
    p = quotient_projection(col, name=target or f"{ambient}/deg")
    hom_p = p.homogenised
    tail_poly = recipe.divisor.tail.to_polyhedron()
    empty = Polyhedron.empty_in(p.codomain, p.rows)
    # the v-th boundary face at a fiber is empty iff x_v > 0 on the whole fiber
    zero_at = [_zero_coords(emb, x0) for x0 in recipe.sections]
    cells = []
    seen = set()
    for v in range(setup.pi.cols):
        form = emb.entries[v]
        timg = map_image(face_minimizing(tail_poly, form), p)
        terms = []
        for (label, delta), zero in zip(recipe.divisor.terms, zero_at):
            if v not in zero:
                terms.append((label, empty))
                continue
            # images (a, b) of the minimising vertices, the point a/b each
            terms.append((label, timg._plus_hull([mat_vec(hom_p, g)
                                                  for g in _minimizers(delta, form)])))
        div = PPDivisor(p.codomain, p.rows, timg.tail_cone(), tuple(terms))
        if div in seen:
            continue
        seen.add(div)
        key = cell_labels[v] if cell_labels is not None else v
        cells.append((key, div))
    fansy = FansyDivisor(p.codomain, p.rows, recipe.divisor.labels(), tuple(cells))
    if verify:
        report = check_subdivision_structure(fansy)
        if not report.passed:
            raise AssertionError("projectivization violates the subdivision axioms: "
                                 + "; ".join(report.findings))
    return fansy


def _minimizers(poly, form):
    """The homogeneous vertices (N, D) of poly on which form.N / D is least."""
    if poly.empty:
        raise ValueError("empty polyhedron")
    verts = poly.points
    vals = [(dot(form, g[:-1]), g[-1]) for g in verts]
    n0, d0 = vals[0]
    for n, d in vals:
        if n * d0 < n0 * d:
            n0, d0 = n, d
    return [g for g, (n, d) in zip(verts, vals) if n * d0 == n0 * d]

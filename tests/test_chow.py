import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ppfan._vecops import scale_to_int
from ppfan.chow import (
    _default_retraction,
    _degree_solution,
    _zero_coords,
    boundary_face,
    build_setup,
    positive_fiber,
    pp_from_weights,
    projectivize,
)
from ppfan.divisors import Label, check_subdivision_structure
from ppfan.lattice import (
    LatticeMap,
    RationalMap,
    identity_matrix,
    mat_mul,
    mat_vec,
    quotient_projection,
    rational_left_inverse,
)
from ppfan.polyhedra import Polyhedron, map_image, min_value

from test_polyhedra import ref_fiber_polyhedron


def weighted_line_setup(a, b, A, B):
    """Rank-2 torus on affine 3-space, weights [a,1],[b,1],[0,1]; the classical
    worked family with its preferred section (-B,-A,0)."""
    deg = LatticeMap(((a, b, 0), (1, 1, 1)), "E", "M")
    return build_setup(deg, section=((-B,), (-A,), (0,)))


CASES = [(2, 1, 1, 1), (3, 1, 1, 2), (3, 2, 1, 1), (5, 3, 2, 3)]


@pytest.mark.parametrize("a,b,A,B", CASES)
def test_setup_pi_and_degree_element(a, b, A, B):
    assert A * a - B * b == 1
    setup = weighted_line_setup(a, b, A, B)
    assert setup.pi.entries == ((b, -a, a - b),)
    assert setup.degree_element == (0, 1)
    assert setup.saturated


@pytest.mark.parametrize("a,b,A,B", CASES)
def test_recipe_matches_displayed_formula(a, b, A, B):
    setup = weighted_line_setup(a, b, A, B)
    rec = pp_from_weights(setup)
    div = rec.divisor
    assert div.tail.rays == tuple(sorted([(-1, a), (1, 0)]))
    d0 = div.coefficient(Label.ray((1,), setup.pi.codomain))
    dinf = div.coefficient(Label.ray((-1,), setup.pi.codomain))
    v_new = (F(B - A, a - b), F(1, a - b))
    assert set(d0.vertices) == {v_new, (F(A, b), F(0))}
    assert dinf.vertices == ((F(-B, a), F(0)),)


@pytest.mark.parametrize("a,b,A,B", CASES)
def test_boundary_faces(a, b, A, B):
    setup = weighted_line_setup(a, b, A, B)
    rec = pp_from_weights(setup)
    lab0 = Label.ray((1,), setup.pi.codomain)
    labinf = Label.ray((-1,), setup.pi.codomain)
    assert boundary_face(setup, rec, labinf, 1).empty
    d00 = boundary_face(setup, rec, lab0, 0)
    assert d00.vertices == ((F(B - A, a - b), F(1, a - b)),)
    assert d00.rays == ((-1, a),)
    # fiber dimension: ambient coordinates minus the quotient rank
    assert rec.divisor.coefficient(lab0).dim == 3 - 1


def test_projectivized_cells_worked_example():
    setup = weighted_line_setup(2, 1, 1, 1)
    rec = pp_from_weights(setup)
    fansy = projectivize(setup, rec, target="N")
    lab0 = Label.ray((1,), setup.pi.codomain)
    labinf = Label.ray((-1,), setup.pi.codomain)
    by_key = dict(fansy.cells)
    assert by_key[0].coefficient(lab0) == Polyhedron.from_generators("N", 1, [(0,)], [(-1,)])
    assert by_key[0].coefficient(labinf) == Polyhedron.from_generators("N", 1, [(F(-1, 2),)], [(-1,)])
    assert by_key[1].coefficient(lab0) == Polyhedron.from_generators("N", 1, [(0,), (1,)])
    assert by_key[1].coefficient(labinf).empty
    assert by_key[2].coefficient(lab0) == Polyhedron.from_generators("N", 1, [(1,)], [(1,)])
    assert by_key[2].coefficient(labinf) == Polyhedron.from_generators("N", 1, [(F(-1, 2),)], [(1,)])
    assert check_subdivision_structure(fansy).passed


def ref_projected_terms(setup, recipe, v):
    """The v-th cell's terms by definition: each boundary face, projected
    along the degree direction with `map_image`."""
    ambient = recipe.divisor.ambient
    e = scale_to_int(_degree_solution(recipe.emb))
    p = quotient_projection(LatticeMap(tuple((x,) for x in e), "degree-axis", ambient),
                            name=f"{ambient}/deg")
    return tuple((label, map_image(boundary_face(setup, recipe, label, v), p))
                 for label in recipe.divisor.labels())


def _gr5():
    from ppfan.grassmann import gr_setup, recipe_divisor

    return gr_setup(5).ws, recipe_divisor(5)


def _points_on_a_line(k):
    setup = build_setup(LatticeMap(((1,) * k, tuple(range(k))), "E", "M"))
    return setup, pp_from_weights(setup)


def _three_weights():
    setup = weighted_line_setup(2, 1, 1, 1)
    return setup, pp_from_weights(setup)


@pytest.mark.parametrize("make", [_gr5, lambda: _points_on_a_line(5), _three_weights],
                         ids=["gr5", "five-points-on-a-line", "three-weights"])
def test_projectivize_terms_are_projected_boundary_faces(make):
    # projectivize builds each term from the tail face's image and the
    # minimising vertices; the definition is the face, then its image
    setup, recipe = make()
    fansy = projectivize(setup, recipe)
    cells = {cell.terms for _, cell in fansy.cells}
    by_key = dict(fansy.cells)
    for v in range(setup.pi.cols):
        want = ref_projected_terms(setup, recipe, v)
        assert want in cells
        if v in by_key:
            assert by_key[v].terms == want


def test_boundary_union_covers_relative_boundary():
    # the union of the projected boundary faces per label covers the line
    setup = weighted_line_setup(3, 2, 1, 1)
    fansy = projectivize(setup, pp_from_weights(setup))
    for label in fansy.labels:
        ok, findings = fansy.subdivision_for(label).check()
        assert ok, findings


def test_build_setup_rejects_rank_deficient():
    with pytest.raises(ValueError):
        build_setup(LatticeMap(((1, 2), (2, 4)), "E", "M"))


def test_identity_weights_degenerate():
    setup = build_setup(LatticeMap(identity_matrix(3), "E", "M"))
    assert setup.pi.rows == 0
    with pytest.raises(ValueError):
        pp_from_weights(setup)


def test_custom_section_validated():
    deg = LatticeMap(((2, 1, 0), (1, 1, 1)), "E", "M")
    with pytest.raises(ValueError):
        build_setup(deg, section=((1,), (1,), (0,)))


def test_no_degree_element_blocks_projectivize():
    setup = build_setup(LatticeMap(((1, 0, 1), (0, 2, 1)), "E", "M"))
    assert setup.degree_element is None
    rec = pp_from_weights(setup)
    with pytest.raises(ValueError):
        projectivize(setup, rec)


def test_plucker_setup_is_overlattice():
    from ppfan.grassmann import plucker_degree_map
    from ppfan.lattice import smith_normal_form
    deg = plucker_degree_map(4)
    setup = build_setup(deg)
    assert not setup.saturated
    _, S, _ = smith_normal_form(deg.entries)
    divisors = [S[i][i] for i in range(4)]
    assert divisors == [1, 1, 1, 2]  # image has index two
    assert setup.degree_element is not None
    # the degree element doubles to the diagonal pairing vector
    doubled = setup.dstar.apply(tuple(2 * x for x in setup.degree_element))
    assert doubled == tuple(2 for _ in range(6))


def _random_projective_setup(rng):
    while True:
        cols = rng.randint(3, 4)
        top = tuple(rng.randint(-2, 2) for _ in range(cols))
        deg = LatticeMap((top, tuple(1 for _ in range(cols))), "E", "M")
        if deg.rank() == 2:
            return build_setup(deg)


def test_section_independence_randomized():
    rng = random.Random(77)
    cases = 0
    while cases < 25:
        setup = _random_projective_setup(rng)
        rec1 = pp_from_weights(setup)
        cases += 1
        # second section: shift the first by something in the dual image
        R = tuple(tuple(rng.randint(-2, 2) for _ in range(setup.pi.rows))
                  for _ in range(setup.dstar.cols))
        shift = mat_mul(setup.dstar.entries, R)
        s2 = tuple(tuple(a + b for a, b in zip(r1, r2))
                   for r1, r2 in zip(setup.section.entries, shift))
        setup2 = build_setup(setup.deg, section=s2)
        rec2 = pp_from_weights(setup2, rays=[c for _, c in rec1.rays])
        for label, c in rec1.rays:
            delta = tuple(-x for x in mat_vec(R, c))
            moved = rec1.divisor.coefficient(label).translate(delta)
            assert moved == rec2.divisor.coefficient(label)


def test_two_sections_differ_by_translation():
    # the canonical section and the worked example's one give coefficients
    # that agree after the predicted per-ray shift
    deg = LatticeMap(((2, 1, 0), (1, 1, 1)), "E", "M")
    setup_canon = build_setup(deg)
    setup_paper = build_setup(deg, section=((-1,), (-1,), (0,)))
    rec1 = pp_from_weights(setup_canon)
    rec2 = pp_from_weights(setup_paper, rays=[c for _, c in rec1.rays])
    from ppfan.lattice import rational_left_inverse
    T = rational_left_inverse(setup_canon.dstar.entries)
    for label, c in rec1.rays:
        diff = tuple(a - b for a, b in
                     zip(setup_canon.section.apply(c), setup_paper.section.apply(c)))
        shift = mat_vec(T, diff)
        moved = rec1.divisor.coefficient(label).translate(shift)
        assert moved == rec2.divisor.coefficient(label)


def test_ray_missing_orthant_image_rejected():
    # weights with a one-sided quotient image: the opposite ray has no fiber
    deg = LatticeMap(((1, -1),), "E", "M")
    setup = build_setup(deg)
    assert setup.pi.entries == ((1, 1),)
    pp_from_weights(setup, rays=[(1,)])
    with pytest.raises(ValueError):
        pp_from_weights(setup, rays=[(-1,)])


def test_fibers_are_cached():
    setup = weighted_line_setup(2, 1, 1, 1)
    x0 = setup.section.apply((1,))
    f1 = positive_fiber(setup.dstar, x0)
    f2 = positive_fiber(setup.dstar, x0)
    assert f1 is f2


def _dual_of_three_weights():
    setup = weighted_line_setup(2, 1, 1, 1)
    return setup, setup.dstar, None


def _dual_of_gr4():
    from ppfan.grassmann import gr_setup, partition_ray, partitions

    setup = gr_setup(4)
    return setup.ws, setup.emb, [partition_ray(4, B)[0] for B in partitions(4)]


@pytest.mark.parametrize("make,k", [(_dual_of_three_weights, 1), (_dual_of_gr4, 2)],
                         ids=["three-weights", "gr4"])
def test_recipe_refuses_embedding_short_of_ker_pi(make, k):
    # the first k columns of a dual embedding (of rank 2, and 4 for Gr(2,4))
    # lie in ker pi and are split by their left inverse, but do not span it
    setup, emb, rays = make()
    short = LatticeMap(tuple(r[:k] for r in emb.entries), "D", "E")
    retr = RationalMap(rational_left_inverse(short.entries), setup.pi.domain, "D")
    with pytest.raises(ValueError, match="does not span the kernel of pi"):
        pp_from_weights(setup, rays=rays, retraction=retr, emb=short)


def old_zero_coords(fib):
    """The v whose boundary face is nonempty, read off the fiber in E: min x_v = 0."""
    d = fib.dim_ambient
    return {v for v in range(d)
            if min_value(fib, tuple(int(j == v) for j in range(d))) == 0}


@st.composite
def weight_setups(draw):
    # like _random_projective_setup: small weights over a positive second row
    # (1s for projective setups, sometimes 2s for an overlattice), full rank
    cols = draw(st.integers(3, 5))
    top = tuple(draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)))
    second = tuple(draw(st.lists(st.integers(1, 2), min_size=cols, max_size=cols)))
    deg = LatticeMap((top, second), "E", "M")
    assume(deg.rank() == 2)
    return build_setup(deg)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(weight_setups())
def test_recipe_coefficients_are_shifted_and_retracted_fibers(setup):
    # the fiber in ker pi coordinates, Y, equals the old body: the fiber in E
    # shifted by -section(c) and mapped by the default retraction; the zero
    # sets equal those read off the fiber in E
    recipe = pp_from_weights(setup)
    retr = _default_retraction(setup)
    for (label, c), x0, (_, coeff) in zip(recipe.rays, recipe.sections, recipe.divisor.terms):
        assert x0 == setup.section.apply(c)
        fib = ref_fiber_polyhedron(setup.pi, c)
        assert coeff == map_image(fib.translate(tuple(-F(x) for x in x0)), retr)
        zero = old_zero_coords(fib)
        assert _zero_coords(recipe.emb, x0) == zero
        for v in range(setup.pi.cols):
            assert boundary_face(setup, recipe, label, v).empty == (v not in zero)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grassmann_recipe_coefficients_are_retracted_fibers(n):
    # with the explicit retraction r: Y + r(x0) against the old body, r of
    # the fiber in E, and the zero sets against those read off that fiber
    from ppfan.grassmann import gr_setup, recipe_divisor

    setup = gr_setup(n)
    recipe = recipe_divisor(n)
    for (label, c), x0, (_, coeff) in zip(recipe.rays, recipe.sections, recipe.divisor.terms):
        fib = ref_fiber_polyhedron(setup.pi, c)
        assert coeff == map_image(fib, setup.retraction)
        assert _zero_coords(recipe.emb, x0) == old_zero_coords(fib)


@pytest.mark.parametrize("rays", [[(1.7,), (-1,)], [(F(1, 2),), (-1,)], [(True,), (-1,)]],
                         ids=["float", "fraction", "bool"])
def test_recipe_rejects_non_integer_rays(rays):
    setup = weighted_line_setup(*CASES[0])
    with pytest.raises(ValueError, match="integer entries"):
        pp_from_weights(setup, rays=rays)


@pytest.mark.parametrize("zero", [(0,), (F(0),)], ids=["int", "fraction"])
def test_recipe_rejects_zero_ray(zero):
    # the zero vector spans no ray, so it labels no prime divisor
    setup = weighted_line_setup(*CASES[0])
    with pytest.raises(ValueError, match=r"ray \(0,\) is the zero vector"):
        pp_from_weights(setup, rays=[(1,), zero])


def test_recipe_accepts_integral_fraction_rays():
    setup = weighted_line_setup(*CASES[0])
    recipe = pp_from_weights(setup, rays=[(F(1),), (F(-2, 2),)])
    assert recipe.rays == pp_from_weights(setup, rays=[(1,), (-1,)]).rays
    assert all(type(x) is int for _, c in recipe.rays for x in c)

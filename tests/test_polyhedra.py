import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ppfan.dd as dd
import ppfan.polyhedra as polyhedra_module
from ppfan._vecops import frac_str, is_zero, scale_to_int
from ppfan.dd import dd_cone, from_incidence
from ppfan.divisors import Label, PPDivisor
from ppfan.lattice import LatticeMap, RationalMap, hnf_rows
from ppfan.polyhedra import (
    Cone,
    Fan,
    Polyhedron,
    RefinementGuardExceeded,
    Subdivision,
    _cone_leq,
    _perturbed_sign,
    _subset_of,
    _tiles,
    common_refinement_fan,
    face_minimizing,
    induced_subdivision,
    intersect,
    linear_image,
    map_image,
    min_value,
)

from oracles import brute_min, brute_rays, brute_vertices


def poly_H(ineqs, eqs=(), d=2, name="Q"):
    return Polyhedron.from_halfspaces(name, d, ineqs, eqs)


def poly_V(verts, rays=(), lin=(), d=2, name="Q"):
    return Polyhedron.from_generators(name, d, verts, rays, lin)


# --- dual description ------------------------------------------------------

def test_simplex_from_H():
    p = poly_H([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])
    assert p.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert p.rays == ()


def test_fiber_slice_from_H():
    p = poly_H([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
               eqs=[((1, -2, 1), 1)], d=3)
    assert p.vertices == ((F(0), F(0), F(1)), (F(1), F(0), F(0)))
    assert p.rays == ((0, 1, 2), (2, 1, 0))


def test_inconsistent_H_is_empty():
    p = poly_H([((1,), 1), ((-1,), 0)], d=1)
    assert p.empty
    assert p == Polyhedron.empty_in("Q", 1)


def test_roundtrip_randomized():
    rng = random.Random(3)
    for _ in range(150):
        d = rng.randint(1, 3)
        verts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
                 for _ in range(rng.randint(1, 4))]
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, 2))]
        rays = [r for r in rays if any(r)]
        p = poly_V(verts, rays, d=d)
        q = poly_V(p.vertices, p.rays, p.lineality, d=d)
        r = poly_H([(row[:-1], -row[-1]) for row in p.ineqs],
                   [(row[:-1], -row[-1]) for row in p.eqs], d=d)
        assert p == q == r


def test_vertices_match_brute_force():
    rng = random.Random(4)
    for _ in range(80):
        d = rng.randint(2, 3)
        ineqs = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 2))
                 for _ in range(rng.randint(d, 6))]
        p = poly_H(ineqs, d=d)
        expect_v = brute_vertices(ineqs, [], d)
        if p.empty:
            assert expect_v == []
            continue
        if p.lineality:
            continue  # brute oracle only handles pointed polyhedra
        assert list(p.vertices) == expect_v
        assert list(p.rays) == brute_rays(ineqs, [], d)


def test_vertices_match_brute_force_with_equations():
    rng = random.Random(14)
    for _ in range(80):
        d = 3
        ineqs = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 2))
                 for _ in range(rng.randint(2, 5))]
        eqs = [(tuple(rng.randint(-2, 2) for _ in range(d)), rng.randint(-1, 1))]
        p = poly_H(ineqs, eqs, d=d)
        expect_v = brute_vertices(ineqs, eqs, d)
        if p.empty:
            assert expect_v == []
            continue
        if p.lineality:
            continue
        assert list(p.vertices) == expect_v
        assert list(p.rays) == brute_rays(ineqs, eqs, d)


# --- minkowski sums --------------------------------------------------------

def test_minkowski_segment_plus_cone():
    # the cone plus the hull of the segment's ends (`_plus_hull`, homogeneous points)
    cone = Cone.from_rays("Q", 2, [(1, 0), (-1, 2)])
    s = cone.to_polyhedron()._plus_hull([(0, 1, 1), (1, 0, 1)])
    assert s.vertices == ((F(0), F(1)), (F(1), F(0)))
    assert s.rays == ((-1, 2), (1, 0))
    assert s == poly_V([(0, 1), (1, 0)], rays=[(1, 0), (-1, 2)])


# --- faces and minima ------------------------------------------------------

def test_face_of_square():
    sq = poly_V([(0, 0), (1, 0), (0, 1), (1, 1)])
    f = face_minimizing(sq, (1, 0))
    assert f.vertices == ((F(0), F(0)), (F(0), F(1)))


def test_face_compact_edge():
    d0 = poly_V([(0, 1), (1, 0)], rays=[(1, 0), (-1, 2)])
    f = face_minimizing(d0, (1, 1))
    assert f.vertices == ((F(0), F(1)), (F(1), F(0))) and f.rays == ()


def test_face_unbounded_signal():
    h = poly_V([(0, 0)], rays=[(1, 0)])
    assert face_minimizing(h, (-1, 0)) is None
    assert min_value(h, (-1, 0)) is None


def test_min_values():
    sq = poly_V([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert min_value(sq, (1, 1)) == 0
    dinf = poly_V([(F(-1, 2), 0)], rays=[(1, 0), (-1, 2)])
    assert min_value(dinf, (2, 1)) == -1
    with pytest.raises(ValueError):
        min_value(Polyhedron.empty_in("Q", 2), (1, 0))


def test_min_value_rejects_wrong_length():
    tri = poly_V([(0, 0), (1, 0), (0, 1)])
    for u in [(1,), (1, 1, -9)]:
        with pytest.raises(ValueError, match=re.escape(f"form {u!r} has length")):
            min_value(tri, u)


def test_face_minimizing_rejects_wrong_length():
    tri = poly_V([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"form \(1, 1, -9\) has length 3"):
        face_minimizing(tri, (1, 1, -9))


def test_translate_rejects_wrong_length():
    tri = poly_V([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"translation vector \(1, 1, 5\) has length 3"):
        tri.translate((1, 1, 5))
    with pytest.raises(ValueError, match="translation vector"):
        Polyhedron.empty_in("Q", 2).translate((1,))
    assert tri.translate((1, 1)) == poly_V([(1, 1), (2, 1), (1, 2)])


def test_translate_rejects_floats():
    tri = poly_V([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"0\.5 in \(0\.5, 1, 1\) is not an int or a Fraction"):
        tri.translate((0.5, 1))


def test_face_compact_for_interior_dual_forms():
    rng = random.Random(61)
    for _ in range(60):
        verts = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(rng.randint(1, 3))]
        rays = [r for r in (tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)) if any(r)]
        p = poly_V(verts, rays)
        if p.lineality:
            continue
        tail = p.tail_cone()
        u = tuple(sum(a[i] for a in tail.ineqs) for i in range(2))
        if any(sum(a * b for a, b in zip(r, u)) <= 0 for r in p.rays):
            continue  # u not interior to the dual of the tail
        f = face_minimizing(p, u)
        assert f is not None and f.rays == () and f.lineality == ()


def test_fiber_recession_cone_is_kernel_meet_orthant():
    pi = LatticeMap(((1, -2, 1),), "E", "N")
    f = ref_fiber_polyhedron(pi, (1,))
    unit = [tuple(1 if j == i else 0 for j in range(3)) for i in range(3)]
    want = Cone.from_ineqs("E", 3, unit, pi.entries)
    assert f.tail_cone() == want


def test_face_is_subset_and_attains_min():
    rng = random.Random(21)
    for _ in range(60):
        verts = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(rng.randint(1, 4))]
        p = poly_V(verts)
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = face_minimizing(p, u)
        m = min_value(p, u)
        assert f.is_face_of(p)
        assert all(sum(a * b for a, b in zip(v, u)) == m for v in f.vertices)
        assert m == brute_min(p.vertices, p.rays, u)


# --- intersections ---------------------------------------------------------
#
# ref_cone_intersect is the intersection of two cones by one run on both
# inequality systems.  The library intersects only polyhedra; the tests use
# this to check the meets of chambers and tail cones.


def ref_cone_intersect(a, b):
    assert a.ambient == b.ambient
    return Cone.from_ineqs(a.ambient, a.dim_ambient, a.ineqs + b.ineqs, a.eqs + b.eqs)


def test_intersect_self():
    p = poly_V([(0, 0), (1, 2)], rays=[(1, 0)])
    assert intersect(p, p) == p


def test_intersect_intervals():
    a = poly_V([(0,), (2,)], d=1)
    b = poly_V([(1,), (3,)], d=1)
    assert intersect(a, b).vertices == ((F(1),), (F(2),))


def test_intersect_grass_tail_cones():
    # adjacent sign-pattern cones meet in the face spanned by the two common rays
    from ppfan.grassmann import tail_fan
    fan = tail_fan(2, 4)
    c12 = dict(fan.maximal)[(1, 2)]
    c13 = dict(fan.maximal)[(1, 3)]
    meet = ref_cone_intersect(c12, c13)
    want = Cone.from_rays("Lstar(4)", 3, [(-1, 0, 0), (-1, -1, -1)])
    assert meet == want
    assert meet.dim == 2
    assert all(meet.to_polyhedron().is_face_of(c.to_polyhedron()) for c in (c12, c13))


def test_lattice_mismatch_raises():
    a = poly_V([(0, 0)], name="A")
    b = poly_V([(0, 0)], name="B")
    with pytest.raises(ValueError):
        intersect(a, b)


# --- images and fibers -----------------------------------------------------
#
# ref_fiber_polyhedron builds the positive fiber in the exponent lattice by
# one run of its own, not in the recipe's ker pi coordinates.  The recipe
# tests in test_chow and the workflow's Gr(2,7) step compare against it.


def ref_fiber_polyhedron(pi, c) -> Polyhedron:
    """pi^{-1}(c) ∩ nonnegative orthant in the domain of pi."""
    d = pi.cols
    unit = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    ineqs = [(u, 0) for u in unit]
    eqs = [(row, c[i]) for i, row in enumerate(pi.entries)]
    return Polyhedron.from_halfspaces(pi.domain, d, ineqs, eqs)


def test_image_identity_and_empty():
    p = poly_V([(0, 1), (1, 0)], rays=[(1, 1)])
    assert linear_image(p, ((1, 0), (0, 1)), "Q", 2) == p
    assert linear_image(Polyhedron.empty_in("Q", 2), ((1, 0),), "R", 1).empty


def test_image_projection_of_boundary_face():
    f = poly_V([(0, 1)], rays=[(-1, 2)])
    img = linear_image(f, ((1, 0),), "R", 1)
    assert img.vertices == ((F(0),),) and img.rays == ((-1,),)


def test_fiber_point():
    pi = LatticeMap(((1, 0), (0, 1)), "E", "N")
    f = ref_fiber_polyhedron(pi, (1, 1))
    assert f.vertices == ((F(1), F(1)),) and f.rays == ()


def test_fiber_properties_randomized():
    rng = random.Random(31)
    done = 0
    while done < 40:
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(2))
        pi = LatticeMap(rows, "E", "N")
        if pi.rank() != 2:
            continue
        done += 1
        c = (rng.randint(-2, 2), rng.randint(-2, 2))
        f = ref_fiber_polyhedron(pi, c)
        if f.empty:
            continue
        for v in f.vertices:
            assert pi.apply(v) == tuple(F(x) for x in c) or pi.apply(v) == c
            assert all(x >= 0 for x in v)
        for r in f.rays:
            assert all(x == 0 for x in pi.apply(r))
            assert all(x >= 0 for x in r)


# --- refinement fan --------------------------------------------------------

def line_pi(points):
    """pi for the weights (1, a_i): points a_i on a line."""
    from ppfan.chow import build_setup
    return build_setup(LatticeMap(((1,) * len(points), tuple(points)), "E", "M")).pi


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def check_chamber_fan(pi, fan, xs):
    """The sampling oracle: the fan's cones are the chambers of pi on its support.

    A point lies in some chamber iff it lies in the support; a point inside a
    chamber has that chamber as the intersection of all 2^l orthant-face
    images containing it; every chamber facet is shared with exactly one
    other chamber or lies in a facet of the support.
    """
    name, r = pi.codomain, pi.rows
    cols = [pi.column(j) for j in range(pi.cols)]
    support = Cone.from_rays(name, r, cols)
    images = [Cone.from_rays(name, r, [cols[j] for j in range(pi.cols) if mask >> j & 1])
              for mask in range(1 << pi.cols)]
    cones = [c for _, c in fan.maximal]
    chambers = tuple((label, c.to_polyhedron()) for label, c in fan.maximal)
    assert Subdivision(name, r, chambers, support.to_polyhedron()).check() == (True, [])
    assert all(c.dim == r for c in cones)
    for x in xs:
        hits = [c for c in cones if c.contains(x)]
        assert bool(hits) == support.contains(x), x
        inside = [c for c in hits if all(_dot(a, x) > 0 for a in c.ineqs)]
        if inside:
            assert len(hits) == 1
            over = [im for im in images if im.contains(x)]
            meet = Cone.from_ineqs(name, r, [a for im in over for a in im.ineqs],
                                   [e for im in over for e in im.eqs])
            assert meet == inside[0], x
    for c in cones:
        for f in ref_cone_facets(c):
            on_boundary = any(all(_dot(h, g) == 0 for g in f.rays + f.lineality)
                              for h in support.ineqs)
            shared = [d for d in cones
                      if d is not c and f.to_polyhedron().is_face_of(d.to_polyhedron())]
            assert len(shared) == (0 if on_boundary else 1), f.rays
            # adjacent chambers meet in exactly the shared facet; the walk checks
            # this by a half-space test, here it is the intersection itself
            assert all(ref_cone_intersect(c, d) == f for d in shared), f.rays


def test_refinement_identity_quadrants():
    # the support pi(orthant) is the first quadrant itself: one chamber
    fan = common_refinement_fan(LatticeMap(((1, 0), (0, 1)), "E", "N"))
    assert len(fan.maximal) == 1
    assert fan.rays() == ((0, 1), (1, 0))
    assert [l for l, _ in fan.maximal] == [((0, 1),)]
    quadrant = Polyhedron.from_generators("N", 2, [(0, 0)], [(1, 0), (0, 1)])
    chambers = tuple((label, c.to_polyhedron()) for label, c in fan.maximal)
    assert Subdivision("N", 2, chambers, quadrant).check() == (True, [])


def test_refinement_row_map():
    fan = common_refinement_fan(LatticeMap(((1, -2, 1),), "E", "N"))
    assert fan.rays() == ((-1,), (1,))
    assert len(fan.maximal) == 2


def test_refinement_guard():
    line = line_pi(range(7))
    with pytest.raises(RefinementGuardExceeded):
        common_refinement_fan(line, max_chambers=31)
    assert len(common_refinement_fan(line, max_chambers=32).maximal) == 32


@pytest.mark.parametrize("bound", [0, -1])
def test_refinement_guard_below_one_refused(bound):
    with pytest.raises(ValueError, match="max_chambers must be at least 1"):
        common_refinement_fan(LatticeMap(((1, 0), (0, 1)), "E", "N"), max_chambers=bound)


@pytest.mark.parametrize("weights, chambers", [
    *[([(1, 3 * i - 4) for i in range(l)], 2 ** (l - 2)) for l in (5, 6, 7)],
    ([[int(k in p) for k in range(5)] for p in itertools.combinations(range(5), 2)], 102),
], ids=["line5", "line6", "line7", "gr25"])
def test_refinement_runs_one_dd_per_chamber(monkeypatch, weights, chambers):
    # points on a line and the Gr(2,5) weights e_i + e_j: one run from scratch,
    # for the support, and one run per chamber resumed from the simplicial cone
    # of its first basis, as a wall is crossed by a half-space test, with no
    # intersection; and one incidence read-off per run, as no facet is built
    # to cross it
    from ppfan.chow import build_setup
    pi = build_setup(LatticeMap(tuple(zip(*weights)), "E", "M")).pi
    fresh, resumed, read = [], [], []
    real_process, real_from_incidence = dd.process, dd.from_incidence

    def counting(dim, constraints, start=None):
        (fresh if start is None else resumed).append(dim)
        return real_process(dim, constraints, start)

    def counting_read(*args):
        read.append(args[0])
        return real_from_incidence(*args)

    monkeypatch.setattr(dd, "process", counting)
    # `dd_pair` calls it through `dd`, `Polyhedron._face` through its import in `polyhedra`
    monkeypatch.setattr(dd, "from_incidence", counting_read)
    monkeypatch.setattr("ppfan.polyhedra.from_incidence", counting_read)
    assert len(common_refinement_fan(pi).maximal) == chambers
    assert (len(fresh), len(resumed)) == (1, chambers)
    assert len(read) == chambers + 1


@st.composite
def perturbed_sign_cases(draw):
    # a row h != 0, a point p and a direction d, with h.p = 0 or h.p = h.d = 0
    # drawn on purpose: p and d are moved onto h's hyperplane
    r = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-5, 5), min_size=r, max_size=r)
    h = draw(vec.filter(any))
    p, d = draw(vec), draw(vec)
    hh = _dot(h, h)

    def onto(v):
        # hh v - (h.v) h, on h's hyperplane
        hv = _dot(h, v)
        return [hh * x - hv * y for x, y in zip(v, h)]

    tie = draw(st.sampled_from(["none", "p", "p and d"]))
    if tie != "none":
        p = onto(p)
    if tie == "p and d":
        d = onto(d)
    return tuple(h), tuple(p), tuple(d)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(perturbed_sign_cases())
def test_perturbed_sign_is_the_sign_for_small_eps(case):
    # h.y(eps) for y(eps) = p + eps d + eps^2 (1, eps, ..., eps^(r-1)) in exact
    # rationals, at eps = 1/(2 + 2M), M the largest |coefficient| of the
    # polynomial in eps: the first nonzero coefficient c then outweighs the
    # rest, sum of M eps^k over k >= 1 < |c|
    h, p, d = case
    coeffs = [_dot(h, p), _dot(h, d), *h]
    eps = F(1, 2 + 2 * max(map(abs, coeffs)))
    y = [x + eps * dx + eps ** (2 + i) for i, (x, dx) in enumerate(zip(p, d))]
    value = _dot(h, y)
    assert value != 0
    assert _perturbed_sign(h, p, d) == (1 if value > 0 else -1)


def test_perturbed_sign_refuses_the_zero_row():
    with pytest.raises(ValueError, match="zero row"):
        _perturbed_sign((0, 0), (1, 2), (3, 4))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(
    lambda r: st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                       min_size=r, max_size=r)))
def test_refinement_basis_rows_are_the_inverse(mat):
    # for a square pi the one basis is all columns: it is kept iff pi is
    # invertible, and the rows its chamber's facets are read from, taken from
    # one elimination of (pi | I), are the rows of pi^-1 made primitive, in order
    import ppfan.polyhedra as polyhedra
    from ppfan.lattice import matrix_rank, rational_left_inverse
    mat = tuple(map(tuple, mat))
    r = len(mat)
    pi = LatticeMap(mat, "E", "N")
    if matrix_rank(mat) < r:
        with pytest.raises(ValueError, match="no full-dimensional chambers"):
            common_refinement_fan(pi)
        return
    built = []
    real = polyhedra.from_incidence

    def capture(dim, incidence, full, eqs):
        incidence = list(incidence)
        built.append([a for a, _ in incidence])
        return real(dim, incidence, full, eqs)

    polyhedra.from_incidence = capture
    try:
        fan = common_refinement_fan(pi)
    finally:
        polyhedra.from_incidence = real
    assert built == [[scale_to_int(a) for a in rational_left_inverse(mat)]]
    assert [l for l, _ in fan.maximal] == [(tuple(range(r)),)]


def test_refinement_point_location_randomized():
    rng = random.Random(41)
    pi = LatticeMap(((1, -1, 0, 2), (0, 1, 1, -1)), "E", "N")
    fan = common_refinement_fan(pi)
    xs = [(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
          for _ in range(200)]
    check_chamber_fan(pi, fan, xs)


@pytest.mark.parametrize("l", [5, 6, 7])
def test_refinement_line_is_cube_fan(l):
    # points a_i on a line: the chamber fan is the normal fan of an
    # (l-2)-cube; its rays are the images of the heights raising interior
    # point j (e_j) and bending at it (max(0, a_i - a_j))
    points = [3 * i - 4 for i in range(l)]
    pi = line_pi(points)
    fan = common_refinement_fan(pi)
    want = set()
    for j in range(1, l - 1):
        for h in ([int(i == j) for i in range(l)], [max(0, a - points[j]) for a in points]):
            want.add(_primitive([sum(r[i] * h[i] for i in range(l)) for r in pi.entries]))
    assert len(fan.maximal) == 2 ** (l - 2)
    assert set(fan.rays()) == want and len(want) == 2 * (l - 2)


def test_refinement_independent_of_column_order():
    rng = random.Random(7)
    for pi in (line_pi(range(6)), LatticeMap(((1, -1, 0, 2, 1), (0, 1, 1, -1, 2)), "E", "N")):
        order = list(range(pi.cols))
        rng.shuffle(order)
        moved = LatticeMap(tuple(tuple(row[j] for j in order) for row in pi.entries),
                           pi.domain, pi.codomain)
        assert ({c for _, c in common_refinement_fan(moved).maximal}
                == {c for _, c in common_refinement_fan(pi).maximal})


@st.composite
def full_rank_maps(draw):
    r = draw(st.integers(1, 3))
    l = draw(st.integers(r, 6))
    rows = tuple(tuple(draw(st.lists(_ints, min_size=l, max_size=l))) for _ in range(r))
    pi = LatticeMap(rows, "E", "N")
    assume(pi.rank() == r)
    return pi


def ref_chamber(pi, label):
    """The chamber of `label` from scratch: one run on the sorted rows of its bases' cones."""
    from ppfan.lattice import rational_left_inverse
    rows = {scale_to_int(a) for S in label
            for a in rational_left_inverse(tuple(tuple(row[j] for j in S) for row in pi.entries))}
    return Cone.from_ineqs(pi.codomain, pi.rows, sorted(rows))


def check_chambers(pi, fan):
    # each chamber, resumed from its first basis' cone, is the cone of one run
    # from scratch, and the facet masks the walk stored are the true incidence
    for label, c in fan.maximal:
        assert c == ref_chamber(pi, label), label
        assert "_incidence" in vars(c), label
        assert c._incidence == tuple(zip(c.ineqs, dd.tight_masks(c.ineqs, c.rays))), label


@pytest.mark.parametrize("weights", [
    *[[(1, a) for a in range(l)] for l in (5, 6, 7, 8)],
    [[int(k in p) for k in range(5)] for p in itertools.combinations(range(5), 2)],
], ids=["line5", "line6", "line7", "line8", "gr25"])
def test_refinement_chambers_match_one_run_each(weights):
    from ppfan.chow import build_setup
    pi = build_setup(LatticeMap(tuple(zip(*weights)), "E", "M")).pi
    check_chambers(pi, common_refinement_fan(pi))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(full_rank_maps(), st.data())
def test_refinement_sampling_oracle(pi, data):
    fan = common_refinement_fan(pi)
    xs = data.draw(st.lists(st.tuples(*[_rats] * pi.rows), min_size=8, max_size=8))
    # the fan's own rays and cone centres exercise boundaries and interiors
    xs += list(fan.rays()) + [c.to_polyhedron().relative_interior_point() for _, c in fan.maximal]
    check_chamber_fan(pi, fan, xs)
    check_chambers(pi, fan)


# --- induced subdivisions --------------------------------------------------

def test_trivial_heights():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    sub = induced_subdivision("Q", pts, [0, 0, 0, 0])
    assert [m for m, _ in sub.cells] == [(0, 1, 2, 3)]
    assert sub.check()[0]


def test_generic_square_heights():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    sub = induced_subdivision("Q", pts, [0, 0, 0, -1])
    assert {m for m, _ in sub.cells} == {(0, 1, 3), (0, 2, 3)}
    assert sub.check()[0]


def test_hypersimplex_partition_heights():
    from ppfan.grassmann import pair_vector, pairs
    pts = [tuple(1 if k in (i, j) else 0 for k in range(1, 5)) for i, j in pairs(4)]
    heights = pair_vector(4, (1, 2))
    sub = induced_subdivision("W", pts, heights)
    got = {frozenset(m) for m, _ in sub.cells}
    part, comp = {1, 2}, {3, 4}
    c1 = frozenset(i for i, (a, b) in enumerate(pairs(4)) if a in part or b in part)
    c2 = frozenset(i for i, (a, b) in enumerate(pairs(4)) if a in comp or b in comp)
    assert got == {c1, c2}
    ok, findings = sub.check()
    assert ok, findings


def test_lift_independence():
    rng = random.Random(51)
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]
    for _ in range(40):
        heights = [rng.randint(-3, 3) for _ in pts]
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        c = rng.randint(-3, 3)
        shifted = [h + sum(a * b for a, b in zip(p, w)) + c for h, p in zip(heights, pts)]
        s1 = induced_subdivision("Q", pts, heights)
        s2 = induced_subdivision("Q", pts, shifted)
        assert [m for m, _ in s1.cells] == [m for m, _ in s2.cells]


def test_heights_length_checked():
    with pytest.raises(ValueError):
        induced_subdivision("Q", [(0, 0)], [1, 2])


def test_induced_subdivision_rejects_no_points_and_ragged_points():
    with pytest.raises(ValueError, match="no points"):
        induced_subdivision("Q", [], [])
    # the point is named as given, before the height is appended
    with pytest.raises(ValueError, match=re.escape("point (1,) has length 1, expected 2")):
        induced_subdivision("Q", [(0, 0), (1,)], [0, 0])


# --- constructor dimension checks ------------------------------------------

def test_from_generators_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(0, 0, 7\)"):
        Polyhedron.from_generators("A", 2, [(0, 0, 7)])
    with pytest.raises(ValueError, match="ray"):
        Polyhedron.from_generators("A", 2, [(0, 0)], rays=[(1,)])


def test_from_halfspaces_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(1, 0, 0\)"):
        Polyhedron.from_halfspaces("A", 2, [((1, 0, 0), 0)])
    with pytest.raises(ValueError, match="equation"):
        Polyhedron.from_halfspaces("A", 2, [], [((1,), 0)])


def test_contains_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
        poly_V([(0, 0)]).contains((1, 2, 3))


def test_cone_from_rays_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
        Cone.from_rays("A", 2, [(1, 0), (1, 2, 3)])
    with pytest.raises(ValueError, match="lineality"):
        Cone.from_rays("A", 2, [], [(1,)])


def test_cone_contains_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(1, 1, -5\)"):
        Cone.from_rays("A", 2, [(1, 0), (0, 1)]).contains((1, 1, -5))


def test_floats_rejected():
    with pytest.raises(ValueError, match="0.5"):
        Polyhedron.from_generators("A", 1, [(0.5,)])
    # Fractions, integral ones included, still go through
    assert Polyhedron.from_generators("A", 1, [(F(4, 2),), (F(1, 3),)]).vertices == \
        ((F(1, 3),), (F(2),))


def test_cone_from_ineqs_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(1,\)"):
        Cone.from_ineqs("A", 2, [(1,)])
    with pytest.raises(ValueError, match="equation"):
        Cone.from_ineqs("A", 2, [], [(0, 1, 1)])


# --- face and containment tests against rebuild-and-compare references -----
#
# The references below are the definitions by double description: rebuild
# the face cut out by the tight rows (or the tail cone, or the intersection)
# and compare canonical forms.  The package tests the same relations on the
# generators it already holds; both must agree on every drawn pair.

HYP = settings(max_examples=150, deadline=None, derandomize=True, database=None,
               suppress_health_check=[HealthCheck.too_slow])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _face_from_tight(poly, tight_rows):
    ineqs = [(r[:-1], -r[-1]) for r in poly.ineqs]
    eqs = [(r[:-1], -r[-1]) for r in poly.eqs] + [(r[:-1], -r[-1]) for r in tight_rows]
    return Polyhedron.from_halfspaces(poly.ambient, poly.dim_ambient, ineqs, eqs)


def ref_contains(q, x):
    return (not q.empty
            and all(_dot(a[:-1], x) >= -a[-1] for a in q.ineqs)
            and all(_dot(e[:-1], x) == -e[-1] for e in q.eqs))


def ref_cone_leq(p, q):
    qtail = q.tail_cone()
    return (all(qtail.contains(r) for r in p.rays)
            and all(qtail.contains(l) and qtail.contains(tuple(-x for x in l))
                    for l in p.lineality))


def ref_tight_on(row, p):
    a, b = row[:-1], -row[-1]
    return (all(_dot(a, v) == b for v in p.vertices)
            and all(_dot(a, r) == 0 for r in p.rays)
            and all(_dot(a, l) == 0 for l in p.lineality))


def ref_is_face_of(p, q):
    if p.empty:
        return True
    if not (all(ref_contains(q, v) for v in p.vertices) and ref_cone_leq(p, q)):
        return False
    tight = [a for a in q.ineqs if ref_tight_on(a, p)]
    return _face_from_tight(q, tight) == p


def ref_cone_is_face_of(c, other):
    gens = c.rays + c.lineality + tuple(tuple(-x for x in l) for l in c.lineality)
    if not all(other.contains(g) for g in gens):
        return False
    tight = [a for a in other.ineqs
             if all(_dot(a, r) == 0 for r in c.rays)
             and all(_dot(a, l) == 0 for l in c.lineality)]
    face = Cone.from_ineqs(other.ambient, other.dim_ambient,
                           other.ineqs, other.eqs + tuple(tight))
    return face == c


def ref_coverage_findings(sub, cells, dim):
    findings = []
    for i, p in cells:
        for row in p.ineqs:
            facet = _face_from_tight(p, [row])
            if facet.empty or facet.dim != dim - 1:
                continue
            if any(q is not p and intersect(facet, q) == facet for _, q in cells):
                continue
            if sub.support is not None and any(ref_tight_on(r, facet)
                                               for r in sub.support.ineqs):
                continue
            findings.append(f"facet of cell {i!r} is uncovered (normal {row[:-1]})")
    return findings


_ints = st.integers(-3, 3)
_rats = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


def _vectors(entries, d, **kw):
    return st.lists(st.tuples(*[entries] * d), **kw)


@st.composite
def polyhedra(draw, d):
    """Bounded or unbounded, possibly lower-dimensional, with lineality, or empty."""
    shape = draw(st.sampled_from(["bounded", "unbounded", "lineality", "flat", "empty"]))
    if shape == "empty":
        return Polyhedron.empty_in("Q", d)
    verts = draw(_vectors(_rats, d, min_size=1, max_size=4))
    rays = draw(_vectors(_ints, d, min_size=shape == "unbounded", max_size=2))
    lin = draw(_vectors(_ints, d, min_size=1, max_size=1)) if shape == "lineality" else []
    if shape == "bounded":
        rays = []
    if shape == "flat":
        c = draw(_rats)
        verts = [v[:-1] + (c,) for v in verts]
        rays = [r[:-1] + (0,) for r in rays]
        lin = [l[:-1] + (0,) for l in draw(_vectors(_ints, d, max_size=1))]
    return poly_V(verts, [r for r in rays if any(r)], [l for l in lin if any(l)], d=d)


@st.composite
def polyhedron_pairs(draw):
    """(p, q) where p is a face of q, a part of q that is not a face, or neither."""
    d = draw(st.integers(1, 3))
    q = draw(polyhedra(d))
    kind = draw(st.sampled_from(["other", "inner", "shift", "meet", "face", "tight", "self"]))
    if q.empty or kind == "other":
        p = draw(polyhedra(d))
    elif kind == "inner":
        x = q.relative_interior_point()
        p = poly_V([tuple((a + b) / 2 for a, b in zip(v, x)) for v in q.vertices],
                   q.rays, q.lineality, d=d)
    elif kind == "shift":
        p = q.translate(draw(st.tuples(*[_ints] * d)))
    elif kind == "meet":
        p = intersect(q, draw(polyhedra(d)))
    elif kind == "face":
        p = face_minimizing(q, draw(st.tuples(*[_ints] * d))) or q
    elif kind == "tight":
        rows = draw(st.lists(st.sampled_from(q.ineqs), max_size=2)) if q.ineqs else []
        p = _face_from_tight(q, rows)
    else:
        p = q
    return p, q


@HYP
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(polyhedra(d), st.tuples(*[_rats] * d))))
def test_translate_matches_rebuild(case):
    # shifting the canonical data equals a double description run on shifted generators
    p, v = case
    calls = []
    real_process = dd.process
    dd.process = lambda *args: calls.append(args) or real_process(*args)
    try:
        got = p.translate(v)
    finally:
        dd.process = real_process
    assert calls == []
    if p.empty:
        assert got is p
        return
    want = poly_V([tuple(a + b for a, b in zip(w, v)) for w in p.vertices],
                  p.rays, p.lineality, d=p.dim_ambient)
    assert repr(got) == repr(want)


@HYP
@given(st.integers(1, 3).flatmap(polyhedra))
def test_points_are_canonical_homogeneous_rows(p):
    # one primitive row (N, D), D > 0, per vertex N/D, zero on the lineality's
    # pivot columns, sorted as int tuples; vertices are their values in order
    assume(not p.empty)
    assert p.points == tuple(sorted(p.points))
    pivots = [next(i for i, x in enumerate(l) if x) for l in p.lineality]
    for pt in p.points:
        assert pt[-1] > 0 and math.gcd(*pt) == 1
        assert all(pt[i] == 0 for i in pivots)
    assert p.vertices == tuple(sorted(tuple(F(x, pt[-1]) for x in pt[:-1]) for pt in p.points))


@HYP
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(polyhedra(d), st.tuples(*[_ints] * d),
                                                     st.integers(1, 4), st.integers(1, 3))))
def test_translate_hom_matches_translate(case):
    # any positive multiple k of the homogeneous shift (num, den) moves p by num/den
    p, num, den, k = case
    assume(not p.empty)
    v = tuple(F(x, den) for x in num)
    got = p._translate_hom(tuple(k * x for x in num) + (k * den,))
    assert got == p.translate(v)
    assert got == ref_from_generators(p.ambient, p.dim_ambient,
                                      [tuple(a + b for a, b in zip(w, v)) for w in p.vertices],
                                      p.rays, p.lineality)


@HYP
@given(st.integers(1, 3).flatmap(polyhedra))
def test_json_vertices_match_fraction_formatting(p):
    # the JSON writes each vertex as str() of its Fractions, in value order
    assume(not p.empty)
    rows = sorted(tuple(F(x, pt[-1]) for x in pt[:-1]) for pt in p.points)
    assert p.to_json()["vertices"] == [[str(x) for x in v] for v in rows]


@st.composite
def cone_hulls(draw):
    """(cone, points, multiples): a cone, pointed, with lineality or lower-dimensional,
    and 1-3 points, some inside the cone, repeated or on the hull of the others."""
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["pointed", "lineality", "flat"]))
    rays = draw(_vectors(_ints, d, max_size=3))
    lin = draw(_vectors(_ints, d, min_size=1, max_size=1)) if shape == "lineality" else []
    if shape == "flat":
        rays = [r[:-1] + (0,) for r in rays]
    cone = Cone.from_rays("Q", d, [r for r in rays if any(r)], [l for l in lin if any(l)])
    kind = draw(st.sampled_from(["free", "inside", "repeat", "hull"]))
    points = draw(_vectors(_rats, d, min_size=1 + (kind == "hull"), max_size=3 - (kind != "free")))
    if kind == "inside":
        # the origin, or a point plus a generator of the cone: inside p + cone
        gens = cone.rays + cone.lineality
        step = draw(st.sampled_from(gens)) if gens else (0,) * d
        points.append(tuple(a + b for a, b in zip(draw(st.sampled_from(points)), step)))
    elif kind == "repeat":
        points.append(draw(st.sampled_from(points)))
    elif kind == "hull":
        t = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]))
        points.append(tuple(a + t * (b - a) for a, b in zip(points[0], points[1])))
    return cone, points, draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))


@HYP
@given(cone_hulls())
def test_plus_hull_matches_rebuild(case):
    # cone + conv(points) equals a run from scratch on the generators: one
    # point is a translate and a segment on a pointed, full-dimensional cone
    # the signed pass, with no kernel run; any other hull is one run from
    # scratch, and no run is resumed
    cone, points, multiples = case
    starts = []
    real_process = dd.process

    def counting(dim, constraints, start=None):
        starts.append(start is not None)
        return real_process(dim, constraints, start)

    hom = [tuple(k * x for x in scale_to_int(v + (1,))) for v, k in zip(points, multiples)]
    dd.process = counting
    try:
        got = cone.to_polyhedron()._plus_hull(hom)
    finally:
        dd.process = real_process
    signed = len(points) == 2 and cone.is_pointed and cone.dim == cone.dim_ambient
    assert starts == ([] if len(points) == 1 or signed else [False])
    want = ref_from_generators("Q", cone.dim_ambient, points, cone.rays, cone.lineality)
    assert got == want


@st.composite
def pointed_segments(draw):
    """(cone, points, multiples): a pointed, full-dimensional cone of dimension
    2-5 and two points p, q with q - p zero, in the cone, in its negative, on a
    facet hyperplane (some values 0) or anywhere."""
    d = draw(st.integers(2, 5))
    small = st.integers(0, 1)
    # rays that dominate their diagonal span Q^d, and rays all in one closed
    # orthant span a pointed cone; a sign per coordinate moves the orthant
    rays = [tuple(4 if i == j else draw(small) for j in range(d)) for i in range(d)]
    rays += draw(_vectors(st.integers(0, 3), d, max_size=2))
    signs = draw(st.tuples(*[st.sampled_from([1, -1])] * d))
    cone = Cone.from_rays("Q", d, [tuple(s * x for s, x in zip(signs, r)) for r in rays if any(r)])
    p = draw(st.tuples(*[_rats] * d))
    kind = draw(st.sampled_from(["same", "inside", "negative", "facet", "free"]))
    if kind == "free":
        return cone, [p, draw(st.tuples(*[_rats] * d))], draw(st.lists(st.integers(1, 4),
                                                                       min_size=2, max_size=2))
    if kind == "facet":
        # an integer combination of the rays on one facet row: 0 there, any sign elsewhere
        a = draw(st.sampled_from(cone.ineqs))
        gens = [r for r in cone.rays if sum(x * y for x, y in zip(a, r)) == 0]
        coeffs = [draw(st.integers(-2, 2)) for _ in gens]
        s = tuple(sum(c * r[i] for c, r in zip(coeffs, gens)) for i in range(d))
    elif kind == "same":
        s = (0,) * d
    else:
        picked = draw(st.lists(st.sampled_from(cone.rays), min_size=1, max_size=3))
        s = tuple((1 if kind == "inside" else -1) * sum(r[i] for r in picked) for i in range(d))
    t = draw(st.sampled_from([F(1, 3), F(1), F(2)]))
    q = tuple(x + t * y for x, y in zip(p, s))
    return cone, [p, q], draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))


@HYP
@given(pointed_segments())
def test_plus_hull_signed_pass_matches_rebuild(case):
    # one signed pass over the tail's ridges, and no kernel run, equals a run
    # from scratch on the generators
    cone, points, multiples = case
    tail = cone.to_polyhedron()
    hom = [tuple(k * x for x in scale_to_int(v + (1,))) for v, k in zip(points, multiples)]
    runs, signed = [], []
    real_process, real_step = dd.process, polyhedra_module._add_segment
    dd.process = lambda *args: runs.append(args) or real_process(*args)
    polyhedra_module._add_segment = lambda p, s: signed.append(s) or real_step(p, s)
    try:
        got = tail._plus_hull(hom)
    finally:
        dd.process, polyhedra_module._add_segment = real_process, real_step
    assert (len(runs), len(signed)) == (0, 1)
    assert got == ref_from_generators("Q", cone.dim_ambient, points, cone.rays)


def test_plus_hull_needs_the_vertex_zero():
    for p in (poly_V([(1, 0)], [(1, 0)]), poly_V([(0, 0), (1, 0)]), Polyhedron.empty_in("Q", 2)):
        with pytest.raises(ValueError, match="one vertex is 0"):
            p._plus_hull([(1, 1, 1)])
    # a face of a cone keeps the vertex 0
    face = face_minimizing(poly_V([(0, 0)], [(1, 0), (0, 1)]), (1, 0))
    assert face._plus_hull([(1, 1, 1), (2, 0, 1)]) == poly_V([(1, 1), (2, 0)], [(0, 1)])


@HYP
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(polyhedra(d), st.tuples(*[_rats] * d),
                                                     st.tuples(*[_ints] * d))))
def test_equations_are_their_own_hnf(case):
    # stored equations are the primitive RREF rows of their span, which
    # hnf_rows leaves as they are; translation and faces keep them so
    p, v, u = case
    assume(not p.empty)
    for q in (p, p.translate(v), face_minimizing(p, u)):
        if q is not None:
            assert hnf_rows(q.eqs, q.dim_ambient + 1) == q.eqs


@HYP
@given(polyhedron_pairs())
def test_is_face_of_matches_rebuild(pq):
    p, q = pq
    assert p.is_face_of(q) == ref_is_face_of(p, q)
    assert q.is_face_of(p) == ref_is_face_of(q, p)


@HYP
@given(polyhedron_pairs())
def test_is_face_of_false_across_ambients(pq):
    p, q = pq
    moved = replace(p, ambient="R")
    assert moved.is_face_of(q) == ref_is_face_of(moved, q) == moved.empty


@HYP
@given(polyhedron_pairs())
def test_containment_matches_rebuild(pq):
    p, q = pq
    if not p.empty and not q.empty:
        assert _cone_leq(p, q) == ref_cone_leq(p, q)
        assert _subset_of(p, q) == (intersect(p, q) == p)
    assert _subset_of(p, q) == (p.empty or (all(ref_contains(q, v) for v in p.vertices)
                                            and not q.empty and ref_cone_leq(p, q)))
    for v in p.vertices:
        assert q.contains(v) == ref_contains(q, v)


@st.composite
def cone_pairs(draw):
    d = draw(st.integers(1, 3))

    def cone():
        rays = draw(_vectors(_ints, d, max_size=4))
        lin = draw(_vectors(_ints, d, max_size=1))
        if draw(st.booleans()):
            rays = [r[:-1] + (0,) for r in rays]
            lin = [l[:-1] + (0,) for l in lin]
        return Cone.from_rays("Q", d, [r for r in rays if any(r)], [l for l in lin if any(l)])

    other = cone()
    kind = draw(st.sampled_from(["facet", "tight", "meet", "self", "other"]))
    if kind == "facet" and other.ineqs:
        c = draw(st.sampled_from(ref_cone_facets(other)))
    elif kind == "tight":
        rows = draw(st.lists(st.sampled_from(other.ineqs), max_size=2)) if other.ineqs else []
        c = Cone.from_ineqs("Q", d, other.ineqs, other.eqs + tuple(rows))
    elif kind == "meet":
        c = ref_cone_intersect(other, cone())
    elif kind == "self":
        c = other
    else:
        c = cone()
    return c, other


@HYP
@given(cone_pairs())
def test_cone_is_face_of_matches_rebuild(pair):
    # the face relation of cones is that of their polyhedra, vertex 0 included
    c, other = pair
    p, q = c.to_polyhedron(), other.to_polyhedron()
    assert p.is_face_of(q) == ref_cone_is_face_of(c, other)
    assert q.is_face_of(p) == ref_cone_is_face_of(other, c)
    moved = replace(c, ambient="R")
    assert moved.to_polyhedron().is_face_of(q) is False
    assert ref_cone_is_face_of(moved, other) is False


# --- subdivision check by the certificate, against the intersect-every-pair check
#
# ref_check decides the subdivision axioms one by one: every pair of maximal
# cells is intersected by double description, and every facet is rebuilt
# from its tight row (ref_coverage_findings).  Findings name each maximal
# cell by the first label that carries it.  Subdivision.check is the
# facet-matching certificate alone; its findings are worded by the stage of
# the certificate that broke, so only the verdicts are compared.


def ref_check(sub):
    findings = []
    if all(p.empty for _, p in sub.cells):
        findings.append("no nonempty cells")
        return False, findings
    dim = sub.dim_ambient if sub.support is None else sub.support.dim
    cells = sub.maximal_cells()
    for i, p in cells:
        if p.dim != dim:
            findings.append(f"maximal cell {i!r} has dimension {p.dim}, expected {dim}")
        if sub.support is not None and not _subset_of(p, sub.support):
            findings.append(f"maximal cell {i!r} leaves the declared support")
    for a, (i, pi_) in enumerate(cells):
        for j, pj in cells[a + 1:]:
            meet = intersect(pi_, pj)
            if not meet.empty and meet.dim == dim:
                witness = [frac_str(x) for x in meet.relative_interior_point()]
                findings.append(f"cells {i!r} and {j!r} overlap in interiors; witness {witness}")
                continue
            if not (meet.is_face_of(pi_) and meet.is_face_of(pj)):
                findings.append(f"cells {i!r} and {j!r} do not meet in a common face")
    findings.extend(ref_coverage_findings(sub, cells, dim))
    return not findings, findings


@st.composite
def subdivisions(draw):
    """Induced subdivisions in d = 2, 3, then perturbed, with or without support.

    A flat point set lies on an affine hyperplane, so its cells and support
    carry equations.  Cells are dropped, added (hulls of some of the points),
    shifted (by a random vector, or by a difference of two points or half of
    it), duplicated, or refined (replaced by an induced subdivision of their
    vertices and midpoints of vertex pairs, which splits the walls they share
    with their neighbours).
    """
    d = draw(st.integers(2, 3))
    flat = draw(st.booleans())
    free = d - 1 if flat else d
    coords = st.tuples(*[st.integers(0, 2)] * free)
    points = draw(st.lists(coords, min_size=free + 2, max_size=7 if d == 2 else 6, unique=True))
    if flat:
        c, e = draw(st.tuples(*[_ints] * free)), draw(_ints)
        points = [x + (e + _dot(c, x),) for x in points]
    heights = draw(st.lists(_ints, min_size=len(points), max_size=len(points)))
    sub = induced_subdivision("Q", points, heights)
    cells = list(sub.cells)
    ops = ["drop", "add", "shift", "dup", "refine"]
    for op in draw(st.lists(st.sampled_from(ops), max_size=3)):
        if op == "add":
            verts = draw(st.lists(st.sampled_from(points), min_size=1, max_size=4))
            cells.append((("added", len(cells)), poly_V(verts, d=d)))
            continue
        if not cells:
            continue
        i = draw(st.integers(0, len(cells) - 1))
        label, p = cells[i]
        if op == "drop":
            del cells[i]
        elif op == "dup":
            cells.append((("dup", i), p))
        elif op == "refine":
            mids = [tuple((x + y) / 2 for x, y in zip(a, b))
                    for a, b in itertools.combinations(p.vertices, 2)]
            pts = list(p.vertices) + draw(st.lists(st.sampled_from(mids), max_size=2,
                                                   unique=True) if mids else st.just([]))
            hs = draw(st.lists(_ints, min_size=len(pts), max_size=len(pts)))
            cells[i:i + 1] = [((label, k), c) for k, c in induced_subdivision("Q", pts, hs).cells]
        else:
            a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            t = draw(st.sampled_from([F(1, 2), 1]))
            v = draw(st.sampled_from([tuple(t * (x - y) for x, y in zip(a, b)),
                                      draw(st.tuples(*[_ints] * d))]))
            cells[i] = (label, p.translate(v))
    support = draw(st.sampled_from([sub.support, None]))
    return Subdivision("Q", d, tuple(cells), support)


def check_as_ref(sub):
    """sub.check(), after asserting its verdict is ref_check's and its findings name cells.

    Every finding names a maximal cell by its label, unless there is none.
    """
    ok, findings = sub.check()
    assert ok == ref_check(sub)[0] and ok == (findings == [])
    names = [(f"cell {l!r} ", f"cells {l!r} ", f"and {l!r} ") for l, _ in sub.maximal_cells()]
    if names:
        assert all(any(n in f for ns in names for n in ns) for f in findings), findings
    else:
        assert findings == ["no nonempty cells"]
    return ok, findings


@settings(HYP, max_examples=200)
@given(subdivisions())
def test_check_matches_intersect_every_pair(sub):
    check_as_ref(sub)


_SQUARE = poly_V([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.mark.parametrize("other, first", [
    (_SQUARE.translate((1, 0)), None),
    (_SQUARE.translate((1, 1)), "facet of cell 'square' is shared by no cell across it (normal (-1, 0))"),
    (_SQUARE.translate((3, 0)), "facet of cell 'square' is shared by no cell across it (normal (-1, 0))"),
    (_SQUARE, None),  # kept once among the maximal cells
    # a part, not a face: both lie above their common facet on y = 0
    (poly_V([(0, 0), (1, 0), (0, 1)]),
     "cells 'square' and 'other' overlap in interiors beside their common facet (normal (0, 1))"),
    # x = 1 separates them, but the meet is half of an edge: a face of neither
    (_SQUARE.translate((1, F(1, 2))), "facet of cell 'square' is shared by no cell across it (normal (-1, 0))"),
    (poly_V([(0, 0), (2, 0), (0, 1), (2, 1)]).translate((F(1, 2), 0)),
     "facet of cell 'square' is shared by no cell across it (normal (-1, 0))"),
], ids=["shared-edge", "shared-vertex", "apart", "same-cell", "triangle-inside",
        "half-edge-shift", "overlap"])
def test_check_decides_two_cells(other, first):
    # on their hull the first finding names what broke; the whole plane is
    # covered by no two bounded cells
    hull = poly_V(_SQUARE.vertices + other.vertices)
    ok, findings = check_as_ref(Subdivision("Q", 2, (("square", _SQUARE), ("other", other)), hull))
    assert findings[:1] == ([] if first is None else [first])
    assert not check_as_ref(Subdivision("Q", 2, (("square", _SQUARE), ("other", other))))[0]


@st.composite
def nonempty_polyhedra(draw):
    p = draw(polyhedra(draw(st.integers(1, 3))))
    assume(not p.empty)
    return p


@HYP
@given(nonempty_polyhedra())
def test_facets_from_tight_generators(p):
    # every row of a cell cuts out a facet, generated by the cell's
    # generators on the row and its lineality
    for row in p.ineqs:
        facet = _face_from_tight(p, [row])
        assert not facet.empty and facet.dim == p.dim - 1
        on = [g for g in p.points + tuple(r + (0,) for r in p.rays) if _dot(row, g) == 0]
        spanned = poly_V([tuple(F(x, g[-1]) for x in g[:-1]) for g in on if g[-1]],
                         [g[:-1] for g in on if not g[-1]], p.lineality, d=p.dim_ambient)
        assert spanned == facet


def test_subdivision_check_runs_no_dd_on_gr5(monkeypatch):
    import ppfan.dd as dd
    from ppfan.divisors import check_subdivision_structure
    from ppfan.grassmann import fansy_closed_form

    fansy = fansy_closed_form(5)
    real_dd, real_check = dd.dd_cone, Subdivision.check
    depth, checks, inside = [0], [], []

    def counting_dd(*args, **kwargs):
        if depth[0]:
            inside.append(args)
        return real_dd(*args, **kwargs)

    def counting_check(sub):
        checks.append(sub)
        depth[0] += 1
        try:
            return real_check(sub)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(dd, "dd_cone", counting_dd)
    monkeypatch.setattr(Subdivision, "check", counting_check)
    assert check_subdivision_structure(fansy).passed
    # one check per label and one of the tail cones, as polyhedra
    assert len(checks) == len(fansy.labels) + 1 and inside == []


# --- the facet-matching certificate -----------------------------------------
#
# `_tiles` accepts exactly the cells that subdivide their support face to
# face, which the intersect-every-pair reference decides on its own.


def _certified(sub):
    dim = sub.dim_ambient if sub.support is None else sub.support.dim
    return not _tiles(sub.maximal_cells(), dim, sub.support)


@settings(HYP, max_examples=300)
@given(subdivisions())
def test_certificate_implies_ref_check(sub):
    assert _certified(sub) == ref_check(sub)[0]


def _intact_subdivisions():
    grid = [(x, y) for x in range(3) for y in range(3)]
    yield induced_subdivision("Q", grid, [0, 1, 3, 2, 0, 1, 5, 1, 0])
    yield induced_subdivision("Q", grid, [(x * x + y * y) for x, y in grid])
    cube = list(itertools.product(range(2), repeat=3))
    yield induced_subdivision("Q", cube, [0, 2, 1, 0, 3, 0, 1, 4])
    # flat: the square {z = x + y}, its cells and support carry an equation
    yield induced_subdivision("Q", [(x, y, x + y) for x, y in grid], [0, 1, 3, 2, 0, 1, 5, 1, 0])


@pytest.mark.parametrize("sub", list(_intact_subdivisions()), ids=["grid", "squares", "cube", "flat"])
def test_certificate_accepts_intact_and_rejects_mutants(sub):
    assert len(sub.cells) >= 2
    for support in (sub.support, None):
        intact = Subdivision("Q", sub.dim_ambient, sub.cells, support)
        # bounded cells do not cover the whole space
        assert _certified(intact) == (support is not None)
        check_as_ref(intact)
    cells = list(sub.cells)
    (l0, p0), (_, p1) = cells[:2]
    hull = poly_V(p0.vertices + p1.vertices, d=sub.dim_ambient)
    shift = tuple(F(1, 2) if i == 0 else 0 for i in range(sub.dim_ambient))
    mutants = {
        "drop": cells[1:],
        "translate": [(l0, p0.translate(shift))] + cells[1:],
        "hull": cells + [("hull", hull)],
    }
    for name, mutated in mutants.items():
        bad = Subdivision("Q", sub.dim_ambient, tuple(mutated), sub.support)
        assert not _certified(bad), name
        assert not check_as_ref(bad)[0], name


def test_certificate_on_cones():
    # a fan's cones are certified as the polyhedra `Fan.subdivision` makes of them
    from ppfan.grassmann import tail_fan

    def check(*maximal):
        cone = maximal[0][1]
        return check_as_ref(Fan(cone.ambient, cone.dim_ambient, maximal).subdivision())

    cones = tail_fan(2, 5).maximal
    d = cones[0][1].dim_ambient
    assert check(*cones) == (True, [])
    assert not check(*cones[1:])[0]           # a hole
    # the positive orthant overlaps four of the cones: not a tiling
    orthant = Cone.from_rays(cones[0][1].ambient, d, [tuple(int(i == j) for j in range(d))
                                                      for i in range(d)])
    assert sum(ref_cone_intersect(c, orthant).dim == d for _, c in cones) == 4
    assert not check(*cones, ("orthant", orthant))[0]
    # the upper half-plane over two quadrants: the half-plane's lineality is
    # not the quadrants', and the check stops there
    up = Cone.from_rays("A", 2, [(0, 1)], [(1, 0)])
    q3 = Cone.from_rays("A", 2, [(-1, 0), (0, -1)])
    q4 = Cone.from_rays("A", 2, [(1, 0), (0, -1)])
    low = Cone.from_rays("A", 2, [(0, -1)], [(1, 0)])
    assert check(("q3", q3), ("up", up), ("q4", q4)) == (False, [
        "maximal cell 'up' has lineality ((1, 0),), cell 'q3' has ()"])
    assert check(("up", up), ("low", low)) == (True, [])
    assert check(("up", up), ("low", low), ("q4", q4)) == (False, [
        "maximal cell 'q4' has lineality (), cell 'up' has ((1, 0),)"])
    # two complete fans overlaid: every facet matches, every point is covered
    # twice, and the point (1, 1) of the first quadrant names the overlaps
    quadrants = [(f"q{i}", Cone.from_rays("A", 2, [a, b])) for i, (a, b) in
                 enumerate([((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)),
                            ((0, -1), (1, 0))])]
    diagonal = [(f"d{i}", Cone.from_rays("A", 2, [a, b])) for i, (a, b) in
                enumerate([((1, 1), (-1, 1)), ((-1, 1), (-1, -1)), ((-1, -1), (1, -1)),
                           ((1, -1), (1, 1))])]
    assert check(*quadrants) == check(*diagonal) == (True, [])
    assert check(*quadrants, *diagonal) == (False, [
        "cells 'q0' and 'd0' overlap in interiors; witness ['1', '1']",
        "cells 'q0' and 'd3' overlap in interiors; witness ['1', '1']"])


def test_certificate_needs_one_lineality():
    # z >= 0 cut by y = 0, 1 into three slabs along the x axis, and z <= 0 cut
    # by y - x = 0, 1 into three along (1, 1, 0): every facet is matched and
    # every point is covered once, but the middle slabs meet in a
    # parallelogram, a face of neither.  Only the lineality condition sees it.
    top = [poly_V([(0, 0, 0)], [(0, -1, 0), (0, 0, 1)], [(1, 0, 0)], d=3),
           poly_V([(0, 0, 0), (0, 1, 0)], [(0, 0, 1)], [(1, 0, 0)], d=3),
           poly_V([(0, 1, 0)], [(0, 1, 0), (0, 0, 1)], [(1, 0, 0)], d=3)]
    bottom = [poly_V(c.vertices, [(0, 0, -1) if r == (0, 0, 1) else r for r in c.rays],
                     [(1, 1, 0)], d=3) for c in top]
    cells = [(f"top{i}", c) for i, c in enumerate(top)] + [(f"bottom{i}", c)
                                                             for i, c in enumerate(bottom)]
    assert check_as_ref(Subdivision("Q", 3, tuple(cells))) == (False, [
        f"maximal cell 'bottom{i}' has lineality ((1, 1, 0),), cell 'top0' has ((1, 0, 0),)"
        for i in range(3)])
    half = poly_V([(0, 0, 0)], [(0, 0, 1)], [(1, 0, 0), (0, 1, 0)], d=3)
    assert check_as_ref(Subdivision("Q", 3, tuple(cells[:3]), half)) == (True, [])


def test_certificate_rejects_two_overlaid_subdivisions():
    square = poly_V([(0, 0), (2, 0), (0, 2), (2, 2)])
    halves = [poly_V([(0, 0), (1, 0), (0, 2), (1, 2)]), poly_V([(1, 0), (2, 0), (1, 2), (2, 2)])]
    layers = [poly_V([(0, 0), (2, 0), (0, 1), (2, 1)]), poly_V([(0, 1), (2, 1), (0, 2), (2, 2)])]
    for cells in (halves, layers):
        assert _tiles(list(enumerate(cells)), 2, square) == []
    sub = Subdivision("Q", 2, tuple(enumerate(halves + layers)), square)
    assert not _certified(sub)
    assert check_as_ref(sub) == (False, [
        "cells 0 and 2 overlap in interiors; witness ['1/2', '1']",
        "cells 0 and 3 overlap in interiors; witness ['1/2', '1']"])


def test_certificate_rejects_cell_leaving_support():
    # the quadrant's facets lie on rows of the triangle, but it is not inside it
    triangle = poly_V([(0, 0), (1, 0), (0, 1)])
    quadrant = poly_V([(0, 0)], [(1, 0), (0, 1)])
    sub = Subdivision("Q", 2, ((0, quadrant),), triangle)
    assert not _certified(sub)
    assert sub.check() == ref_check(sub) == (False, ["maximal cell 0 leaves the declared support"])


@pytest.mark.parametrize("n", [5, 6])
def test_structure_check_runs_no_kernel_and_no_pair_descent(monkeypatch, n):
    from ppfan.divisors import check_fansy_condition1, check_subdivision_structure
    from ppfan.grassmann import fansy_closed_form

    fansy = fansy_closed_form(n)
    calls = []
    real_process = dd.process

    def counting_process(*args, **kwargs):
        calls.append("process")
        return real_process(*args, **kwargs)

    monkeypatch.setattr(dd, "process", counting_process)
    assert check_subdivision_structure(fansy).passed
    assert check_fansy_condition1(fansy).passed
    assert calls == []


def test_linear_image_rejects_wide_matrix():
    tri = poly_V([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="width 3, expected 2"):
        linear_image(tri, ((1, 0, 0), (0, 1, 0)), "R", 2)
    with pytest.raises(ValueError, match="width 1"):
        linear_image(tri, ((1,), (0, 1)), "R", 2)
    with pytest.raises(ValueError, match="2 rows, expected 3"):
        linear_image(tri, ((1, 0), (0, 1)), "R", 3)


def test_rational_map_rejects_ragged_matrix():
    with pytest.raises(ValueError, match=r"widths \[2, 3\]"):
        RationalMap(((1, 2), (3, 4, 5)), "A", "B")
    with pytest.raises(ValueError, match=r"widths \[2, 3\]"):
        LatticeMap(((1, 2), (3, 4, 5)), "A", "B")


# --- one DD run per conversion, against the multi-run definitions -----------
#
# The references are the constructors as they were before each conversion
# read its second description off the ray-row incidence: Cone.from_rays and
# Cone.from_ineqs ran DD twice, Polyhedron.from_halfspaces twice and
# Polyhedron.from_generators three times; linear_image mapped the vertices in
# Fraction arithmetic.


def ref_cone_from_rays(ambient, d, rays, lin=()):
    rays = [scale_to_int(tuple(r)) for r in rays]
    lin = [scale_to_int(tuple(l)) for l in lin]
    ineqs, eqs = dd_cone(d, rays, lin)
    return Cone(ambient, d, *dd_cone(d, ineqs, eqs), ineqs, eqs)


def ref_cone_from_ineqs(ambient, d, ineqs, eqs=()):
    ineqs = [scale_to_int(tuple(a)) for a in ineqs]
    eqs = [scale_to_int(tuple(e)) for e in eqs]
    rays, lin = dd_cone(d, ineqs, eqs)
    return Cone(ambient, d, rays, lin, *dd_cone(d, rays, lin))


def ref_poly_from_hom(ambient, d, hom_ineqs, hom_eqs):
    last = (0,) * d + (1,)
    rays, lin = dd_cone(d + 1, list(hom_ineqs) + [last], hom_eqs)
    verts = [tuple(F(x, r[-1]) for x in r[:-1]) for r in rays if r[-1] > 0]
    tails = [r[:-1] for r in rays if r[-1] <= 0]
    if not verts:
        return Polyhedron.empty_in(ambient, d)
    lin_rows = tuple(l[:-1] for l in lin)
    gens = [scale_to_int(v + (1,)) for v in verts] + [t + (0,) for t in tails]
    pol_rays, pol_lin = dd_cone(d + 1, gens, [l + (0,) for l in lin_rows])
    ineqs = tuple(sorted(r for r in pol_rays if not is_zero(r[:-1])))
    eqs = tuple(r for r in pol_lin if not is_zero(r[:-1]))
    return Polyhedron(ambient, d, False, tuple(sorted(scale_to_int(v + (1,)) for v in verts)),
                      tuple(sorted(tails)),
                      lin_rows, ineqs, hnf_rows(eqs, d + 1) if eqs else ())


def ref_from_halfspaces(ambient, d, ineqs, eqs=()):
    return ref_poly_from_hom(ambient, d, [scale_to_int(tuple(a) + (-F(b),)) for a, b in ineqs],
                             [scale_to_int(tuple(a) + (-F(b),)) for a, b in eqs])


def ref_from_generators(ambient, d, verts, rays=(), lin=()):
    if not verts:
        return Polyhedron.empty_in(ambient, d)
    gens = [scale_to_int(tuple(v) + (1,)) for v in verts]
    gens += [scale_to_int(tuple(r)) + (0,) for r in rays]
    pol_rays, pol_lin = dd_cone(d + 1, gens, [scale_to_int(tuple(l)) + (0,) for l in lin])
    return ref_poly_from_hom(ambient, d, [r for r in pol_rays if not is_zero(r[:-1])],
                             [r for r in pol_lin if not is_zero(r[:-1])])


def ref_linear_image(p, entries, codomain, m):
    if p.empty:
        return Polyhedron.empty_in(codomain, m)

    def image(v):
        return tuple(sum(F(row[j]) * v[j] for j in range(len(v))) for row in entries)

    verts = [image(v) for v in p.vertices]
    rays = [scale_to_int(image(r)) for r in p.rays if not is_zero(image(r))]
    lin = [scale_to_int(image(l)) for l in p.lineality if not is_zero(image(l))]
    return Polyhedron.from_generators(codomain, m, verts, rays, lin)


@st.composite
def row_systems(draw, entries=_ints):
    """(d, rows, eq rows) with d <= 4, duplicate rows, zero rows and opposite pairs."""
    d = draw(st.integers(0, 4))
    rows = draw(_vectors(entries, d, max_size=5))
    for a in draw(_vectors(_ints, d, max_size=2)):
        rows += [a, tuple(-x for x in a)]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows.append((0,) * d)
    return d, draw(st.permutations(rows)), draw(_vectors(entries, d, max_size=2))


@HYP
@given(row_systems(entries=st.one_of(_ints, _rats)))
def test_cone_constructors_match_two_runs(system):
    d, rows, eqs = system
    assert Cone.from_ineqs("Q", d, rows, eqs) == ref_cone_from_ineqs("Q", d, rows, eqs)
    rays = [r for r in rows if any(r)]
    lin = [l for l in eqs if any(l)]
    assert Cone.from_rays("Q", d, rays, lin) == ref_cone_from_rays("Q", d, rays, lin)


@HYP
@given(row_systems(), st.data())
def test_from_halfspaces_matches_two_runs(system, data):
    d, rows, eqs = system
    ineqs = [(a, data.draw(_rats)) for a in rows]
    eqs = [(e, data.draw(_rats)) for e in eqs]
    assert (Polyhedron.from_halfspaces("Q", d, ineqs, eqs)
            == ref_from_halfspaces("Q", d, ineqs, eqs))


@HYP
@given(st.integers(0, 4), st.data())
def test_from_generators_matches_three_runs(d, data):
    verts = data.draw(_vectors(_rats, d, max_size=4))
    verts += data.draw(st.lists(st.sampled_from(verts), max_size=2)) if verts else []
    rays = data.draw(_vectors(_ints, d, max_size=3))
    lin = data.draw(_vectors(_ints, d, max_size=2))
    assert (Polyhedron.from_generators("Q", d, verts, rays, lin)
            == ref_from_generators("Q", d, verts, rays, lin))


@HYP
@given(st.integers(1, 4), st.data())
def test_linear_image_matches_fraction_version(d, data):
    p = data.draw(polyhedra(d))
    m = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        f = LatticeMap(data.draw(_vectors(_ints, d, min_size=m, max_size=m)), "Q", "B", d)
    else:
        f = RationalMap(data.draw(_vectors(_rats, d, min_size=m, max_size=m)), "Q", "B", d)
    assert map_image(p, f) == ref_linear_image(p, f.entries, "B", m)


def _counting_kernel_calls(fn, *args):
    """fn(*args) and the number of double description runs it made."""
    calls = []
    real_process = dd.process
    dd.process = lambda *a: calls.append(a) or real_process(*a)
    try:
        return fn(*args), len(calls)
    finally:
        dd.process = real_process


@st.composite
def injective_maps(draw, p):
    """A matrix injective on p's affine hull: invertible, then a coordinate inclusion.

    When p lies in a hyperplane x_d = c, the invertible part sometimes has
    only d - 1 rows, of the form L @ U with U upper triangular: its kernel
    then has x_d != 0, so the map is injective on p's hull but not on Q^d.
    """
    d = p.dim_ambient
    flat = (not p.empty and d > 1 and len({v[-1] for v in p.vertices}) == 1
            and all(r[-1] == 0 for r in p.rays + p.lineality))
    drop = flat and draw(st.booleans())
    k = d - drop
    nonzero = _rats.filter(bool)
    lower = [[draw(nonzero) if i == j else draw(_rats) if j < i else 0 for j in range(k)]
             for i in range(k)]
    upper = [[draw(nonzero) if i == j else draw(_ints) if j > i else 0 for j in range(d)]
             for i in range(k)]
    square = [[sum(lower[i][t] * upper[t][j] for t in range(k)) for j in range(d)]
              for i in range(k)]
    rows = draw(st.permutations(square + [[0] * d] * draw(st.integers(0, 2))))
    return tuple(map(tuple, rows))


@HYP
@given(st.integers(1, 4).flatmap(lambda d: polyhedra(d).flatmap(
    lambda p: st.tuples(st.just(p), injective_maps(p)))))
def test_injective_image_matches_reference_in_one_run(case):
    # a map injective on the hull takes one double description run on the
    # images of the generators, like any other map
    p, entries = case
    f = RationalMap(entries, "Q", "B", p.dim_ambient)
    got, runs = _counting_kernel_calls(map_image, p, f)
    assert runs == (0 if p.empty else 1)
    assert repr(got) == repr(ref_linear_image(p, entries, "B", len(entries)))
    assert got == linear_image(p, entries, "B", len(entries))


def test_non_injective_image_matches_reference():
    # a square projected onto a line has a kernel along its hull
    square = poly_V([(0, 0), (1, 0), (0, 1), (1, 1)])
    entries = ((1, 1),)
    got, runs = _counting_kernel_calls(linear_image, square, entries, "R", 1)
    assert runs == 1
    assert got == ref_linear_image(square, entries, "R", 1) == poly_V([(0,), (2,)], d=1, name="R")


def test_zero_row_maps_of_different_widths():
    # the map into Q^0 is the empty matrix whatever its width; each keeps its own
    point = LatticeMap((), "Q", "pt", 2)
    line = LatticeMap((), "Q", "pt", 1)
    tri = poly_V([(0, 0), (1, 0), (0, 1)])
    seg = poly_V([(0,), (1,)], d=1)
    assert map_image(tri, point) == ref_linear_image(tri, (), "pt", 0)
    assert map_image(seg, line) == ref_linear_image(seg, (), "pt", 0)
    with pytest.raises(ValueError, match="width 1, expected 2"):
        map_image(tri, line)


@st.composite
def cones_or_zero(draw):
    if draw(st.integers(0, 5)):
        return draw(cones())
    d = draw(st.integers(0, 3))
    return Cone.from_rays("Q", d, [])


@HYP
@given(cones_or_zero())
def test_cone_to_polyhedron_matches_from_generators(c):
    got, runs = _counting_kernel_calls(c.to_polyhedron)
    assert runs == 0
    want = Polyhedron.from_generators(c.ambient, c.dim_ambient, [(0,) * c.dim_ambient],
                                      c.rays, c.lineality)
    assert repr(got) == repr(want)


# --- faces and tail cones read off the incidence ----------------------------
#
# The references are the old bodies: each rebuilds the face or tail cone
# from generators by double description.  `ref_cone_facets` gives a cone's
# facets from rows, one run each, for the chamber and face checks above.

def ref_min_value(p, u):
    if any(_dot(l, u) != 0 for l in p.lineality) or any(_dot(r, u) < 0 for r in p.rays):
        return None
    return min(_dot(v, u) for v in p.vertices)


def ref_face_minimizing(p, u):
    m = ref_min_value(p, u)
    if m is None:
        return None
    verts = [v for v in p.vertices if _dot(v, u) == m]
    rays = [r for r in p.rays if _dot(r, u) == 0]
    return Polyhedron.from_generators(p.ambient, p.dim_ambient, verts, rays, p.lineality)


def ref_tail_cone(p):
    return Cone.from_rays(p.ambient, p.dim_ambient, p.rays, p.lineality)


def ref_cone_facets(c):
    return [Cone.from_ineqs(c.ambient, c.dim_ambient, c.ineqs, c.eqs + (a,)) for a in c.ineqs]


@st.composite
def face_cases(draw):
    """(p, forms): a nonempty polyhedron, maybe a single point, and forms to minimise.

    The forms include ones unbounded below (minus a ray, or off the
    lineality), zero, and rational ones.
    """
    d = draw(st.integers(1, 3))
    if draw(st.integers(0, 5)):
        p = draw(polyhedra(d))
        assume(not p.empty)
    else:
        p = poly_V([draw(st.tuples(*[_rats] * d))], d=d)
    forms = draw(st.lists(st.tuples(*[st.one_of(_ints, _rats)] * d), min_size=1, max_size=3))
    forms += [tuple(-x for x in r) for r in p.rays[:1]] + list(p.lineality[:1])
    forms.append((0,) * d)
    return p, forms


@HYP
@given(face_cases())
def test_faces_and_tail_cones_match_rebuild(case):
    p, forms = case
    tail = p.tail_cone()
    assert tail == ref_tail_cone(p)
    for u in forms:
        assert min_value(p, u) == ref_min_value(p, u)
        face = face_minimizing(p, u)
        assert face == ref_face_minimizing(p, u)
        if face is None:
            continue
        # before the x0 = 0 facet is dropped, the incidence gives the whole
        # canonical description of the face's homogenisation cone
        rays, lin = (tuple(g + (0,) for g in gens) for gens in (p.rays, p.lineality))
        picked = [g in face.points for g in p.points] + [r in face.rays for r in p.rays]
        sel = sum(1 << i for i, b in enumerate(picked) if b)
        on = [g for g, b in zip(p.points + rays, picked) if b]
        masked = [(a, m & sel) for a, m in p._incidence]
        assert from_incidence(p.dim_ambient + 1, masked, sel, p.eqs) == \
            dd.dd_pair(p.dim_ambient + 1, on, lin)[:2]
        # the face is canonical, so its own faces and tail cone can be read off too
        assert face.tail_cone() == ref_tail_cone(face)
        for w in forms:
            assert face_minimizing(face, w) == ref_face_minimizing(face, w)


@st.composite
def cones(draw):
    """Pointed or not, full-dimensional or lower-dimensional (with an equation)."""
    d = draw(st.integers(1, 4))
    rays = draw(_vectors(_ints, d, max_size=5))
    lin = draw(_vectors(_ints, d, max_size=1))
    if draw(st.booleans()):
        rays = [r[:-1] + (0,) for r in rays]
        lin = [l[:-1] + (0,) for l in lin]
    return Cone.from_rays("Q", d, [r for r in rays if any(r)], [l for l in lin if any(l)])


def test_faces_tail_cones_facets_and_pp_divisors_run_no_kernel(monkeypatch):
    # everything below reads the canonical data already built; a wrapper on
    # `ppfan.dd.process` would see any double description run
    strip = poly_V([(0, 0), (1, 0)], rays=[(0, 1)])
    slab = poly_V([(0, 0, 1), (1, 0, 1)], rays=[(0, 1, 0)], lin=[(1, 1, 0)], d=3)
    point = poly_V([(F(1, 2), 3)])
    shifted = strip.translate((2, 1))
    calls = []
    kernel = dd.process

    def counting(dim, constraints):
        calls.append(dim)
        return kernel(dim, constraints)

    monkeypatch.setattr(dd, "process", counting)
    faces = [face_minimizing(strip, (1, 0)), face_minimizing(strip, (0, 1)),
             face_minimizing(slab, (0, 0, 1)), face_minimizing(slab, (1, -1, 0)),
             face_minimizing(point, (1, 1))]
    assert face_minimizing(strip, (0, -1)) is None
    tails = [strip.tail_cone(), slab.tail_cone(), point.tail_cone(), faces[0].tail_cone()]
    div = PPDivisor("Q", 2, tails[0], ((Label.named("a"), strip), (Label.named("b"), shifted),
                                       (Label.named("c"), Polyhedron.empty_in("Q", 2))))
    assert calls == []
    monkeypatch.setattr(dd, "process", kernel)
    assert faces[0] == poly_V([(0, 0)], rays=[(0, 1)])
    assert faces[1] == poly_V([(0, 0), (1, 0)])
    assert tails[0] == Cone.from_rays("Q", 2, [(0, 1)])
    assert div.tail == tails[0]


# --- induced subdivisions read off the lift, against one run per cell -------
#
# ref_induced_subdivision is induced_subdivision as it was before the support
# and the cells were read off the lift: each is its own from_generators run.


def ref_induced_subdivision(ambient, points, heights):
    if len(points) != len(heights):
        raise ValueError("heights must be indexed by points")
    d = len(points[0])
    lifted = [tuple(p) + (F(h),) for p, h in zip(points, heights)]
    up = tuple(0 for _ in range(d)) + (1,)
    lift = Polyhedron.from_generators(f"{ambient}^", d + 1, lifted, rays=[up])
    support = Polyhedron.from_generators(ambient, d, points)
    cells = []
    for row in lift.ineqs:
        a, b = row[:-1], -row[-1]
        if a[-1] <= 0:
            continue  # only lower facets induce cells
        members = tuple(i for i, q in enumerate(lifted) if _dot(a, q) == b)
        cell_pts = [points[i] for i in members]
        cells.append((members, Polyhedron.from_generators(ambient, d, cell_pts)))
    cells.sort(key=lambda t: t[0])
    return Subdivision(ambient, d, tuple(cells), support)


@st.composite
def height_configurations(draw):
    """(points, heights) in dimension 1 to 3 spanning an affine space of any
    dimension up to 3 (all equal, collinear, coplanar), with repeated points,
    and heights constant, integer or Fraction."""
    d = draw(st.integers(1, 3))
    base = draw(st.tuples(*[_rats] * d))
    dirs = draw(_vectors(_ints, d, max_size=d))
    coeffs = st.tuples(*[st.one_of(_ints, _rats)] * len(dirs))
    pts = draw(st.lists(coeffs, min_size=1, max_size=5))
    points = [tuple(o + sum(c * v[i] for c, v in zip(cs, dirs)) for i, o in enumerate(base))
              for cs in pts]
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    kind = draw(st.sampled_from(["constant", "int", "fraction"]))
    if kind == "constant":
        heights = [draw(_rats)] * len(points)
    else:
        heights = draw(st.lists(_ints if kind == "int" else _rats,
                                min_size=len(points), max_size=len(points)))
    return points, heights


@settings(HYP, max_examples=300)
@given(height_configurations())
def test_induced_subdivision_matches_one_run_per_cell(case):
    points, heights = case
    got = induced_subdivision("Q", points, heights)
    want = ref_induced_subdivision("Q", points, heights)
    assert got.support == want.support
    assert got.cells == want.cells


@settings(HYP, max_examples=300)
@given(height_configurations())
def test_lower_cells_are_the_reference_cell_labels(case):
    # the points on the lift's lower facets, read off the run's tight sets,
    # are the cells of one from_generators run per lift and per cell
    from ppfan.verify import lower_cells
    points, heights = case
    want = ref_induced_subdivision("Q", points, heights)
    assert lower_cells(points, heights) == {frozenset(m) for m, _ in want.cells}

import hashlib
import json
from fractions import Fraction as F
from math import comb

import pytest

from ppfan._vecops import scale_to_int
from ppfan.divisors import check_subdivision_structure, fansy_equal
from ppfan.grassmann import (
    Partition,
    RootSystemA,
    _retracted,
    fansy_closed_form,
    fansy_via_recipe,
    fiber_tail,
    gr_setup,
    inversion_set,
    local_chart_report,
    longest_coset_rep,
    pair_vector,
    pairs,
    partition_ray,
    partitions,
    plucker_degree_map,
    positive_fiber_part,
    recipe_divisor,
    shuffles,
    sigma_cone,
    tail_cone_chart,
    tail_fan,
)
from ppfan.lattice import check_retraction
from ppfan.polyhedra import Cone, Polyhedron, intersect, map_image


# --- symmetric group -------------------------------------------------------

@pytest.mark.parametrize("k,n,count", [(1, 2, 2), (2, 4, 6), (2, 5, 10), (3, 6, 20)])
def test_shuffle_counts(k, n, count):
    sh = shuffles(k, n)
    assert len(sh) == count == comb(n, k)
    for w in sh:
        assert list(w[:k]) == sorted(w[:k]) and list(w[k:]) == sorted(w[k:])


def test_shuffles_range_check():
    with pytest.raises(ValueError):
        shuffles(0, 3)


def test_inversions():
    assert inversion_set((1, 2, 3)) == (set(), 0)
    assert inversion_set((2, 1, 3)) == ({(1, 2)}, 1)
    assert inversion_set((3, 4, 1, 2))[1] == 4


@pytest.mark.parametrize("k,n,expect", [(2, 4, (3, 4, 1, 2)), (1, 2, (2, 1)), (2, 5, (4, 5, 1, 2, 3))])
def test_longest_coset_rep(k, n, expect):
    w = longest_coset_rep(k, n)
    assert w == expect
    assert inversion_set(w)[1] == k * (n - k)
    # equals the product w0 after w0_I of the two longest elements
    w0 = tuple(range(n, 0, -1))
    w0i = tuple(range(k, 0, -1)) + tuple(range(n, k, -1))
    assert w == tuple(w0[w0i[i] - 1] for i in range(n))
    assert w in shuffles(k, n)


# --- chamber cones and tail fans ------------------------------------------

def test_chamber_pairing():
    rs = RootSystemA(5)
    gens = rs.chamber_generators()
    for i in range(1, 5):
        for p in range(1, 5):
            pairing = sum(a * b for a, b in zip(rs.root_form(i, i + 1), gens[p - 1]))
            assert pairing == (1 if i == p else 0)


def test_chart_cone_empty_parabolic_is_chamber():
    rs = RootSystemA(4)
    chart = tail_cone_chart(set(), 4)
    assert chart == Cone.from_rays(rs.ambient, rs.dim, rs.chamber_generators())


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_chart_cone_matches_sign_pattern(n, k):
    rs = RootSystemA(n)
    chart = tail_cone_chart(set(range(1, n)) - {k}, n)
    gens = [rs.ell(i) if i <= k else tuple(-x for x in rs.ell(i)) for i in range(1, n + 1)]
    assert chart == Cone.from_rays(rs.ambient, rs.dim, gens)
    assert chart.is_pointed and chart.dim == n - 1


def test_chart_cone_degenerate_rejected():
    with pytest.raises(ValueError):
        tail_cone_chart(set(range(1, 4)), 4)  # full parabolic: no chart weights left


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (1, 3), (3, 6)])
def test_tail_fan_complete_pointed(k, n):
    fan = tail_fan(k, n)
    assert len(fan.maximal) == comb(n, k)
    assert all(c.is_pointed for _, c in fan.maximal)
    assert fan.subdivision().check() == (True, [])


def test_tail_fan_13_equals_projected_orthants():
    # image of the three sign-pattern orthants under e_i -> ell_i
    rs = RootSystemA(3)
    fan = tail_fan(1, 3)
    for K, cone in fan.maximal:
        gens = [tuple(-x for x in rs.ell(i)) if i in K else rs.ell(i) for i in (1, 2, 3)]
        assert cone == Cone.from_rays(rs.ambient, 2, gens)


def test_tail_fan_equals_negated_shuffle_orbit():
    n, k = 4, 2
    rs = RootSystemA(n)
    chart_gens = [rs.ell(i) if i <= k else tuple(-x for x in rs.ell(i)) for i in range(1, n + 1)]
    got = set()
    for w in shuffles(k, n):
        gens = [tuple(-x for x in rs.act(w, g)) for g in chart_gens]
        got.add(Cone.from_rays(rs.ambient, rs.dim, gens))
    assert got == {c for _, c in tail_fan(k, n).maximal}


# --- pluecker data ---------------------------------------------------------

def test_plucker_degree_map_shape():
    deg = plucker_degree_map(4)
    assert deg.rows == 4 and deg.cols == 6
    with pytest.raises(ValueError):
        plucker_degree_map(3)


def test_degree_pairings_are_one():
    setup = gr_setup(4)
    # <deg z_v, e> = 1 realised as: doubling the degree element hits (2,...,2)
    e2 = setup.ws.dstar.apply(tuple(2 * x for x in setup.ws.degree_element))
    assert e2 == tuple(2 for _ in range(6))


def test_dual_embedding_row_sums():
    # the dual of a unit vector is the sum of the pairs through its index
    setup = gr_setup(5)
    for i in range(1, 6):
        unit = tuple(1 if j == i else 0 for j in range(1, 6))
        img = setup.emb.apply(unit)
        want = tuple(1 if i in pr else 0 for pr in pairs(5))
        assert img == want


@pytest.mark.parametrize("n", [4, 5])
def test_retraction_splits(n):
    setup = gr_setup(n)
    assert check_retraction(setup.retraction, setup.emb)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_indicator_identity(n):
    # dual of (part indicator minus complement indicator) doubles the pair difference
    setup = gr_setup(n)
    for B in partitions(n):
        v = tuple((1 if i in B.part else 0) - (1 if i in B.complement else 0)
                  for i in range(1, n + 1))
        lhs = setup.emb.apply(v)
        rhs = tuple(2 * (a - b) for a, b in zip(pair_vector(n, B.part),
                                                pair_vector(n, B.complement)))
        assert lhs == rhs


def test_retraction_fixes_tail_cone():
    setup = gr_setup(4)
    sig = sigma_cone(4)
    sig_poly = sig.to_polyhedron()
    lifted = map_image(sig_poly, setup.emb)
    back = map_image(lifted, setup.retraction)
    assert back == sig_poly


# --- partitions ------------------------------------------------------------

def test_partition_canonicalisation():
    B = Partition(5, (3, 1))
    assert B.part == (1, 3) and B.complement == (2, 4, 5) and B.b == 2
    with pytest.raises(ValueError):
        Partition(5, (2, 3))
    with pytest.raises(ValueError):
        Partition(4, (1, 2, 3))
    with pytest.raises(ValueError):
        Partition(4, (1,))


@pytest.mark.parametrize("n,count", [(4, 3), (5, 10), (6, 25), (7, 56)])
def test_partition_count(n, count):
    assert len(partitions(n)) == count == 2 ** (n - 1) - n - 1


def test_partition_rays_n4():
    got = {B.part: partition_ray(4, B)[1] for B in partitions(4)}
    assert got == {(1, 2): (1, 0), (1, 3): (0, 1), (1, 4): (-1, -1)}
    assert len(set(got.values())) == 3


def test_partition_rays_in_refinement_fan():
    from ppfan.polyhedra import common_refinement_fan
    setup = gr_setup(4)
    fan = common_refinement_fan(setup.pi)
    rays = set(fan.rays())
    for B in partitions(4):
        assert partition_ray(4, B)[1] in rays


# --- fibers and coefficients ------------------------------------------------

def ref_partition_coefficient(n, part, check=True) -> Polyhedron:
    """Closed-form divisor coefficient for a partition, in the Q^n coordinates.

    One endpoint scales the part indicator, the other differs by half the
    indicator difference; the tail is the common cone.  Cross-checked against
    the retracted fiber r(x0 + emb(Y)) = Y + r(x0).
    """
    B = part if isinstance(part, Partition) else Partition(n, part)
    setup = gr_setup(n)
    b = B.b
    head = F(b - 1, n - 2)
    trace = F((b - 1) * b, 2 * (n - 2) * (n - 1))
    v1 = tuple(head * (1 if i in B.part else 0) - trace for i in range(1, n + 1))
    half = F(1, 2)
    in_comp = set(B.complement)
    v2 = tuple(x + half * ((1 if i in in_comp else 0) - (1 if i in B.part else 0))
               for i, x in zip(range(1, n + 1), v1))
    closed = fiber_tail(n)._plus_hull([scale_to_int(v + (1,)) for v in (v1, v2)])
    if check:
        x0 = setup.ws.section.apply(partition_ray(n, B)[0])
        if positive_fiber_part(n, B)._translate_hom(_retracted(setup, x0)) != closed:
            raise AssertionError(f"retracted fiber of {B.part} does not match the closed form")
    return closed


def fiber_in_E(n, B):
    """The positive fiber in E(n), x0 + emb(Y), from the recipe's Y in ker pi coordinates."""
    setup = gr_setup(n)
    x0 = setup.ws.section.apply(partition_ray(n, B)[0])
    return map_image(positive_fiber_part(n, B), setup.emb).translate(x0)


@pytest.mark.parametrize("n", [4, 5])
def test_positive_fibers(n):
    for B in partitions(n):
        fib = fiber_in_E(n, B)
        verts = {tuple(int(x) for x in v) for v in fib.vertices}
        assert all(x.denominator == 1 for v in fib.vertices for x in v)
        assert verts == {pair_vector(n, B.part), pair_vector(n, B.complement)}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fiber_references_match_one_run_each(n):
    # positive_fiber_part returns the fiber only when it equals its reference
    # (a signed pass on fiber_tail), and ref_partition_coefficient is built the
    # same way: in E(n) the fiber equals from_generators on the segment's
    # ends and the tail's rays, and the coefficient the same, retracted
    setup = gr_setup(n)
    assert fiber_tail(n) == Polyhedron.from_generators(f"Nt({n})", n, [(0,) * n],
                                                       sigma_cone(n).rays)
    rays = [setup.emb.apply(r) for r in sigma_cone(n).rays]
    for B in partitions(n):
        ends = [pair_vector(n, B.part), pair_vector(n, B.complement)]
        assert fiber_in_E(n, B) == Polyhedron.from_generators(
            f"E({n})", len(ends[0]), ends, rays)
        assert ref_partition_coefficient(n, B, check=False) == Polyhedron.from_generators(
            f"Nt({n})", n, [setup.retraction.apply(v) for v in ends], sigma_cone(n).rays)


def test_sigma_cube_n4():
    sig = sigma_cone(4)
    assert len(sig.rays) == 8
    for i in range(4):
        assert tuple(1 if j == i else 0 for j in range(4)) in sig.rays
        assert tuple(1 - 2 * (j == i) for j in range(4)) in sig.rays


def test_partition_coefficient_n4():
    d = ref_partition_coefficient(4, (1, 2))
    assert set(d.vertices) == {
        (F(1, 3), F(1, 3), F(-1, 6), F(-1, 6)),
        (F(-1, 6), F(-1, 6), F(1, 3), F(1, 3)),
    }
    assert d.tail_cone() == sigma_cone(4)


@pytest.mark.parametrize("n", [4, 5])
def test_retraction_endpoint_formula(n):
    # the retraction applied to the pair indicator: head * indicator - trace * ones
    for B in partitions(n):
        got = gr_setup(n).retraction.apply(pair_vector(n, B.part))
        head = F(B.b - 1, n - 2)
        trace = F((B.b - 1) * B.b, 2 * (n - 2) * (n - 1))
        want = tuple(head * (1 if i in B.part else 0) - trace for i in range(1, n + 1))
        assert got == want


def test_recipe_divisor_matches_closed_coefficients():
    rec = recipe_divisor(4)
    for B in partitions(4):
        assert rec.divisor.coefficient(B.label()) == ref_partition_coefficient(4, B)


# --- the fansy divisor ------------------------------------------------------

def test_closed_form_structure_n4():
    f = fansy_closed_form(4)
    assert len(f.labels) == 3 and len(f.cells) == 6
    assert check_subdivision_structure(f).passed
    # balanced partitions give centred edges
    rs = RootSystemA(4)
    for B in partitions(4):
        verts = set()
        for _, cell in f.cells:
            verts.update(cell.coefficient(B.label()).vertices)
        ell = rs.ell_sum(B.part)
        assert verts == {tuple(F(1, 2) * x for x in ell), tuple(F(-1, 2) * x for x in ell)}


def test_closed_form_tail_fan_matches():
    # the distinct tails of the closed form's cells are the tail fan's maximal cones
    for n in (4, 5):
        f = fansy_closed_form(n)
        assert {d.tail for _, d in f.cells} == {c for _, c in tail_fan(2, n).maximal}


@pytest.mark.parametrize("n", [4, 5])
def test_two_routes_agree(n):
    closed = fansy_closed_form(n)
    recipe = fansy_via_recipe(n)
    eq, matching = fansy_equal(closed, recipe)
    assert eq, matching
    # the geometric matching identifies sign patterns with coordinate pairs
    assert all(k == v for k, v in matching.items())


def test_routes_run_double_description_only_where_needed(monkeypatch):
    # closed form: one run from scratch per tail cone (10) and one signed
    # pass per segment coefficient (60, `_plus_hull` on a pointed,
    # full-dimensional tail); one-vertex coefficients are translates of the
    # tail.  Recipe: one run per fiber in the coordinates of ker pi (10,
    # dimension n + 1 = 6), one for the tail (dimension n = 5) and one per
    # image of a tail face along the degree direction (10, dimension 5), and
    # one signed pass per projected boundary face with two minimising
    # vertices (60).  No run is resumed.  The fiber cache is cleared so that
    # the count is the cold one.
    import ppfan.dd as dd
    import ppfan.polyhedra as polyhedra
    from ppfan.chow import positive_fiber

    fresh, resumed, signed = [], [], []
    real_process, real_step = dd.process, polyhedra._add_segment

    def counting(dim, constraints, start=None):
        (fresh if start is None else resumed).append(dim)
        return real_process(dim, constraints, start)

    def counting_step(p, s):
        signed.append(p.dim_ambient)
        return real_step(p, s)

    monkeypatch.setattr(dd, "process", counting)
    monkeypatch.setattr(polyhedra, "_add_segment", counting_step)
    fansy_closed_form(5)
    assert (len(fresh), len(resumed), len(signed)) == (10, 0, 60)
    fresh.clear()
    signed.clear()
    positive_fiber.cache_clear()
    fansy_via_recipe(5, verify=False)
    assert (len(fresh), len(resumed), len(signed)) == (21, 0, 60)
    assert sorted(fresh) == [5] * 11 + [6] * 10


def test_battery_reference_objects_run_one_dd_per_lift(monkeypatch):
    # check_induced_subdivisions: one run from scratch per distinct height
    # vector (10 partitions, two vectors each, five of the pairs equal: 15),
    # the cells read off its tight sets.
    # check_positive_fibers: with the fibers (the recipe's, in ker pi
    # coordinates) and sigma_cone cached, each reference is one signed pass
    # on fiber_tail, which itself runs no DD
    import ppfan.dd as dd
    import ppfan.polyhedra as polyhedra
    from ppfan.chow import positive_fiber
    from ppfan.verify import check_induced_subdivisions, check_positive_fibers

    setup = gr_setup(5)
    for B in partitions(5):
        positive_fiber(setup.emb, setup.ws.section.apply(partition_ray(5, B)[0]))
    sigma_cone(5)
    fiber_tail.cache_clear()
    fresh, resumed, signed = [], [], []
    real_process, real_step = dd.process, polyhedra._add_segment

    def counting(dim, constraints, start=None):
        (fresh if start is None else resumed).append(dim)
        return real_process(dim, constraints, start)

    def counting_step(p, s):
        signed.append(p.dim_ambient)
        return real_step(p, s)

    monkeypatch.setattr(dd, "process", counting)
    monkeypatch.setattr(polyhedra, "_add_segment", counting_step)
    assert check_induced_subdivisions(5)[0]
    assert (len(fresh), len(resumed), len(signed)) == (15, 0, 0)
    fresh.clear()
    assert check_positive_fibers(5)[0]
    assert (len(fresh), len(resumed), len(signed)) == (0, 0, 10)


def test_induced_subdivisions_check_names_the_partition_that_fails(monkeypatch):
    # all-zero heights put every point on one lower facet: one cell, not the
    # partition's two, so the check fails at the first partition and names it
    import ppfan.verify as verify

    monkeypatch.setattr(verify, "pair_vector", lambda n, part: (0,) * comb(n, 2))
    first = partitions(5)[0]
    assert verify.check_induced_subdivisions(5) == (
        False, f"heights from {first.part} give cells [{list(range(10))}]")


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_edge_endpoints_check_names_a_moved_endpoint(n):
    # endpoints are compared as primitive homogeneous rows: from n = 6 on,
    # some are not primitive as first written, e.g. (2 * ell, 4) at b = 3
    from dataclasses import replace
    from ppfan.verify import check_edge_endpoints

    closed = fansy_closed_form(n)
    assert check_edge_endpoints(n, closed)[0]
    key, div = closed.cells[0]
    (label, poly), *rest = div.terms
    shift = (1,) + (0,) * (poly.dim_ambient - 1)
    moved = replace(div, terms=((label, poly.translate(shift)), *rest))
    passed, detail = check_edge_endpoints(n, replace(closed, cells=((key, moved),
                                                                    *closed.cells[1:])))
    assert not passed and detail.startswith("edge endpoints at ")


def test_n5_balanced_edge():
    f = fansy_closed_form(5)
    rs = RootSystemA(5)
    B = Partition(5, (1, 2))
    ell = rs.ell_sum(B.part)
    verts = set()
    for _, cell in f.cells:
        verts.update(cell.coefficient(B.label()).vertices)
    hi = tuple(F(1, 3) * x for x in ell)
    lo = tuple(F(-2, 3) * x for x in ell)
    assert verts == {hi, lo}
    center = tuple((a + b) / 2 for a, b in zip(hi, lo))
    assert center == tuple(F(-1, 6) * x for x in ell)


def test_recipe_guard():
    with pytest.raises(ValueError):
        fansy_via_recipe(10)


def test_condition1_witnesses_on_closed_form():
    from ppfan.divisors import check_fansy_condition1
    rep = check_fansy_condition1(fansy_closed_form(4))
    assert rep.passed  # every pair of cells gets a verified separating form
    assert all("verified" in f for f in rep.findings)


# sha256 of the findings, one a line: the forms found and the loci printed
@pytest.mark.parametrize("n, digest", [
    (4, "1929b2120188022b6a6302cc05c93742800c296b398831826304be10be3b0b4c"),
    (5, "dd25549ffc854668d2070e483c563a7299e2683d86e92aaf93adbc8289d60086"),
])
def test_condition1_findings_digest(n, digest):
    from ppfan.divisors import check_fansy_condition1
    findings = check_fansy_condition1(fansy_closed_form(n)).findings
    assert hashlib.sha256("\n".join(findings).encode()).hexdigest() == digest


# sha256 of the canonical JSON (sorted keys, no spaces) of the Gr(2,n) fansy
# divisor; both routes serialise to it byte for byte
@pytest.mark.parametrize("n, digest", [
    (6, "e9aeb8d3f95cf62fbcfcbeddcfdbf333ba368ee3ce88dd7f87e662a03a594e5b"),
    (7, "38612ee2ba22f6e0c82d309ae7f79921c4a9470004c7e86ebf795bf0b5a36653"),
])
def test_route_json_digest(n, digest):
    for fansy in (fansy_closed_form(n), fansy_via_recipe(n, verify=False)):
        text = json.dumps(fansy.to_json(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_intersect_cells_sharing_the_edge():
    f = fansy_closed_form(4)
    cells = dict(f.cells)
    B = Partition(4, (1, 2))
    a, b = (cells[key].coefficient(B.label()) for key in ((1, 3), (1, 4)))
    m = intersect(a, b)
    assert m.is_face_of(a)
    assert m.is_face_of(b)
    rs = RootSystemA(4)
    ell = rs.ell_sum(B.part)
    assert set(m.vertices) == {tuple(F(1, 2) * x for x in ell),
                               tuple(F(-1, 2) * x for x in ell)}


# --- the local chart --------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5])
def test_local_chart(n):
    rep = local_chart_report(n)
    assert rep.passed, rep.findings


def test_visibility_examples():
    # a partition separating the first two indices is visible in the chart
    B = Partition(4, (1, 3))
    assert B.separates(1, 2)
    assert not Partition(4, (1, 2)).separates(1, 2)


# --- the verification battery ----------------------------------------------

CHECKS = ("check_two_routes", "check_edge_endpoints", "check_positive_fibers",
          "check_algebraic_identities", "check_weyl", "check_tail_fans", "check_cube",
          "check_induced_subdivisions", "check_local_chart")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_battery_runs_every_check_at_every_n(monkeypatch, n):
    import ppfan.verify as verify

    for name in CHECKS:
        monkeypatch.setattr(verify, name, lambda *args: (True, "stub"))
    monkeypatch.setattr(verify, "fansy_closed_form", lambda n: None)
    names = [name for name, _, _ in verify.run_battery(n)]
    assert names == [f"two-route agreement n={n}", f"edge endpoints n={n}",
                     f"positive fibers n={n}", f"algebraic identities n={n}",
                     "weyl identities", f"tail fan (2,{n})"] + \
        ["cube crosscut"] * (n == 4) + \
        [f"induced subdivisions n={n}", f"local chart n={n}"]


def test_battery_builds_the_closed_form_once(monkeypatch):
    import ppfan.verify as verify

    calls = []

    def counting(n):
        calls.append(n)
        return fansy_closed_form(n)

    monkeypatch.setattr(verify, "fansy_closed_form", counting)
    results = verify.run_battery(4)
    assert calls == [4]
    assert all(passed for _, passed, _ in results)


def test_battery_fails_both_checks_when_the_closed_form_raises(monkeypatch):
    import ppfan.verify as verify

    calls = []

    def broken(n):
        calls.append(n)
        raise ArithmeticError(f"no closed form at n={n}")

    monkeypatch.setattr(verify, "fansy_closed_form", broken)
    results = {name: (passed, detail) for name, passed, detail in verify.run_battery(4)}
    failed = (False, "ArithmeticError: no closed form at n=4")
    assert results.pop("two-route agreement n=4") == failed
    assert results.pop("edge endpoints n=4") == failed
    assert all(passed for passed, _ in results.values())
    assert calls == [4]

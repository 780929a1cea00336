import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ppfan._vecops import neg
from ppfan.chow import build_setup, pp_from_weights, projectivize
from ppfan.divisors import (
    FansyDivisor,
    Label,
    PPDivisor,
    check_fansy_condition1,
    check_subdivision_structure,
    evaluate,
    fansy_equal,
)
from ppfan.lattice import LatticeMap
from ppfan.polyhedra import Cone, Fan, Polyhedron, face_minimizing, intersect, min_value


def tri_divisor():
    """The worked two-term divisor on the projective line base."""
    sigma = Cone.from_rays("Nt", 2, [(1, 0), (-1, 2)])
    d0 = Polyhedron.from_generators("Nt", 2, [(0, 1), (1, 0)], sigma.rays)
    dinf = Polyhedron.from_generators("Nt", 2, [(F(-1, 2), 0)], sigma.rays)
    return PPDivisor("Nt", 2, sigma, ((Label.named("0"), d0), (Label.named("inf"), dinf)))


def test_label_canonicalisation():
    assert Label.partition((2, 1), 4).value == (4, (1, 2))
    with pytest.raises(ValueError):
        Label.partition((2, 3), 4)
    assert Label.ray((2, 4)).value[1] == (1, 2)


def test_ppdivisor_invariants():
    sigma = Cone.from_rays("Nt", 2, [(1, 0)])
    good = Polyhedron.from_generators("Nt", 2, [(0, 0)], [(1, 0)])
    bad_tail = Polyhedron.from_generators("Nt", 2, [(0, 0)], [(0, 1)])
    PPDivisor("Nt", 2, sigma, ((Label.named("a"), good),))
    with pytest.raises(ValueError):
        PPDivisor("Nt", 2, sigma, ((Label.named("a"), bad_tail),))
    with pytest.raises(ValueError):
        PPDivisor("Nt", 2, sigma, ((Label.named("a"), good), (Label.named("a"), good)))
    with pytest.raises(ValueError):
        PPDivisor("Nt", 2, sigma, ((Label.named("a"), Polyhedron.empty_in("Nt", 2)),))


@pytest.mark.parametrize("ambient, rays, lin", [
    ("Nt", [(0, 1)], []),
    ("Nt", [(1, 0), (0, 1)], []),
    ("Nt", [], []),
    ("Nt", [], [(1, 0)]),
    ("Mt", [(1, 0)], []),
], ids=["other-ray", "wider", "bounded", "line", "other-lattice"])
def test_ppdivisor_rejects_another_tail(ambient, rays, lin):
    sigma = Cone.from_rays(ambient, 2, [(1, 0)])
    coeff = Polyhedron.from_generators("Nt", 2, [(0, 0)], rays, lin)
    with pytest.raises(ValueError, match="has a different tail cone"):
        PPDivisor("Nt", 2, sigma, ((Label.named("a"), coeff),))


def ref_level_set(p, u, c):
    """p ∩ {u.x = c}, by double description on p's rows and the equation."""
    if p.empty:
        return p
    return Polyhedron.from_halfspaces(
        p.ambient, p.dim_ambient,
        [(r[:-1], r[-1]) for r in p.ineqs],
        [(r[:-1], r[-1]) for r in p.eqs] + [(u, c)],
    )


@st.composite
def polyhedra_and_forms(draw):
    d = draw(st.integers(1, 3))
    vecs = st.tuples(*[st.integers(-2, 2)] * d)
    verts = draw(st.lists(vecs, min_size=1, max_size=4))
    rays = [r for r in draw(st.lists(vecs, max_size=2)) if any(r)]
    lin = [l for l in draw(st.lists(vecs, max_size=1)) if any(l)]
    return Polyhedron.from_generators("Q", d, verts, rays, lin), draw(vecs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polyhedra_and_forms())
def test_extreme_faces_are_level_sets(case):
    # the separation check compares the faces maximising and minimising u,
    # which are the level sets at the extreme values
    p, u = case
    for form in (u, neg(u)):
        m = min_value(p, form)
        if m is not None:
            assert face_minimizing(p, form) == ref_level_set(p, form, m)


def test_evaluate_zero_form():
    d = tri_divisor()
    fd = evaluate(d, (0, 0))
    assert all(c == 0 for _, c in fd.terms)


def test_evaluate_worked_values():
    d = tri_divisor()
    fd = evaluate(d, (0, 1))
    assert fd.coefficient(Label.named("0")) == 0
    assert fd.coefficient(Label.named("inf")) == 0
    fd = evaluate(d, (2, 1))
    assert fd.coefficient(Label.named("0")) == 1
    assert fd.coefficient(Label.named("inf")) == -1


def test_evaluate_rejects_outside_dual():
    with pytest.raises(ValueError):
        evaluate(tri_divisor(), (-1, 0))


def test_evaluate_omits_empty_terms():
    sigma = Cone.from_rays("Nt", 2, [(1, 0)])
    p = Polyhedron.from_generators("Nt", 2, [(0, 0)], [(1, 0)])
    d = PPDivisor("Nt", 2, sigma, (
        (Label.named("a"), p),
        (Label.named("b"), Polyhedron.empty_in("Nt", 2)),
    ))
    fd = evaluate(d, (1, 0))
    assert fd.omitted == (Label.named("b"),)
    assert [l for l, _ in fd.terms] == [Label.named("a")]


def test_evaluate_concave_randomized():
    rng = random.Random(17)
    d = tri_divisor()
    sigma_dual = [(0, 1), (2, 1)]  # generators of the dual of the tail
    for _ in range(200):
        a1, b1 = rng.randint(0, 4), rng.randint(0, 4)
        a2, b2 = rng.randint(0, 4), rng.randint(0, 4)
        u1 = tuple(a1 * x + b1 * y for x, y in zip(*sigma_dual))
        u2 = tuple(a2 * x + b2 * y for x, y in zip(*sigma_dual))
        usum = tuple(x + y for x, y in zip(u1, u2))
        e1, e2, es = evaluate(d, u1), evaluate(d, u2), evaluate(d, usum)
        for l, c in es.terms:
            assert c >= e1.coefficient(l) + e2.coefficient(l)


def test_translate_and_evaluate():
    # translating one term by v shifts its evaluation at u by <v, u>, the other term stays
    d = tri_divisor()
    zero, inf = Label.named("0"), Label.named("inf")
    v = (F(1, 3), F(2))
    moved = d.coefficient(zero).translate(v)
    d2 = PPDivisor(d.ambient, d.dim_ambient, d.tail, ((zero, moved), (inf, d.coefficient(inf))))
    u = (2, 1)
    before, after = evaluate(d, u), evaluate(d2, u)
    assert after.coefficient(zero) - before.coefficient(zero) == sum(a * b for a, b in zip(v, u))
    assert after.coefficient(inf) == before.coefficient(inf)
    assert d.coefficient(zero).translate((0, 0)) == d.coefficient(zero)
    with pytest.raises(KeyError):
        d.coefficient(Label.named("zz"))


def halfline_fansy():
    """Two cells subdividing the line at the origin, one label."""
    lab = Label.named("D")
    left = Cone.from_rays("N", 1, [(-1,)])
    right = Cone.from_rays("N", 1, [(1,)])
    pl = Polyhedron.from_generators("N", 1, [(0,)], [(-1,)])
    pr = Polyhedron.from_generators("N", 1, [(0,)], [(1,)])
    cells = (("L", PPDivisor("N", 1, left, ((lab, pl),))),
             ("R", PPDivisor("N", 1, right, ((lab, pr),))))
    return FansyDivisor("N", 1, (lab,), cells)


def test_structure_check_passes():
    rep = check_subdivision_structure(halfline_fansy())
    assert rep.passed, rep.findings


def test_structure_single_cell_full_space():
    lab = Label.named("D")
    full = Cone.from_ineqs("N", 2, [])
    plane = full.to_polyhedron()
    f = FansyDivisor("N", 2, (lab,), (("all", PPDivisor("N", 2, full, ((lab, plane),))),))
    rep = check_subdivision_structure(f)
    assert rep.passed, rep.findings


def test_structure_check_catches_overlap():
    lab = Label.named("D")
    right = Cone.from_rays("N", 1, [(1,)])
    p1 = Polyhedron.from_generators("N", 1, [(0,)], [(1,)])
    p2 = Polyhedron.from_generators("N", 1, [(-1,)], [(1,)])
    f = FansyDivisor("N", 1, (lab,), (
        ("A", PPDivisor("N", 1, right, ((lab, p1),))),
        ("B", PPDivisor("N", 1, right, ((lab, p2),))),
    ))
    rep = check_subdivision_structure(f)
    assert not rep.passed
    assert any("overlap" in s for s in rep.findings)


def test_structure_check_names_the_one_bad_tail_pair():
    # the first quadrant and the cone over (1, 1), (-1, 1) overlap in a
    # 2-dimensional cone, a face of neither; each meets the fourth-quadrant
    # cone over (0, -1), (1, -1) in the vertex 0, a face of both.  The three
    # cones do not cover the plane, so four of their facets are uncovered.
    lab = Label.named("D")
    quadrant = Cone.from_rays("N", 2, [(1, 0), (0, 1)])
    wedge = Cone.from_rays("N", 2, [(1, 1), (-1, 1)])
    below = Cone.from_rays("N", 2, [(0, -1), (1, -1)])
    f = FansyDivisor("N", 2, (lab,), tuple(
        (key, PPDivisor("N", 2, c, ((lab, c.to_polyhedron()),)))
        for key, c in (("a", quadrant), ("b", wedge), ("c", below))))
    rep = check_subdivision_structure(f)
    assert not rep.passed
    tail_findings = [s for s in rep.findings if s.startswith("tail cones")]
    assert tail_findings == [
        "tail cones: cells 'a' and 'b' overlap in interiors; witness ['1', '2']",
        "tail cones: facet of cell 'a' is uncovered (normal (0, 1))",
        "tail cones: facet of cell 'b' is uncovered (normal (1, 1))",
        "tail cones: facet of cell 'c' is uncovered (normal (-1, -1))",
        "tail cones: facet of cell 'c' is uncovered (normal (1, 0))"]


def test_structure_check_names_label_and_cells_on_gr5():
    # translating one coefficient of the Gr(2,5) closed form breaks that
    # label's subdivision, and each finding names the label and the cells
    from dataclasses import replace
    from ppfan.grassmann import fansy_closed_form

    fansy = fansy_closed_form(5)
    (key, d), rest = fansy.cells[0], fansy.cells[1:]
    (label, p), others = d.terms[0], d.terms[1:]
    moved = p.translate((1,) + (0,) * (p.dim_ambient - 1))
    broken = replace(fansy, cells=((key, replace(d, terms=((label, moved),) + others)),) + rest)
    rep = check_subdivision_structure(broken)
    assert not rep.passed
    assert key == (1, 2) and label == Label.partition((1, 2), 5)
    assert all(f.startswith(f"label {label}: ") and "(1, 2)" in f for f in rep.findings)
    assert rep.findings[0] == (f"label {label}: cells (1, 2) and (1, 3) "
                               "do not meet in a common face")


@pytest.mark.parametrize("k", [4, 6])
def test_structure_check_passes_on_a_line_by_pairs(k):
    # the tails are [0, oo), {0} and (-oo, 0]; {0} is a face of the other
    # two, so `maximal_cells` drops it and the two half-lines tile the line
    setup = build_setup(LatticeMap(((1,) * k, tuple(range(k))), "E", "M"))
    fansy = projectivize(setup, pp_from_weights(setup), verify=False)
    fan = Fan(fansy.ambient, fansy.dim_ambient, tuple((key, d.tail) for key, d in fansy.cells))
    assert {(c.rays, c.lineality) for c in fan.cones()} == {
        ((), ()), (((-1,),), ()), (((1,),), ())}
    tails = fan.subdivision()
    assert sorted(p.rays for _, p in tails.maximal_cells()) == [((-1,),), ((1,),)]
    assert tails.check() == (True, [])
    rep = check_subdivision_structure(fansy)
    assert rep.passed, rep.findings


def test_condition1_reflexive_and_walls():
    rep = check_fansy_condition1(halfline_fansy())
    assert rep.passed
    assert all("verified" in s for s in rep.findings)


def test_condition1_inconclusive_is_not_failure():
    # cells whose coefficients cannot be separated by any facet normal:
    # same tail, coefficients overlapping only partially in a weird pattern
    lab = Label.named("D")
    tail = Cone.from_rays("N", 2, [])
    p1 = Polyhedron.from_generators("N", 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    p2 = Polyhedron.from_generators("N", 2, [(F(1, 2), F(1, 2))])
    f = FansyDivisor("N", 2, (lab,), (
        ("A", PPDivisor("N", 2, tail, ((lab, p1),))),
        ("B", PPDivisor("N", 2, tail, ((lab, p2),))),
    ))
    rep = check_fansy_condition1(f)
    assert any("inconclusive" in s for s in rep.findings)
    assert not rep.passed  # passed means every pair got a verified witness


def ref_semiample_locus(dmu, dnu):
    """Labels whose two coefficients have an empty meet, by intersecting them."""
    return [str(l) for l in dmu.labels()
            if dmu.coefficient(l).empty or dnu.coefficient(l).empty
            or intersect(dmu.coefficient(l), dnu.coefficient(l)).empty]


def projectivized_line(top):
    deg = LatticeMap((tuple(top), tuple(1 for _ in top)), "E", "M")
    setup = build_setup(deg)
    return projectivize(setup, pp_from_weights(setup))


def verified_loci(fansy):
    """(printed locus, reference locus) for every pair with a separating form."""
    findings = iter(check_fansy_condition1(fansy).findings)
    out = []
    for a, (_, dmu) in enumerate(fansy.cells):
        for _, dnu in fansy.cells[a:]:
            finding = next(findings)
            if "verified" in finding:
                out.append((finding.split("assumed semiample locus ")[1],
                            str(ref_semiample_locus(dmu, dnu))))
    return out


def test_semiample_locus_of_five_points_on_a_line():
    loci = verified_loci(projectivized_line(range(5)))
    assert len(loci) == 15
    assert all(printed == ref for printed, ref in loci)
    assert sum(ref != "[]" for _, ref in loci) == 13


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=3, max_size=4))
def test_semiample_locus_matches_intersection(top):
    assume(LatticeMap((tuple(top), tuple(1 for _ in top)), "E", "M").rank() == 2)
    for printed, ref in verified_loci(projectivized_line(top)):
        assert printed == ref


def test_fansy_equal_detects_differences():
    f = halfline_fansy()
    ok, matching = fansy_equal(f, f)
    assert ok and matching == {"L": "L", "R": "R"}
    lab = Label.named("D")
    right = Cone.from_rays("N", 1, [(1,)])
    p1 = Polyhedron.from_generators("N", 1, [(1,)], [(1,)])
    left = Cone.from_rays("N", 1, [(-1,)])
    p2 = Polyhedron.from_generators("N", 1, [(1,)], [(-1,)])
    g = FansyDivisor("N", 1, (lab,), (
        ("L", PPDivisor("N", 1, left, ((lab, p2),))),
        ("R", PPDivisor("N", 1, right, ((lab, p1),))),
    ))
    ok, why = fansy_equal(f, g)
    assert not ok


def test_coverage_per_label_randomized():
    rng = random.Random(23)
    f = halfline_fansy()
    lab = f.labels[0]
    for _ in range(200):
        x = (F(rng.randint(-20, 20), rng.randint(1, 7)),)
        containing = [k for k, d in f.cells if d.coefficient(lab).contains(x)]
        assert len(containing) >= 1
        if x[0] != 0:
            assert len(containing) == 1

"""Acceptance criteria, one test per criterion, exact assertions throughout.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines and
timings.  Every tolerance is zero: comparisons are canonical-form equality
of exact rational objects.
"""

import json
import random
import time
from fractions import Fraction as F
from math import comb

import pytest

import ppfan.chow as chow
import ppfan.grassmann as gr
from ppfan.cli import main as cli_main
from ppfan.divisors import (
    Label,
    check_subdivision_structure,
    evaluate,
    fansy_equal,
)
from ppfan.lattice import LatticeMap, mat_mul, mat_vec
from ppfan.polyhedra import Polyhedron, induced_subdivision, intersect


def _fresh_caches():
    chow.positive_fiber.cache_clear()
    gr.gr_setup.cache_clear()


def _report(name, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE PASS {name}{suffix}")


def test_01_main_theorem_n4(capsys):
    _fresh_caches()
    t0 = time.monotonic()
    code = cli_main(["fansy", "--n", "4", "--method", "both"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert len(data["closed"]["labels"]) == 3
    fansy = gr.fansy_closed_form(4)
    rs = gr.RootSystemA(4)
    for label in fansy.labels:
        cells = [p for _, p in fansy.subdivision_for(label).cells if not p.empty]
        assert len(cells) == 6
    for B in gr.partitions(4):
        ell = rs.ell_sum(B.part)
        verts = set()
        for _, cell in fansy.cells:
            verts.update(cell.coefficient(B.label()).vertices)
        assert verts == {tuple(F(1, 2) * x for x in ell), tuple(-F(1, 2) * x for x in ell)}
    assert elapsed <= 10.0
    with capsys.disabled():
        _report("01 two routes agree at n=4 (3 labels, 6 cells, edges ±1/2)", elapsed)


def test_02_main_theorem_n5(capsys):
    _fresh_caches()
    t0 = time.monotonic()
    closed = gr.fansy_closed_form(5)
    recipe = gr.fansy_via_recipe(5)
    eq, matching = fansy_equal(closed, recipe)
    elapsed = time.monotonic() - t0
    assert eq, matching
    assert len(closed.labels) == 10
    rs = gr.RootSystemA(5)
    # paper formulas: endpoints (b-1)/(n-2) and (b+1-n)/(n-2) scale the part
    # vector, center (2b-n)/(2(n-2)); at n=5, b=2 that is 1/3, -2/3 and -1/6
    for B in gr.partitions(5):
        if B.b != 2:
            continue
        ell = rs.ell_sum(B.part)
        verts = set()
        for _, cell in closed.cells:
            verts.update(cell.coefficient(B.label()).vertices)
        hi = tuple(F(B.b - 1, 3) * x for x in ell)
        lo = tuple(F(B.b + 1 - 5, 3) * x for x in ell)
        assert verts == {hi, lo}
        assert tuple((a + b) / 2 for a, b in zip(hi, lo)) == \
            tuple(F(2 * B.b - 5, 2 * 3) * x for x in ell)
    assert elapsed <= 60.0
    with capsys.disabled():
        _report("02 two routes agree at n=5 (10 labels, b=2 edge 1/3 .. -2/3)", elapsed)


@pytest.mark.parametrize("a,b,A,B", [(2, 1, 1, 1), (3, 1, 1, 2), (3, 2, 1, 1), (5, 3, 2, 3)])
def test_03_weighted_family(a, b, A, B, capsys):
    t0 = time.monotonic()
    deg = LatticeMap(((a, b, 0), (1, 1, 1)), "E", "M")
    setup = chow.build_setup(deg, section=((-B,), (-A,), (0,)))
    rec = chow.pp_from_weights(setup)
    div = rec.divisor
    assert div.tail.rays == tuple(sorted([(1, 0), (-1, a)]))
    lab0 = Label.ray((1,), setup.pi.codomain)
    labinf = Label.ray((-1,), setup.pi.codomain)
    assert set(div.coefficient(lab0).vertices) == {
        (F(B - A, a - b), F(1, a - b)), (F(A, b), F(0))}
    assert div.coefficient(labinf).vertices == ((F(-B, a), F(0)),)
    assert chow.boundary_face(setup, rec, labinf, 1).empty
    elapsed = time.monotonic() - t0
    assert elapsed <= 1.0
    with capsys.disabled():
        _report(f"03 weighted family ({a},{b}): displayed coefficients, empty middle face", elapsed)


def test_04_positive_fibers_n456(capsys):
    _fresh_caches()
    for n in (4, 5):
        for B in gr.partitions(n):
            gr.positive_fiber_part(n, B)
    t0 = time.monotonic()
    for B in gr.partitions(6):
        gr.positive_fiber_part(6, B)
    elapsed6 = time.monotonic() - t0
    assert elapsed6 <= 120.0
    with capsys.disabled():
        _report("04 positive fibers are segment + cone for n=4,5,6", elapsed6)


@pytest.mark.parametrize("n", [4, 5])
def test_05_induced_subdivision_two_cells(n, capsys):
    setup = gr.gr_setup(n)
    points = [setup.ws.deg.column(j) for j in range(setup.ws.deg.cols)]
    for B in gr.partitions(n):
        heights = gr.pair_vector(n, B.part)
        sub = induced_subdivision(f"Wt({n})", points, heights)
        got = {frozenset(m) for m, _ in sub.cells}
        c1 = frozenset(i for i, (p, q) in enumerate(gr.pairs(n))
                       if p in B.part or q in B.part)
        c2 = frozenset(i for i, (p, q) in enumerate(gr.pairs(n))
                       if p in B.complement or q in B.complement)
        assert got == {c1, c2}
    with capsys.disabled():
        _report(f"05 partition heights split the weight polytope in two, n={n}")


def test_06_cube_crosscut(capsys):
    sig = gr.sigma_cone(4)
    cut = intersect(sig.to_polyhedron(),
                    Polyhedron.from_halfspaces("Nt(4)", 4, [], [((1, 1, 1, 1), 1)]))
    expect = set()
    for i in range(4):
        expect.add(tuple(F(1 if j == i else 0) for j in range(4)))
        expect.add(tuple(F(1, 2) - (1 if j == i else 0) for j in range(4)))
    assert set(cut.vertices) == expect and len(cut.vertices) == 8
    with capsys.disabled():
        _report("06 height-1 crosscut of the tail cone is the 8-vertex cube")


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_07_tail_fans(k, n, capsys):
    fan = gr.tail_fan(k, n)
    assert len(fan.maximal) == comb(n, k)
    assert all(c.is_pointed and c.dim == n - 1 for _, c in fan.maximal)
    assert fan.subdivision().check() == (True, [])
    rs = gr.RootSystemA(n)
    chart = gr.tail_cone_chart(set(range(1, n)) - {k}, n)  # includes the orbit cross-check
    gens = [rs.ell(i) if i <= k else tuple(-x for x in rs.ell(i)) for i in range(1, n + 1)]
    from ppfan.polyhedra import Cone
    assert chart == Cone.from_rays(rs.ambient, rs.dim, gens)
    with capsys.disabled():
        _report(f"07 tail fan ({k},{n}): {comb(n, k)} pointed cones, complete, chart dual matches")


def test_08_weyl_identities(capsys):
    for n in range(2, 8):
        for k in range(1, min(3, n - 1) + 1):
            sh = gr.shuffles(k, n)
            assert len(sh) == comb(n, k)
            w = gr.longest_coset_rep(k, n)
            assert w == tuple(((i - 1 - k) % n) + 1 for i in range(1, n + 1))
            assert gr.inversion_set(w)[1] == k * (n - k)
            assert w in sh
    with capsys.disabled():
        _report("08 shuffle counts, cyclic formula and lengths for k<=3, n<=7")


@pytest.mark.parametrize("n", [4, 5, 6])
def test_09_algebraic_identities(n, capsys):
    setup = gr.gr_setup(n)
    from ppfan.lattice import check_retraction, identity_matrix
    assert check_retraction(setup.retraction, setup.emb)
    for B in gr.partitions(n):
        v = tuple((1 if i in B.part else 0) - (1 if i in B.complement else 0)
                  for i in range(1, n + 1))
        assert setup.emb.apply(v) == tuple(
            2 * (x - y) for x, y in zip(gr.pair_vector(n, B.part),
                                        gr.pair_vector(n, B.complement)))
    assert mat_mul(setup.pi.entries, setup.ws.section.entries) == \
        identity_matrix(setup.pi.rows)
    with capsys.disabled():
        _report(f"09 retraction splits, pair identities, section splits, n={n}")


@pytest.mark.parametrize("n", [4, 5])
def test_10_local_chart(n, capsys):
    rep = gr.local_chart_report(n)
    assert rep.passed, rep.findings
    with capsys.disabled():
        _report(f"10 chart diagram commutes and visibility matches, n={n}")


# --- criterion 11: randomized property suites, >= 200 cases each ------------

def test_11a_dual_description_round_trips(capsys):
    rng = random.Random(2024)
    for _ in range(200):
        d = rng.randint(1, 3)
        verts = [tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
                 for _ in range(rng.randint(1, 4))]
        rays = [r for r in (tuple(rng.randint(-2, 2) for _ in range(d))
                            for _ in range(rng.randint(0, 2))) if any(r)]
        p = Polyhedron.from_generators("Q", d, verts, rays)
        again = Polyhedron.from_generators("Q", d, p.vertices, p.rays, p.lineality)
        from_h = Polyhedron.from_halfspaces("Q", d,
                                            [(r[:-1], -r[-1]) for r in p.ineqs],
                                            [(r[:-1], -r[-1]) for r in p.eqs])
        assert p == again == from_h
    with capsys.disabled():
        _report("11a 200 dual description round trips")


def test_11c_evaluate_concavity(capsys):
    rng = random.Random(2026)
    setup = chow.build_setup(LatticeMap(((2, 1, 0), (1, 1, 1)), "E", "M"))
    div = chow.pp_from_weights(setup).divisor
    duals = [(0, 1), (2, 1)]
    for _ in range(200):
        c1, c2 = rng.randint(0, 4), rng.randint(0, 4)
        u1 = tuple(c1 * a + c2 * b for a, b in zip(*duals))
        c3, c4 = rng.randint(0, 4), rng.randint(0, 4)
        u2 = tuple(c3 * a + c4 * b for a, b in zip(*duals))
        usum = tuple(a + b for a, b in zip(u1, u2))
        e1, e2, es = evaluate(div, u1), evaluate(div, u2), evaluate(div, usum)
        for l, cval in es.terms:
            assert cval >= e1.coefficient(l) + e2.coefficient(l)
    with capsys.disabled():
        _report("11c 200 superadditivity checks of the evaluation")


def test_11d_section_independence(capsys):
    rng = random.Random(2027)
    checked = 0
    while checked < 200:
        cols = rng.randint(3, 4)
        top = tuple(rng.randint(-2, 2) for _ in range(cols))
        deg = LatticeMap((top, tuple(1 for _ in range(cols))), "E", "M")
        if deg.rank() != 2:
            continue
        setup = chow.build_setup(deg)
        rec1 = chow.pp_from_weights(setup)
        R = tuple(tuple(rng.randint(-2, 2) for _ in range(setup.pi.rows))
                  for _ in range(setup.dstar.cols))
        shift = mat_mul(setup.dstar.entries, R)
        s2 = tuple(tuple(a + b for a, b in zip(r1, r2))
                   for r1, r2 in zip(setup.section.entries, shift))
        setup2 = chow.build_setup(deg, section=s2)
        rec2 = chow.pp_from_weights(setup2, rays=[c for _, c in rec1.rays])
        for label, c in rec1.rays:
            moved = rec1.divisor.coefficient(label).translate(tuple(-x for x in mat_vec(R, c)))
            assert moved == rec2.divisor.coefficient(label)
            checked += 1
    with capsys.disabled():
        _report("11d 200 per-ray section independence translations")


def test_11e_projectivized_coverage(capsys):
    rng = random.Random(2028)
    point_checks = 0
    setups = 0
    skipped = []
    while point_checks < 200:
        cols = rng.randint(3, 4)
        top = tuple(rng.randint(-2, 2) for _ in range(cols))
        deg = LatticeMap((top, tuple(1 for _ in range(cols))), "E", "M")
        if deg.rank() != 2:
            continue
        setup = chow.build_setup(deg)
        try:
            fansy = chow.projectivize(setup, chow.pp_from_weights(setup))
        except ValueError as exc:
            skipped.append((top, str(exc)))
            continue
        setups += 1
        assert check_subdivision_structure(fansy).passed
        for _ in range(12):
            x = (F(rng.randint(-30, 30), rng.randint(1, 7)),)
            for label in fansy.labels:
                hits = [k for k, d in fansy.cells
                        if not d.coefficient(label).empty and d.coefficient(label).contains(x)]
                assert len(hits) >= 1
            point_checks += 1
    assert skipped == []
    with capsys.disabled():
        _report(f"11e coverage of projectivized divisors: {point_checks} points over {setups} setups")

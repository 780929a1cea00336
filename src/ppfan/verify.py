"""Self-contained verification battery for the rank-2 Grassmannian results.

Each check returns (name, passed, detail); `run_battery(n)` collects every
check that applies at that n.  The CLI `verify` subcommand and the test
suite both drive these.
"""

from fractions import Fraction
from math import comb

from ._vecops import primitive
from .divisors import check_subdivision_structure, fansy_equal
from .grassmann import (
    MAX_N,
    RootSystemA,
    fansy_closed_form,
    fansy_via_recipe,
    gr_setup,
    inversion_set,
    local_chart_report,
    longest_coset_rep,
    pair_vector,
    pairs,
    partition_ray,
    partitions,
    positive_fiber_part,
    shuffles,
    sigma_cone,
    tail_cone_chart,
    tail_fan,
)
from .lattice import check_retraction, identity_matrix, mat_mul
from .polyhedra import Cone, Polyhedron, intersect, lift_facets


def check_two_routes(n, closed):
    # `closed` is fansy_closed_form(n).  The recipe's subdivisions are not
    # checked on their own: once every coefficient matches the closed form's,
    # checking the closed form below gives the same verdict
    recipe = fansy_via_recipe(n, verify=False)
    eq, matching = fansy_equal(closed, recipe)
    if not eq:
        return False, f"routes disagree: {matching}"
    want_labels = 2 ** (n - 1) - n - 1
    if len(closed.labels) != want_labels:
        return False, f"{len(closed.labels)} labels, expected {want_labels}"
    want_cells = comb(n, 2)
    # every cell carries the sorted labels, so its i-th term is at labels[i]
    for i, label in enumerate(closed.labels):
        cells = sum(not d.terms[i][1].empty for _, d in closed.cells)
        if cells != want_cells:
            return False, f"{cells} maximal cells at {label}, expected {want_cells}"
    rep = check_subdivision_structure(closed)
    if not rep.passed:
        return False, "; ".join(rep.findings[:3])
    return True, f"{want_labels} labels, {want_cells} cells each, matching {len(matching)} cells"


def check_edge_endpoints(n, closed):
    # `closed` is fansy_closed_form(n).  Endpoints are compared as primitive
    # homogeneous rows (N, D), the form `Polyhedron.points` stores them in
    rs = RootSystemA(n)
    seen = {}  # label -> the points of its coefficients, over all cells
    for _, cell in closed.cells:
        for label, poly in cell.terms:
            seen.setdefault(label, set()).update(poly.points)
    for B in partitions(n):
        ell = rs.ell_sum(B.part)
        # numerators over n - 2 of hi and lo, and over 2(n - 2) of the center
        hi = tuple((B.b - 1) * x for x in ell)
        lo = tuple((B.b + 1 - n) * x for x in ell)
        if tuple(a + b for a, b in zip(hi, lo)) != tuple((2 * B.b - n) * x for x in ell):
            return False, f"center formula fails at {B.part}"
        got = seen.get(B.label(), set())
        if got != {primitive(hi + (n - 2,)), primitive(lo + (n - 2,))}:
            pts = sorted(tuple(Fraction(x, p[-1]) for x in p[:-1]) for p in got)
            return False, f"edge endpoints at {B.part}: {pts}"
    return True, "endpoints (b-1)/(n-2) and (b+1-n)/(n-2) times the part vector"


def check_positive_fibers(n):
    for B in partitions(n):
        positive_fiber_part(n, B)  # raises on mismatch
    return True, f"all {len(partitions(n))} fibers are segment + cone"


def lower_cells(points, heights):
    """The point sets of the cells `heights` induce on `points`, read off one run's tight sets.

    They are the cell labels of `induced_subdivision(_, points, heights)`,
    as sets: the points on each lower facet (t-coefficient > 0) of the lift,
    with no cell polyhedron built.
    """
    _, incidence, _ = lift_facets(points, heights)
    d = len(points[0])
    return {frozenset(i for i in range(len(points)) if m >> i & 1)
            for h, m in incidence if h[d] > 0}


def check_induced_subdivisions(n):
    """Every partition's two height vectors split Wt(n)'s points into its two big cells.

    The heights are the pair indicator of the part and the section's image
    of the partition ray.  Each distinct height vector is one run
    (`lower_cells`), kept for the rest of the call: at n = 5 the two
    vectors of five partitions are equal, 15 distinct of 20.
    """
    setup = gr_setup(n)
    points = [setup.ws.deg.column(j) for j in range(setup.ws.deg.cols)]
    seen = {}  # height vector -> its cells
    for B in partitions(n):
        c, _, _ = partition_ray(n, B)
        cell1 = frozenset(idx for idx, (i, j) in enumerate(pairs(n))
                          if i in B.part or j in B.part)
        cell2 = frozenset(idx for idx, (i, j) in enumerate(pairs(n))
                          if i in B.complement or j in B.complement)
        for heights in (pair_vector(n, B.part), setup.ws.section.apply(c)):
            if heights not in seen:
                seen[heights] = lower_cells(points, heights)
            got = seen[heights]
            if got != {cell1, cell2}:
                return False, f"heights from {B.part} give cells {sorted(map(sorted, got))}"
    return True, "every partition height splits the weight polytope into its two big cells"


def check_cube():
    sig = sigma_cone(4)
    cut = intersect(sig.to_polyhedron(),
                    Polyhedron.from_halfspaces("Nt(4)", 4, [], [((1, 1, 1, 1), 1)]))
    expect = set()
    for i in range(4):
        expect.add(tuple(Fraction(1 if j == i else 0) for j in range(4)))
        expect.add(tuple(Fraction(1, 2) - (1 if j == i else 0) for j in range(4)))
    if set(cut.vertices) != expect:
        return False, f"{len(cut.vertices)} crosscut vertices"
    return True, "crosscut at height 1 is the expected 8-vertex cube"


def check_tail_fans(k, n):
    fan = tail_fan(k, n)
    if len(fan.maximal) != comb(n, k):
        return False, f"{len(fan.maximal)} cones, expected {comb(n, k)}"
    if any(not c.is_pointed for _, c in fan.maximal):
        return False, "non-pointed maximal cone"
    ok, findings = fan.subdivision().check()
    if not ok:
        return False, "; ".join(findings[:3])
    chart = tail_cone_chart(set(range(1, n)) - {k}, n)
    gens = set()
    rs = RootSystemA(n)
    for i in range(1, n + 1):
        e = rs.ell(i)
        gens.add(e if i <= k else tuple(-x for x in e))
    want = Cone.from_rays(rs.ambient, rs.dim, gens)
    if chart != want:
        return False, "chart cone differs from the sign-pattern cone"
    return True, f"{comb(n, k)} pointed cones, complete; chart cone matches"


# check_weyl covers the shuffles of Gr(k, n) for k <= 3 and n <= 7
_WEYL_KMAX, _WEYL_NMAX = 3, 7


def check_weyl():
    for n in range(2, _WEYL_NMAX + 1):
        for k in range(1, min(_WEYL_KMAX, n - 1) + 1):
            sh = shuffles(k, n)
            if len(sh) != comb(n, k):
                return False, f"#shuffles({k},{n}) = {len(sh)}"
            w = longest_coset_rep(k, n)
            if w not in sh:
                return False, f"longest rep not a shuffle at ({k},{n})"
            cyc = tuple(i % n + 1 for i in range(1, n + 1))
            wcyc = tuple(range(1, n + 1))
            for _ in range(n - k):
                wcyc = tuple(cyc[wcyc[i] - 1] for i in range(n))
            if w != wcyc:
                return False, f"cycle power formula fails at ({k},{n})"
            if inversion_set(w)[1] != k * (n - k):
                return False, f"length of longest rep at ({k},{n})"
    return True, f"counts, cycle formula and lengths for k<=({_WEYL_KMAX}), n<=({_WEYL_NMAX})"


def check_algebraic_identities(n):
    setup = gr_setup(n)
    if not check_retraction(setup.retraction, setup.emb):
        return False, "retraction does not split the embedding"
    # the recipe's fibers are x0 + emb(Y) only if emb spans ker pi
    if setup.emb.cols != setup.pi.cols - setup.pi.rank():
        return False, "embedding does not span the kernel of pi"
    for B in partitions(n):
        lhs = setup.emb.apply(tuple(
            (1 if i in B.part else 0) - (1 if i in B.complement else 0)
            for i in range(1, n + 1)))
        rhs = tuple(2 * (a - b) for a, b in
                    zip(pair_vector(n, B.part), pair_vector(n, B.complement)))
        if lhs != rhs:
            return False, f"indicator identity fails at {B.part}"
    sec = setup.ws.section
    prod = mat_mul(setup.pi.entries, sec.entries)
    if prod != identity_matrix(setup.pi.rows):
        return False, "section does not split pi"
    # retraction applied to the part indicator matches the closed-form endpoint
    for B in partitions(n):
        got = setup.retraction.apply(pair_vector(n, B.part))
        head = Fraction(B.b - 1, n - 2)
        trace = Fraction((B.b - 1) * B.b, 2 * (n - 2) * (n - 1))
        want = tuple(head * (1 if i in B.part else 0) - trace for i in range(1, n + 1))
        if got != want:
            return False, f"retracted indicator fails at {B.part}"
    return True, "retraction splits, indicator identities, section splits pi"


def check_local_chart(n):
    rep = local_chart_report(n)
    return rep.passed, ("squares commute, visibility matches"
                        if rep.passed else "; ".join(rep.findings[:3]))


def run_battery(n):
    """All checks applicable at this n, as (name, passed, detail) triples.

    Raises ValueError for n < 4 or n > MAX_N, before any check runs: the battery
    is about Gr(2,n) for 4 <= n <= MAX_N, and outside that its checks pass vacuously or fail.
    The closed form is built once, when the first check that needs it runs;
    if building it raises, every such check fails with that exception.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if n > MAX_N:
        raise ValueError(f"n={n} beyond the guard ({MAX_N})")
    built = []  # (closed form, None) or (None, the exception building it raised)

    def closed():
        # both checks below share one closed form; a failed build fails both
        if not built:
            try:
                built.append((fansy_closed_form(n), None))
            except Exception as exc:
                built.append((None, exc))
        form, exc = built[0]
        if exc is not None:
            raise exc
        return form

    checks = [
        (f"two-route agreement n={n}", lambda: check_two_routes(n, closed())),
        (f"edge endpoints n={n}", lambda: check_edge_endpoints(n, closed())),
        (f"positive fibers n={n}", lambda: check_positive_fibers(n)),
        (f"algebraic identities n={n}", lambda: check_algebraic_identities(n)),
        ("weyl identities", lambda: check_weyl()),
        (f"tail fan (2,{n})", lambda: check_tail_fans(2, n)),
    ]
    if n == 4:
        checks.append(("cube crosscut", check_cube))
    checks.append((f"induced subdivisions n={n}", lambda: check_induced_subdivisions(n)))
    checks.append((f"local chart n={n}", lambda: check_local_chart(n)))
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a failed hard assertion is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results

"""The benchmark's workloads: inputs made from a seed, the run, and an output check.

Each workload is one cold, checked computation.  The checks use facts the
benchmark knows on its own (counts, names, digests recorded here, and an
independent oracle for the line configuration); they never rely on a verdict
the program computes about itself, except where a workload's own purpose is
that verdict (the verification battery, `projectivize`'s axiom check).

The module imports `ppfan` inside the functions, so that `run.py` can load
it without the program; the child imports the whole package during set-up.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import comb, gcd

WORKLOADS = ("gr5_verify", "gr6_routes", "line6_fan")

# problem size per workload: (full, tiny); tiny is the self-test size
SIZES = {
    "gr5_verify": (5, 4),
    "gr6_routes": (6, 4),
    "line6_fan": (6, 5),
}

# criterion names of `verify.run_battery(n)`, in battery order
BATTERY = {
    4: ("two-route agreement n=4", "edge endpoints n=4", "positive fibers n=4",
        "algebraic identities n=4", "weyl identities", "tail fan (2,4)",
        "cube crosscut", "induced subdivisions n=4", "local chart n=4"),
    5: ("two-route agreement n=5", "edge endpoints n=5", "positive fibers n=5",
        "algebraic identities n=5", "weyl identities", "tail fan (2,5)",
        "induced subdivisions n=5", "local chart n=5"),
}

# sha256 of the canonical JSON (sorted keys, no spaces) of the Gr(2,n) fansy
# divisor; both routes serialise to it byte for byte
ROUTE_DIGESTS = {
    4: "1f19456c9c51abffb4cfb3cf1ca2c65c7f11c0c8188c36d06aa11ba5a9ab0072",
    6: "e9aeb8d3f95cf62fbcfcbeddcfdbf333ba368ee3ce88dd7f87e662a03a594e5b",
}


def make_inputs(workload, seed, tiny=False):
    """The inputs the program sees.  The same seed gives the same inputs.

    The Gr(2,n) workloads have one input each, n, so the seed does not
    change them.  For the line configuration the seed picks an affine frame
    of the points: a shift and an orientation.  It does not pick the column
    order, because today's quotient fan depends on the column order (its
    size, and so the run time, varies about twofold between orders), which
    would make the run time depend on the seed.  A frame change keeps the
    rational row space of the weights, so every frame gives the same
    projection and the same quotient fan; only the dual coordinates of the
    coefficients change.
    """
    n = SIZES[workload][1 if tiny else 0]
    if workload != "line6_fan":
        return {"n": n}
    rng = random.Random(seed)
    shift = rng.randint(-3, 3)
    sign = rng.choice((1, -1))
    points = tuple(shift + sign * i for i in range(n))
    return {"n": n, "points": points}


def run(workload, inputs):
    """Run the workload on its inputs; returns what `check` inspects."""
    n = inputs["n"]
    if workload == "gr5_verify":
        from ppfan.verify import run_battery

        return run_battery(n)
    if workload == "gr6_routes":
        from ppfan.divisors import fansy_equal
        from ppfan.grassmann import fansy_closed_form, fansy_via_recipe

        closed = fansy_closed_form(n)
        recipe = fansy_via_recipe(n, verify=False)
        equal, _ = fansy_equal(closed, recipe)
        return closed, recipe, equal
    if workload == "line6_fan":
        from ppfan.chow import build_setup, pp_from_weights, projectivize
        from ppfan.lattice import LatticeMap

        deg = LatticeMap(((1,) * n, inputs["points"]), "E", "M")
        setup = build_setup(deg)
        recipe = pp_from_weights(setup)
        fansy = projectivize(setup, recipe)  # raises if its axiom check fails
        return setup, recipe, fansy
    raise ValueError(f"unknown workload {workload!r}")


def check(workload, inputs, output):
    """Problems found in the output, as strings; empty when it is correct."""
    n = inputs["n"]
    if workload == "gr5_verify":
        got = [(name, passed) for name, passed, _ in output]
        want = [(name, True) for name in BATTERY[n]]
        return [] if got == want else [f"battery gave {got}, expected {want}"]
    if workload == "gr6_routes":
        return _check_routes(n, *output)
    if workload == "line6_fan":
        return _check_line(inputs, *output)
    raise ValueError(f"unknown workload {workload!r}")


def digest(obj):
    text = json.dumps(obj.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _check_routes(n, closed, recipe, equal):
    problems = []
    if equal is not True:
        problems.append("fansy_equal is not true")
    want_labels = 2 ** (n - 1) - n - 1
    want_cells = comb(n, 2)
    for route, fansy in (("closed", closed), ("recipe", recipe)):
        if len(fansy.labels) != want_labels:
            problems.append(f"{route}: {len(fansy.labels)} labels, expected {want_labels}")
        if len(fansy.cells) != want_cells:
            problems.append(f"{route}: {len(fansy.cells)} cells, expected {want_cells}")
        for label in fansy.labels:
            cells = {p for _, p in fansy.subdivision_for(label).cells if not p.empty}
            if len(cells) != want_cells:
                problems.append(f"{route}: {len(cells)} maximal cells at {label}, "
                                f"expected {want_cells}")
                break
        got = digest(fansy)
        if got != ROUTE_DIGESTS[n]:
            problems.append(f"{route}: digest {got} differs from the recorded one")
    return problems


def _check_line(inputs, setup, recipe, fansy):
    """Invariants that also hold for the true chamber fan of the configuration.

    For points a_0..a_{l-1} on a line, the chamber fan of the Gale dual is
    the normal fan of an (l-2)-cube.  Its 2(l-2) rays are, for each interior
    point j, the images under pi of the height vectors e_j (j unused) and
    max(0, a_i - a_j) (j used), taken modulo affine functions.  Every one of
    them must be a ray of the returned fan, whatever fan refines it.
    """
    points = inputs["points"]
    n = len(points)
    problems = []
    keys = [k for k, _ in fansy.cells]
    if keys != list(range(n)):
        problems.append(f"cells {keys}, expected one per coordinate 0..{n - 1}")
    pi = setup.pi.entries
    weights = ((1,) * n, points)
    if any(sum(r[i] * w[i] for i in range(n)) for r in pi for w in weights):
        problems.append("pi does not vanish on the weight rows")
    if _rank(pi) != n - 2 or len(pi) != n - 2:
        problems.append(f"pi has rank {_rank(pi)} with {len(pi)} rows, expected {n - 2}")
        return problems
    lo, hi = min(points), max(points)
    want = set()
    for j, aj in enumerate(points):
        if aj in (lo, hi):
            continue
        for h in ([int(i == j) for i in range(n)], [max(0, a - aj) for a in points]):
            want.add(_primitive([sum(r[i] * h[i] for i in range(n)) for r in pi]))
    if len(want) != 2 * (n - 2):
        problems.append(f"{len(want)} distinct cube-fan rays, expected {2 * (n - 2)}")
    got = {tuple(c) for _, c in recipe.rays}
    missing = sorted(want - got)
    if missing:
        problems.append(f"cube-fan rays missing from the fan: {missing}")
    return problems


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank

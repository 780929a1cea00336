"""The double description kernel and its canonical output."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ppfan
import ppfan.dd as dd


def test_backend_reports_something():
    assert ppfan.BACKEND == dd.BACKEND == "python"


def test_dd_cone_calls_the_kernel_through_the_module_global(monkeypatch):
    # a wrapper bound to `ppfan.dd.process` sees every kernel run, one per
    # `dd_cone` (and so one per `dd_pair`)
    calls = []
    kernel = dd.process

    def counting(dim, constraints):
        calls.append((dim, len(constraints)))
        return kernel(dim, constraints)

    monkeypatch.setattr(dd, "process", counting)
    assert dd.dd_cone(3, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]) == (((0, 1, 0), (1, 0, 0)), ())
    assert calls == [(3, 3)]
    dd.dd_pair(2, [(1, 0), (0, 1), (1, 1)], [])
    dd.dd_cone(0, [], [])
    assert calls == [(3, 3), (2, 3), (0, 0)]


def test_resumed_runs_go_through_the_module_global(monkeypatch):
    # the quotient-fan walk, the one caller that resumes the kernel, runs the
    # support from scratch and each chamber from one of its basis cones; the
    # same wrapper sees every run, with its start state
    from ppfan.lattice import LatticeMap
    from ppfan.polyhedra import common_refinement_fan

    # the Gale dual of four points on a line: four chambers
    pi = LatticeMap(((1, 0, -3, 2), (0, 1, -2, 1)), "E", "C")
    calls = []
    kernel = dd.process

    def counting(dim, constraints, start=None):
        calls.append((dim, len(constraints), start is not None))
        return kernel(dim, constraints, start)

    monkeypatch.setattr(dd, "process", counting)
    fan = common_refinement_fan(pi)
    assert len(fan.cones()) == 4
    assert calls == [(2, 4, False), (2, 1, True), (2, 2, True), (2, 0, True), (2, 1, True)]


def test_dd_handles_duplicates_and_zero_rows():
    rays1, lin1 = dd.dd_cone(2, [(1, 0), (1, 0), (0, 0)], [])
    rays2, lin2 = dd.dd_cone(2, [(1, 0)], [])
    assert (rays1, lin1) == (rays2, lin2)


def test_dd_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"\(1, 0, 7\)"):
        dd.dd_cone(2, [(1, 0, 7)], [])
    with pytest.raises(ValueError, match=r"\(1,\)"):
        dd.dd_cone(2, [(1, 0)], [(1,)])


def test_dd_order_independent():
    rng = random.Random(123)
    base = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, 1), (-1, 3, 1)]
    expect = dd.dd_cone(3, base, [])
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert dd.dd_cone(3, shuffled, []) == expect


# --- both descriptions from one run -----------------------------------------
#
# The reference for the second description is the second DD run that
# `dd_pair` replaces: the polar cone of the computed rays and lineality.

HYP = settings(max_examples=400, deadline=None, derandomize=True, database=None,
               suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cone_systems(draw):
    """(dim, ineqs, eqs) with duplicate rows, zero rows and implicit equations."""
    d = draw(st.integers(0, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    ineqs = draw(st.lists(vec, max_size=6))
    for a in draw(st.lists(vec, max_size=2)):
        ineqs += [a, tuple(-x for x in a)]  # a.x = 0 is implicit
    if ineqs:
        ineqs += draw(st.lists(st.sampled_from(ineqs), max_size=2))
    if draw(st.booleans()):
        ineqs.append((0,) * d)
    ineqs = draw(st.permutations(ineqs))
    eqs = draw(st.lists(vec, max_size=2))
    return d, ineqs, eqs


@HYP
@given(cone_systems())
def test_dd_pair_matches_second_pass(system):
    d, ineqs, eqs = system
    rays, lin, facets, equations = dd.dd_pair(d, ineqs, eqs)
    assert (rays, lin) == dd.dd_cone(d, ineqs, eqs)
    assert (facets, equations) == dd.dd_cone(d, rays, lin)


@HYP
@given(cone_systems())
def test_dd_pair_on_generators_matches_two_runs(system):
    # generators with repeats, zero vectors and opposite pairs (lines)
    d, gens, lin = system
    facets, equations, rays, c_lin = dd.dd_pair(d, gens, lin)
    assert (facets, equations) == dd.dd_cone(d, gens, lin)
    assert (rays, c_lin) == dd.dd_cone(d, facets, equations)


@HYP
@given(cone_systems())
def test_dd_pair_reads_the_runs_tight_sets(system):
    # the incidence `dd_pair` reads off the run's tight sets is the one the
    # dot products give: each ray's tight set, bit k for the k-th nonzero
    # row, and the facets and equations of `from_incidence` on those masks
    d, ineqs, eqs = system
    rays, lin, facets, equations = dd.dd_pair(d, ineqs, eqs)
    masks = dd.tight_masks(ineqs, rays)
    want = dd.from_incidence(d, zip(map(tuple, ineqs), masks), (1 << len(rays)) - 1, eqs)
    assert (facets, equations) == want
    tight = []
    assert dd.dd_cone(d, ineqs, eqs, tight=tight) == (rays, lin)
    nonzero = [m for a, m in zip(ineqs, masks) if any(a)]
    assert tight == [sum(1 << k for k, m in enumerate(nonzero) if m >> i & 1)
                     for i in range(len(rays))]


@pytest.mark.parametrize("d, ineqs, eqs", [
    (0, [], []),
    (0, [()], [()]),
    (2, [], []),
    (2, [(1, 0), (-1, 0), (0, 1), (0, -1)], []),
    (3, [(1, 0, 0), (-1, 0, 0)], [(0, 1, 1)]),
    (3, [(1, 0, 0), (1, 0, 0), (0, 0, 0), (2, 0, 0)], []),
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)], []),
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)], [(1, -1, 0, 1)]),
], ids=["d0", "d0-zero-rows", "whole-space", "no-rays", "implicit-and-lineality",
        "duplicates-and-zero", "redundant-row", "equation"])
def test_dd_pair_edge_cases(d, ineqs, eqs):
    rays, lin, facets, equations = dd.dd_pair(d, ineqs, eqs)
    assert (rays, lin) == dd.dd_cone(d, ineqs, eqs)
    assert (facets, equations) == dd.dd_cone(d, rays, lin)



@HYP
@given(cone_systems(), st.data())
def test_process_resumes_where_it_stopped(system, data):
    # a run split after any prefix, the second part started from the first
    # part's state, ends in exactly the state of the whole run
    from ppfan._ddpure import process

    d, ineqs, eqs = system
    constraints = data.draw(st.permutations([(e, True) for e in eqs] + [(a, False) for a in ineqs]))
    k = data.draw(st.integers(0, len(constraints)))
    rays, lin, zsets = process(d, constraints[:k])
    nbit = sum(1 for a, is_eq in constraints[:k] if not is_eq and any(a))
    assert process(d, constraints[k:], (rays, zsets, lin, nbit)) == process(d, constraints)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), st.data())
def test_from_incidence_keeps_the_maximal_masks(g, data):
    # the facets are the rows whose masks are inclusion-maximal among those
    # not full, one per mask: the filter that visits masks by bit count agrees
    # with the quadratic definition on duplicate, nested, full and zero masks;
    # row i is the unit vector e_i, so a mask's row can be read off its facet
    full = (1 << g) - 1
    mask = st.integers(0, full)
    masks = data.draw(st.lists(mask, min_size=1, max_size=10))
    masks += [m & data.draw(mask) for m in masks] + masks[:2] + [0, full]
    masks = data.draw(st.permutations(masks))
    k = len(masks)
    rows = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    facets, equations = dd.from_incidence(k, zip(rows, masks), full, ())
    proper = {m for m in masks if m != full}
    want = {m for m in proper if not any(m != n and m & n == m for n in proper)}
    assert sorted(masks[f.index(1)] for f in facets) == sorted(want)
    assert equations == tuple(a for a, m in zip(rows, masks) if m == full)

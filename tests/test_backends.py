"""The compiled and pure constraint loops must be interchangeable bit for bit."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ppfan.dd as dd
from ppfan._ddpure import process as pure_process

try:
    from ppfan._ddcore import process as compiled_process
except ImportError:
    compiled_process = None

needs_compiled = pytest.mark.skipif(compiled_process is None,
                                    reason="compiled kernel not built")


def test_backend_reports_something():
    assert dd.BACKEND in ("python", "compiled")


@needs_compiled
def test_backends_agree_on_random_cones():
    rng = random.Random(99)
    for _ in range(300):
        d = rng.randint(0, 5)
        ineqs = [tuple(rng.randint(-4, 4) for _ in range(d))
                 for _ in range(rng.randint(0, 7))]
        eqs = [tuple(rng.randint(-3, 3) for _ in range(d))
               for _ in range(rng.randint(0, 2))]
        assert dd.dd_cone(d, ineqs, eqs, process=pure_process) == \
            dd.dd_cone(d, ineqs, eqs, process=compiled_process)


@needs_compiled
def test_backends_agree_past_word_width():
    # tight-set bitmasks outgrow C integers; sweep well past 64 constraints
    import math

    def halfplane(t):
        return (int(100 * math.cos(t)), int(100 * math.sin(t)), 141)

    for count in (34, 65, 100):
        cons = [halfplane(2 * math.pi * i / count) for i in range(count)]
        assert dd.dd_cone(3, cons, [], process=pure_process) == \
            dd.dd_cone(3, cons, [], process=compiled_process)


@needs_compiled
def test_backends_agree_on_long_random_runs():
    rng = random.Random(101)
    for _ in range(80):
        d = rng.randint(2, 4)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(d))
                 for _ in range(rng.randint(30, 70))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(d))
               for _ in range(rng.randint(0, 1))]
        assert dd.dd_cone(d, ineqs, eqs, process=pure_process) == \
            dd.dd_cone(d, ineqs, eqs, process=compiled_process)


@needs_compiled
def test_backends_agree_on_fiber_style_systems():
    rng = random.Random(100)
    for _ in range(60):
        d = rng.randint(3, 6)
        unit = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(d))
               for _ in range(rng.randint(1, 2))]
        assert dd.dd_cone(d, unit, eqs, process=pure_process) == \
            dd.dd_cone(d, unit, eqs, process=compiled_process)


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


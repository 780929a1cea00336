"""Canonical output of the double description method.

`process` (in `ppfan._ddpure`) is the double description constraint loop
(Fukuda & Prodon, *Double description method revisited*): it intersects the
whole space with one row at a time and returns raw rays and lineality.
`dd_cone` calls it through this module's global `process`, so a test or a
tracer can rebind that one name to see every run, and turns its output into
the canonical description.  `dd_pair` gives both canonical descriptions from
one run: the second is read off the incidence between the computed rays and
the input rows.
"""

from ._ddpure import process
from ._vecops import dot, is_zero, primitive, reduce_mod_rows_int, rref_primitive

BACKEND = "python"  # the only kernel, reported as `ppfan.BACKEND`


def dd_cone(dim, ineqs, eqs):
    """Extreme rays and lineality of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    All input vectors must be integer tuples of length `dim` (ValueError
    naming the first one that is not that long).  Returns
    (rays, lineality): rays are primitive, reduced modulo the lineality
    space and sorted; the lineality basis is the canonical saturated RREF.
    The result is independent of input order and duplicates.
    """
    constraints = [(tuple(e), True) for e in eqs] + [(tuple(a), False) for a in ineqs]
    for v, _ in constraints:
        if len(v) != dim:
            raise ValueError(f"vector {v!r} has length {len(v)}, expected {dim}")
    vecs, lin_rows = process(dim, constraints)
    lin = rref_primitive(lin_rows, dim)
    rays = set()
    if lin:
        for v in vecs:
            r = reduce_mod_rows_int(v, lin)
            if not is_zero(r):
                rays.add(r)
    else:
        # the loop already keeps rays primitive; nothing to reduce
        rays.update(v for v in vecs if not is_zero(v))
    return tuple(sorted(rays)), lin


def dd_pair(dim, ineqs, eqs):
    """Both canonical descriptions of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    Returns (rays, lineality, facets, equations).  The first two are
    `dd_cone(dim, ineqs, eqs)`; the last two equal `dd_cone(dim, rays,
    lineality)`, the canonical description of the polar cone, but come from
    the incidence of the rays with the input rows instead of a second run
    (Fukuda & Prodon, *Double description method revisited*).  A row tight on
    every ray is an implicit equation, and the equations span the input
    equations and the implicit ones.  The facets are the other rows whose
    sets of tight rays are inclusion-maximal, reduced modulo the equations;
    rows with the same set give the same facet.

    By duality, generators give the other direction: `dd_pair(dim, rays,
    lineality)` returns (facets, equations, extreme rays, lineality).
    """
    rays, lin = dd_cone(dim, ineqs, eqs)
    full = (1 << len(rays)) - 1
    masks = {}  # nonzero row -> bitmask of the rays it is tight on
    for a in map(tuple, ineqs):
        if a not in masks and not is_zero(a):
            masks[a] = sum(1 << i for i, r in enumerate(rays) if dot(a, r) == 0)
    equations = rref_primitive(list(eqs) + [a for a, m in masks.items() if m == full], dim)
    proper = {m for m in masks.values() if m != full}
    maximal = {m for m in proper if not any(m != n and m & n == m for n in proper)}
    # rows with the same maximal mask define the same facet: reduce one of them
    facet_rows = {m: a for a, m in masks.items() if m in maximal}
    facets = [reduce_mod_rows_int(a, equations) if equations else primitive(a)
              for a in facet_rows.values()]
    return rays, lin, tuple(sorted(facets)), equations

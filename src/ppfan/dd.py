"""Canonical output of the double description method.

`process` (in `ppfan._ddpure`) is the double description constraint loop
(Fukuda & Prodon, *Double description method revisited*): it intersects the
whole space, or a cone whose minimal system it is given, with one row at a
time and returns raw rays, lineality and tight sets.  `dd_cone` calls it
through this module's global `process`, so a test or a tracer can rebind
that one name to see every run, and turns its output into the canonical
description.  Only the chambers of `polyhedra.common_refinement_fan`
resume it, each from one of its simplicial basis cones, through the same
global; a Gr(2,n) segment coefficient (`Polyhedron._plus_hull`) does not
call it at all.
`dd_pair` gives both canonical descriptions from one run: the second is
read off the run's tight sets, the incidence between the computed rays and
the input rows, by `from_incidence`.  The same routine gives faces and tail
cones of a polyhedron that is already canonical, from the incidence of its
own generators with its own rows, with no run at all.
"""

from ._ddpure import process
from ._vecops import dot, is_zero, reduce_mod_rows, rref_primitive

BACKEND = "python"  # the only kernel, reported as `ppfan.BACKEND`


def dd_cone(dim, ineqs, eqs, tight=None):
    """Extreme rays and lineality of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    All input vectors must be integer tuples of length `dim` (ValueError
    naming the first one that is not that long).  Returns
    (rays, lineality): rays are primitive, reduced modulo the lineality
    space and sorted; the lineality basis is the canonical primitive RREF.
    The result is independent of input order and duplicates.  A list passed
    as `tight` gets each ray's tight set from the run, bit k for the k-th
    nonzero row of `ineqs` (reduction modulo the lineality keeps it).
    """
    constraints = [(tuple(e), True) for e in eqs] + [(tuple(a), False) for a in ineqs]
    for v, _ in constraints:
        if len(v) != dim:
            raise ValueError(f"vector {v!r} has length {len(v)}, expected {dim}")
    vecs, lin_rows, zsets = process(dim, constraints)
    lin = rref_primitive(lin_rows, dim)
    if lin:
        vecs = [reduce_mod_rows(v, lin) for v in vecs]
    # the loop already keeps rays primitive; a ray in the lineality reduces to zero
    rays = {v: z for v, z in zip(vecs, zsets) if not is_zero(v)}
    order = sorted(rays)
    if tight is not None:
        tight.extend(map(rays.__getitem__, order))
    return tuple(order), lin


def tight_masks(rows, gens):
    """For each row, the bitmask of the generators (by index) it is tight on."""
    return [sum(1 << i for i, g in enumerate(gens) if dot(a, g) == 0) for a in rows]


def from_incidence(dim, incidence, full, eqs):
    """Canonical (facets, equations) of a cone from its generators' incidence with rows.

    `incidence` pairs candidate rows with the bitmask of the cone's extreme
    generators each is tight on, `full` is the mask of all of them, and `eqs`
    spans equations the cone satisfies.  Every row must be valid on the cone,
    and every facet of the cone must be cut out by one of the rows.  A row
    tight on every generator is an implicit equation; the equations span
    `eqs` and the implicit ones, as the canonical primitive RREF.  The facets
    are the other rows whose masks are inclusion-maximal, reduced modulo the
    equations; rows with the same mask give the same facet.  Lineality is not
    in the masks: the faces of a cone that contain its lineality space are
    told apart by the extreme rays they hold.

    This reads off a face F of a cone P without double description: every
    facet of F is F ∩ H for a facet H of P (for a polyhedron in homogeneous
    coordinates, H may also be x0 >= 0), and F's extreme generators are P's
    generators on F, so P's facet rows masked to F's generators, with P's
    equations, give F's canonical description exactly as a run on F would.
    """
    masks = {}
    for a, m in incidence:
        if not is_zero(a):
            masks.setdefault(tuple(a), m)
    equations = rref_primitive(list(eqs) + [a for a, m in masks.items() if m == full], dim)
    # a mask is only contained in masks with more bits, visited before it, and
    # each of those lies in a maximal one kept already: O(masks * facets)
    maximal = []
    for m in sorted({m for m in masks.values() if m != full}, key=int.bit_count, reverse=True):
        if not any(m & n == m for n in maximal):
            maximal.append(m)
    # rows with the same maximal mask define the same facet: reduce one of them
    facet_rows = {m: a for a, m in masks.items() if m in maximal}
    facets = [reduce_mod_rows(a, equations) for a in facet_rows.values()]
    return tuple(sorted(facets)), equations


def dd_pair(dim, ineqs, eqs):
    """Both canonical descriptions of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    Returns (rays, lineality, facets, equations).  The first two are
    `dd_cone(dim, ineqs, eqs)`; the last two equal `dd_cone(dim, rays,
    lineality)`, the canonical description of the polar cone, but come from
    the incidence of the rays with the input rows (`from_incidence`) instead
    of a second run (Fukuda & Prodon, *Double description method revisited*):
    the run's own tight sets, transposed.

    By duality, generators give the other direction: `dd_pair(dim, rays,
    lineality)` returns (facets, equations, extreme rays, lineality).
    """
    tight = []
    rays, lin = dd_cone(dim, ineqs, eqs, tight=tight)
    rows = [a for a in map(tuple, ineqs) if any(a)]
    masks = [sum(1 << i for i, z in enumerate(tight) if z >> b & 1) for b in range(len(rows))]
    facets, equations = from_incidence(dim, zip(rows, masks), (1 << len(rays)) - 1, eqs)
    return rays, lin, facets, equations

"""Double description constraint loop, in pure Python.

`process` incrementally intersects a cone with halfspaces/hyperplanes,
maintaining a minimal generating system (lineality basis + extreme rays) and
per-ray bitsets of tight inequalities for the combinatorial adjacency test.
It starts from the whole space, or resumes from a minimal system that the
caller already holds (the quotient-fan walk's simplicial basis cone).
All arithmetic is arbitrary-precision integer; output is raw (canonicalised
by the caller).
"""

from functools import cache

from ._vecops import dot, primitive


@cache
def _identity(dim):  # the lineality basis a run from scratch starts with
    return tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))


def process(dim, constraints, start=None):
    """Run the incremental double description loop.

    constraints: sequence of (vector, is_equality) with integer vectors a,
    each meaning a.x >= 0 (inequality) or a.x == 0 (equality).
    `start` is None (begin with the whole space) or, for a chamber of
    `polyhedra.common_refinement_fan`, a minimal system (rays, zsets,
    lineality, nbit) of the cone cut out by `nbit` inequalities processed
    before: its extreme rays modulo the lineality, a basis of the
    lineality space, and for each ray the bitmask of those inequalities it
    is tight on.  The loop then adds bit `nbit` onwards, one per inequality.
    Returns (ray_vectors, lineality_rows, zsets): int tuples, not yet
    canonicalised, and the final bitmasks, aligned with the rays.
    """
    if start is None:
        lin = list(_identity(dim))
        vecs = []   # extreme rays
        zsets = []  # bitmask per ray: tight inequalities among those processed
        nbit = 0
    else:
        vecs, zsets, lin, nbit = start
        vecs, zsets, lin = list(vecs), list(zsets), list(lin)

    for a, is_eq in constraints:
        if not any(a):
            continue
        lvals = [dot(a, l) for l in lin]
        p = next((i for i, v in enumerate(lvals) if v != 0), None)
        if p is not None:
            l0 = lin.pop(p)
            v0 = lvals.pop(p)
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            lin = [
                l if lv == 0 else primitive(tuple(v0 * x - lv * y for x, y in zip(l, l0)))
                for l, lv in zip(lin, lvals)
            ]
            new_vecs = []
            for r in vecs:
                rv = dot(a, r)
                if rv == 0:
                    new_vecs.append(r)
                else:
                    new_vecs.append(primitive(tuple(v0 * x - rv * y for x, y in zip(r, l0))))
            vecs = new_vecs
            if is_eq:
                continue
            # all surviving rays are tight on this inequality; l0 is not
            bit = 1 << nbit
            zsets = [z | bit for z in zsets]
            vecs.append(primitive(l0))
            zsets.append((1 << nbit) - 1)
            nbit += 1
            continue

        vals = [dot(a, r) for r in vecs]
        pos, zero, negi = [], [], []
        for i, v in enumerate(vals):
            (pos if v > 0 else negi if v else zero).append(i)
        if not is_eq and not negi:
            bit = 1 << nbit
            zsets = [z | bit if v == 0 else z for z, v in zip(zsets, vals)]
            nbit += 1
            continue
        if is_eq and not pos and not negi:
            continue

        nrays = len(vecs)
        combo_v = []
        combo_z = []
        for i in pos:
            zi = zsets[i]
            vi = vals[i]
            ri = vecs[i]
            for j in negi:
                m = zi & zsets[j]
                adjacent = True
                for k in range(nrays):
                    if k != i and k != j and zsets[k] & m == m:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vj = vals[j]
                rj = vecs[j]
                w = primitive([vi * x - vj * y for x, y in zip(rj, ri)])
                combo_v.append(w)
                combo_z.append(m)

        if is_eq:
            new_vecs = [vecs[i] for i in zero] + combo_v
            new_zsets = [zsets[i] for i in zero] + combo_z
        else:
            bit = 1 << nbit
            new_vecs = [vecs[i] for i in pos]
            new_zsets = [zsets[i] for i in pos]
            new_vecs += [vecs[i] for i in zero]
            new_zsets += [zsets[i] | bit for i in zero]
            new_vecs += combo_v
            new_zsets += [z | bit for z in combo_z]
            nbit += 1
        vecs = new_vecs
        zsets = new_zsets

    return vecs, lin, zsets

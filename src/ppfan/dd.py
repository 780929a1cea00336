"""Backend selection and canonical output for the double description kernel.

The hot constraint-processing loop exists twice: a Cython extension
(`ppfan._ddcore`) and a pure Python twin (`ppfan._ddpure`) with identical
semantics.  The compiled one is picked when importable; set
``PPFAN_BACKEND=python`` or ``PPFAN_BACKEND=compiled`` to force a choice.
"""

import os

from ._vecops import is_zero, reduce_mod_rows_int, rref_primitive

_choice = os.environ.get("PPFAN_BACKEND", "auto").lower()

if _choice in ("auto", "", "compiled"):
    try:
        from ._ddcore import process as _process
        BACKEND = "compiled"
    except ImportError:
        if _choice == "compiled":
            raise
        from ._ddpure import process as _process
        BACKEND = "python"
elif _choice == "python":
    from ._ddpure import process as _process
    BACKEND = "python"
else:
    raise RuntimeError(f"unknown PPFAN_BACKEND value: {_choice!r}")


def dd_cone(dim, ineqs, eqs, process=None):
    """Extreme rays and lineality of {x : a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    All input vectors must be integer tuples of length `dim` (ValueError
    naming the first one that is not that long).  Returns
    (rays, lineality): rays are primitive, reduced modulo the lineality
    space and sorted; the lineality basis is the canonical saturated RREF.
    The result is independent of input order and duplicates.
    """
    run = process if process is not None else _process
    constraints = [(tuple(e), True) for e in eqs] + [(tuple(a), False) for a in ineqs]
    for v, _ in constraints:
        if len(v) != dim:
            raise ValueError(f"vector {v!r} has length {len(v)}, expected {dim}")
    vecs, lin_rows = run(dim, constraints)
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

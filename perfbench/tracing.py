"""Spans and counts around the program's layers, recorded from outside the program.

`Tracer.install` wraps each function named in LAYERS and rebinds every name
that refers to it: the defining module, the `from ... import` copies in other
modules (`dd_cone` in `polyhedra`, `intersect` and `scale_to_int` in several
modules, `ppfan.dd._process` for the kernel) and the class attributes of the
static constructors and methods.  Each call becomes a span (id, parent id,
layer, start, end) kept in memory; `metrics` turns them into calls, total and
self time per layer, and `write` stores them when the run has ended.
"""

import importlib
import itertools
import sys
import time

# the function's module (without `ppfan.`) and qualified name; the span and
# metric names drop a leading underscore, since a metric name starts with a
# letter
LAYERS = (
    "_ddpure.process",
    "dd.dd_cone",
    "_vecops.rref_primitive",
    "_vecops.reduce_mod_rows",
    "_vecops.scale_to_int",
    "lattice.hnf_rows",
    "polyhedra.Polyhedron.from_halfspaces",
    "polyhedra.Polyhedron.from_generators",
    "polyhedra.Polyhedron.is_face_of",
    "polyhedra.Cone.from_ineqs",
    "polyhedra.Cone.from_rays",
    "polyhedra.intersect",
    "polyhedra.linear_image",
    "polyhedra.Subdivision.check",
    "polyhedra.common_refinement_fan",
    "divisors.check_subdivision_structure",
    "divisors.fansy_equal",
    "chow.pp_from_weights",
    "chow.projectivize",
    "chow.boundary_face",
    "grassmann.fansy_closed_form",
    "grassmann.fansy_via_recipe",
    "verify.check_two_routes",
    "verify.check_edge_endpoints",
    "verify.check_positive_fibers",
    "verify.check_algebraic_identities",
    "verify.check_weyl",
    "verify.check_tail_fans",
    "verify.check_cube",
    "verify.check_induced_subdivisions",
    "verify.check_local_chart",
)

def _resolve(name):
    """The function behind a layer name, unwrapped from `staticmethod`."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"ppfan.{module}")
    for i, attr in enumerate(path):
        obj = vars(obj)[attr] if i else getattr(obj, attr)
    return obj.__func__ if isinstance(obj, staticmethod) else obj


def _rebind(func, wrapper):
    """Point every module- and class-level binding of `func` at `wrapper`."""
    count = 0
    for modname, module in list(sys.modules.items()):
        if modname != "ppfan" and not modname.startswith("ppfan."):
            continue
        for attr, val in list(vars(module).items()):
            if val is func:
                setattr(module, attr, wrapper)
                count += 1
            elif isinstance(val, type) and val.__module__.startswith("ppfan."):
                for key, member in list(vars(val).items()):
                    if isinstance(member, staticmethod) and member.__func__ is func:
                        setattr(val, key, staticmethod(wrapper))
                        count += 1
                    elif member is func:
                        setattr(val, key, wrapper)
                        count += 1
    return count


class Tracer:
    """In-memory spans of one run, plus the counts taken at layer boundaries."""

    def __init__(self):
        self.names = []
        self.spans = []     # (span id, parent span id or -1, name index, start, end)
        self._stack = []
        self._ids = itertools.count()
        self._kernel = []   # (constraints in, rays out) per kernel call
        self._dd = []       # (dim, ineqs, eqs, (rays, lineality)) per dd_cone call
        self._fans = []     # Fan per common_refinement_fan call

    def install(self):
        hooks = {
            "ddpure.process":
                lambda args, res: self._kernel.append((len(args[1]), len(res[0]))),
            "dd.dd_cone": lambda args, res: self._dd.append(args[:3] + (res,)),
            "polyhedra.common_refinement_fan": lambda args, res: self._fans.append(res),
        }
        for path in LAYERS:
            func = _resolve(path)
            name = path.lstrip("_")
            if not _rebind(func, self.wrap(name, func, hooks.get(name))):
                raise RuntimeError(f"no binding of {path} found to wrap")

    def wrap(self, name, func, hook=None):
        """`func` recording a span per call; `hook(args, result)` runs after it."""
        index = len(self.names)
        self.names.append(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def metrics(self):
        """Per-layer metrics: calls, total_s and self_s for every layer, and counts.

        Self time is a span's duration minus the durations of its child spans.
        """
        n = len(self.names)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        covered = {}
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        for sid, _, index, start, end in self.spans:
            calls[index] += 1
            total[index] += end - start
            own[index] += end - start - covered.get(sid, 0.0)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_s"] = total[i]
            out[f"{name}.self_s"] = own[i]

        out["ddpure.process.constraints"] = sum(k for k, _ in self._kernel)
        out["ddpure.process.rays_out_max"] = max((r for _, r in self._kernel), default=0)
        keys = {(dim, tuple(sorted(map(tuple, ineqs))), tuple(sorted(map(tuple, eqs))))
                for dim, ineqs, eqs, _ in self._dd}
        out["dd.dd_cone.distinct"] = len(keys)
        out["dd.dd_cone.repeat_frac"] = 1 - len(keys) / len(self._dd) if self._dd else 0.0
        out["dd.dd_cone.max_bits"] = max(
            (abs(x).bit_length() for *_, (rays, lin) in self._dd
             for vec in rays + lin for x in vec), default=0)
        out["polyhedra.common_refinement_fan.cones"] = sum(len(f.maximal) for f in self._fans)
        out["polyhedra.common_refinement_fan.rays"] = sum(len(f.rays()) for f in self._fans)
        from ppfan.chow import positive_fiber

        info = positive_fiber.cache_info()
        lookups = info.hits + info.misses
        out["chow.positive_fiber.hit_frac"] = info.hits / lookups if lookups else 0.0
        return out

    def write(self, path):
        """Store the spans as tab-separated lines: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, index, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{self.names[index]}\t{start!r}\t{end!r}\n")

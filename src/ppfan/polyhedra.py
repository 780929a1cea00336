"""Exact rational polyhedra, cones, fans and subdivisions.

Every object carries both a generator description (vertices, rays, lineality)
and an inequality description (halfspaces, equations), kept in a canonical
form: rays are primitive, reduced modulo the lineality space and sorted,
the lineality basis is the saturated RREF, halfspace rows are primitive
integer vectors.  Equality of polyhedra is plain structural equality of the
canonical data, which is what the golden tests rely on.

The empty polyhedron is a value, not an error; operations that genuinely
need a point (minimisation, Minkowski sums) raise on it.

`common_refinement_fan` gives the quotient fan of a projection: the
coarsest common refinement of the images of the orthant faces, on its
support, found by walking from chamber to chamber.

Each conversion between the two descriptions is one run of the double
description kernel (``ppfan.dd.dd_pair``); the description that run does not
compute is read off the incidence between the rays it finds and the input
rows.  Polyhedra are homogenised with one extra trailing coordinate.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from ._vecops import dot, frac_str, is_zero, neg, primitive, scale_to_int, sign_canonical
from .dd import dd_pair
from .lattice import hnf_rows, matrix_rank, rational_left_inverse


class LatticeMismatch(ValueError):
    pass


def _check_same_ambient(a, b):
    if a.ambient != b.ambient:
        raise LatticeMismatch(f"ambient lattices differ: {a.ambient!r} vs {b.ambient!r}")


def _check_lengths(dim, vectors, what):
    """Raise ValueError naming the first vector whose length is not dim."""
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"{what} {tuple(v)!r} has length {len(v)}, expected {dim}")


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with canonical dual description."""

    ambient: str
    dim_ambient: int
    rays: tuple
    lineality: tuple
    ineqs: tuple   # a.x >= 0
    eqs: tuple     # a.x == 0

    @staticmethod
    def from_rays(ambient, dim_ambient, rays, lineality=()):
        _check_lengths(dim_ambient, rays, "ray")
        _check_lengths(dim_ambient, lineality, "lineality vector")
        rays = [scale_to_int(tuple(r)) for r in rays]
        lineality = [scale_to_int(tuple(l)) for l in lineality]
        # on generators dd_pair gives the facets and span equations first
        ineqs, eqs, c_rays, c_lin = dd_pair(dim_ambient, rays, lineality)
        return Cone(ambient, dim_ambient, c_rays, c_lin, ineqs, eqs)

    @staticmethod
    def from_ineqs(ambient, dim_ambient, ineqs, eqs=()):
        _check_lengths(dim_ambient, ineqs, "inequality")
        _check_lengths(dim_ambient, eqs, "equation")
        ineqs = [scale_to_int(tuple(a)) for a in ineqs]
        eqs = [scale_to_int(tuple(e)) for e in eqs]
        rays, lin, c_ineqs, c_eqs = dd_pair(dim_ambient, ineqs, eqs)
        return Cone(ambient, dim_ambient, rays, lin, c_ineqs, c_eqs)

    @property
    def dim(self):
        return self.dim_ambient - len(self.eqs)

    @property
    def is_pointed(self):
        return not self.lineality

    @property
    def is_full(self):
        return not self.eqs

    def contains(self, v):
        if len(v) != self.dim_ambient:
            raise ValueError(f"point {tuple(v)!r} has length {len(v)}, expected {self.dim_ambient}")
        return all(dot(a, v) >= 0 for a in self.ineqs) and all(dot(e, v) == 0 for e in self.eqs)

    def contains_cone(self, other):
        gens = list(other.rays) + list(other.lineality) + [neg(l) for l in other.lineality]
        return all(self.contains(g) for g in gens)

    def intersect(self, other):
        _check_same_ambient(self, other)
        return Cone.from_ineqs(
            self.ambient, self.dim_ambient,
            self.ineqs + other.ineqs, self.eqs + other.eqs,
        )

    def dual(self):
        """The cone of linear forms nonnegative on self."""
        return Cone(f"{self.ambient}*", self.dim_ambient,
                    self.ineqs, self.eqs, self.rays, self.lineality)

    def facets(self):
        out = []
        for a in self.ineqs:
            out.append(Cone.from_ineqs(self.ambient, self.dim_ambient,
                                       self.ineqs, self.eqs + (a,)))
        return out

    def interior_dual_vector(self):
        """An integer form strictly positive on the cone away from its lineality."""
        if not self.ineqs:
            return tuple(0 for _ in range(self.dim_ambient))
        return tuple(sum(a[i] for a in self.ineqs) for i in range(self.dim_ambient))

    def relative_interior_point(self):
        return tuple(sum(r[i] for r in self.rays) for i in range(self.dim_ambient))

    def is_face_of(self, other):
        """True iff self is a face of other (the face-of relation, exact).

        The face of other cut out by its facet rows tight on self is spanned
        by other's rays on those rows and its lineality; it contains self, so
        it equals self iff self contains those generators.
        """
        if (self.ambient, self.dim_ambient) != (other.ambient, other.dim_ambient):
            return False
        if not other.contains_cone(self):
            return False
        tight = [a for a in other.ineqs
                 if all(dot(a, r) == 0 for r in self.rays)
                 and all(dot(a, l) == 0 for l in self.lineality)]
        gens = [r for r in other.rays if all(dot(a, r) == 0 for a in tight)]
        gens += list(other.lineality) + [neg(l) for l in other.lineality]
        return all(self.contains(g) for g in gens)

    def common_face_with(self, other):
        """True iff self ∩ other is a face of both."""
        meet = self.intersect(other)
        return meet.is_face_of(self) and meet.is_face_of(other)

    def to_polyhedron(self):
        return Polyhedron.from_generators(
            self.ambient, self.dim_ambient,
            vertices=[tuple(0 for _ in range(self.dim_ambient))],
            rays=self.rays, lineality=self.lineality,
        )

    def to_json(self):
        return {
            "ambient": self.ambient,
            "rays": [list(r) for r in self.rays],
            "lineality": [list(l) for l in self.lineality],
            "halfspaces": [list(a) for a in self.ineqs],
            "equations": [list(e) for e in self.eqs],
        }


# ---------------------------------------------------------------------------
# polyhedra


EMPTY_MARK = "empty"


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron with canonical dual description.

    `ineqs` rows are (a_1,...,a_d, b) meaning a.x >= b, scaled to primitive
    integers; `eqs` rows likewise with a.x == b, in HNF.  The empty
    polyhedron has `empty=True` and no other data.

    Containment and face tests read integer homogeneous forms of the same
    data (`_hom_gens`, `_hom_rows`), computed on first use and cached on the
    instance; they are not fields, so equality, hashing and JSON ignore them.
    """

    ambient: str
    dim_ambient: int
    empty: bool
    vertices: tuple = ()
    rays: tuple = ()
    lineality: tuple = ()
    ineqs: tuple = ()
    eqs: tuple = ()

    @staticmethod
    def empty_in(ambient, dim_ambient):
        return Polyhedron(ambient, dim_ambient, True)

    @staticmethod
    def from_halfspaces(ambient, dim_ambient, ineqs, eqs=()):
        """ineqs: (vector, offset) pairs with a.x >= b; eqs with a.x == b."""
        _check_lengths(dim_ambient, (a for a, _ in ineqs), "inequality normal")
        _check_lengths(dim_ambient, (a for a, _ in eqs), "equation normal")
        hom_ineqs = [_hom_row(a, b) for a, b in ineqs]
        hom_eqs = [_hom_row(a, b) for a, b in eqs]
        # x0 >= 0 keeps the homogenisation cone on the side of the polyhedron
        last = tuple(0 for _ in range(dim_ambient)) + (1,)
        rays, lin, facets, equations = dd_pair(dim_ambient + 1, hom_ineqs + [last], hom_eqs)
        return _poly_from_cone(ambient, dim_ambient, rays, lin, facets, equations)

    @staticmethod
    def from_generators(ambient, dim_ambient, vertices=(), rays=(), lineality=()):
        _check_lengths(dim_ambient, vertices, "vertex")
        _check_lengths(dim_ambient, rays, "ray")
        _check_lengths(dim_ambient, lineality, "lineality vector")
        if not vertices:
            return Polyhedron.empty_in(ambient, dim_ambient)
        gens = [scale_to_int(tuple(v) + (1,)) for v in vertices]
        gens += [scale_to_int(tuple(r)) + (0,) for r in rays]
        lin = [scale_to_int(tuple(l)) + (0,) for l in lineality]
        facets, equations, rays, lin = dd_pair(dim_ambient + 1, gens, lin)
        return _poly_from_cone(ambient, dim_ambient, rays, lin, facets, equations)

    @property
    def dim(self):
        if self.empty:
            return -1
        return self.dim_ambient - len(self.eqs)

    @property
    def is_pointed(self):
        return not self.lineality

    @cached_property
    def _hom_gens(self):
        """(vertices, rays, lineality) as integer rows.

        A vertex x becomes (N, D) with x = N/D and D > 0, a ray r becomes (r, 0).
        """
        return (tuple(scale_to_int(v + (1,)) for v in self.vertices),
                tuple(r + (0,) for r in self.rays),
                tuple(l + (0,) for l in self.lineality))

    @cached_property
    def _hom_rows(self):
        """(ineqs, eqs) as rows (a, -b): a.x >= b iff (a, -b).(N, D) >= 0."""
        return (tuple(a[:-1] + (-a[-1],) for a in self.ineqs),
                tuple(e[:-1] + (-e[-1],) for e in self.eqs))

    def tail_cone(self):
        if self.empty:
            raise ValueError("empty polyhedron has no tail cone")
        return Cone.from_rays(self.ambient, self.dim_ambient, self.rays, self.lineality)

    def contains(self, x):
        _check_lengths(self.dim_ambient, [x], "point")
        if self.empty:
            return False
        return _gens_in(self, (scale_to_int(tuple(x) + (1,)),), ())

    def translate(self, v):
        if self.empty:
            return self
        verts = [tuple(Fraction(a) + Fraction(b) for a, b in zip(vert, v)) for vert in self.vertices]
        return Polyhedron.from_generators(self.ambient, self.dim_ambient,
                                          verts, self.rays, self.lineality)

    def relative_interior_point(self):
        if self.empty:
            raise ValueError("empty polyhedron")
        k = len(self.vertices)
        pt = [Fraction(0)] * self.dim_ambient
        for v in self.vertices:
            for i, x in enumerate(v):
                pt[i] += Fraction(x, k)
        for r in self.rays:
            for i, x in enumerate(r):
                pt[i] += x
        return tuple(pt)

    def is_face_of(self, other):
        """True iff self is a (possibly empty, possibly improper) face of other.

        The face of other cut out by its rows tight on self is generated by
        other's vertices and rays on those rows plus its lineality; it
        contains self, so it equals self iff self contains those generators.
        """
        if self.empty:
            return True
        if other.empty or (self.ambient, self.dim_ambient) != (other.ambient, other.dim_ambient):
            return False
        if not _subset_of(self, other):
            return False
        tight = [h for h in other._hom_rows[0] if _tight_on(h, self)]
        verts, rays, lin = other._hom_gens
        on_face = [g for g in verts + rays if all(dot(h, g) == 0 for h in tight)]
        return _gens_in(self, on_face, lin)

    def common_face_with(self, other):
        meet = intersect(self, other)
        return meet.is_face_of(self) and meet.is_face_of(other)

    def to_json(self):
        if self.empty:
            return {"ambient": self.ambient, "empty": True}
        return {
            "ambient": self.ambient,
            "empty": False,
            "vertices": [[frac_str(x) for x in v] for v in self.vertices],
            "rays": [list(r) for r in self.rays],
            "lineality": [list(l) for l in self.lineality],
            "halfspaces": [{"normal": list(a[:-1]), "offset": a[-1]} for a in self.ineqs],
            "equations": [{"normal": list(e[:-1]), "offset": e[-1]} for e in self.eqs],
        }


def _hom_row(a, b):
    """(a, b) with a.x >= b (or == b) into a homogeneous integer row (a, -b)."""
    return scale_to_int(tuple(a) + (-Fraction(b),))


def _poly_from_cone(ambient, dim_ambient, rays, lin, facets, equations):
    """The polyhedron from both canonical descriptions of its homogenisation cone.

    Rays with x0 > 0 are the vertices, the others the tail rays; a facet or
    equation (a, c) means a.x + c*x0 >= 0 (or = 0), stored as a.x >= -c.  The
    face x0 = 0 is the recession cone, not a facet of the polyhedron.
    """
    verts = []
    tails = []
    for r in rays:
        if r[-1] > 0:
            verts.append(tuple(Fraction(x, r[-1]) for x in r[:-1]))
        else:
            tails.append(r[:-1])
    if not verts:
        return Polyhedron.empty_in(ambient, dim_ambient)
    ineqs = tuple(sorted(r[:-1] + (-r[-1],) for r in facets if not is_zero(r[:-1])))
    eqs = tuple(r[:-1] + (-r[-1],) for r in equations if not is_zero(r[:-1]))
    return Polyhedron(
        ambient, dim_ambient, False,
        vertices=tuple(sorted(verts)),
        rays=tuple(sorted(tails)),
        lineality=tuple(l[:-1] for l in lin),
        ineqs=ineqs,
        eqs=hnf_rows(eqs, dim_ambient + 1) if eqs else (),
    )


def _gens_in(q, points, lines):
    """Homogeneous points and rays, and both signs of lines, lie in q's homogenised cone.

    For rays and lines this is the recession cone of a nonempty q, since
    the recession cone of {a.x >= b} is {a.x >= 0}.
    """
    ineqs, eqs = q._hom_rows
    return (all(dot(h, g) >= 0 for g in points for h in ineqs)
            and all(dot(e, g) == 0 for g in points for e in eqs)
            and all(dot(h, g) == 0 for g in lines for h in ineqs + eqs))


def _cone_leq(p, q):
    """tail(p) together with lineality contained in tail(q)+lineality(q); q nonempty."""
    _, rays, lin = p._hom_gens
    return _gens_in(q, rays, lin)


def _tight_on(hom_row, poly):
    """The homogeneous row (a, -b) holds with equality on all of poly."""
    verts, rays, lin = poly._hom_gens
    return all(dot(hom_row, g) == 0 for g in verts + rays + lin)


def _face_from_tight(poly, tight_rows):
    ineqs = [(r[:-1], r[-1]) for r in poly.ineqs]
    eqs = [(r[:-1], r[-1]) for r in poly.eqs] + [(r[:-1], r[-1]) for r in tight_rows]
    return Polyhedron.from_halfspaces(poly.ambient, poly.dim_ambient, ineqs, eqs)


# ---------------------------------------------------------------------------
# elementary operations


def dual_description(ambient, dim_ambient, vertices=None, rays=None, lineality=None,
                     ineqs=None, eqs=None):
    """Build a polyhedron from either description; both come out canonical."""
    from_v = vertices is not None or rays is not None or lineality is not None
    from_h = ineqs is not None or eqs is not None
    if from_v == from_h:
        raise ValueError("give exactly one of the two descriptions")
    if from_v:
        return Polyhedron.from_generators(ambient, dim_ambient,
                                          vertices or (), rays or (), lineality or ())
    return Polyhedron.from_halfspaces(ambient, dim_ambient, ineqs or (), eqs or ())


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    _check_same_ambient(p, q)
    if p.empty or q.empty:
        raise ValueError("Minkowski sum needs nonempty summands")
    verts = [tuple(Fraction(a) + Fraction(b) for a, b in zip(v, w))
             for v in p.vertices for w in q.vertices]
    return Polyhedron.from_generators(p.ambient, p.dim_ambient, verts,
                                      p.rays + q.rays, p.lineality + q.lineality)


def min_value(p: Polyhedron, u):
    """Exact min of <x, u> over p, or None when unbounded below."""
    if p.empty:
        raise ValueError("empty polyhedron")
    if any(dot(l, u) != 0 for l in p.lineality):
        return None
    if any(dot(r, u) < 0 for r in p.rays):
        return None
    return min(dot(v, u) for v in p.vertices)


def face_minimizing(p: Polyhedron, u):
    """The face of p minimising the form u, or None when unbounded below."""
    m = min_value(p, u)
    if m is None:
        return None
    verts = [v for v in p.vertices if dot(v, u) == m]
    rays = [r for r in p.rays if dot(r, u) == 0]
    return Polyhedron.from_generators(p.ambient, p.dim_ambient, verts, rays, p.lineality)


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    _check_same_ambient(p, q)
    if p.empty or q.empty:
        return Polyhedron.empty_in(p.ambient, p.dim_ambient)
    return Polyhedron.from_halfspaces(
        p.ambient, p.dim_ambient,
        [(r[:-1], r[-1]) for r in p.ineqs + q.ineqs],
        [(r[:-1], r[-1]) for r in p.eqs + q.eqs],
    )


def linear_image(p: Polyhedron, entries, codomain, dim_codomain) -> Polyhedron:
    """Image of p under the (rational) matrix acting on column vectors.

    The arithmetic is on integers: with q the common denominator of the
    entries, a homogeneous vertex (N, D) of p maps to (q*entries) N / (q D),
    and rays and lines map to primitive multiples of their images.
    """
    if p.empty:
        return Polyhedron.empty_in(codomain, dim_codomain)
    q = lcm(*(x.denominator for row in entries for x in row))
    mat = [tuple(x.numerator * (q // x.denominator) for x in row) for row in entries]
    verts, rays, lin = p._hom_gens
    images = []
    for v in verts:
        qd = q * v[-1]
        images.append(tuple(Fraction(dot(row, v[:-1]), qd) for row in mat))
    rays = [primitive(tuple(dot(row, r[:-1]) for row in mat)) for r in rays]
    lin = [primitive(tuple(dot(row, l[:-1]) for row in mat)) for l in lin]
    return Polyhedron.from_generators(codomain, dim_codomain, images,
                                      [r for r in rays if not is_zero(r)],
                                      [l for l in lin if not is_zero(l)])


def map_image(p: Polyhedron, f) -> Polyhedron:
    """linear_image with domain/codomain tags taken from a LatticeMap/RationalMap."""
    if f.domain != p.ambient:
        raise LatticeMismatch(f"map domain {f.domain!r} does not match {p.ambient!r}")
    return linear_image(p, f.entries, f.codomain, f.rows)


def fiber_polyhedron(pi, c) -> Polyhedron:
    """pi^{-1}(c) ∩ nonnegative orthant in the domain of pi."""
    d = pi.cols
    unit = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    ineqs = [(u, 0) for u in unit]
    eqs = [(row, c[i]) for i, row in enumerate(pi.entries)]
    return Polyhedron.from_halfspaces(pi.domain, d, ineqs, eqs)


# ---------------------------------------------------------------------------
# fans and subdivisions


@dataclass(frozen=True)
class Fan:
    """Finite fan given by its maximal cones, labels kept in a fixed order."""

    ambient: str
    dim_ambient: int
    maximal: tuple  # of (label, Cone)

    def cones(self):
        return [c for _, c in self.maximal]

    def labels(self):
        return [l for l, _ in self.maximal]

    def rays(self):
        out = set()
        for _, c in self.maximal:
            out.update(c.rays)
        return tuple(sorted(out))

    def is_fan(self):
        cs = self.cones()
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if not cs[i].common_face_with(cs[j]):
                    return False
        return True

    def is_complete(self):
        """Pure full-dimensional and every facet shared by exactly two cones.

        For a genuine fan this characterises completeness.
        """
        cs = self.cones()
        if not cs:
            return False
        if self.dim_ambient == 0:
            return True
        for c in cs:
            if c.dim != self.dim_ambient:
                return False
        walls = {}
        for idx, c in enumerate(cs):
            for f in c.facets():
                key = (f.rays, f.lineality)
                walls.setdefault(key, []).append(idx)
        return all(len(set(v)) == 2 for v in walls.values())

    def cone_containing(self, x):
        hits = [l for l, c in self.maximal if c.contains(x)]
        return hits

    def to_json(self):
        return {
            "ambient": self.ambient,
            "maximal_cones": [
                {"label": _label_json(l), "generators": [list(r) for r in c.rays],
                 "lineality": [list(v) for v in c.lineality]}
                for l, c in self.maximal
            ],
        }


@dataclass(frozen=True)
class Subdivision:
    """Polyhedral subdivision: labelled maximal cells plus a declared support.

    support None means all of the ambient space.
    """

    ambient: str
    dim_ambient: int
    cells: tuple            # of (label, Polyhedron)
    support: object = None  # Polyhedron or None

    def polyhedra(self):
        return [p for _, p in self.cells]

    def maximal_cells(self):
        """Distinct cells that are not proper faces of another cell.

        Several labels may repeat one cell, and a cell may be a face of a
        bigger one (charts of degenerate weight configurations do both); the
        complex is generated by the survivors.
        """
        reps = []
        for _, p in self.cells:
            if not p.empty and p not in reps:
                reps.append(p)
        out = []
        for p in reps:
            if not any(q != p and p.is_face_of(q) for q in reps):
                out.append(p)
        return out

    def check(self):
        """Verify the subdivision axioms; returns (ok, findings)."""
        findings = []
        if all(p.empty for _, p in self.cells):
            findings.append("no nonempty cells")
            return False, findings
        dim = self.dim_ambient if self.support is None else self.support.dim
        cells = list(enumerate(self.maximal_cells()))
        for i, p in cells:
            if p.dim != dim:
                findings.append(f"maximal cell {i} has dimension {p.dim}, expected {dim}")
            if self.support is not None and not _subset_of(p, self.support):
                findings.append(f"maximal cell {i} leaves the declared support")
        for i, pi_ in cells:
            for j, pj in cells:
                if j <= i:
                    continue
                meet = intersect(pi_, pj)
                if not meet.empty and meet.dim == dim:
                    findings.append(
                        f"cells {i} and {j} overlap in interiors; witness {_frac_point(meet)}")
                    continue
                if not (meet.is_face_of(pi_) and meet.is_face_of(pj)):
                    findings.append(f"cells {i} and {j} do not meet in a common face")
        findings.extend(self._coverage_findings(cells, dim))
        return not findings, findings

    def _coverage_findings(self, cells, dim):
        # every facet of every maximal cell must either be a wall shared with
        # another cell or lie in the boundary of the declared support
        findings = []
        for i, p in cells:
            for row in p.ineqs:
                facet = _face_from_tight(p, [row])
                if facet.empty or facet.dim != dim - 1:
                    continue
                if any(q is not p and _subset_of(facet, q) for _, q in cells):
                    continue
                if self.support is not None and _facet_on_boundary(facet, self.support):
                    continue
                findings.append(f"facet of cell {i} is uncovered (normal {row[:-1]})")
        return findings

    def to_json(self):
        return {
            "ambient": self.ambient,
            "cells": [{"label": _label_json(l), "polyhedron": p.to_json()} for l, p in self.cells],
            "support": None if self.support is None else self.support.to_json(),
        }


def _subset_of(p, q):
    if p.empty:
        return True
    if q.empty:
        return False
    return _gens_in(q, p._hom_gens[0], ()) and _cone_leq(p, q)


def _facet_on_boundary(facet, support):
    return any(_tight_on(h, facet) for h in support._hom_rows[0])


def _frac_point(p):
    return [frac_str(x) for x in p.relative_interior_point()]


def _label_json(label):
    if hasattr(label, "to_json"):
        return label.to_json()
    if isinstance(label, tuple):
        return list(label)
    return label


# ---------------------------------------------------------------------------
# coarsest common refinement (chamber fan of the image cones)


class RefinementGuardExceeded(RuntimeError):
    pass


# a generic point near p is searched at distances 2^-j for j below this bound
_MAX_HALVINGS = 200


def common_refinement_fan(pi, max_chambers=10000) -> Fan:
    """Coarsest common refinement of the orthant-face images under pi, on its support.

    The support is pi(orthant), the cone over the columns of pi, which must
    have full row rank r.  The chamber of a point x of the support off every
    wall is the intersection of all face images containing x; by
    Caratheodory it is the intersection of the simplicial cones sigma_S over
    the bases S (sets of r independent columns) that contain x.  The chambers
    are found by a breadth-first walk from one generic point, stepping across
    every facet that is not on the boundary of the support (Keicher,
    *Computing the GIT-fan*).  Each step is checked: the chamber across is
    full-dimensional and meets the old one in exactly the crossed facet.

    Each maximal cone is labelled with the sorted tuple of the bases (column
    index tuples) whose cones contain it.  The walk raises
    RefinementGuardExceeded when it finds more than `max_chambers` chambers.
    """
    name = pi.codomain
    r = pi.rows
    cols = [pi.column(j) for j in range(pi.cols)]
    bases = []  # (S, facet rows of sigma_S): the rows of the inverse of its column matrix
    for S in combinations(range(pi.cols), r):
        mat = tuple(tuple(cols[j][i] for j in S) for i in range(r))
        if matrix_rank(mat) == r:
            bases.append((S, tuple(scale_to_int(a) for a in rational_left_inverse(mat))))
    if not bases:
        raise ValueError(f"pi has rank {pi.rank()} < {r} rows: no full-dimensional chambers")
    walls = {sign_canonical(a) for _, rows in bases for a in rows}
    support = Cone.from_rays(name, r, cols)
    cache = {}

    def label_of(x):
        return tuple(S for S, rows in bases if all(dot(a, x) > 0 for a in rows))

    def chamber(label):
        if label not in cache:
            rows = {a for S, rs in bases if S in label for a in rs}
            cache[label] = Cone.from_ineqs(name, r, sorted(rows))
        return cache[label]

    def generic_near(p, d):
        # p + eps*d + eps^2*(1, eps, eps^2, ...) at eps = 2^-j, scaled by
        # 2^(j(r+1)) to integers: off every wall for all but finitely many
        # eps, and on the d side of p for small eps
        for j in range(_MAX_HALVINGS):
            y = tuple((x << j * (r + 1)) + (dx << j * r) + (1 << j * (r - 1 - i))
                      for i, (x, dx) in enumerate(zip(p, d)))
            if all(dot(h, y) != 0 for h in walls):
                yield y

    def across(label, a):
        # the chamber on the other side of the facet of chamber `label` on a.x = 0
        c = cache[label]
        facet = Cone.from_ineqs(name, r, c.ineqs, (a,))
        for y in generic_near(facet.relative_interior_point(), neg(a)):
            if dot(a, y) < 0 and (nxt := label_of(y)):
                d = chamber(nxt)
                if d.dim == r and d.contains_cone(facet) and c.intersect(d) == facet:
                    return nxt
        raise AssertionError(f"no chamber across the facet with rays {facet.rays}")

    start = tuple(sum(cols[j][i] for j in bases[0][0]) for i in range(r))
    first = next(filter(None, map(label_of, generic_near(start, (0,) * r))))
    if chamber(first).dim != r:
        raise AssertionError(f"starting chamber has dimension {chamber(first).dim} < {r}")
    found = {first: None}  # insertion-ordered set
    queue = deque(found)
    crossed = set()  # (chamber label, facet row) pairs already walked
    while queue:
        label = queue.popleft()
        for a in cache[label].ineqs:
            # a facet row of the support marks a facet on the support's boundary
            if (label, a) in crossed or a in support.ineqs:
                continue
            nxt = across(label, a)
            crossed.add((nxt, neg(a)))
            if nxt not in found:
                if len(found) >= max_chambers:
                    raise RefinementGuardExceeded(
                        f"more than {max_chambers} chambers (override max_chambers to force)")
                found[nxt] = None
                queue.append(nxt)
    labelled = sorted(((l, cache[l]) for l in found), key=lambda t: (t[1].rays, t[1].lineality))
    return Fan(name, r, tuple(labelled))


# ---------------------------------------------------------------------------
# regular subdivisions from heights


def induced_subdivision(ambient, points, heights) -> Subdivision:
    """Regular subdivision of conv(points) from the lower faces of the lift.

    Heights may be any rationals indexed like the points.  Cells are labelled
    by the sorted tuples of point indices they contain.
    """
    if len(points) != len(heights):
        raise ValueError("heights must be indexed by points")
    d = len(points[0])
    lifted = [tuple(p) + (Fraction(h),) for p, h in zip(points, heights)]
    up = tuple(0 for _ in range(d)) + (1,)
    lift = Polyhedron.from_generators(f"{ambient}^", d + 1, lifted, rays=[up])
    support = Polyhedron.from_generators(ambient, d, points)
    cells = []
    for row in lift.ineqs:
        a, b = row[:-1], row[-1]
        if a[-1] <= 0:
            continue  # only lower facets induce cells
        members = tuple(i for i, q in enumerate(lifted) if dot(a, q) == b)
        cell_pts = [points[i] for i in members]
        cells.append((members, Polyhedron.from_generators(ambient, d, cell_pts)))
    cells.sort(key=lambda t: t[0])
    return Subdivision(ambient, d, tuple(cells), support)

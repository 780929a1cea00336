"""Exact rational polyhedra, cones, fans and subdivisions.

Every object carries both a generator description (vertices, rays, lineality)
and an inequality description (halfspaces, equations), kept in a canonical
form: rays are primitive, reduced modulo the lineality space and sorted,
the lineality basis is the primitive RREF, halfspace rows are primitive
integer vectors.  Equality of polyhedra is plain structural equality of the
canonical data, which is what the golden tests rely on.

The empty polyhedron is a value, not an error; operations that genuinely
need a point (minimisation) raise on it.

`common_refinement_fan` gives the quotient fan of a projection: the
coarsest common refinement of the images of the orthant faces, on its
support, found by walking from chamber to chamber.

A conversion between the two descriptions is one run of the double
description kernel (``ppfan.dd.dd_pair``); the other description is read off
the run's own tight sets, the incidence of the rays it finds with the input
rows.  So are a regular subdivision's cells (`lift_facets`).  Faces
(`face_minimizing`) and tail cones (`Polyhedron.tail_cone`) are read the same
way (``ppfan.dd.from_incidence``) off the object's cached incidence, with no
run; translates and `Cone.to_polyhedron` carry the canonical data over.  A
pointed, full-dimensional cone plus a segment (`Polyhedron._plus_hull`, every
Gr(2,n) coefficient) is one signed pass over the cone's cached ridges, read
off its incidence, the polar cone's minimal system; a cone plus any other
hull is one run on the generators.  An image under a linear map
(`linear_image`) is one run on the images of the generators; a chamber of
the quotient fan, one run resumed from a simplicial cone, its facets read
off the run's tight sets.
Polyhedra are homogenised with one extra trailing coordinate, and store
each vertex x as its primitive integer row (N, D), x = N/D with D > 0
(`Polyhedron.points`); `Fraction`s appear only in `vertices` and JSON.

`Subdivision.check` first tries a facet-matching certificate (`_tiles`, which
has the proof), in time linear in the number of facets.  Only when it fails
are the axioms checked pair by pair, for the findings, which name each cell
by its label.  A fan is checked as the subdivision of the whole space that
its cones make (`Fan.subdivision`).  Every Gr(2,n) subdivision and tail fan
(n = 4 to 9) passes the certificate.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from ._vecops import (dot, frac_str, neg, primitive, ratio_str, reduce_mod_rows,
                      rref, scale_to_int, sign_canonical)
from . import dd
from .dd import dd_pair, from_incidence, tight_masks
from .lattice import homogenise, mat_vec


class LatticeMismatch(ValueError):
    pass


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

    def contains(self, v):
        if len(v) != self.dim_ambient:
            raise ValueError(f"point {tuple(v)!r} has length {len(v)}, expected {self.dim_ambient}")
        return all(dot(a, v) >= 0 for a in self.ineqs) and all(dot(e, v) == 0 for e in self.eqs)

    @cached_property
    def _incidence(self):
        """(row, bitmask of the rays it is tight on) for each facet row; not a field."""
        return tuple(zip(self.ineqs, tight_masks(self.ineqs, self.rays)))

    def interior_dual_vector(self):
        """An integer form strictly positive on the cone away from its lineality."""
        if not self.ineqs:
            return tuple(0 for _ in range(self.dim_ambient))
        return tuple(sum(a[i] for a in self.ineqs) for i in range(self.dim_ambient))

    def to_polyhedron(self):
        """The cone as a polyhedron with the one vertex 0, without double description.

        Its homogenisation is the cone times the x0 axis, so its rays and
        lineality are the cone's and its rows are the cone's rows with offset
        0: the canonical data carries over as it is.
        """
        return Polyhedron(self.ambient, self.dim_ambient, False,
                          points=((0,) * self.dim_ambient + (1,),),
                          rays=self.rays, lineality=self.lineality,
                          ineqs=tuple(a + (0,) for a in self.ineqs),
                          eqs=tuple(e + (0,) for e in self.eqs))

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


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron with canonical dual description.

    `points` are the vertices x as primitive integer rows (N, D), x = N/D
    with D > 0, reduced modulo the lineality and sorted as int tuples.
    `ineqs` rows are (a_1,...,a_d, b) meaning a.x >= b, scaled to primitive
    integers; `eqs` rows likewise with a.x == b, the primitive RREF rows of
    their span (so also their own HNF).  The empty polyhedron has
    `empty=True` and no other data.

    Containment and face tests read integer homogeneous forms of the same
    data (`_hom_gens`, `_hom_rows`) and faces read their incidence
    (`_incidence`); all three are computed on first use and cached on the
    instance.  They are not fields, so equality, hashing and JSON ignore them.
    """

    ambient: str
    dim_ambient: int
    empty: bool
    points: tuple = ()
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
        return _from_hom_generators(ambient, dim_ambient,
                                    [scale_to_int(tuple(v) + (1,)) for v in vertices],
                                    [scale_to_int(tuple(r)) for r in rays],
                                    [scale_to_int(tuple(l)) for l in lineality])

    @property
    def dim(self):
        if self.empty:
            return -1
        return self.dim_ambient - len(self.eqs)

    @property
    def vertices(self):
        """The vertices as tuples of Fractions, sorted by value; built on each read."""
        return tuple(tuple(Fraction(x, p[-1]) for x in p[:-1]) for p in _by_value(self.points))

    @cached_property
    def _hom_gens(self):
        """(points, rays, lineality) as integer rows: a ray r becomes (r, 0)."""
        return (self.points,
                tuple(r + (0,) for r in self.rays),
                tuple(l + (0,) for l in self.lineality))

    @cached_property
    def _hom_rows(self):
        """(ineqs, eqs) as rows (a, -b): a.x >= b iff (a, -b).(N, D) >= 0."""
        return (tuple(a[:-1] + (-a[-1],) for a in self.ineqs),
                tuple(e[:-1] + (-e[-1],) for e in self.eqs))

    @cached_property
    def _incidence(self):
        """(row, mask) for each homogeneous inequality row and for x0 >= 0.

        The mask has bit i set when the row is tight on the i-th of the
        vertices and rays of `_hom_gens`, vertices first.  These rows cut out
        every facet of the homogenisation cone.
        """
        verts, rays, _ = self._hom_gens
        rows = self._hom_rows[0] + ((0,) * self.dim_ambient + (1,),)
        return tuple(zip(rows, tight_masks(rows, verts + rays)))

    def _face(self, sel):
        """The face generated by the vertices and rays in the bitmask `sel` and the lineality.

        `sel` must select the generators of a nonempty face; the rest is read
        off the incidence by `dd.from_incidence`, without double description.
        """
        verts, rays, lin = self._hom_gens
        gens = [g for i, g in enumerate(verts + rays) if sel >> i & 1]
        facets, equations = from_incidence(self.dim_ambient + 1,
                                           ((a, m & sel) for a, m in self._incidence),
                                           sel, self._hom_rows[1])
        return _poly_from_cone(self.ambient, self.dim_ambient, gens, lin, facets, equations)

    def tail_cone(self):
        """The recession cone, the face x0 = 0 of the homogenisation, without double description.

        Its rays and lineality are this polyhedron's, and its facets are cut
        out by the a-parts of the rows a.x >= b, so the incidence of those
        a-parts with the rays gives its canonical rows.
        """
        if self.empty:
            raise ValueError("empty polyhedron has no tail cone")
        rows = [a[:-1] for a in self.ineqs]
        ineqs, eqs = from_incidence(self.dim_ambient, zip(rows, tight_masks(rows, self.rays)),
                                    (1 << len(self.rays)) - 1, [e[:-1] for e in self.eqs])
        return Cone(self.ambient, self.dim_ambient, self.rays, self.lineality, ineqs, eqs)

    def _plus_hull(self, hom_points):
        """self + conv(points), for a self whose one vertex is 0: a cone, or its face or image.

        The points are homogeneous integer rows (N, D), D > 0, in any positive
        multiple.  One point p gives the translate self + p.  Two points p, q
        on a pointed, full-dimensional self give conv(self ∪ {q - p}) + p, one
        signed pass (`_add_segment`) with the move by p made as rows are
        written.  Anything else is one run on the points and self's rays and
        lineality, which generate self + conv(points).
        """
        if self.points != ((0,) * self.dim_ambient + (1,),):
            raise ValueError("the hull is added only to a polyhedron whose one vertex is 0")
        hv, *rest = (self._reduced(p) for p in hom_points)
        if not rest:
            return self._moved(self.points, *self._hom_rows, hv)
        if len(rest) > 1 or self.eqs or self.lineality:
            return _from_hom_generators(self.ambient, self.dim_ambient, [hv, *rest],
                                        self.rays, self.lineality)
        (*a1, b1), (*a, b) = hv, rest[0]
        # q - p as the homogeneous point (b1 a - b a1, b b1)
        step = primitive([b1 * x - b * y for x, y in zip(a, a1)] + [b * b1])
        return self._moved(*_add_segment(self, step), (), hv)

    def _reduced(self, hv):
        """The homogeneous point hv, primitive and reduced modulo the lineality."""
        lin = self._hom_gens[2]
        return reduce_mod_rows(hv, lin) if lin else primitive(hv)

    @cached_property
    def _ridges(self):
        """(rows, pairs) of the polar of the homogenisation; not a field.

        The polar of the homogenisation cone C is generated by C's facet rows,
        with C's equations as its lineality, and C's generators (vertices and
        rays as inequalities) cut it out, so `_incidence` is a minimal system
        of the polar with the right tight sets: the rows `_hom_rows[0]`, plus
        x0 >= 0 when it is a facet of C, that is, when its mask is contained
        in no facet's (every face lies in a facet, and distinct faces have
        distinct masks).  Rows i < j meet in a ridge when no third row's mask
        contains the common part of theirs: the combinatorial adjacency test
        (Fukuda & Prodon, *Double description method revisited*), sound when
        self is full-dimensional.
        """
        *facets, (x0_row, x0_mask) = self._incidence
        rows, masks = [a for a, _ in facets], [m for _, m in facets]
        if all(x0_mask & m != x0_mask for m in masks):
            rows.append(x0_row)
            masks.append(x0_mask)
        pairs = []
        for i, j in combinations(range(len(rows)), 2):
            m = masks[i] & masks[j]
            if not any(k != i and k != j and z & m == m for k, z in enumerate(masks)):
                pairs.append((i, j))
        return tuple(rows), tuple(pairs)

    def _moved(self, points, ineqs, eqs, hv):
        """The polyhedron with self's rays and lineality and these points and homogeneous rows.

        All are moved by num/den, hv = (num, den) a `_reduced` point: a point
        (N, D) to (N*den + D*num, D*den), made primitive when den > 1 (for
        den = 1 adding D*num to N keeps the gcd 1), and a row by `_move_rows`.
        Points and facet rows are sorted once, here.
        """
        *num, den = hv
        fix = tuple if den == 1 else primitive
        points = [fix([den * x + p[-1] * y for x, y in zip(p, num)] + [den * p[-1]])
                  for p in points]
        return Polyhedron(self.ambient, self.dim_ambient, False, points=tuple(sorted(points)),
                          rays=self.rays, lineality=self.lineality,
                          ineqs=tuple(sorted(_move_rows(ineqs, num, den))),
                          eqs=tuple(_move_rows(eqs, num, den)))

    def contains(self, x):
        _check_lengths(self.dim_ambient, [x], "point")
        if self.empty:
            return False
        return _gens_in(self, (scale_to_int(tuple(x) + (1,)),), ())

    def translate(self, v):
        """self + v, from the canonical data without double description.

        Rays and lineality stay.  The shift is first reduced modulo the
        lineality (canonical vertices are), then added to every vertex; a
        row a.x >= b (or a.x == b) becomes a.x >= b + a.v, rescaled to
        primitive integers.  The shift keeps every a-part, so facet rows stay
        reduced modulo the equations, and the equations, which are the
        primitive RREF rows of their span (their own HNF), stay in RREF: each
        shifted row is again canonical.
        """
        _check_lengths(self.dim_ambient, [v], "translation vector")
        if self.empty:
            return self
        return self._translate_hom(scale_to_int(tuple(v) + (1,)))

    def _translate_hom(self, hv):
        """`translate` by the point with homogeneous integer coordinates hv (x0 > 0)."""
        return self._moved(self.points, *self._hom_rows, self._reduced(hv))

    def relative_interior_point(self):
        """The mean of the vertices plus the sum of the rays, as Fractions."""
        if self.empty:
            raise ValueError("empty polyhedron")
        # the mean of the N/D over the common denominator k * lcm(D)
        den = lcm(*(p[-1] for p in self.points))
        scale = [den // p[-1] for p in self.points]
        den *= len(self.points)
        return tuple(Fraction(sum(p[i] * s for p, s in zip(self.points, scale))
                              + den * sum(r[i] for r in self.rays), den)
                     for i in range(self.dim_ambient))

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

    def to_json(self):
        if self.empty:
            return {"ambient": self.ambient, "empty": True}
        return {
            "ambient": self.ambient,
            "empty": False,
            "vertices": [[ratio_str(x, p[-1]) for x in p[:-1]] for p in _by_value(self.points)],
            "rays": [list(r) for r in self.rays],
            "lineality": [list(l) for l in self.lineality],
            "halfspaces": [{"normal": list(a[:-1]), "offset": a[-1]} for a in self.ineqs],
            "equations": [{"normal": list(e[:-1]), "offset": e[-1]} for e in self.eqs],
        }


def _hom_row(a, b):
    """(a, b) with a.x >= b (or == b) into a homogeneous integer row (a, -b)."""
    return scale_to_int(tuple(a) + (-b if type(b) is int else -Fraction(b),))


def _by_value(points):
    """Homogeneous points (N, D), D > 0, in the lexicographic order of the N/D."""
    # over a common denominator L the values are the integers N * (L // D)
    den = lcm(*(p[-1] for p in points))
    return sorted(points, key=lambda p: tuple(x * (den // p[-1]) for x in p[:-1]))


def _from_hom_generators(ambient, dim_ambient, points, rays, lineality):
    """`from_generators` of primitive integer rows: points (N, D) with D > 0, rays, lineality."""
    if not points:
        return Polyhedron.empty_in(ambient, dim_ambient)
    gens = list(points) + [r + (0,) for r in rays]
    facets, equations, rays, lin = dd_pair(dim_ambient + 1, gens, [l + (0,) for l in lineality])
    return _poly_from_cone(ambient, dim_ambient, rays, lin, facets, equations)


def _poly_from_cone(ambient, dim_ambient, rays, lin, facets, equations):
    """The polyhedron from both canonical descriptions of its homogenisation cone.

    Rays with x0 > 0 are the `points` as they are, the others the tail rays;
    a facet or equation (a, c) means a.x + c*x0 >= 0 (or = 0), stored as
    a.x >= -c.  The face x0 = 0 is the recession cone, not a facet of the
    polyhedron.
    """
    verts = []
    tails = []
    for r in rays:
        if r[-1] > 0:
            verts.append(r)
        else:
            tails.append(r[:-1])
    if not verts:
        return Polyhedron.empty_in(ambient, dim_ambient)
    ineqs = tuple(sorted(r[:-1] + (-r[-1],) for r in facets if any(r[:-1])))
    eqs = tuple(r[:-1] + (-r[-1],) for r in equations if any(r[:-1]))
    return Polyhedron(
        ambient, dim_ambient, False,
        points=tuple(sorted(verts)),
        rays=tuple(sorted(tails)),
        lineality=tuple(l[:-1] for l in lin),
        ineqs=ineqs,
        eqs=eqs,
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


def _move_rows(rows, num, den):
    """Homogeneous rows (a, c), a.x + c >= 0 (or = 0), moved by num/den, as stored rows.

    a.(x - num/den) + c >= 0 is the stored row (den a, a.num - den c) over its
    gcd g = gcd(den gcd(a), a.num - den c); the a-part is a itself when g = den.
    The row x0 >= 0 (a = 0) is no row of a polyhedron and is dropped.
    """
    out = []
    for h in rows:
        a, c = h[:-1], h[-1]
        ga = gcd(*a)
        if ga:
            b = dot(a, num) - den * c
            g = gcd(den * ga, b)
            out.append(a + (b // g,) if g == den else tuple([den * x // g for x in a] + [b // g]))
    return out


def _add_segment(p, s):
    """Homogeneous vertices and rows of p + conv(0, s), in one signed pass over p's ridges.

    p has the one vertex 0, no equations and no lineality; s = (s', s0) is a
    primitive homogeneous point, s0 > 0.  This is one step of the double
    description loop on the polar, made without the kernel: the
    homogenisation C of p is full-dimensional, so its polar is pointed,
    generated by `_ridges`' rows, two of them adjacent exactly when they
    meet in a ridge of C.  Adding
    s >= 0 to the polar gives the polar of cone(C ∪ {s}), the homogenisation
    of conv(p ∪ {s}) = p + conv(0, s) (Fukuda & Prodon, *Double description
    method revisited*): its extreme rays are the rows h with h.s >= 0 and,
    for each ridge of rows h, h' with h.s > 0 > h'.s, (h.s) h' - (h'.s) h.
    That cone is full-dimensional, so these are its facets and there are no
    equations; its rays are p's (the face x0 = 0 does not change) and its
    vertices lie among 0 and s'.  p's facet rows are (a, 0), of value a.s'.
    If some is > 0, -s' is not in p, so a form > 0 on p minus 0 and on s' is
    least at 0 alone; if all are 0, s' = 0; if all are <= 0 and s' is not 0,
    -s' is in p and 0 is the midpoint of s' and -s'.  So 0 is a vertex iff
    some value is > 0 or all are 0, and likewise (at s', with -s') s' is a
    vertex iff some value is < 0.
    """
    rows, ridges = p._ridges
    vals = [dot(h, s) for h in rows]
    out = [h for h, v in zip(rows, vals) if v >= 0]
    for i, j in ridges:
        vi, vj = vals[i], vals[j]
        if vi * vj < 0:
            if vi < 0:
                vi, vj = -vi, -vj
            out.append(primitive([vi * x - vj * y for x, y in zip(rows[j], rows[i])]))
    cone = vals[:len(p.ineqs)]
    points = [p.points[0]] if any(v > 0 for v in cone) or not any(cone) else []
    if any(v < 0 for v in cone):
        points.append(s)
    return points, out


def _tight_on(hom_row, poly):
    """The homogeneous row (a, -b) holds with equality on all of poly."""
    verts, rays, lin = poly._hom_gens
    return all(dot(hom_row, g) == 0 for g in verts + rays + lin)


# ---------------------------------------------------------------------------
# elementary operations


def min_value(p: Polyhedron, u):
    """Exact min of <x, u> over p, or None when unbounded below."""
    _check_lengths(p.dim_ambient, [u], "form")
    if p.empty:
        raise ValueError("empty polyhedron")
    if any(dot(l, u) != 0 for l in p.lineality):
        return None
    if any(dot(r, u) < 0 for r in p.rays):
        return None
    return min(Fraction(dot(v[:-1], u), v[-1]) for v in p._hom_gens[0])


def face_minimizing(p: Polyhedron, u):
    """The face of p minimising the form u, or None when unbounded below.

    Read off p's incidence (`Polyhedron._face`), without double description.
    """
    m = min_value(p, u)
    if m is None:
        return None
    # (u, -m) is valid on the homogenisation and tight exactly on the face
    h = scale_to_int(tuple(u) + (-m,))
    verts, rays, _ = p._hom_gens
    return p._face(tight_masks([h], verts + rays)[0])


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.ambient != q.ambient:
        raise LatticeMismatch(f"ambient lattices differ: {p.ambient!r} vs {q.ambient!r}")
    if p.empty or q.empty:
        return Polyhedron.empty_in(p.ambient, p.dim_ambient)
    return Polyhedron.from_halfspaces(
        p.ambient, p.dim_ambient,
        [(r[:-1], r[-1]) for r in p.ineqs + q.ineqs],
        [(r[:-1], r[-1]) for r in p.eqs + q.eqs],
    )


def linear_image(p: Polyhedron, entries, codomain, dim_codomain, hom=None) -> Polyhedron:
    """Image of p under the (rational) matrix acting on column vectors.

    Every row of the matrix must have width p.dim_ambient.  The image is one
    double description run on the images of p's generators: each homogeneous
    vertex, ray and lineality vector goes through the map's integer rows on
    homogeneous coordinates, is made primitive, and the rays and lineality
    vectors the map sends to zero are dropped.  `hom` is those rows
    (`lattice.homogenise`) when the caller keeps them (`map_image` does); they
    are computed here otherwise.
    """
    for row in entries:
        if len(row) != p.dim_ambient:
            raise ValueError(f"matrix row {tuple(row)!r} has width {len(row)}, "
                             f"expected {p.dim_ambient}")
    if len(entries) != dim_codomain:
        raise ValueError(f"matrix has {len(entries)} rows, expected {dim_codomain}")
    if p.empty:
        return Polyhedron.empty_in(codomain, dim_codomain)
    if hom is None:
        hom = homogenise(entries, p.dim_ambient)
    verts, rays, lin = ([primitive(mat_vec(hom, g)) for g in gens] for gens in p._hom_gens)
    # rays and lineality keep x0 = 0 under the map; a zero image is no generator
    return _from_hom_generators(codomain, dim_codomain, verts,
                                [r[:-1] for r in rays if any(r)], [l[:-1] for l in lin if any(l)])


def map_image(p: Polyhedron, f) -> Polyhedron:
    """linear_image with domain/codomain tags taken from a LatticeMap/RationalMap.

    The map's integer rows on homogeneous coordinates are computed once and
    kept on the map (`RationalMap.homogenised`).
    """
    if f.domain != p.ambient:
        raise LatticeMismatch(f"map domain {f.domain!r} does not match {p.ambient!r}")
    if f.cols != p.dim_ambient:
        raise ValueError(f"map of width {f.cols}, expected {p.dim_ambient}")
    return linear_image(p, f.entries, f.codomain, f.rows, f.homogenised)


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

    def subdivision(self):
        """The subdivision of the whole space that the cones must make, each cone as a polyhedron.

        Cones form a complete fan exactly when they subdivide the space, and
        `Cone.to_polyhedron` runs no double description.
        """
        return Subdivision(self.ambient, self.dim_ambient,
                           tuple((label, c.to_polyhedron()) for label, c in self.maximal))

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

    def maximal_cells(self):
        """(label, cell) for the distinct cells that are not proper faces of another cell.

        Several labels may repeat one cell, and a cell may be a face of a
        bigger one (charts of degenerate weight configurations do both); the
        complex is generated by the survivors, each named by the first label
        that carries it.
        """
        first = {}
        for label, p in self.cells:
            first.setdefault(p, label)
        reps = [(label, p) for p, label in first.items() if not p.empty]
        # a proper face has a smaller dimension
        if len({p.dim for _, p in reps}) == 1:
            return reps
        return [(l, p) for l, p in reps
                if not any(q.dim > p.dim and p.is_face_of(q) for _, q in reps)]

    def check(self):
        """Verify the subdivision axioms; returns (ok, findings).

        The maximal cells are first tried by the facet-matching certificate
        `_tiles` (its docstring has the proof): when every facet is shared
        with exactly one cell on its other side or lies on the support's
        boundary, and one interior point is covered once, the cells
        subdivide the support and the answer is (True, []).  Otherwise the
        axioms are checked one by one, and the findings name what broke, each
        maximal cell by its label (`maximal_cells`): each pair of cells is
        intersected by double description, which also gives the witness of
        an overlap.  Facets are read off each cell's generators
        (`_coverage_findings`), without double description.
        """
        if all(p.empty for _, p in self.cells):
            return False, ["no nonempty cells"]
        dim = self.dim_ambient if self.support is None else self.support.dim
        maximal = self.maximal_cells()
        if _tiles([p for _, p in maximal], dim, self.support):
            return True, []
        findings = []
        for l, p in maximal:
            if p.dim != dim:
                findings.append(f"maximal cell {l!r} has dimension {p.dim}, expected {dim}")
            if self.support is not None and not _subset_of(p, self.support):
                findings.append(f"maximal cell {l!r} leaves the declared support")
        for (k, p), (l, q) in combinations(maximal, 2):
            meet = intersect(p, q)
            if not meet.empty and meet.dim == dim:
                witness = [frac_str(x) for x in meet.relative_interior_point()]
                findings.append(f"cells {k!r} and {l!r} overlap in interiors; witness {witness}")
                continue
            if not (meet.is_face_of(p) and meet.is_face_of(q)):
                findings.append(f"cells {k!r} and {l!r} do not meet in a common face")
        findings.extend(self._coverage_findings(maximal, dim))
        return not findings, findings

    def _coverage_findings(self, cells, dim):
        # every facet of every maximal cell must either be a wall shared with
        # another cell or lie in the boundary of the declared support.  The
        # rows of a cell are its facets, so only cells of dimension dim have
        # facets of dimension dim - 1; the facet on row h is generated by the
        # cell's vertices and rays on h = 0 and its lineality.
        findings = []
        boundary = () if self.support is None else self.support._hom_rows[0]
        for l, p in cells:
            if p.dim != dim:
                continue
            verts, rays, lin = p._hom_gens
            for row, h in zip(p.ineqs, p._hom_rows[0]):
                on = [g for g in verts + rays if dot(h, g) == 0]
                if any(q is not p and _gens_in(q, on, lin) for _, q in cells):
                    continue
                if any(all(dot(b, g) == 0 for g in on + list(lin)) for b in boundary):
                    continue
                findings.append(f"facet of cell {l!r} is uncovered (normal {row[:-1]})")
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


def _tiles(cells, dim, support=None):
    """True when the distinct `cells` provably subdivide `support`; False when undecided.

    The cells are Polyhedra, read in homogeneous coordinates (a fan's cones
    as `Cone.to_polyhedron`), and `support` (a Polyhedron) None means the
    whole ambient space.  The certificate reads only the rows and generators
    the cells hold:

    (a) every cell has dimension `dim` and the first cell's lineality, and
        lies in the support;
    (b) each facet is keyed by its row up to sign and the cell's generators
        on it; no key has two cells on one side of its row, and a key with
        one cell lies on a facet row of the support;
    (c) a relative interior point of the first cell lies in no other cell.

    Soundness.  By (a) the cells span the affine hull A of the support S.  A
    key fixes the facet (its generators plus the common lineality), so two
    cells on one key share that facet from opposite sides.

    Covering.  For x in the relative interior S° of S on no facet
    hyperplane, let c(x) count the cells containing x.  Two such points are
    joined by a path in S° that meets the hyperplanes one at a time, each at
    a point z on no other facet hyperplane (where two hyperplanes meet has
    codimension 2 and does not disconnect S°).  A cell holding z has it in its
    interior, and then covers both sides, or in the relative interior of its
    facet through z, and then covers one side.  By (b) these facets pair up,
    one cell on each side (a facet on a row of the support misses S°), so c
    does not change at z and is constant.  Near the point of (c) it is 1.
    So the cells have disjoint interiors and, being closed, cover S.

    Face to face.  At a point x of S the tangent cones at x of the cells
    through x satisfy the same hypotheses: they have disjoint interiors,
    cover the tangent cone of S, and their facets are the tangent cones of
    the cells' facets through x, paired or on the boundary as before.  A
    path through the interior of the tangent cone of S crossing one
    hyperplane at a time passes from cone to cone across a shared facet, and a facet of a cone has the
    cone's lineality, so all these cones have one lineality space V_x.  For
    a cell P through x, V_x is the span of F - x, where F is the face of P
    with x in its relative interior; as V_x lies in the tangent cone of every
    cell Q through x, Q contains a neighbourhood of x in F.  Now take cells
    P, Q, a point x in the relative interior of P ∩ Q, and F as above.  The
    set F ∩ Q contains a neighbourhood in F of each of its points in the
    relative interior of F (the argument at x applies there), and it is
    closed, so it contains all of F.  The smallest face of P holding a
    relative interior point of the convex set P ∩ Q contains it, so
    P ∩ Q ⊆ F ⊆ P ∩ Q: P ∩ Q is a face of P, and likewise of Q.
    """
    if not cells:
        return False
    lin = cells[0].lineality
    if any(c.dim != dim or c.lineality != lin for c in cells):
        return False
    if support is not None and not all(_subset_of(c, support) for c in cells):
        return False
    sides = {}  # key -> [cell with the canonical row, cell with its negation]
    for i, c in enumerate(cells):
        gens = c._hom_gens[0] + c._hom_gens[1]
        for h in c._hom_rows[0]:
            key = (sign_canonical(h), frozenset(g for g in gens if dot(h, g) == 0))
            side = sides.setdefault(key, [None, None])
            s = key[0] != h
            if side[s] is not None:
                return False
            side[s] = i
    # the lineality of a cell in the support lies on every row of the support
    boundary = () if support is None else support._hom_rows[0]
    for (_, on), side in sides.items():
        if None in side and not any(all(dot(b, g) == 0 for g in on) for b in boundary):
            return False
    x = cells[0].relative_interior_point()
    return not any(c.contains(x) for c in cells[1:])


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


def _perturbed_sign(h, p, d):
    """Sign of h.y(eps) for all small eps > 0, y(eps) = p + eps d + eps^2 (1, eps, ..., eps^(r-1)).

    h.y(eps) = h.p + (h.d) eps + h_0 eps^2 + ... + h_(r-1) eps^(r+1) has the
    sign of its first nonzero coefficient (Edelsbrunner & Mücke, *Simulation
    of Simplicity*); one exists unless h = 0, which is a ValueError.
    """
    c = dot(h, p) or dot(h, d) or next((x for x in h if x), 0)
    if not c:
        raise ValueError("the zero row has no sign")
    return 1 if c > 0 else -1


def common_refinement_fan(pi, max_chambers=10000) -> Fan:
    """Coarsest common refinement of the orthant-face images under pi, on its support.

    The support is pi(orthant), the cone over the columns of pi, which must
    have full row rank r.  The chamber of a point x of the support off every
    wall is the intersection of all face images containing x; by
    Caratheodory it is the intersection of the simplicial cones sigma_S over
    the bases S (sets of r independent columns) that contain x.  The rows of
    sigma_S are those of M_S^-1 (M_S the columns in S), made primitive: S is
    a basis iff one elimination of (M_S | I) has r pivots, and then its right
    half holds positive multiples of them.  Chambers are labelled with the
    sorted tuple of their bases, and found by a breadth-first walk across
    every facet not on the support's boundary (Keicher, *Computing the
    GIT-fan*): one double description run per chamber, one for the support.

    A chamber lies in sigma_S0 for the first basis S0 of its label, so its
    run resumes from sigma_S0's minimal system instead of the whole space
    (Fukuda & Prodon, *Double description method revisited*): sigma_S0 is
    pointed with the extreme rays col_j, j in S0, made primitive, and as
    row_i . col_(S0[k]) = c_i delta_ik with c_i > 0, the k-th ray is tight
    on every row of S0 but the k-th.  The run adds the other bases' rows,
    and its tight sets, transposed, give each row's mask of the sorted
    rays, from which `from_incidence` reads the facets.  A chamber is
    full-dimensional (its label's cones all hold y(eps) below in their
    interiors), so its facets are rows of the run and their masks are its
    `_incidence`.  The rays need no reduction: there is no lineality in a
    cone inside the pointed sigma_S0.

    The label at (p, d) is that of y(eps) = p + eps d + eps^2 (1, eps, ...,
    eps^(r-1)) for all small eps > 0, which is off every wall: the bases
    whose rows all have `_perturbed_sign` 1.  The walk starts at p the sum
    of the first basis' columns, interior to the support, and d = 0.  The
    step across the facet f = c ∩ {a = 0} of a chamber c ⊆ {a >= 0} takes p
    the sum of c's rays on f and d = -a, and the chamber c' of that label is
    the one across f:
    - p is in the relative interior of f, as the sum of f's extreme rays;
    - f, on no facet row of the support, is interior to it: a facet row b of
      the support vanishing at p is >= 0 on c, so vanishes on f, and b = a;
    - so y(eps) is in the support and in {a < 0} (a.y(eps) = -|a|^2 eps +
      O(eps^2)), and c' is full-dimensional and contains p;
    - in a fan one full-dimensional cell lies on the far side of a facet:
      c ∩ c' is a face of c holding p, and not c, so it is f; f is then a
      face of c' on a = 0, and c' has points in {a < 0}, so c' ⊆ {a <= 0}.
    Each step checks, cheaply, that c' is full-dimensional, contains f's
    rays and lineality and has none of its own in {a > 0}.  That is c ∩ c'
    = f: if c' ⊆ {a <= 0}, c ∩ c' ⊆ c ∩ {a = 0} = f ⊆ c ∩ c'.  ValueError
    if max_chambers < 1, and RefinementGuardExceeded once the walk finds
    more than that many chambers.
    """
    if max_chambers < 1:
        raise ValueError(f"max_chambers must be at least 1, got {max_chambers}")
    name, r = pi.codomain, pi.rows
    cols = [pi.column(j) for j in range(pi.cols)]
    eye = [tuple(int(i == k) for k in range(r)) for i in range(r)]
    walls = {}  # sign-canonical facet row -> its index among the wall signs
    bases = {}  # S -> (facet rows of sigma_S, their wall indices, their signs there)
    for S in combinations(range(pi.cols), r):
        work, pivots = rref([tuple(cols[j][i] for j in S) + eye[i] for i in range(r)], r)
        if len(pivots) == r:
            rows = tuple(primitive(w[r:]) for w in work)
            bases[S] = (rows, tuple(walls.setdefault(sign_canonical(a), len(walls)) for a in rows),
                        tuple(1 if sign_canonical(a) == a else -1 for a in rows))
    if not bases:
        raise ValueError(f"pi has rank {pi.rank()} < {r} rows: no full-dimensional chambers")
    support = Cone.from_rays(name, r, cols)
    cache = {}
    tight = [((1 << r) - 1) ^ (1 << k) for k in range(r)]  # ray k of sigma_S on row i iff i != k

    def chamber(label):
        if label not in cache:
            own = bases[label[0]][0]
            rows = list(own) + sorted({a for S in label[1:] for a in bases[S][0]} - set(own))
            sigma = ([primitive(cols[j]) for j in label[0]], tight, (), r)
            vecs, _, zsets = dd.process(r, [(a, False) for a in rows[r:]], start=sigma)
            gens = sorted(zip(vecs, zsets))
            masks = {a: sum(1 << i for i, (_, z) in enumerate(gens) if z >> b & 1)
                     for b, a in enumerate(rows)}
            ineqs, eqs = from_incidence(r, masks.items(), (1 << len(gens)) - 1, ())
            c = cache[label] = Cone(name, r, tuple(v for v, _ in gens), (), ineqs, eqs)
            c.__dict__["_incidence"] = tuple((a, masks[a]) for a in ineqs)  # read next by the walk
        return cache[label]

    def label_at(p, d):
        signs = [_perturbed_sign(h, p, d) for h in walls]
        return tuple(S for S, (_, idx, want) in bases.items()
                     if tuple(map(signs.__getitem__, idx)) == want)

    def across(label, a, mask):
        # the chamber on the other side of the facet of chamber `label` on a.x = 0,
        # whose rays are those in `mask`
        c = cache[label]
        on = [g for i, g in enumerate(c.rays) if mask >> i & 1]
        nxt = label_at(tuple(sum(g[i] for g in on) for i in range(r)), neg(a))
        far = chamber(nxt) if nxt else None
        facet = on + list(c.lineality) + [neg(l) for l in c.lineality]
        if (far is None or far.dim != r or not all(far.contains(g) for g in facet)
                or any(dot(a, g) > 0 for g in far.rays) or any(dot(a, l) for l in far.lineality)):
            raise AssertionError(f"no chamber across the wall {a} of chamber {label}")
        return nxt

    start = tuple(sum(cols[j][i] for j in next(iter(bases))) for i in range(r))
    first = label_at(start, (0,) * r)
    if not first or chamber(first).dim != r:
        raise AssertionError(f"no full-dimensional chamber at the interior point {start}")
    found = {first: None}  # insertion-ordered set
    queue = deque(found)
    crossed = set()  # (chamber label, facet row) pairs already walked
    while queue:
        label = queue.popleft()
        for a, mask in cache[label]._incidence:
            # a facet row of the support marks a facet on the support's boundary
            if (label, a) in crossed or a in support.ineqs:
                continue
            nxt = across(label, a, mask)
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


def lift_facets(points, heights):
    """(lifted, incidence, equations) of L = conv(points lifted by heights) + cone(up), one run.

    The run is on L's homogenisation, up = (0, ..., 0, 1): the points as
    primitive rows (p, h, 1), then (up, 0).  Each facet row (x0 >= 0 too,
    when it is one) comes with its tight set from the run, not from dot
    products (Fukuda & Prodon): bit i for the i-th point, bit len(points) for
    up.  The points on a lower facet (t-coefficient > 0) are a cell.
    """
    if not points:
        raise ValueError("no points to lift")
    if len(points) != len(heights):
        raise ValueError("heights must be indexed by points")
    d = len(points[0])
    _check_lengths(d, points, "point")
    lifted = [scale_to_int(tuple(p) + (h, 1)) for p, h in zip(points, heights)]
    tight = []
    rows, equations = dd.dd_cone(d + 2, lifted + [(0,) * d + (1, 0)], (), tight=tight)
    return lifted, list(zip(rows, tight)), equations


def induced_subdivision(ambient, points, heights) -> Subdivision:
    """Regular subdivision of conv(points) from the lower faces of the lift.

    Heights may be any rationals indexed like the points.  Cells are labelled
    by the sorted tuples of point indices they contain.  Everything is read
    off the tight sets of the one run in `lift_facets`.  L is pointed, so no
    point lies on every facet, and L's vertices are the points whose sets of
    facet rows are inclusion-maximal, read off by `from_incidence` as in
    `dd_pair`.  The faces of L through `up` project along t onto those of
    the support S, so L's vertical facets and equations (t-coefficient 0)
    with t dropped are S's canonical rows, and S's vertices the points whose
    sets of vertical facets are maximal.  The projection is injective on a
    lower facet f, so its cell is f's face (as in `_face`) projected: each
    row gets t eliminated against f by a positive multiple, which keeps it
    on f's hull, and then dropped; masked to the points on f, the rows give
    the cell's vertices, L's on f, the same way.
    """
    lifted, incidence, equations = lift_facets(points, heights)
    d = len(points[0])

    def drop(row):
        return row[:d] + row[d + 1:]

    def maximal(rows):  # the points whose sets of `rows` are inclusion-maximal, projected
        sets = [sum(1 << k for k, (_, m) in enumerate(rows) if m >> i & 1)
                for i in range(len(lifted))]
        gens, _ = from_incidence(d + 2, zip(lifted, sets), (1 << len(rows)) - 1, ())
        return {primitive(drop(p)) for p in gens}

    vertical = [(drop(h), m) for h, m in incidence if h[d] == 0]
    eqs = [drop(e) for e in equations]
    support = _poly_from_cone(ambient, d, maximal(vertical), (), [h for h, _ in vertical], eqs)
    cells = []
    for f, sel in incidence:
        if f[d] > 0:  # a lower facet; the rows are masked to the points on it
            rows = [(drop(tuple(f[d] * x - h[d] * y for x, y in zip(h, f))), m & sel)
                    for h, m in incidence]
            cells.append((tuple(i for i in range(len(lifted)) if sel >> i & 1),
                          _poly_from_cone(ambient, d, maximal(rows), (),
                                          *from_incidence(d + 1, rows, sel, eqs))))
    cells.sort(key=lambda t: t[0])
    return Subdivision(ambient, d, tuple(cells), support)

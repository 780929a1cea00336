"""Polyhedral divisors over abstract prime-divisor labels.

A divisor here is a formal sum of polyhedron coefficients (sharing one tail
cone, empty allowed) over labels; a family of such divisors with a common
label set whose coefficients tile the space per label is the "fansy" divisor
describing a non-affine torus variety.  The two checks at the bottom verify
the combinatorial axioms of that picture; the geometric conditions living on
the base variety itself (semiampleness of the locus divisors) are out of
reach of pure combinatorics and are reported as assumptions, not checked.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from ._vecops import dot, frac_str, neg, primitive
from .polyhedra import (
    Cone,
    Fan,
    Subdivision,
    face_minimizing,
    min_value,
)


@dataclass(frozen=True, order=True)
class Label:
    """Prime divisor label: a toric ray, a partition, or a bare name."""

    kind: str
    value: tuple

    @staticmethod
    def ray(vec, lattice=""):
        return Label("ray", (lattice, primitive(tuple(int(x) for x in vec))))

    @staticmethod
    def partition(part, n):
        part = tuple(sorted(part))
        if 1 not in part:
            raise ValueError("canonical partition part must contain 1")
        return Label("partition", (n, part))

    @staticmethod
    def named(name):
        return Label("named", (str(name),))

    def to_json(self):
        if self.kind == "ray":
            return {"ray": list(self.value[1]), "lattice": self.value[0]}
        if self.kind == "partition":
            return {"partition": list(self.value[1])}
        return {"name": self.value[0]}


@dataclass(frozen=True)
class PPDivisor:
    """Formal sum of polyhedron coefficients over distinct labels.

    All nonempty coefficients must share the stated tail cone, and at least
    one coefficient must be nonempty (otherwise the tail would be ambiguous).
    Terms are kept sorted by label.
    """

    ambient: str
    dim_ambient: int
    tail: Cone
    terms: tuple  # of (Label, Polyhedron)

    def __post_init__(self):
        terms = tuple(sorted(self.terms, key=lambda t: t[0]))
        object.__setattr__(self, "terms", terms)
        labels = [l for l, _ in terms]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate divisor labels")
        nonempty = [p for _, p in terms if not p.empty]
        if not nonempty:
            raise ValueError("need at least one nonempty coefficient")
        # a canonical cone is fixed by its rays and lineality
        tail = (self.tail.ambient, self.tail.dim_ambient, self.tail.rays, self.tail.lineality)
        for l, p in terms:
            if p.empty:
                continue
            if p.ambient != self.ambient:
                raise ValueError(f"coefficient at {l} lives in {p.ambient!r}, not {self.ambient!r}")
            if (p.ambient, p.dim_ambient, p.rays, p.lineality) != tail:
                raise ValueError(f"coefficient at {l} has a different tail cone")

    def labels(self):
        return tuple(l for l, _ in self.terms)

    def coefficient(self, label):
        for l, p in self.terms:
            if l == label:
                return p
        raise KeyError(label)

    def to_json(self):
        return {
            "ambient": self.ambient,
            "tail": self.tail.to_json(),
            "terms": [
                {"label": l.to_json(),
                 "polyhedron": "empty" if p.empty else p.to_json()}
                for l, p in self.terms
            ],
        }


@dataclass(frozen=True)
class FormalDivisor:
    """Rational formal sum over labels, the result of evaluating a PPDivisor."""

    terms: tuple              # of (Label, Fraction)
    omitted: tuple = ()       # labels skipped because their coefficient was empty

    def coefficient(self, label):
        for l, c in self.terms:
            if l == label:
                return c
        raise KeyError(label)

    def to_json(self):
        out = {"terms": [{"label": l.to_json(), "coefficient": frac_str(c)} for l, c in self.terms]}
        if self.omitted:
            out["omitted"] = [l.to_json() for l in self.omitted]
        return out


def evaluate(divisor: PPDivisor, u) -> FormalDivisor:
    """Σ min<coefficient, u> per label; u must be nonnegative on the tail cone."""
    tail = divisor.tail
    if any(dot(r, u) < 0 for r in tail.rays) or any(dot(l, u) != 0 for l in tail.lineality):
        raise ValueError("form is not in the dual of the tail cone")
    terms = []
    omitted = []
    for l, p in divisor.terms:
        if p.empty:
            omitted.append(l)
            continue
        m = min_value(p, u)
        assert m is not None  # guaranteed by the tail check
        terms.append((l, Fraction(m)))
    return FormalDivisor(tuple(terms), tuple(omitted))


@dataclass(frozen=True)
class FansyDivisor:
    """Indexed family of PPDivisors with one global label set."""

    ambient: str
    dim_ambient: int
    labels: tuple   # of Label
    cells: tuple    # of (cell_key, PPDivisor)

    def __post_init__(self):
        labels = tuple(sorted(self.labels))
        object.__setattr__(self, "labels", labels)
        for key, d in self.cells:
            if d.labels() != labels:
                raise ValueError(f"cell {key!r} does not carry the global label set")
            if d.ambient != self.ambient:
                raise ValueError(f"cell {key!r} lives in {d.ambient!r}")

    def subdivision_for(self, label) -> Subdivision:
        # every cell carries the sorted global labels, so the label's term is at one position
        try:
            i = self.labels.index(label)
        except ValueError:
            raise KeyError(label) from None
        cells = tuple((k, d.terms[i][1]) for k, d in self.cells)
        return Subdivision(self.ambient, self.dim_ambient, cells)

    def to_json(self):
        return {
            "ambient": self.ambient,
            "labels": [l.to_json() for l in self.labels],
            "cells": [{"cell": _key_json(k), "divisor": d.to_json()} for k, d in self.cells],
        }


def _key_json(key):
    if isinstance(key, tuple):
        return list(key)
    return key


@dataclass(frozen=True)
class Report:
    passed: bool
    findings: tuple

    def to_json(self):
        return {"pass": self.passed, "findings": list(self.findings)}


def check_subdivision_structure(fansy: FansyDivisor) -> Report:
    """Subdivision axioms per label, plus the tails forming a fan.

    The tails are checked as the subdivision of the whole space their cones
    make (`Fan.subdivision`).  This is the fan condition: when every label
    passes, that label's nonempty coefficients cover the space, so their
    recession cones, the tails, cover it too; and cones that cover the space
    form a fan exactly when they subdivide it.  Where a label fails, the
    report fails whatever the tails do.  A label's findings start with its
    JSON, as the CLI prints it.
    """
    findings = []
    for label in fansy.labels:
        ok, cell_findings = fansy.subdivision_for(label).check()
        if not ok:
            findings.extend(f"label {json.dumps(label.to_json())}: {f}" for f in cell_findings)
    fan = Fan(fansy.ambient, fansy.dim_ambient, tuple((k, d.tail) for k, d in fansy.cells))
    findings.extend("tail cones: " + f for f in fan.subdivision().check()[1])
    return Report(not findings, tuple(findings))


def check_fansy_condition1(fansy: FansyDivisor) -> Report:
    """Search separating forms for every cell pair (sound but incomplete).

    Candidates are 0 and the primitive facet normals of the coefficients.
    A returned witness is verified exactly; not finding one is recorded as
    inconclusive, never as a refutation.  The locus condition on the base
    variety is reported as an assumption; its labels are the ones where the
    separating form shows the two coefficients disjoint, so no intersection
    is computed.
    """
    findings = []
    inconclusive = 0
    for a, (mu, dmu) in enumerate(fansy.cells):
        for nu, dnu in fansy.cells[a:]:
            found = _find_separating_form(dmu, dnu)
            if found is None:
                inconclusive += 1
                findings.append(f"pair ({mu!r}, {nu!r}): inconclusive (no candidate form worked)")
            else:
                u, locus = found
                findings.append(f"pair ({mu!r}, {nu!r}): verified with form {u}; "
                                f"assumed semiample locus {locus}")
    return Report(inconclusive == 0, tuple(findings))


def _pair_ok(dmu, dnu, u):
    """None if `u` does not separate the two cells, else their disjoint labels.

    Per label, `u` must be at most some c on the mu coefficient and at least
    c on the nu one, with equal level-set faces where max u == min u.  The
    returned list holds `str(label)` for every label whose coefficients have
    an empty meet: either coefficient is empty, or max u on the mu side lies
    below min u on the nu side.  At max u == min u the two level-set faces
    were just shown equal, so the meet contains that nonempty face.  Both
    cells carry the sorted global label set of their FansyDivisor, so the
    terms pair up by position.
    """
    locus = []
    for (l, pmu), (_, pnu) in zip(dmu.terms, dnu.terms):
        if pmu.empty or pnu.empty:
            # any c below min u (above max u) gives empty level sets on both sides
            if not pnu.empty and min_value(pnu, u) is None:
                return None
            if not pmu.empty and _max_value(pmu, u) is None:
                return None
            locus.append(str(l))
            continue
        mx = _max_value(pmu, u)
        mn = min_value(pnu, u)
        if mx is None or mn is None or mx > mn:
            return None
        if mx < mn:
            locus.append(str(l))
        elif face_minimizing(pmu, neg(u)) != face_minimizing(pnu, u):
            return None
    return locus


def _max_value(p, u):
    m = min_value(p, neg(u))
    return None if m is None else -m


def _separating_candidates(dmu, dnu):
    """Candidate forms, each once and primitive, in order, made as they are asked for.

    0, then both signs of the facet normals of all coefficients, and the
    interior dual vectors of the two tail cones (which separate opposite
    cells).
    """
    zero = tuple(0 for _ in range(dmu.dim_ambient))
    seen = {zero}
    yield zero

    def normals():
        for d in (dmu, dnu):
            for _, p in d.terms:
                if not p.empty:
                    for row in p.ineqs:
                        yield row[:-1]
            if d.tail.ineqs:
                yield d.tail.interior_dual_vector()
        if dmu.tail.ineqs and dnu.tail.ineqs:
            yield tuple(a - b for a, b in zip(dnu.tail.interior_dual_vector(),
                                              dmu.tail.interior_dual_vector()))

    for vec in normals():
        for cand in (primitive(vec), primitive(neg(vec))):
            if cand not in seen:
                seen.add(cand)
                yield cand


def _find_separating_form(dmu, dnu):
    """The first candidate form u that `_pair_ok` accepts, with its locus, or None."""
    for u in _separating_candidates(dmu, dnu):
        locus = _pair_ok(dmu, dnu, u)
        if locus is not None:
            return u, locus
    return None


def fansy_equal(f1: FansyDivisor, f2: FansyDivisor):
    """Geometric equality of two fansy divisors, up to renaming the cells.

    Matches cells by exact equality of their terms, which carry the same
    sorted labels; returns (True, bijection dict) or (False, reason).
    """
    if f1.ambient != f2.ambient:
        return False, f"ambient lattices differ: {f1.ambient!r} vs {f2.ambient!r}"
    if f1.labels != f2.labels:
        return False, "label sets differ"
    if len(f1.cells) != len(f2.cells):
        return False, f"cell counts differ: {len(f1.cells)} vs {len(f2.cells)}"
    by_terms = {}
    for k2, d2 in f2.cells:
        by_terms.setdefault(d2.terms, []).append(k2)
    matching = {}
    used = set()
    for k1, d1 in f1.cells:
        hits = by_terms.get(d1.terms, [])
        if len(hits) != 1:
            return False, f"cell {k1!r} matches {len(hits)} cells on the other side"
        if hits[0] in used:
            return False, f"cell {hits[0]!r} matched twice"
        used.add(hits[0])
        matching[k1] = hits[0]
    return True, matching

"""Type-A root combinatorics and the rank-2 Grassmannian as a torus variety.

Coordinates used throughout:

* exponent lattice ``E(n)`` = Z^(n choose 2), basis indexed by pairs (i,j),
  i < j, in lexicographic order;
* dual weight space ``Nt(n)`` = Q^n with basis vectors paired against the
  coordinate weights e_i + e_j (the dual lattice is Z^n together with the
  half-integer diagonal);
* character-side quotient ``Lstar(n)`` = Q^(n-1) with basis the images of
  the first n-1 unit vectors; the n-th image is minus their sum.

Partitions of {1..n} into two parts of size >= 2 label the boundary
divisors of the base; the canonical representative is the part containing 1.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._vecops import primitive
from .chow import (
    build_setup,
    positive_fiber,
    pp_from_weights,
    projectivize,
)
from .divisors import FansyDivisor, Label, PPDivisor, Report
from .lattice import (
    LatticeMap,
    RationalMap,
    hnf_rows,
    kernel_basis,
    mat_mul,
    mat_vec,
    transpose,
)
from .polyhedra import Cone, Fan, Polyhedron


# ---------------------------------------------------------------------------
# symmetric group / root system combinatorics


def shuffles(k, n):
    """All permutations increasing on 1..k and on k+1..n, lex ordered; C(n,k) many."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    out = []
    universe = range(1, n + 1)
    for front in itertools.combinations(universe, k):
        back = tuple(i for i in universe if i not in front)
        out.append(front + back)
    return out


def inversion_set(w):
    """Positive roots (i,j) made negative by w, and the length of w."""
    n = len(w)
    inv = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if w[i - 1] > w[j - 1]}
    return inv, len(inv)


def longest_coset_rep(k, n):
    """The longest shuffle: i -> i-k cyclically; equals w0 * w0_I."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return tuple(((i - 1 - k) % n) + 1 for i in range(1, n + 1))


def _simple_interval_in(i, j, subset):
    # alpha_{ij} lies in the subsystem generated by `subset` of simple roots
    return all(p in subset for p in range(i, j))


@dataclass(frozen=True)
class RootSystemA:
    """Roots of type A_{n-1} with forms expressed on Lstar(n) = Q^(n-1)."""

    n: int

    @property
    def ambient(self):
        return f"Lstar({self.n})"

    @property
    def dim(self):
        return self.n - 1

    def ell(self, i):
        if i < self.n:
            return tuple(1 if j == i else 0 for j in range(1, self.n))
        return tuple(-1 for _ in range(1, self.n))

    def ell_sum(self, subset):
        v = [0] * (self.n - 1)
        for i in subset:
            for j, x in enumerate(self.ell(i)):
                v[j] += x
        return tuple(v)

    def positive_roots(self):
        return [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]

    def root_form(self, i, j):
        """The form of alpha_{ij} on Lstar(n): x_i - x_j with x_n = 0."""
        f = [0] * (self.n - 1)
        if i < self.n:
            f[i - 1] += 1
        if j < self.n:
            f[j - 1] -= 1
        return tuple(f)

    def coroot(self, i, j):
        v = [0] * self.n
        v[i - 1] = 1
        v[j - 1] = -1
        return tuple(v)

    def chamber_generators(self):
        """Prefix sums of the ell basis: the standard Weyl chamber generators."""
        return [self.ell_sum(range(1, p + 1)) for p in range(1, self.n)]

    def act(self, w, x):
        """Permutation action on Lstar coordinates: ell_i -> ell_{w(i)}."""
        v = [0] * (self.n - 1)
        coeffs = list(x) + [0]
        # expand on ell_1..ell_n with coefficient 0 at ell_n, then push forward
        for i in range(1, self.n + 1):
            ci = coeffs[i - 1]
            if ci == 0:
                continue
            for j, e in enumerate(self.ell(w[i - 1])):
                v[j] += ci * e
        return tuple(v)


# tail_cone_chart compares with the chamber orbit up to this subgroup order (6!)
_ORBIT_GUARD = 720


def tail_cone_chart(I, n):
    """Dual cone of the non-parabolic positive roots, cross-checked against
    the subgroup orbit of the standard chamber when that orbit is small.

    I is a set of simple root indices in 1..n-1.  Errors out when every
    remaining positive root is orthogonal to some coroot of I (the torus
    action would have a non-discrete kernel).
    """
    rs = RootSystemA(n)
    I = frozenset(I)
    if not I <= set(range(1, n)):
        raise ValueError("simple root indices out of range")
    outside = [(i, j) for (i, j) in rs.positive_roots() if not _simple_interval_in(i, j, I)]
    for a in sorted(I):
        cor = rs.coroot(a, a + 1)
        if all(dot_pair(b, cor) == 0 for b in outside):
            raise ValueError(f"simple root {a} is orthogonal to every chart weight "
                             "(non-discrete kernel)")
    cone = Cone.from_ineqs(rs.ambient, rs.dim, [rs.root_form(i, j) for i, j in outside])
    group = _parabolic_subgroup(I, n)
    if len(group) <= _ORBIT_GUARD:
        gens = []
        for w in group:
            for g in rs.chamber_generators():
                gens.append(rs.act(w, g))
        orbit_cone = Cone.from_rays(rs.ambient, rs.dim, gens)
        if orbit_cone != cone:
            raise AssertionError("chamber orbit does not match the dual cone")
    return cone


def dot_pair(root, coroot):
    (i, j) = root
    return coroot[i - 1] - coroot[j - 1]


def _parabolic_subgroup(I, n):
    """All elements of the Young subgroup generated by the simple roots in I."""
    blocks = []
    run = []
    for a in range(1, n):
        if a in I:
            run.append(a)
        else:
            if run:
                blocks.append(run)
            run = []
    if run:
        blocks.append(run)
    # block [p..q] permutes positions p..q+1
    perms_per_block = []
    for block in blocks:
        lo, hi = block[0], block[-1] + 1
        perms_per_block.append([(lo, ws) for ws in itertools.permutations(range(lo, hi + 1))])
    group = []
    for choice in itertools.product(*perms_per_block) if perms_per_block else [()]:
        w = list(range(1, n + 1))
        for lo, ws in choice:
            for off, val in enumerate(ws):
                w[lo - 1 + off] = val
        group.append(tuple(w))
    return group


def tail_fan(k, n):
    """Sign pattern fan: one cone per k-subset, negated generators on the subset."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    rs = RootSystemA(n)
    maximal = []
    for K in itertools.combinations(range(1, n + 1), k):
        gens = []
        for i in range(1, n + 1):
            e = rs.ell(i)
            gens.append(tuple(-x for x in e) if i in K else e)
        maximal.append((K, Cone.from_rays(rs.ambient, rs.dim, gens)))
    return Fan(rs.ambient, rs.dim, tuple(maximal))


# ---------------------------------------------------------------------------
# partitions and the Pluecker setup


@dataclass(frozen=True)
class Partition:
    """Two-part partition of {1..n}, canonical part containing 1, both parts >= 2."""

    n: int
    part: tuple

    def __post_init__(self):
        part = tuple(sorted(self.part))
        object.__setattr__(self, "part", part)
        if 1 not in part:
            raise ValueError("canonical part must contain 1")
        if not 2 <= len(part) <= self.n - 2:
            raise ValueError("both parts must have at least two elements")
        if any(not 1 <= i <= self.n for i in part):
            raise ValueError("partition element out of range")

    @property
    def b(self):
        return len(self.part)

    @property
    def complement(self):
        return tuple(i for i in range(1, self.n + 1) if i not in self.part)

    def separates(self, i, j):
        return (i in self.part) != (j in self.part)

    def label(self):
        return Label.partition(self.part, self.n)


def partitions(n):
    out = []
    for b in range(2, n - 1):
        for rest in itertools.combinations(range(2, n + 1), b - 1):
            out.append(Partition(n, (1,) + rest))
    return out


def pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def pair_vector(n, subset):
    """Indicator of the pairs inside `subset`, in the E(n) coordinates."""
    s = set(subset)
    return tuple(1 if i in s and j in s else 0 for i, j in pairs(n))


def plucker_degree_map(n) -> LatticeMap:
    """Exponent lattice to Z^n, pair (i,j) to e_i + e_j."""
    if n < 4:
        raise ValueError("need n >= 4")
    cols = [tuple(1 if k in (i, j) else 0 for k in range(1, n + 1)) for i, j in pairs(n)]
    rows = tuple(tuple(c[k] for c in cols) for k in range(n))
    return LatticeMap(rows, f"E({n})", f"Wt({n})")


@dataclass(frozen=True)
class GrassSetup:
    """Weight setup plus the symmetric rational retraction into Q^n."""

    n: int
    ws: object            # chow.WeightSetup
    emb: LatticeMap       # Nt(n) -> E(n), rows are the pair forms y_i + y_j
    retraction: RationalMap

    @property
    def pi(self):
        return self.ws.pi


@functools.lru_cache(maxsize=None)
def gr_setup(n) -> GrassSetup:
    deg = plucker_degree_map(n)
    ws = build_setup(deg)
    emb = LatticeMap(transpose(deg.entries), f"Nt({n})", deg.domain)
    cols = []
    for i, j in pairs(n):
        col = [Fraction(-1, (n - 2) * (n - 1))] * n
        col[i - 1] += Fraction(1, n - 2)
        col[j - 1] += Fraction(1, n - 2)
        cols.append(col)
    t_entries = tuple(tuple(cols[c][r] for c in range(len(cols))) for r in range(n))
    retraction = RationalMap(t_entries, deg.domain, f"Nt({n})")
    return GrassSetup(n, ws, emb, retraction)


@functools.lru_cache(maxsize=None)
def sigma_cone(n) -> Cone:
    """All y in Q^n with y_i + y_j >= 0 for every pair; the common tail."""
    setup = gr_setup(n)
    return Cone.from_ineqs(f"Nt({n})", n, setup.emb.entries)


@functools.lru_cache(maxsize=None)
def fiber_tail(n) -> Polyhedron:
    """The fibers' common tail sigma_cone(n), as a polyhedron whose incidence is kept."""
    return sigma_cone(n).to_polyhedron()


def partition_ray(n, part):
    """Image of the pair indicator of the part under pi; equal for both parts.

    Returns (point, primitive generator, scale).  Fibers are always taken at
    the unscaled point: the coefficient depends on the point, the primitive
    generator is only fan bookkeeping.
    """
    B = part if isinstance(part, Partition) else Partition(n, part)
    setup = gr_setup(n)
    c1 = setup.pi.apply(pair_vector(n, B.part))
    c2 = setup.pi.apply(pair_vector(n, B.complement))
    if c1 != c2:
        raise AssertionError("the two parts give different rays")
    g = gcd(*c1)
    return c1, primitive(c1), g if g else 1


def _retracted(setup, v):
    """r(v) for the retraction r, as the homogeneous integer point (q r(v), q)."""
    return mat_vec(setup.retraction.homogenised, tuple(v) + (1,))


def positive_fiber_part(n, part) -> Polyhedron:
    """The recipe's fiber Y over the partition ray, asserted equal to segment + cone.

    The fiber is x0 + emb(Y), x0 = section(c).  In E(n) it is conv(v1, v2)
    + emb(sigma_cone(n)), v_i the parts' pair indicators, and v_i - x0 lies
    in ker pi = emb(Q^n), so it is emb(y_i) with y_i = r(v_i - x0) as
    r ∘ emb = id: Y = conv(y1, y2) + sigma_cone(n), one signed pass.
    """
    B = part if isinstance(part, Partition) else Partition(n, part)
    setup = gr_setup(n)
    x0 = setup.ws.section.apply(partition_ray(n, B)[0])
    fib = positive_fiber(setup.emb, x0)
    v1, v2 = pair_vector(n, B.part), pair_vector(n, B.complement)
    closed = fiber_tail(n)._plus_hull([_retracted(setup, (x - y for x, y in zip(v, x0)))
                                       for v in (v1, v2)])
    if fib != closed:
        raise AssertionError(f"positive fiber of {B.part} is not segment + cone")
    return fib


# ---------------------------------------------------------------------------
# the fansy divisor, two ways

# the largest n of `ppfan verify`, and of the recipe route unless `max_n` (`--max-n`) raises it
MAX_N = 11


def fansy_closed_form(n) -> FansyDivisor:
    """Sign-pattern fan with the origin replaced by the partition edge.

    Attachment rule (forced by the subdivision axioms, cross-checked against
    the recipe route): the cone whose negated coordinates avoid the part
    attaches at the part endpoint, the opposite cone at the other endpoint,
    and cones splitting the partition span the whole edge.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    rs = RootSystemA(n)
    ends = []
    for B in partitions(n):
        # the endpoints (b-1)/(n-2) and (b+1-n)/(n-2) times the part vector,
        # in homogeneous integer coordinates
        ell = rs.ell_sum(B.part)
        high = tuple((B.b - 1) * x for x in ell) + (n - 2,)
        low = tuple((B.b + 1 - n) * x for x in ell) + (n - 2,)
        ends.append((B.label(), set(B.part), ([high], [low, high], [low])))
    cells = []
    for K, tau in tail_fan(2, n).maximal:
        tail = tau.to_polyhedron()
        # `tail` keeps one incidence for all the segments
        terms = tuple((label, tail._plus_hull(by_meet[len(set(K) & part)]))
                      for label, part, by_meet in ends)
        cells.append((K, PPDivisor(rs.ambient, rs.dim, tau, terms)))
    return FansyDivisor(rs.ambient, rs.dim, tuple(l for l, _, _ in ends), tuple(cells))


def fansy_via_recipe(n, max_n=MAX_N, verify=True) -> FansyDivisor:
    """Full pipeline: fibers over the partition rays, retracted, boundary faces
    projected along the degree direction.  Cells are keyed by the coordinate
    pairs; compare with the closed form through divisors.fansy_equal.
    """
    if n > max_n:
        raise ValueError(f"n={n} beyond the guard ({max_n}); raise max_n to force")
    return projectivize(gr_setup(n).ws, recipe_divisor(n), cell_labels=pairs(n),
                        target=f"Lstar({n})", verify=verify)


def recipe_divisor(n):
    """The affine-cone divisor (coefficients in Q^n) over the partition rays."""
    setup = gr_setup(n)
    parts = partitions(n)
    rays = [partition_ray(n, B)[0] for B in parts]
    labels = [B.label() for B in parts]
    return pp_from_weights(setup.ws, rays=rays, retraction=setup.retraction,
                           emb=setup.emb, labels=labels)


# ---------------------------------------------------------------------------
# the local chart comparison


def local_chart_report(n) -> Report:
    """Check the commutative diagram tying the global exponent sequence to the
    distinguished affine chart, and the visibility of partition rays there.
    """
    findings = []
    setup = gr_setup(n)
    ps = pairs(n)
    nloc = 2 * (n - 2)

    def fg_index(r, j):
        return (r - 1) * (n - 2) + (j - 3)

    # middle map: pair exponents to chart exponents
    mu_cols = []
    for (i, j) in ps:
        col = [0] * nloc
        if (i, j) == (1, 2):
            col = [-1] * nloc
        elif i == 1:
            col[fg_index(2, j)] = 1
        elif i == 2:
            col[fg_index(1, j)] = 1
        mu_cols.append(tuple(col))
    mu = LatticeMap(tuple(tuple(c[r] for c in mu_cols) for r in range(nloc)),
                    f"E({n})", f"Eloc({n})")

    # bottom row: Lstar -> chart exponents -> Z^{n-2}/diagonal
    rs = RootSystemA(n)

    def gbar(j):
        if j < n:
            return tuple(1 if m == j else 0 for m in range(3, n))
        return tuple(-1 for _ in range(3, n))

    dloc_cols = []
    for i in range(1, n):
        col = [0] * nloc
        if i in (1, 2):
            for j in range(3, n + 1):
                col[fg_index(i, j)] = -1
        else:
            col[fg_index(1, i)] = 1
            col[fg_index(2, i)] = 1
        dloc_cols.append(col)
    dstar_loc = LatticeMap(tuple(tuple(c[r] for c in dloc_cols) for r in range(nloc)),
                           rs.ambient, f"Eloc({n})")
    piloc_cols = []
    for r in (1, 2):
        for j in range(3, n + 1):
            g = gbar(j)
            piloc_cols.append(g if r == 1 else tuple(-x for x in g))
    pi_loc = LatticeMap(tuple(tuple(c[m] for c in piloc_cols) for m in range(n - 3)),
                        f"Eloc({n})", f"Nbar({n})")

    # bottom row exactness
    if any(any(x != 0 for x in row) for row in mat_mul(pi_loc.entries, dstar_loc.entries)):
        findings.append("bottom row does not compose to zero")
    kern = hnf_rows(tuple(zip(*kernel_basis(pi_loc).entries)), nloc) if n > 3 else ()
    img = hnf_rows(tuple(zip(*dstar_loc.entries)), nloc)
    if kern != img:
        findings.append("bottom row is not exact (kernel differs from saturated image)")

    # left square: mu ∘ emb = dstar_loc ∘ (e_i -> ell_i) on every basis vector
    for i in range(1, n + 1):
        lhs = mu.apply(setup.emb.column(i - 1))
        rhs = dstar_loc.apply(rs.ell(i))
        if lhs != rhs:
            findings.append(f"left square fails on basis vector {i}: {lhs} != {rhs}")

    # right square: the induced map on the chow lattice via the section
    p_chow = LatticeMap(mat_mul(pi_loc.entries, mat_mul(mu.entries,
                                                        tuple(tuple(int(x) for x in row) for row in setup.ws.section.entries))),
                        setup.pi.codomain, f"Nbar({n})")
    for idx, (i, j) in enumerate(ps):
        evec = tuple(1 if m == idx else 0 for m in range(len(ps)))
        lhs = pi_loc.apply(mu.apply(evec))
        rhs = p_chow.apply(setup.pi.apply(evec))
        if lhs != rhs:
            findings.append(f"right square fails on pair {(i, j)}: {lhs} != {rhs}")

    # partition visibility in the chart
    for B in partitions(n):
        c, _, _ = partition_ray(n, B)
        img_c = p_chow.apply(c)
        if B.separates(1, 2):
            removed = tuple(m for m in (B.complement if 2 in B.complement else B.part) if m != 2)
            expected = tuple(sum(gbar(j)[m] for j in removed) for m in range(n - 3))
            if img_c != expected:
                findings.append(f"separating partition {B.part} maps to {img_c}, expected {expected}")
        else:
            if any(x != 0 for x in img_c):
                findings.append(f"non-separating partition {B.part} maps to {img_c}, expected 0")
    return Report(not findings, tuple(findings))

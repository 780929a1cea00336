"""Exact linear algebra over free abelian groups.

Maps between lattices carry name tags for their domain and codomain; every
composite operation checks the tags, since silently mixing up the half dozen
lattices floating around a weight setup is the main bug class here.

Matrices are tuples of row tuples and act on column vectors: the matrix of
``f`` has one row per codomain coordinate, one column per domain coordinate.
All integer arithmetic is arbitrary precision, rationals are
``fractions.Fraction`` (always in lowest terms by construction).  Matrix
entries are ints or Fractions; a float is a ValueError, never rounded.
`matrix_rank`, `rational_solve` and `rational_left_inverse` read the integer
rows of the one fraction-free elimination `_vecops.rref`; the last two make
their Fractions in a final division by each row's pivot entry.  Saturated
kernels (`kernel_basis`, `quotient_projection`) are read off one Hermite
normal form (`hnf_rows`) of the map's columns beside the identity, and
`chow.build_setup` tells a saturated image by the HNF of the weights;
`smith_normal_form` serves only `integral_section`.  `homogenise`
needs no elimination: it scales a map to integer rows on homogeneous
coordinates, and `polyhedra.linear_image` takes an image as one double
description run on the generators sent through those rows.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from ._vecops import dot, frac_str, rref


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_vec(m, v):
    return tuple(dot(r, v) for r in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def matrix_rank(m):
    """Rank over Q: the number of pivots of the elimination."""
    return len(rref(m, len(m[0]) if m else 0)[1])


def hnf_rows(rows, width=None):
    """Canonical Hermite normal form basis of the lattice spanned by `rows`.

    Rows come out sorted by pivot column, pivots positive, entries above a
    pivot reduced into [0, pivot).  This is a complete invariant of the row
    lattice, so it doubles as our equality test for integer lattices.
    """
    rows = [list(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    basis = []          # echelon rows, ordered by pivot column
    pivot_cols = []
    for vec in rows:
        vec = list(vec)
        j = 0
        while j < width:
            if vec[j] == 0:
                j += 1
                continue
            if j in pivot_cols:
                p = pivot_cols.index(j)
                row = basis[p]
                a, b = row[j], vec[j]
                if b % a == 0:
                    q = b // a
                    vec = [x - q * y for x, y in zip(vec, row)]
                else:
                    x, y, g = _xgcd(a, b)
                    new_row = [x * u + y * v for u, v in zip(row, vec)]
                    vec = [-(b // g) * u + (a // g) * v for u, v in zip(row, vec)]
                    basis[p] = new_row
                # vec[j] is now 0; move on
            else:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                where = next((k for k, c in enumerate(pivot_cols) if c > j), len(pivot_cols))
                basis.insert(where, vec)
                pivot_cols.insert(where, j)
                break
    # reduce entries above each pivot into [0, pivot)
    for p in range(len(basis)):
        j = pivot_cols[p]
        d = basis[p][j]
        for q in range(p):
            f = basis[q][j] // d
            if f:
                basis[q] = [x - f * y for x, y in zip(basis[q], basis[p])]
    return tuple(tuple(r) for r in basis)


def smith_normal_form(matrix):
    """U, S, V with U*matrix*V = S, S diagonal with d1 | d2 | ..., det(U), det(V) = ±1.

    Deterministic: the pivot is always the smallest-magnitude nonzero entry of
    the remaining submatrix (ties broken by position).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    S = [list(r) for r in matrix]
    U = [list(r) for r in identity_matrix(m)]
    V = [list(r) for r in identity_matrix(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        S[dst] = [x + q * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in S:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = S[i][j]
                    if v != 0 and (best is None or abs(v) < abs(S[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            if S[t][t] < 0:
                S[t] = [-x for x in S[t]]
                U[t] = [-x for x in U[t]]
            d = S[t][t]
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    add_row(i, t, -(S[i][t] // d))
                    if S[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    add_col(j, t, -(S[t][j] // d))
                    if S[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            bad = None
            for i in range(t + 1, m):
                if any(S[i][j] % d != 0 for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
    return (
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in S),
        tuple(tuple(r) for r in V),
    )


def _exact_entries(rows, integral):
    """The rows as tuples of ints (`integral`) or of Fractions.

    Ints pass, and so do Fractions (integral ones only when `integral`);
    strings such as "1/2", which `to_json` writes, are read as Fractions
    when not `integral`.  Any other entry, a float or a bool say, is a
    ValueError naming it: nothing is silently truncated or rounded.
    """
    out = []
    for row in rows:
        new = []
        for x in row:
            if isinstance(x, str) and not integral:
                x = Fraction(x)
            if (isinstance(x, bool) or not isinstance(x, (int, Fraction))
                    or (integral and x.denominator != 1)):
                kind = "an integer" if integral else "an int or a Fraction"
                raise ValueError(f"matrix entry {x!r} in row {tuple(row)!r} is not {kind}")
            new.append(int(x) if integral else Fraction(x))
        out.append(tuple(new))
    return tuple(out)


def _check_not_ragged(rows):
    """Raise ValueError naming the row widths when they are not all equal."""
    widths = sorted({len(r) for r in rows})
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: rows of widths {widths}")


@dataclass(frozen=True)
class RationalMap:
    """Rational matrix between named spaces, acting on column vectors.

    `width` only matters for zero-row matrices (maps into a rank-0 lattice),
    where the domain rank cannot be read off the entries.
    """

    entries: tuple
    domain: str
    codomain: str
    width: int = 0

    integral = False  # a class constant, not a field; True admits int entries only

    def __post_init__(self):
        ent = _exact_entries(self.entries, self.integral)
        object.__setattr__(self, "entries", ent)
        _check_not_ragged(ent)
        if ent:
            object.__setattr__(self, "width", len(ent[0]))

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else self.width

    def apply(self, v):
        """The image of v; a rational map takes it through its integer rows and divides once."""
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} into {self.domain} of rank {self.cols}")
        if self.integral or not self.cols:
            return mat_vec(self.entries, v)
        *rows, (*_, q) = self.homogenised
        return tuple(Fraction(dot(r, v), q) for r in rows)

    @cached_property
    def homogenised(self):
        """`homogenise` of this map, computed on first use; not a field.

        The integer rows on homogeneous coordinates through which
        `polyhedra.map_image` sends a polyhedron's generators.
        """
        return homogenise(self.entries, self.cols)

    def to_json(self):
        return {
            "domain": self.domain,
            "codomain": self.codomain,
            "entries": [[frac_str(x) for x in row] for row in self.entries],
        }


class LatticeMap(RationalMap):
    """Integer matrix between named lattices; a RationalMap with int entries."""

    integral = True

    def rank(self):
        return matrix_rank(self.entries)

    def column(self, j):
        return tuple(r[j] for r in self.entries)


def homogenise(entries, width):
    """The rational matrix `entries` on Q^width as integer rows on (x, x0).

    q*(A, 0) with the row (0, ..., 0, q) appended, q > 0 the common
    denominator of A: a positive multiple of the homogenised map x -> A x.
    """
    q = lcm(*(x.denominator for row in entries for x in row))
    return tuple(tuple(x.numerator * (q // x.denominator) for x in row) + (0,)
                 for row in entries) + ((0,) * width + (q,),)


def _int_kernel_rows(matrix, ncols):
    """HNF basis rows of the saturated kernel {x : matrix @ x = 0}.

    The rows (column j of matrix, e_j) span {(matrix @ x, x)}; the rows of
    its HNF that vanish on the first len(matrix) columns span the part with
    matrix @ x = 0, and, cut to the rest, are that kernel's HNF.
    """
    m = len(matrix)
    h = hnf_rows([tuple(r[j] for r in matrix) + e for j, e in enumerate(identity_matrix(ncols))],
                 m + ncols)
    return tuple(r[m:] for r in h if not any(r[:m]))


def kernel_basis(a: LatticeMap, name=None) -> LatticeMap:
    """Embedding of the saturated kernel of `a`, basis in canonical HNF."""
    rows = _int_kernel_rows(a.entries, a.cols)
    name = name or f"ker({a.domain}->{a.codomain})"
    ent = transpose(rows) if rows else tuple(() for _ in range(a.cols))
    return LatticeMap(ent, name, a.domain)


def quotient_projection(b: LatticeMap, name=None) -> LatticeMap:
    """Projection onto the torsion-free cokernel of an injective embedding `b`.

    The rows are the canonical HNF basis of {f : f ∘ b = 0}, so the kernel of
    the result is exactly the saturation of the image of `b`.
    """
    if b.rank() != b.cols:
        raise ValueError("embedding is not injective")
    rows = _int_kernel_rows(transpose(b.entries), b.rows)
    name = name or f"{b.codomain}/{b.domain}"
    return LatticeMap(rows, b.codomain, name, width=b.rows)


def integral_section(pi: LatticeMap) -> LatticeMap:
    """A section s with pi ∘ s = id, from the Smith decomposition of pi.

    Requires pi surjective onto a free lattice (all elementary divisors 1).
    This is the one caller of `smith_normal_form`: a section read off an HNF
    is another section, and `setup` prints the section, whose coefficients
    shift every `ppdivisor` coefficient, so the Smith one stays.
    """
    U, S, V = smith_normal_form(pi.entries)
    r = pi.rows
    if r > pi.cols or any(S[i][i] != 1 for i in range(r)):
        raise ValueError("map is not surjective")
    vcols = tuple(tuple(V[i][j] for j in range(r)) for i in range(pi.cols))
    ent = mat_mul(vcols, U)
    s = LatticeMap(ent, pi.codomain, pi.domain)
    if mat_mul(pi.entries, s.entries) != identity_matrix(r):
        raise AssertionError("section construction failed")
    return s


def check_retraction(t, emb) -> bool:
    """True iff t ∘ emb is exactly the identity: q t ∘ emb = q I in integers (`homogenise`)."""
    if not hasattr(t, "entries"):
        t = RationalMap(t, "", "")
    if t.cols != emb.rows:
        raise ValueError("dimension mismatch")
    *rows, (*_, q) = t.homogenised
    prod = mat_mul([r[:-1] for r in rows], emb.entries)
    return prod == tuple(tuple(q * x for x in r) for r in identity_matrix(emb.cols))


def rational_solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n = len(matrix[0]) if matrix else 0
    work, pivots = rref([tuple(row) + (rhs[i],) for i, row in enumerate(matrix)], n)
    if any(row[n] != 0 for row in work[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(work, pivots):
        x[col] = Fraction(row[n], row[col])
    return tuple(x)


def rational_left_inverse(matrix):
    """Exact left inverse of a full-column-rank matrix (rows of the RREF transform)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    work, pivots = rref([tuple(row) + tuple(1 if j == i else 0 for j in range(m))
                         for i, row in enumerate(matrix)], n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    return tuple(tuple(Fraction(x, row[col]) for x in row[n:])
                 for row, col in zip(work, pivots))

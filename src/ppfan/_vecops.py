"""Small exact-arithmetic vector helpers shared by the polyhedral kernels.

Vectors are plain tuples/lists of Python ints; `scale_to_int` turns a
vector of ints and Fractions into one, and rejects floats.  `rref` is the
one elimination behind every rank, solve and canonical basis: it is
fraction-free and returns integer rows, so a caller that needs rationals
divides once, at the end.
"""

from fractions import Fraction
from math import gcd
from operator import mul


def dot(a, b):
    return sum(map(mul, a, b))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = gcd(*v)
    if g in (0, 1):
        return tuple(v)
    return tuple([x // g for x in v])


def neg(v):
    return tuple(-x for x in v)


def is_zero(v):
    return all(x == 0 for x in v)


def scale_to_int(v):
    """Clear denominators of a rational vector; returns a primitive int tuple.

    Entries must be ints or Fractions; anything else (a float) is a ValueError.
    A vector of plain ints (bools are not) only needs `primitive`.
    """
    if all(type(x) is int for x in v):
        return primitive(v)
    lcm = 1
    for x in v:
        if isinstance(x, Fraction):
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        elif not isinstance(x, int):
            raise ValueError(f"{x!r} in {tuple(v)!r} is not an int or a Fraction")
    if lcm == 1:
        return primitive(tuple(int(x) for x in v))
    return primitive(tuple(x.numerator * (lcm // x.denominator) for x in v))


def frac_str(x):
    """A rational as its JSON string: "p" for integers, "p/q" otherwise."""
    x = Fraction(x)
    return ratio_str(x.numerator, x.denominator)


def ratio_str(n, d):
    """`frac_str` of n/d for ints n and d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def sign_canonical(v):
    """Flip the sign of an integer vector so its first nonzero entry is > 0."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return neg(v)
    return tuple(v)


def rref(rows, width):
    """Fraction-free Gauss–Jordan elimination, with pivots in the first `width` columns.

    Returns (work, pivots): `work` holds the rows as tuples of ints, each a
    positive multiple of the rational reduced row echelon row, so the i-th
    is zero in every pivot column but pivots[i], where it is positive, and
    the rows past len(pivots) are zero in the first `width` columns.
    Columns after `width` (an augmented right-hand side) are carried along.
    The pivot of a column is the first remaining row that is nonzero there.
    Input rows are scaled to integers first (`scale_to_int`, which rejects
    floats); a row is eliminated as pv*row - f*top with the pivot entry pv
    made positive, then divided by its gcd, so entries stay small and every
    row stays primitive.
    """
    work = [scale_to_int(r) for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        top = work[piv]
        work[piv] = work[r]
        pv = top[col]
        if pv < 0:
            top, pv = neg(top), -pv
        work[r] = top
        for i, row in enumerate(work):
            f = row[col]
            if i != r and f != 0:
                work[i] = primitive([pv * x - f * y for x, y in zip(row, top)])
        pivots.append(col)
    return work, pivots


def rref_primitive(rows, width):
    """Reduced row echelon of a rational row space, rows scaled to primitive ints.

    The nonzero rows of `rref`, unchanged: a canonical basis of the row
    space (pivot entries positive, zeros above and below pivots).  It need
    not span the saturated integer lattice: (2, 0, 1) and (0, 2, 1) do not
    span (1, 1, 1).
    """
    work, pivots = rref(rows, width)
    return tuple(work[:len(pivots)])


def reduce_mod_rows(v, rows):
    """Canonical primitive representative of the integer vector v modulo RREF rows.

    For each row with pivot entry c at p (the row is negated first if c < 0),
    v becomes c*v - v[p]*row, which zeroes coordinate p; only positive
    factors scale v, so the direction of the rational reduction is kept.
    A zero row reduces nothing.
    Integer arithmetic throughout; the result is primitive.
    """
    v = tuple(v)
    for row in rows:
        for p, c in enumerate(row):
            if c:
                break
        else:
            continue
        f = v[p]
        if f:
            if c < 0:
                row, c = neg(row), -c
            v = tuple(c * x - f * y for x, y in zip(v, row))
    return primitive(v)

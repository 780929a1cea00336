import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ppfan._vecops import (dot, primitive, reduce_mod_rows, rref, rref_primitive,
                           scale_to_int, sign_canonical)
from ppfan.lattice import (
    LatticeMap,
    RationalMap,
    _int_kernel_rows,
    check_retraction,
    hnf_rows,
    identity_matrix,
    integral_section,
    kernel_basis,
    mat_mul,
    matrix_rank,
    quotient_projection,
    rational_left_inverse,
    rational_solve,
    smith_normal_form,
    transpose,
)

from oracles import frac_det, frac_rank


def test_smith_identity():
    A = identity_matrix(2)
    U, S, V = smith_normal_form(A)
    assert S == A and U == A and V == A


def test_smith_diag_2_3():
    # hand reduction: gcd chain turns diag(2,3) into diag(1,6)
    A = ((2, 0), (0, 3))
    U, S, V = smith_normal_form(A)
    assert S == ((1, 0), (0, 6))
    assert mat_mul(mat_mul(U, A), V) == S
    assert abs(frac_det(U)) == 1 and abs(frac_det(V)) == 1


def test_smith_zero():
    A = ((0, 0, 0), (0, 0, 0))
    _, S, _ = smith_normal_form(A)
    assert S == A


@pytest.mark.parametrize("seed", range(5))
def test_smith_random_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        U, S, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == S
        assert abs(frac_det(U)) == 1 and abs(frac_det(V)) == 1
        diag = [S[i][i] for i in range(min(m, n))]
        assert all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert sum(1 for d in diag if d != 0) == frac_rank(A)


def test_kernel_of_row_map():
    m = LatticeMap(((1, -2, 1),), "E", "N")
    k = kernel_basis(m)
    # canonical form of the lattice spanned by (2,1,0) and (1,1,1)
    assert transpose(k.entries) == ((1, 0, -1), (0, 1, 2))
    assert hnf_rows([(2, 1, 0), (1, 1, 1)]) == ((1, 0, -1), (0, 1, 2))


def test_kernel_of_injective_map():
    m = LatticeMap(((1, 0), (0, 1), (1, 1)), "A", "B")
    k = kernel_basis(LatticeMap(transpose(m.entries), "B*", "A*"))
    assert k.cols == 1
    m2 = LatticeMap(((1,), (2,)), "A", "B")
    assert kernel_basis(m2).cols == 0


def test_kernel_plucker_rank():
    cols = [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)]
    deg = LatticeMap(tuple(zip(*cols)), "E", "M")
    assert kernel_basis(deg).cols == 2


def test_quotient_saturates():
    p = quotient_projection(LatticeMap(((2,),), "L", "Z"))
    assert p.rows == 0 and p.cols == 1


def test_quotient_of_dual_embedding():
    dstar = LatticeMap(((2, 1), (1, 1), (0, 1)), "Nt", "E")
    p = quotient_projection(dstar)
    assert p.entries == ((1, -2, 1),)
    assert all(x == 0 for row in mat_mul(p.entries, dstar.entries) for x in row)
    assert dstar.rank() + p.rank() == 3


def test_quotient_rejects_non_injective():
    with pytest.raises(ValueError):
        quotient_projection(LatticeMap(((1, 1), (1, 1)), "A", "B"))


def test_section_identity():
    s = integral_section(LatticeMap(identity_matrix(3), "A", "A"))
    assert s.entries == identity_matrix(3)


def test_section_of_row():
    pi = LatticeMap(((1, -2, 1),), "E", "N")
    s = integral_section(pi)
    assert mat_mul(pi.entries, s.entries) == ((1,),)
    # the worked example's own choice also splits pi
    assert mat_mul(pi.entries, ((-1,), (-1,), (0,))) == ((1,),)


def test_section_2_3():
    pi = LatticeMap(((2, 3),), "E", "N")
    s = integral_section(pi)
    assert s.entries == ((-1,), (1,))


def test_section_rejects_non_surjective():
    with pytest.raises(ValueError):
        integral_section(LatticeMap(((2, 0),), "E", "N"))


@pytest.mark.parametrize("seed", range(3))
def test_kernel_quotient_section_triple(seed):
    rng = random.Random(seed + 100)
    done = 0
    while done < 40:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 5)
        A = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
        deg = LatticeMap(A, "E", "M")
        if deg.rank() != m:
            continue
        done += 1
        ker = kernel_basis(deg)
        pi = quotient_projection(ker)
        s = integral_section(pi)
        assert mat_mul(pi.entries, s.entries) == identity_matrix(pi.rows)
        assert all(x == 0 for row in mat_mul(pi.entries, ker.entries) for x in row)
        assert ker.rank() + pi.rank() == n
        # determinism: recompute bit-identically
        assert kernel_basis(deg).entries == ker.entries
        assert quotient_projection(ker).entries == pi.entries
        assert integral_section(pi).entries == s.entries


def test_check_retraction():
    emb = LatticeMap(identity_matrix(2), "A", "B")
    assert check_retraction(identity_matrix(2), emb)
    assert not check_retraction(((0, 0), (0, 0)), emb)


def test_retraction_dimension_mismatch():
    with pytest.raises(ValueError):
        check_retraction(((1, 0),), LatticeMap(((1,),), "A", "B"))


def test_rational_solve_and_left_inverse():
    A = ((2, 1), (1, 1), (0, 1))
    x = rational_solve(A, (2, 1, 0))
    assert x == (1, 0)
    assert rational_solve(((1, 0), (1, 0)), (0, 1)) is None
    T = rational_left_inverse(A)
    assert mat_mul(T, A) == identity_matrix(2)


def test_hnf_is_lattice_invariant():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        mixed = list(rows)
        for r in rows:
            other = rows[rng.randrange(len(rows))]
            c = rng.randint(-2, 2)
            mixed.append(tuple(a + c * b for a, b in zip(r, other)))
        rng.shuffle(mixed)
        assert hnf_rows(rows, n) == hnf_rows(mixed, n)


def test_matrix_rank_matches_oracle():
    rng = random.Random(9)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        assert matrix_rank(A) == frac_rank(A)


def test_rational_map_json_roundtrip_strings():
    t = RationalMap((("1/2", "-1/3"),), "A", "B")
    js = t.to_json()
    assert js["entries"] == [["1/2", "-1/3"]]


def test_lattice_map_rejects_non_integers():
    with pytest.raises(ValueError, match=r"matrix entry 0\.5 .* is not an integer"):
        LatticeMap(((0.5,),), "a", "b")
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\) .* is not an integer"):
        LatticeMap(((1, Fraction(1, 2)),), "a", "b")
    with pytest.raises(ValueError, match="True"):
        LatticeMap(((True,),), "a", "b")
    m = LatticeMap(((Fraction(4, 2), -3),), "a", "b")
    assert m.entries == ((2, -3),) and all(type(x) is int for x in m.entries[0])


def test_rational_map_rejects_floats():
    with pytest.raises(ValueError, match=r"matrix entry 0\.1 .* is not an int or a Fraction"):
        RationalMap(((0.1,),), "a", "b")
    with pytest.raises(ValueError, match="None"):
        RationalMap(((1, None),), "a", "b")
    t = RationalMap(((1, Fraction(1, 3)),), "a", "b")
    assert t.entries == ((1, Fraction(1, 3)),)
    assert all(type(x) is Fraction for x in t.entries[0])


def test_matrix_rank_rejects_floats():
    # 0.1 and 0.2 are not exactly proportional to 1 and 2 in binary
    with pytest.raises(ValueError, match=r"0\.1 in \(0\.1, 0\.2\) is not an int or a Fraction"):
        matrix_rank(((0.1, 0.2), (1, 2)))


def test_rational_solve_rejects_floats():
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        rational_solve(((1, 2),), (0.5,))
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        rational_solve(((1.0, 2),), (1,))


def test_rational_left_inverse_rejects_floats():
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        rational_left_inverse(((2.0,), (1,)))


def test_rref_primitive_rejects_floats():
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        rref_primitive(((1, 0.5),), 2)


# --- one shared elimination --------------------------------------------------
#
# `rref_primitive`, `matrix_rank`, `rational_solve` and `rational_left_inverse`
# are wrappers over `_vecops.rref`.  The references below are the four
# Gaussian eliminations they replaced, kept verbatim, and `ref_rref` is the
# `Fraction` Gauss–Jordan body of `rref` before it became fraction-free.


def ref_rref(rows, width):
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        top = work[r] = [x / pv for x in work[r]]
        for i, row in enumerate(work):
            f = row[col]
            if i != r and f != 0:
                work[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(col)
    return work, pivots


def ref_rref_primitive(rows, width):
    work = [[Fraction(x) for x in r] for r in rows]
    basis = []
    col = 0
    r = 0
    while r < len(work) and col < width:
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        col += 1
    for row in work[:r]:
        iv = scale_to_int(row)
        basis.append(sign_canonical(iv))
    return tuple(basis)


def ref_matrix_rank(m):
    work = [[Fraction(x) for x in row] for row in m]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def ref_rational_solve(matrix, rhs):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    work = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if work[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = work[i][n]
    return tuple(x)


def ref_rational_left_inverse(matrix):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    work = [[Fraction(x) for x in row] + [Fraction(1 if j == i else 0) for j in range(m)]
            for i, row in enumerate(matrix)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(work[i][n:]) for i in range(n))


def outcome(f, *args):
    """What a call gives: its value, or the type and text of the error it raised.

    Values are compared by repr, so an int where a Fraction was (or the other
    way round) counts as a difference.
    """
    try:
        return repr(f(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


HYP = settings(max_examples=300, deadline=None, derandomize=True, database=None,
               suppress_health_check=[HealthCheck.too_slow])

ENTRIES = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@HYP
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.tuples(*[ENTRIES] * (n + 1)),
                                                     st.tuples(*[ENTRIES] * n))))
def test_dot_reads_a_short_vector_as_padded_with_zero(case):
    # a homogeneous row h and a ray r: dot(h, r) is h.(r, 0), either way round
    h, r = case
    assert dot(h, r) == dot(h, r + (0,)) == dot(r, h) == sum(x * y for x, y in zip(h, r))


@st.composite
def matrices(draw):
    """(width, rows): int and Fraction entries, with zero, repeated and dependent rows."""
    n = draw(st.integers(0, 5))
    row = st.tuples(*[ENTRIES] * n)
    rows = draw(st.lists(row, max_size=5))
    if rows:
        for i, j, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                               st.integers(0, len(rows) - 1), ENTRIES),
                                     max_size=2)):
            rows.append(tuple(a + c * b for a, b in zip(rows[i], rows[j])))
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows.append((0,) * n)
    return n, tuple(draw(st.permutations(rows)))


@HYP
@given(matrices(), st.data())
def test_eliminations_match_references(mat, data):
    n, rows = mat
    assert outcome(rref_primitive, rows, n) == outcome(ref_rref_primitive, rows, n)
    assert outcome(matrix_rank, rows) == outcome(ref_matrix_rank, rows)
    assert outcome(rational_left_inverse, rows) == outcome(ref_rational_left_inverse, rows)
    # a right-hand side in the column space, or any (often inconsistent) one
    if data.draw(st.booleans()):
        x = data.draw(st.tuples(*[ENTRIES] * n))
        rhs = tuple(sum(a * b for a, b in zip(row, x)) for row in rows)
    else:
        rhs = data.draw(st.tuples(*[ENTRIES] * len(rows)))
    assert outcome(rational_solve, rows, rhs) == outcome(ref_rational_solve, rows, rhs)


@st.composite
def augmented(draw):
    """(width, rows) with 0 to 3 extra columns carried past `width`."""
    n, rows = draw(matrices())
    extra = draw(st.integers(0, 3))
    return n, tuple(row + draw(st.tuples(*[ENTRIES] * extra)) for row in rows)


def is_positive_multiple(row, ref):
    """row = c*ref for some rational c > 0 (both zero counts too)."""
    p = next((i for i, x in enumerate(ref) if x != 0), None)
    if p is None:
        return not any(row)
    c = Fraction(row[p]) / ref[p]
    return c > 0 and all(x == c * y for x, y in zip(row, ref))


@HYP
@given(augmented())
def test_rref_rows_are_positive_multiples_of_reference(mat):
    n, rows = mat
    work, pivots = rref(rows, n)
    ref_work, ref_pivots = ref_rref(rows, n)
    assert pivots == ref_pivots
    assert len(work) == len(ref_work)
    assert all(type(x) is int for row in work for x in row)
    for row, ref in zip(work, ref_work):
        assert is_positive_multiple(row, ref)
    for row, col in zip(work, pivots):
        assert row[col] > 0


@pytest.mark.parametrize("rows", [
    (),
    ((), ()),
    ((1, 2), (3, 4), (5, 6)),
    ((Fraction(1, 2), 0), (0, Fraction(-2, 3))),
    ((0, 1), (1, 0), (1, 1)),
    ((1, 2, 3), (4, 5, 6)),
    ((1, 2), (2, 4), (3, 6)),
    ((0, 1), (0, 2)),
    ((0, 0), (0, 0)),
], ids=["empty", "zero-width", "tall", "fractions", "pivot-swap", "wide",
        "rank-one", "zero-column", "zero"])
def test_eliminations_on_named_matrices(rows):
    n = len(rows[0]) if rows else 0
    assert outcome(rref_primitive, rows, n) == outcome(ref_rref_primitive, rows, n)
    assert outcome(matrix_rank, rows) == outcome(ref_matrix_rank, rows)
    for rhs in ((0,) * len(rows), tuple(range(1, len(rows) + 1))):
        assert outcome(rational_solve, rows, rhs) == outcome(ref_rational_solve, rows, rhs)
    got = outcome(rational_left_inverse, rows)
    assert got == outcome(ref_rational_left_inverse, rows)
    raised = isinstance(got, tuple)
    assert raised == (matrix_rank(rows) < n)


def ref_reduce_mod_rows(v, rows):
    # the Fraction reduction that `reduce_mod_rows` replaced, before scaling
    if not rows:
        return tuple(v)
    out = [Fraction(x) for x in v]
    for row in rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        if out[p] != 0:
            f = out[p] / row[p]
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


@HYP
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=4),
    st.tuples(*[st.integers(-6, 6)] * n),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.booleans())))
def test_reduce_mod_rows_matches_fraction_reference(case):
    mat, v, coeffs, flips, in_span = case
    rows = rref_primitive(mat, len(v))
    # RREF rows with some pivots made negative
    rows = tuple(tuple(-x for x in r) if f else r for r, f in zip(rows, flips))
    if in_span:  # the result is zero
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(len(v)))
    got = reduce_mod_rows(v, rows)
    assert got == scale_to_int(ref_reduce_mod_rows(v, rows))
    assert all(type(x) is int for x in got)
    if in_span:
        assert not any(got)
    for r in rows:
        assert got[next(i for i, x in enumerate(r) if x)] == 0


def ref_scale_to_int(v):
    """`scale_to_int` as it was before its all-int fast path."""
    lcm = 1
    for x in v:
        if isinstance(x, Fraction):
            d = x.denominator
            lcm = lcm // math.gcd(lcm, d) * d
        elif not isinstance(x, int):
            raise ValueError(f"{x!r} in {tuple(v)!r} is not an int or a Fraction")
    if lcm == 1:
        return primitive(tuple(int(x) for x in v))
    return primitive(tuple(x.numerator * (lcm // x.denominator) for x in v))


@HYP
@given(st.lists(st.one_of(st.integers(-12, 12), st.booleans(),
                          st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))),
                max_size=5))
def test_scale_to_int_matches_reference(v):
    got = scale_to_int(v)
    assert got == ref_scale_to_int(v)
    assert type(got) is tuple and all(type(x) is int for x in got)


# --- kernels and saturation by HNF, against the Smith normal form -----------


def ref_int_kernel_rows(matrix, ncols):
    """HNF basis of {x : matrix @ x = 0}: the last columns of V in U A V = S."""
    if not matrix:
        return identity_matrix(ncols)
    _, S, V = smith_normal_form(matrix)
    r = sum(1 for i in range(min(len(S), ncols)) if S[i][i] != 0)
    return hnf_rows([tuple(V[i][j] for i in range(ncols)) for j in range(r, ncols)], ncols)


def ref_saturated(deg):
    """The columns span Z^rows: every elementary divisor is 1."""
    _, S, _ = smith_normal_form(deg)
    return all(S[i][i] == 1 for i in range(len(deg)))


@st.composite
def int_matrices(draw):
    """(ncols, rows): 0-4 integer rows of width 1-6, with dependent and repeated rows."""
    n = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(-4, 4)] * n)
    rows = draw(st.lists(row, max_size=4))
    if rows and len(rows) < 4 and draw(st.booleans()):
        # an integer combination of the others, or a multiple of one
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c, k = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        rows.append(tuple(k * a + c * b for a, b in zip(rows[i], rows[j])))
    return n, tuple(draw(st.permutations(rows)))


@HYP
@given(int_matrices())
@example((3, ()))
@example((2, ((2, 4),)))  # spans 2Z: not saturated
@example((2, ((2, 3),)))
def test_kernel_and_saturation_match_smith_reference(mat):
    from ppfan.chow import build_setup

    n, rows = mat
    assert _int_kernel_rows(rows, n) == ref_int_kernel_rows(rows, n)
    if matrix_rank(rows) == len(rows):
        deg = LatticeMap(rows, "E", "M", width=n)
        assert build_setup(deg).saturated == ref_saturated(rows)


def test_scale_to_int_fast_path_keeps_floats_out_and_bools_in():
    # all-int rows only need `primitive`; bools take the general path and
    # come out as ints, floats still raise
    assert scale_to_int((4, -6, 0)) == (2, -3, 0)
    assert scale_to_int([0, 0]) == (0, 0) and scale_to_int(()) == ()
    for v, want in [((True, False, 2), (1, 0, 2)), ((True, True), (1, 1)), ((False, 3), (0, 1))]:
        got = scale_to_int(v)
        assert got == want and all(type(x) is int for x in got)
    for v in [(1, 1.5), (2.0,), (Fraction(1, 2), 0.5)]:
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            scale_to_int(v)

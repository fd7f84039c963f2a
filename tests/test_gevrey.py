import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gkzcurve.errors import InvalidInputError
from gkzcurve.gamma import gamma_series, singular_exponents
from gkzcurve.gevrey import (
    _diagonal_direction,
    _least_squares,
    dimension_table,
    gevrey_index_estimate,
    polynomial_solution,
    slope_report,
    slope_threshold,
)
from gkzcurve.lattice import curve_matrix, homogenize_matrix, in_semigroup
from gkzcurve.rationals import log_abs
from gkzcurve.restriction import homogenize
from gkzcurve.series import TruncationFrontier, apply_operator
from gkzcurve.system import build_system


def singular_series(entries, beta, index, bound):
    system = build_system(entries, beta)
    v = singular_exponents(system)[index]
    return gamma_series(v, system, TruncationFrontier.uniform(len(entries), bound)), system


# ---------------------------------------------------------------------------
# index estimation


@pytest.mark.parametrize(
    "entries,beta,index,expect,tol,bound",
    [
        ((2, 3), 1, 1, F(3, 2), 0.05, 160),
        ((2, 5), 1, 1, F(5, 2), 0.05, 230),
        ((3, 4), 1, 1, F(4, 3), 0.05, 230),
        ((3, 7), 2, 1, F(7, 3), 0.05, 320),
    ],
)
def test_gevrey_estimates_plane(entries, beta, index, expect, tol, bound):
    f, system = singular_series(entries, beta, index, bound)
    est = gevrey_index_estimate(f, 1, matrix=system.matrix)
    assert est["estimate"] == pytest.approx(float(expect), abs=tol)


def test_gevrey_estimate_pinned_to_recorded_values():
    # values recorded by the benchmark golden file for
    # gkz gevrey-index -A 2,3 -b 1 --index 1 --bound 160 --var 1
    f, system = singular_series((2, 3), 1, 1, 160)
    est = gevrey_index_estimate(f, 1, matrix=system.matrix)
    assert est["estimate"] == pytest.approx(1.499477286438312, rel=1e-9)
    assert est["stderr"] == pytest.approx(2.373633242990137e-05, rel=1e-9)


def inverse_fraction(m):
    """Exact inverse by Gauss-Jordan elimination over Fraction (test oracle)."""
    n = len(m)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise InvalidInputError("singular normal equations")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def least_squares_fraction(d, y):
    """The fit of _least_squares with every float point turned into a
    Fraction and summed over the rationals (test oracle)."""
    ln = [math.log(di) for di in d]
    cols = [[F(x) for x in col]
            for col in ([di * li for di, li in zip(d, ln)], d, ln, [1.0] * len(d))]
    yf = [F(v) for v in y]
    N = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    r = [sum(a * b for a, b in zip(ci, yf)) for ci in cols]
    inv = inverse_fraction(N)
    coef = [sum(a * b for a, b in zip(row, r)) for row in inv]
    rss = sum(v * v for v in yf) - sum(c * ri for c, ri in zip(coef, r))
    dof = max(len(d) - len(cols), 1)
    return float(coef[0]), math.sqrt(float(rss / dof * inv[0][0]))


def diagonal_points(f, var, matrix):
    """(degree, ln|c|) along the growth diagonal, after the 20% burn-in."""
    z = _diagonal_direction(matrix, var)
    pts = []
    m = 0
    while f.frontier.contains(u := tuple(m * x for x in z)):
        c = f.coefficient(u)
        if c != 0 and f.base[var] + u[var] >= 1:
            pts.append((float(f.base[var] + u[var]), log_abs(*c.as_integer_ratio())))
        m += 1
    return pts[len(pts) // 5:]


@pytest.mark.parametrize("entries,beta,index,var,bound", [
    ((2, 3), 1, 1, 1, 160), ((2, 5), 1, 1, 1, 230), ((3, 4), 1, 1, 1, 230),
    ((3, 7), 2, 1, 1, 320), ((1, 2, 5), 1, 0, 2, 220), ((2, 3), F(1, 2), 0, 1, 160)])
def test_integer_fit_is_bit_identical_to_fraction_solve(entries, beta, index, var, bound):
    f, system = singular_series(entries, beta, index, bound)
    pts = diagonal_points(f, var, system.matrix)
    d, y = [p[0] for p in pts], [p[1] for p in pts]
    alpha, stderr = least_squares_fraction(d, y)
    assert _least_squares(d, y) == (alpha, stderr)
    est = gevrey_index_estimate(f, var, matrix=system.matrix)
    assert (est["estimate"], est["stderr"]) == (1.0 + alpha, stderr)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(2, 4000), min_size=5, max_size=40),
       st.data())
def test_integer_fit_matches_fraction_solve_on_random_points(degrees, data):
    d = sorted(k / 2 for k in degrees)
    y = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(d), max_size=len(d)))
    assert _least_squares(d, y) == least_squares_fraction(d, y)


def least_squares_full_gram(d, y):
    """_least_squares with the whole symmetric Gram matrix built and every
    entry of it updated by the Bareiss pass (test oracle)."""
    ln = [math.log(di) for di in d]
    ratios = [x.as_integer_ratio()
              for x in d + ln + [1.0] * len(d) + [di * li for di, li in zip(d, ln)] + y]
    e = max(den.bit_length() for _, den in ratios)
    ints = [num << (e - den.bit_length()) for num, den in ratios]
    k = len(d)
    cols = [ints[i * k:(i + 1) * k] for i in range(5)]
    G = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    prev = 1
    for p in range(4):
        piv = G[p][p]
        if piv == 0:
            raise InvalidInputError("singular normal equations")
        for i in range(p + 1, 5):
            for j in range(p + 1, 5):
                G[i][j] = (G[i][j] * piv - G[i][p] * G[p][j]) // prev
        prev = piv
    alpha, inv33, rss = (F(m, G[3][3]) for m in (G[3][4], G[2][2], G[4][4]))
    return float(alpha), math.sqrt(float(rss / max(k - 4, 1) * inv33))


def test_upper_triangle_fit_matches_full_gram_pass():
    rng = random.Random(23)
    for trial in range(3000):
        k = rng.randint(1, 30)
        if trial % 3:
            d = [float(rng.randint(1, 400)) for _ in range(k)]
        else:
            d = [rng.uniform(1.0, 4000.0) for _ in range(k)]
        y = [rng.uniform(-1e6, 1e6) if trial % 2 else (i + 1) * math.log(i + 2) for i in range(k)]
        try:
            want = least_squares_full_gram(d, y)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="singular normal equations"):
                _least_squares(d, y)
        else:
            assert _least_squares(d, y) == want


def diagonal_direction_by_family(A, var):
    """The two-branch growth diagonal that the one formula of
    _diagonal_direction replaced (test oracle)."""
    ent, n = A.entries, A.n
    if n == 2:
        z = (ent[1], -ent[0])
    else:
        g = math.gcd(ent[-2], ent[-1])
        z = [0] * n
        z[n - 2] = -(ent[-1] // g)
        z[n - 1] = ent[-2] // g
        z = tuple(z)
    if z[var] == 0:
        return None
    if z[var] < 0:
        z = tuple(-x for x in z)
    return tuple(z)


def test_one_diagonal_formula_matches_two_branches():
    entries = [(a, b) for b in range(2, 13) for a in range(1, b) if math.gcd(a, b) == 1]
    entries += [(1, 2, 3), (1, 2, 5), (1, 3, 7), (1, 5, 6), (1, 2, 3, 5), (1, 3, 4, 5),
                (1, 3, 4, 7), (1, 4, 5, 6, 7), (3, 4, 5), (3, 5, 7), (5, 6, 7), (2, 5, 7),
                (4, 5, 7), (3, 4, 7), (2, 3, 7), (4, 6, 9), (4, 5, 6, 7), (1, 6, 9)]
    matrices = [curve_matrix(e) for e in entries]
    matrices += [homogenize_matrix(A) for A in matrices if A.family == "general"]
    for A in matrices:
        for var in range(A.n):
            want = diagonal_direction_by_family(A, var)
            if want is None:
                with pytest.raises(InvalidInputError, match="no growth diagonal"):
                    _diagonal_direction(A, var)
            else:
                assert _diagonal_direction(A, var) == want, (A, var)


def test_gevrey_estimate_smooth_needs_matrix():
    f, system = singular_series((1, 2, 5), 1, 0, 220)
    with pytest.raises(InvalidInputError, match="pass matrix="):
        gevrey_index_estimate(f, 2)
    est = gevrey_index_estimate(f, 2, matrix=system.matrix)
    assert est["estimate"] == pytest.approx(2.5, abs=0.10)
    # a plane series needs the matrix too: the diagonal is not read off the terms
    f, _ = singular_series((2, 3), 1, 1, 40)
    with pytest.raises(InvalidInputError, match="pass matrix="):
        gevrey_index_estimate(f, 1)


def test_gevrey_estimate_polynomial_convention():
    _, f = polynomial_solution((2, 3), 5)
    est = gevrey_index_estimate(f, 1)
    assert est == {"estimate": 1.0, "stderr": 0.0, "diagonal": est["diagonal"]}
    assert "polynomial" in est["diagonal"]


def test_gevrey_estimate_insufficient_terms():
    f, system = singular_series((2, 3), 1, 1, 20)
    with pytest.raises(InvalidInputError, match="diagonal terms available"):
        gevrey_index_estimate(f, 1, min_terms=30, matrix=system.matrix)
    # 3 diagonal points cannot determine the 4 fit coefficients
    f, system = singular_series((2, 3), 1, 1, 10)
    with pytest.raises(InvalidInputError, match="singular normal equations"):
        gevrey_index_estimate(f, 1, min_terms=0, matrix=system.matrix)
    # nor can 4 or 5 points on one, two or three distinct degrees: the
    # pivot of ln d, of 1 or of d ln d is the first zero one
    for d in ([3.0] * 5, [2.0, 2.0, 5.0, 5.0], [2.0, 2.0, 3.0, 3.0, 4.0]):
        with pytest.raises(InvalidInputError, match="singular normal equations"):
            _least_squares(d, [float(i * i) for i in range(len(d))])


def test_gevrey_estimate_rejects_negative_min_terms():
    f, system = singular_series((2, 3), 1, 1, 160)
    assert gevrey_index_estimate(f, 1, min_terms=0, matrix=system.matrix)["estimate"] > 1
    with pytest.raises(InvalidInputError, match="min_terms"):
        gevrey_index_estimate(f, 1, min_terms=-5, matrix=system.matrix)


# ---------------------------------------------------------------------------
# slopes


def test_slope_report_plane():
    rep = slope_report((2, 3))
    assert not rep.entries[0].has_slope
    assert rep.entries[0].gevrey_jump is None and rep.entries[0].slope is None
    last = rep.entries[1]
    assert last.has_slope
    assert last.gevrey_jump == F(3, 2)
    assert last.slope == F(2, 2 - 3) == -2


def test_slope_report_smooth_and_general():
    rep = slope_report((1, 2, 5))
    assert [e.has_slope for e in rep.entries] == [False, False, True]
    assert rep.entries[2].gevrey_jump == F(5, 2)
    assert rep.entries[2].slope == F(2, -3)
    rep2 = slope_report((3, 4, 5))
    assert rep2.entries[2].gevrey_jump == F(5, 4)
    assert slope_threshold(curve_matrix((3, 4, 5))) == F(5, 4)
    for e in rep.entries + rep2.entries:
        if e.has_slope:
            assert e.gevrey_jump > 1


# ---------------------------------------------------------------------------
# dimension tables


def cells(entries, beta, s):
    return dimension_table(entries, beta, s).cells


ORG, P = "origin-or-Z", "smooth-point-of-Y"


def test_dimension_table_plane_special_above_threshold():
    got = dimension_table((2, 3), 2, 2)
    assert got.beta_class == "special" and got.threshold == F(3, 2)
    assert got.cell("O_X|Y", 0, ORG) == 1
    assert got.cell("O_X|Y", 1, P) == 1
    assert got.cell("O^(s)", 0, P) == 2
    assert got.cell("O^(s)", 1, P) == 0
    assert got.cell("Q_Y(s)", 0, P) == 2
    assert got.cell("Q_Y(s)", 0, ORG) == 0
    assert got.cell("Q_Y(s)", 1, P) == 0


def test_dimension_table_plane_special_below_threshold():
    got = dimension_table((2, 3), 2, F(5, 4))
    # Gevrey quotient has no solutions below the slope
    assert got.cell("Q_Y(s)", 0, P) == 0
    # the only Gevrey-s solution at p is the convergent polynomial one
    assert got.cell("O^(s)", 0, P) == 1
    # nonzero Ext^1 below the slope, witnessed by the germ recurrence
    assert got.cell("O^(s)", 1, P) == 1


def test_dimension_table_plane_generic():
    for s in (F(5, 4), F(3, 2), 2, "inf"):
        got = dimension_table((2, 3), 1, s)
        assert got.beta_class == "generic"
        for ext in (0, 1):
            for pt in (ORG, P):
                assert got.cell("O_X|Y", ext, pt) == 0
        high = s == "inf" or F(s) >= F(3, 2)
        assert got.cell("O^(s)", 0, P) == (2 if high else 0)
        assert got.cell("O^(s)", 1, P) == 0


def test_dimension_table_smooth():
    got = dimension_table((1, 2, 5), 3, "inf")
    assert got.beta_class == "special" and got.threshold == F(5, 2)
    assert got.cell("O^(s)", 0, P) == 2
    got_low = dimension_table((1, 2, 5), 3, 2)
    assert got_low.cell("O^(s)", 0, P) == 1
    assert got_low.cell("Q_Y(s)", 0, P) == 0
    assert dimension_table((1, 2, 5), F(1, 2), 3).cell("O^(s)", 0, P) == 2


def test_dimension_table_general_flags_generic_validity():
    got = dimension_table((3, 4, 5), 2, "inf")
    assert got.validity == "generic-beta"
    assert dimension_table((2, 3), 2, 2).validity == "exact"


def three_branch_rule(A, beta):
    """(special, rank0, validity) by one rule per family: semigroup
    membership for plane and general matrices, beta in N for the smooth
    ones, homogenizations among them, whose column of 1 makes N A = N."""
    if A.family == "plane":
        return (beta.denominator == 1 and in_semigroup(A.entries, int(beta)),
                A.entries[0], "exact")
    if A.family == "smooth":
        return beta.denominator == 1 and beta >= 0, A.entries[-2], "exact"
    return (beta.denominator == 1 and in_semigroup(A.entries, int(beta)),
            A.entries[-2], "generic-beta")


@pytest.mark.parametrize("A", [
    curve_matrix((2, 3)), curve_matrix((3, 5)), curve_matrix((1, 2, 5)),
    curve_matrix((1, 3, 7)), curve_matrix((3, 4, 5)), curve_matrix((4, 5, 6, 7)),
    homogenize_matrix(curve_matrix((3, 4, 5))),
], ids=str)
def test_dimension_table_matches_three_branch_rule(A):
    for beta in (F(-1), F(0), F(1, 2), F(2), F(7)):
        special, rank0, validity = three_branch_rule(A, beta)
        for s in (1, F(5, 4), 2, "inf"):
            got = dimension_table(A, beta, s)
            high = s == "inf" or s >= slope_threshold(A)
            assert got.beta_class == ("special" if special else "generic")
            assert got.validity == validity
            assert got.cell("Q_Y(s)", 0, P) == (rank0 if high else 0)
            assert got.cell("O^(s)", 0, P) == (rank0 if high else int(special))


def test_dimension_table_rejects_bad_s():
    with pytest.raises(InvalidInputError):
        dimension_table((2, 3), 1, F(1, 2))


# ---------------------------------------------------------------------------
# polynomial solutions


def test_polynomial_solution_plane():
    got = polynomial_solution((2, 3), 6)
    assert got is not None
    q, f = got
    assert q == 0 and f.exact
    system = build_system((2, 3), 6)
    for op in system.operators:
        assert apply_operator(op, f).is_zero()
    assert polynomial_solution((2, 3), 1) is None
    assert polynomial_solution((2, 3), F(1, 2)) is None


def test_polynomial_solution_smooth():
    got = polynomial_solution((1, 2, 5), 7)
    assert got is not None
    q, f = got
    assert q == 1
    system = build_system((1, 2, 5), 7)
    for op in system.operators:
        assert apply_operator(op, f).is_zero()


def test_polynomial_solution_general_via_homogenization():
    got = polynomial_solution((3, 4, 5), 7)
    assert got is not None
    _, f = got
    assert f.n == 3
    system = build_system((3, 4, 5), 7)
    for op in system.operators:
        assert apply_operator(op, f).is_zero()
    # 1, 2 are gaps of the semigroup <3,4,5>
    assert polynomial_solution((3, 4, 5), 2) is None


# sha256 of the sorted JSON of the polynomial of a general matrix: its frontier
# bound is the span of the whole lifted polynomial minus v_0, wider than the
# span of the terms that the restriction keeps
POLYNOMIAL_DIGESTS = {
    ((3, 4, 5), 12): (15, 7, "a301af4a4a4c78803f171526eefe55e98dba0cd649a249de84debc8d89750224"),
    ((3, 4, 5), 20): (25, 11, "c68091c8e17784920abcb4595d92fc132a6425cc107c0f5e83ccddbb18162d94"),
    ((4, 5, 6, 7), 30): (35, 12, "cf1c04ec2b40ebfb902d427f40a5c2ec4dab6ba93ce9965c27b17649af3929ae"),
}


@pytest.mark.parametrize("entries, beta", list(POLYNOMIAL_DIGESTS), ids=str)
def test_general_polynomial_solution_is_pinned(entries, beta):
    bound, span, digest = POLYNOMIAL_DIGESTS[entries, beta]
    q, f = polynomial_solution(entries, beta)
    assert q == 0 and f.exact and f.frontier.bound == bound
    assert max(sum(map(abs, u)) for u in f.terms) == span
    assert hashlib.sha256(json.dumps(f.to_json(), sort_keys=True).encode()).hexdigest() == digest


def test_polynomial_solution_homogenized_matches_smooth():
    # the homogenized matrix asks about its own semigroup, which holds every
    # beta >= 0; oracle: the smooth matrix with the same entries
    Ah = homogenize_matrix(curve_matrix((3, 4, 5)))
    for beta in range(13):
        q, f = polynomial_solution(Ah, beta)
        q1, f1 = polynomial_solution((1, 3, 4, 5), beta)
        assert (q, f.to_json()) == (q1, f1.to_json()), beta
        system = homogenize((3, 4, 5), beta).system
        assert len(system.operators) == 3 + 3 + 1  # toric, the contiguity operators Q_i, E
        for op in system.operators:
            assert apply_operator(op, f).is_zero(), (beta, op)
    _, f = polynomial_solution(Ah, 1)
    assert f.base == (1, 0, 0, 0) and f.terms == {(0, 0, 0, 0): 1}  # x_0
    assert polynomial_solution((3, 4, 5), 2) is None

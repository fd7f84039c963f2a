"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with -s to see the per-criterion lines as they happen; under plain
pytest -v each criterion still appears as exactly one pass/fail test line.
"""

import math
import random
import time
from fractions import Fraction as F

from gkzcurve import (
    TruncationFrontier,
    apply_operator,
    b_function_1kakb,
    build_system,
    curve_matrix,
    dimension_table,
    ext1_recurrence_solve,
    gamma_coefficient,
    gamma_series,
    generic_exponents,
    gevrey_envelope_fit,
    gevrey_index_estimate,
    has_minimal_nsupp,
    homogenize,
    minimal_delta,
    polynomial_solution,
    recurrence_series,
    restrict_decomposition,
    restrict_series_x0,
    semigroup_contains,
    series_equal,
    singular_exponents,
    verify_annihilation,
)

MATRICES = [(2, 3), (2, 5), (3, 4), (1, 2, 5), (1, 3, 7)]
BETAS = [F(0), F(1), F(2), F(7, 2)]


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def all_series(entries, beta, bound):
    system = build_system(entries, beta)
    fr = TruncationFrontier.uniform(system.matrix.n, bound)
    out = []
    for v in singular_exponents(system) + generic_exponents(system):
        out.append((v, gamma_series(v, system, fr), system))
    return out


def test_criterion_1_exponents():
    start = time.perf_counter()
    for entries in MATRICES:
        A = curve_matrix(entries)
        p, q = A.entries[-2], A.entries[-1]
        for beta in BETAS:
            system = build_system(A, beta)
            sing = singular_exponents(system)
            gen = generic_exponents(system)
            assert len(sing) == p and len(gen) == q
            for v in sing + gen:
                assert A.dot(v) == beta
                assert has_minimal_nsupp(v, A).minimal
            # distinct exponents at each point
            assert len(set(sing)) == p
            assert len(set(gen)) == q
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"exponent counts, weights and minimality for {len(MATRICES)} "
              f"matrices x {len(BETAS)} betas ({elapsed:.2f}s)")


def test_criterion_2_series_annihilation():
    start = time.perf_counter()
    checked = 0
    for entries in MATRICES:
        for beta in BETAS:
            for _, f, system in all_series(entries, beta, 60):
                reports = verify_annihilation(system.operators, f)
                assert all(r.annihilated for r in reports)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{checked} Gamma-series annihilated at frontier 60, "
              f"zero residuals ({elapsed:.2f}s)")


def test_criterion_3_gevrey_indices():
    system = build_system((2, 3), 1)
    fr = TruncationFrontier.uniform(2, 160)
    f = gamma_series(singular_exponents(system)[1], system, fr)
    est = gevrey_index_estimate(f, 1, matrix=system.matrix)
    assert abs(est["estimate"] - 1.5) < 0.05

    system = build_system((1, 2, 5), 1)
    fr = TruncationFrontier.uniform(3, 220)
    g = gamma_series(singular_exponents(system)[0], system, fr)
    est2 = gevrey_index_estimate(g, 2, matrix=system.matrix)
    assert abs(est2["estimate"] - 2.5) < 0.10
    report(3, f"Gevrey index estimates 3/2 ({est['estimate']:.3f}) and "
              f"5/2 ({est2['estimate']:.3f}) within tolerance")


def test_criterion_4_polynomial_solutions():
    for beta in range(2, 8):
        got = polynomial_solution((2, 3), beta)
        assert got is not None
        _, f = got
        assert f.exact and f.terms
        system = build_system((2, 3), beta)
        for op in system.operators:
            assert apply_operator(op, f).is_zero()
    assert polynomial_solution((2, 3), 1) is None
    report(4, "polynomial solutions for (2 3), beta=2..7 exactly annihilated; "
              "absent at beta=1")


def S(sheaf, ext, point, dim):
    return ((sheaf, ext, point), dim)


def expected_cells(one, rank0, above, special_below):
    """Frozen table shape: `one` on O_X|Y and at the origin, `rank0` at a
    smooth point once s reaches the threshold (`above`), and a single Ext^1
    class at a smooth point below the threshold for special beta."""
    o, p = "origin-or-Z", "smooth-point-of-Y"
    r0 = rank0 if above else one
    e1 = 1 if special_below else 0
    return dict([
        S("O_X|Y", 0, o, one), S("O_X|Y", 1, o, one),
        S("O_X|Y", 0, p, one), S("O_X|Y", 1, p, one),
        S("O^(s)", 0, o, one), S("O^(s)", 1, o, one),
        S("O^(s)", 0, p, r0), S("O^(s)", 1, p, e1),
        S("Q_Y(s)", 0, o, 0), S("Q_Y(s)", 1, o, 0),
        S("Q_Y(s)", 0, p, rank0 if above else 0), S("Q_Y(s)", 1, p, 0),
    ])


def test_criterion_5_dimension_tables():
    cases = [
        # (entries, beta, s, one, rank0, s>=threshold, special and below)
        ((2, 3), F(1), F(5, 4), 0, 2, False, False),
        ((2, 3), F(1), F(3, 2), 0, 2, True, False),
        ((2, 3), F(1), F(2), 0, 2, True, False),
        ((2, 3), F(1), None, 0, 2, True, False),
        ((2, 3), F(2), F(5, 4), 1, 2, False, True),
        ((2, 3), F(2), F(3, 2), 1, 2, True, False),
        ((2, 3), F(2), F(2), 1, 2, True, False),
        ((2, 3), F(2), None, 1, 2, True, False),
        ((1, 2, 5), F(1, 2), F(2), 0, 2, False, False),
        ((1, 2, 5), F(1, 2), F(5, 2), 0, 2, True, False),
        ((1, 2, 5), F(1, 2), F(3), 0, 2, True, False),
        ((1, 2, 5), F(1, 2), None, 0, 2, True, False),
        ((1, 2, 5), F(3), F(2), 1, 2, False, True),
        ((1, 2, 5), F(3), F(5, 2), 1, 2, True, False),
        ((1, 2, 5), F(3), F(3), 1, 2, True, False),
        ((1, 2, 5), F(3), None, 1, 2, True, False),
    ]
    for entries, beta, s, one, rank0, above, special_below in cases:
        table = dimension_table(entries, beta, "inf" if s is None else s)
        assert table.cells == expected_cells(one, rank0, above, special_below), (
            entries, beta, s)
        assert table.validity == "exact"
    report(5, f"dimension tables match the frozen values for "
              f"{len(cases)} (matrix, beta, s) combinations")


def test_criterion_6_bfunction_and_restriction():
    for k, a, b in [(1, 2, 3), (2, 2, 3), (3, 1, 2)]:
        assert b_function_1kakb(k, a, b).roots == tuple(range(k))
    dec = restrict_decomposition((1, 4, 6), 5)
    assert [
        (m.entries, b) for m, b in dec.components
    ] == [((2, 3), F(5, 2)), ((2, 3), F(2))]
    report(6, "b-function roots 0..k-1 for three (k,a,b); restriction of "
              "(1 4 6), beta=5 splits into (2 3) at 5/2 and 2")


def test_criterion_7_homogenization_round_trip():
    start = time.perf_counter()
    A = curve_matrix((3, 4, 5))
    # the toric binomials of (1 3 4 5), then its contiguity binomials Q_i, then E
    upstairs, general = homogenize(A, 0).system, build_system(A, 0)
    fr = TruncationFrontier.uniform(4, 40)
    count = 0
    for v in singular_exponents(general):
        f = gamma_series(v, upstairs, fr)
        assert all(r.annihilated
                   for r in verify_annihilation(upstairs.operators, f))
        g = restrict_series_x0(f)
        assert all(r.annihilated
                   for r in verify_annihilation(general.operators, g))
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"homogenization of (3 4 5): {count} series annihilated "
              f"upstairs and after restriction ({elapsed:.2f}s)")


def test_criterion_8_ext1_recurrence():
    A = curve_matrix((2, 3))
    beta, bound = 1, 40
    system = build_system(A, beta)
    P, E = system.toric[0], system.euler
    tables = [
        ({(0, 0): F(1)}, None),
        ({(0, 0): F(2), (0, 2): F(-1, 3), (1, 1): F(5)}, {0: F(1)}),
        ({(1, 0): F(1, 7)}, {0: F(-2), 1: F(3, 4)}),
    ]
    for f_table, h_init in tables:
        h = ext1_recurrence_solve(A, 1, beta, f_table, h_init=h_init,
                                  num_terms=bound)
        f_by_k = {int(s.base[1]): s
                  for s in recurrence_series(A, beta, f_table, shift=1,
                                             bound=bound)}
        for hs in recurrence_series(A, beta, h, shift=0, bound=bound):
            k = int(hs.base[1])
            assert apply_operator(E, hs).is_zero()
            ph = apply_operator(P, hs)
            if k in f_by_k:
                assert series_equal(ph, f_by_k[k])
            else:
                assert ph.is_zero()
        # Gevrey-type envelope |h_m| <= C D^m (k+am)!^(1/2)
        for k in range(2):
            vals = [abs(h[(k, m)]) / math.sqrt(math.factorial(k + 2 * m))
                    for m in range(bound + 1)]
            vals = [float(x) for x in vals if x > 0]
            if len(vals) > 5:
                C, D = gevrey_envelope_fit(vals)
                assert 0 < D < 50 and C > 0
    report(8, "recurrence solutions satisfy P(h)=f and E(h)=0 exactly for "
              "3 right-hand sides, with a geometric-over-sqrt envelope")


def test_criterion_9_oracle_equivalence():
    # semigroup membership and minimal delta against brute force
    rng = random.Random(20260826)
    for _ in range(60):
        gens = sorted(rng.sample(range(2, 21), rng.randint(2, 4)))
        t = rng.randint(0, 200)
        brute = any(
            True
            for c0 in range(t // gens[0] + 1)
            if semigroup_state(gens[1:], t - c0 * gens[0])
        )
        assert (semigroup_contains(gens, t) is not None) == brute
    for entries, i, want in [((2, 3), 0, (1, (0, 1))),
                             ((2, 3), 1, (1, (2, 0))),
                             ((3, 4, 5), 2, (1, (2, 0, 0)))]:
        got = minimal_delta(curve_matrix(entries), i)
        assert got == want
    # Gamma coefficient against the factorial-ratio oracle
    for _ in range(100):
        n = rng.randint(2, 4)
        v = [rng.randint(0, 6) for _ in range(n)]
        u = [rng.randint(-vi, 6) for vi in v]
        oracle = F(1)
        for vi, ui in zip(v, u):
            oracle *= F(math.factorial(vi), math.factorial(vi + ui))
        assert gamma_coefficient([F(x) for x in v], u) == oracle
    report(9, "semigroup, minimal-delta and Gamma-coefficient oracles agree "
              "with brute force on randomized cases")


def semigroup_state(gens, t):
    if t == 0:
        return True
    if t < 0 or not gens:
        return False
    return any(semigroup_state(gens[1:], t - c * gens[0])
               for c in range(t // gens[0] + 1))

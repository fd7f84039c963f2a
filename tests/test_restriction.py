import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gkzcurve import lattice
from gkzcurve.errors import InvalidInputError
from gkzcurve.gamma import (
    gamma_series,
    lift,
    modified_series,
    restrict_series_x0,
    singular_exponents,
)
from gkzcurve.lattice import curve_matrix, homogenize_matrix, minimal_delta
from gkzcurve.rationals import falling_product, log_abs
from gkzcurve.restriction import (
    Homogenization,
    RestrictionDecomposition,
    b_function_1kakb,
    ext1_generator,
    ext1_recurrence_solve,
    gevrey_envelope_fit,
    homogenize,
    recurrence_series,
    restrict_decomposition,
)
from gkzcurve.series import (
    TruncationFrontier,
    WeylOperator,
    apply_operator,
    series_equal,
    verify_annihilation,
)
from gkzcurve.system import build_system


# ---------------------------------------------------------------------------
# homogenization


def test_homogenize_data():
    hom = homogenize(curve_matrix((3, 4, 5)), 0)
    assert hom.matrix.entries == (1, 3, 4, 5)
    assert hom.deltas == (1, 1, 1)
    # 1 + 3 = 4, 1 + 4 = 5, 1 + 5 = 2*3
    assert hom.rhos == ((0, 1, 0), (0, 0, 1), (2, 0, 0))
    # the toric binomials of (1 3 4 5), the three Q_i, E
    assert len(hom.system.toric) == 6 and len(hom.system.operators) == 7


def test_records_keep_no_field_that_another_decides():
    # A' is the system's matrix, and E follows from A' and beta
    hom = homogenize((3, 4, 5), F(1, 2))
    rebuilt = Homogenization(hom.system, hom.deltas, hom.rhos)
    assert rebuilt.matrix == curve_matrix((1, 3, 4, 5)) and rebuilt.to_json() == hom.to_json()
    assert hom.system.euler == WeylOperator.euler((1, 3, 4, 5), F(1, 2))
    # every decomposition holds for generic parameters: a class constant
    assert RestrictionDecomposition.__slots__ == ("source", "beta", "restricted_vars", "components")
    assert restrict_decomposition((1, 4, 6), 5).to_json()["generic"] is True


@pytest.mark.parametrize("entries", [(3, 4, 5), (4, 5, 6, 7), (6, 7, 8, 9, 10), (10, 11, 13, 17)])
def test_homogenize_searches_each_delta_once(entries, monkeypatch):
    # every minimal_delta call opens one semigroup query, and homogenize
    # makes one per column of A: build_system of A' makes none
    calls = []
    semigroup = lattice._semigroup
    monkeypatch.setattr(lattice, "_semigroup", lambda *a: calls.append(a) or semigroup(*a))
    hom = homogenize(entries, 1)
    assert len(calls) == len(entries)
    A = curve_matrix(entries)
    assert list(zip(hom.deltas, hom.rhos)) == [minimal_delta(A, i) for i in range(A.n)]


# the kernel vectors u of homogenize(A, beta).system's binomials box_u, in
# order: the n toric ones a_i e_0 - e_i of A', then the contiguity ones
# e_0 + delta_i e_{i+1} - (0, rho_i); E follows them
HOMOGENIZED_KERNEL = {
    (3, 4, 5): [(3, -1, 0, 0), (4, 0, -1, 0), (5, 0, 0, -1),
                (1, 1, -1, 0), (1, 0, 1, -1), (1, -2, 0, 1)],
    (4, 5, 6, 7): [(4, -1, 0, 0, 0), (5, 0, -1, 0, 0), (6, 0, 0, -1, 0), (7, 0, 0, 0, -1),
                   (1, 1, -1, 0, 0), (1, 0, 1, -1, 0), (1, 0, 0, 1, -1), (1, -2, 0, 0, 1)],
    (5, 6, 7): [(5, -1, 0, 0), (6, 0, -1, 0), (7, 0, 0, -1),
                (1, 1, -1, 0), (1, 0, 1, -1), (1, -3, 0, 2)],
    (3, 5, 7): [(3, -1, 0, 0), (5, 0, -1, 0), (7, 0, 0, -1),
                (1, 2, 0, -1), (1, -2, 1, 0), (1, -1, -1, 1)],
    (10, 11, 13, 17): [(10, -1, 0, 0, 0), (11, 0, -1, 0, 0), (13, 0, 0, -1, 0),
                       (17, 0, 0, 0, -1), (1, 1, -1, 0, 0), (1, -1, 2, -1, 0),
                       (1, -1, 0, 2, -1), (1, 0, -2, -1, 2)],
}


@pytest.mark.parametrize("entries", list(HOMOGENIZED_KERNEL), ids=str)
@pytest.mark.parametrize("beta", [0, F(1, 2), 3], ids=str)
def test_homogenized_operators_are_pinned(entries, beta):
    want = (tuple(WeylOperator.from_lattice(u) for u in HOMOGENIZED_KERNEL[entries])
            + (WeylOperator.euler((1, *entries), beta),))
    assert homogenize(entries, beta).system.operators == want


def test_homogenize_rejects_non_general():
    with pytest.raises(InvalidInputError, match="general matrix"):
        homogenize(curve_matrix((2, 3)), 0)


def test_homogenized_round_trip_annihilation():
    A = curve_matrix((3, 4, 5))
    Ah = lift(A)[0]
    upstairs, general = homogenize(A, 0).system, build_system(A, 0)
    # build_system of A' gives the toric binomials and E that homogenize
    # puts around the Q_i
    kernel = build_system(Ah, 0)
    assert upstairs.toric[:3] == kernel.toric and upstairs.euler == kernel.euler
    fr = TruncationFrontier.uniform(4, 24)
    for v in singular_exponents(general):
        f = gamma_series(v, upstairs, fr)
        assert all(r.annihilated for r in verify_annihilation(upstairs.operators, f))
        restricted = restrict_series_x0(f)
        assert all(
            r.annihilated for r in verify_annihilation(general.operators, restricted)
        )


# ---------------------------------------------------------------------------
# b-function


def test_b_function_values():
    bf = b_function_1kakb(3, 1, 2)
    assert bf.roots == (0, 1, 2)
    assert bf.roots[-1] == 2
    # tau(tau-1)(tau-2) = tau^3 - 3 tau^2 + 2 tau
    assert bf.coefficients() == (0, 2, -3, 1)


def test_b_function_validation():
    with pytest.raises(InvalidInputError):
        b_function_1kakb(2, 3, 2)  # a >= b
    with pytest.raises(InvalidInputError):
        b_function_1kakb(2, 2, 4)  # gcd != 1
    with pytest.raises(InvalidInputError):
        b_function_1kakb(1, 1, 2)  # ka = 1: (1 1 2) is not smooth-shaped
    with pytest.raises(InvalidInputError):
        b_function_1kakb(0, 2, 3)


# ---------------------------------------------------------------------------
# restriction decompositions


def test_restrict_three_variables_with_gcd():
    dec = restrict_decomposition((1, 4, 6), 5)
    assert dec.generic is True
    assert [(m.entries, b) for m, b in dec.components] == [
        ((2, 3), F(5, 2)),
        ((2, 3), 2),
    ]


def test_restrict_three_variables_coprime():
    dec = restrict_decomposition((1, 2, 5), F(7, 3))
    assert [(m.entries, b) for m, b in dec.components] == [((2, 5), F(7, 3))]


def test_restrict_many_variables():
    dec = restrict_decomposition((1, 3, 4, 6), 1)
    # gcd(4, 6) = 2: components ((2 3), (1-i)/2)
    assert [(m.entries, b) for m, b in dec.components] == [
        ((2, 3), F(1, 2)),
        ((2, 3), 0),
    ]
    assert dec.restricted_vars == (0, 1)


def test_restrict_homogenized():
    # a homogenization is the smooth matrix with its entries, and restricts as one
    for entries in ((3, 4, 5), (4, 5, 6, 7)):
        Ah = homogenize_matrix(curve_matrix(entries))
        for beta in (F(2, 7), 0, 3):
            assert (restrict_decomposition(Ah, beta).to_json()
                    == restrict_decomposition((1, *entries), beta).to_json())
    dec = restrict_decomposition(homogenize_matrix(curve_matrix((3, 4, 5))), F(2, 7))
    assert [(m.entries, b) for m, b in dec.components] == [((4, 5), F(2, 7))]
    assert dec.restricted_vars == (0, 1)


def test_restrict_rejects_other_shapes():
    with pytest.raises(InvalidInputError):
        restrict_decomposition((2, 3), 1)
    with pytest.raises(InvalidInputError):
        restrict_decomposition((3, 4, 5), 1)


# ---------------------------------------------------------------------------
# the germ recurrence


def test_recurrence_first_step():
    A = curve_matrix((2, 3))
    h = ext1_recurrence_solve(A, 1, 1, {(0, 0): F(1)}, num_terms=5)
    # h_2 = ((1/2)_3 * 0 - 1) / (2)_2 = -1/2
    assert h[(0, 1)] == F(-1, 2)
    assert h[(1, 0)] == 0


def test_recurrence_validation():
    A = curve_matrix((2, 3))
    with pytest.raises(InvalidInputError):
        ext1_recurrence_solve(A, 0, 1, {})
    with pytest.raises(InvalidInputError):
        ext1_recurrence_solve(A, 1, 1, {(5, 0): F(1)})
    with pytest.raises(InvalidInputError):
        ext1_recurrence_solve(curve_matrix((1, 2, 5)), 1, 1, {})
    with pytest.raises(InvalidInputError):
        ext1_recurrence_solve(A, 1, 1, {}, num_terms=-3)


def test_recurrence_series_rejects_non_plane_matrix():
    with pytest.raises(InvalidInputError, match="plane"):
        recurrence_series((1, 2, 5), 1, {(0, 0): 1})


def test_recurrence_rejects_initial_values_off_the_residues():
    A = curve_matrix((2, 3))
    for h_init in ({5: 1, -1: 2}, {2: 1}, {-1: 1}):
        with pytest.raises(InvalidInputError, match="h_init"):
            ext1_recurrence_solve(A, 1, 1, {}, h_init=h_init)
    h = ext1_recurrence_solve(A, 1, 1, {}, h_init={0: 1, 1: 2}, num_terms=1)
    assert (h[(0, 0)], h[(1, 0)]) == (1, 2)


@pytest.mark.parametrize(
    "f_table,h_init",
    [
        ({(0, 0): F(1)}, None),
        ({}, {0: F(1), 1: F(-2, 3)}),
        ({(0, 1): F(3, 7), (1, 0): F(-1), (1, 2): F(5)}, {0: F(1, 2)}),
    ],
)
def test_recurrence_solves_the_operator_equation(f_table, h_init):
    A = curve_matrix((2, 3))
    beta = 1
    h = ext1_recurrence_solve(A, 1, beta, f_table, h_init=h_init, num_terms=40)
    system = build_system(A, beta)
    P, E = system.toric[0], system.euler
    h_series = recurrence_series(A, beta, h, shift=0, bound=40)
    f_series = recurrence_series(A, beta, f_table, shift=1, bound=40)
    f_by_k = {int(s.base[1]): s for s in f_series}
    for hs in h_series:
        k = int(hs.base[1])
        assert apply_operator(E, hs).is_zero()
        ph = apply_operator(P, hs)
        if k in f_by_k:
            assert series_equal(ph, f_by_k[k])
        else:
            assert ph.is_zero()


def ext1_recurrence_fractions(entries, beta, f_table, h_init, num_terms):
    """The chains of ext1_recurrence_solve stepped in Fraction arithmetic
    (test oracle)."""
    a, b = entries
    h = {}
    for k in range(a):
        h[(k, 0)] = F((h_init or {}).get(k, 0))
        lead = F(beta - b * k, a)
        for m in range(num_terms):
            z = lead - b * m
            fall = F(falling_product(z.numerator, z.denominator, b), z.denominator**b)
            den = falling_product(k + a * (m + 1), 1, a)
            h[(k, m + 1)] = (fall * h[(k, m)] - F(f_table.get((k, m), 0))) / den
    return h


CRITERION_8_TABLES = [
    ({(0, 0): F(1)}, None),
    ({(0, 0): F(2), (0, 2): F(-1, 3), (1, 1): F(5)}, {0: F(1)}),
    ({(1, 0): F(1, 7)}, {0: F(-2), 1: F(3, 4)}),
]


@pytest.mark.parametrize("beta", [F(1), F(1, 2), F(7, 2)], ids=str)
@pytest.mark.parametrize("f_table, h_init", CRITERION_8_TABLES)
def test_recurrence_matches_the_fraction_loop(beta, f_table, h_init):
    want = ext1_recurrence_fractions((2, 3), beta, f_table, h_init, 40)
    got = ext1_recurrence_solve(curve_matrix((2, 3)), 1, beta, f_table, h_init=h_init,
                                num_terms=40)
    assert got == want and list(got) == list(want)
    assert all(type(c) is F for c in got.values())


def test_envelope_fit_recovers_a_geometric_sequence():
    C, D = gevrey_envelope_fit([0.0] + [3 * 2.0**m for m in range(1, 12)])
    assert D == pytest.approx(2.0, rel=1e-12)
    assert C == pytest.approx(3.0, rel=1e-12)
    assert gevrey_envelope_fit([5.0]) == (5.0, 1.0)


def test_recurrence_gevrey_envelope():
    A = curve_matrix((2, 3))
    h = ext1_recurrence_solve(A, 1, 1, {(0, 0): F(1)}, num_terms=40)
    s = F(3, 2)
    for k in (0, 1):
        vals = []
        for m in range(41):
            c = h[(k, m)]
            vals.append(
                0.0 if c == 0
                else math.exp(log_abs(*c.as_integer_ratio())
                              - float(s - 1) * math.lgamma(k + 2 * m + 1))
            )
        C, D = gevrey_envelope_fit(vals)
        assert all(v <= C * D**m * (1 + 1e-9) for m, v in enumerate(vals))
        assert 0 < D < 50  # geometric, not factorial, growth after rescaling


# ---------------------------------------------------------------------------
# Ext^1 generator


@pytest.mark.parametrize(
    "entries,beta",
    [((1, 2, 5), 0), ((1, 2, 5), 3), ((1, 2, 3), 4), ((1, 3, 4, 5), 2), ((1, 3, 7), 5),
     ((2, 3), 2), ((2, 3), 5), ((2, 3), 6), ((3, 5), 8), ((3, 7), 13), ((5, 7), 24)],
)
def test_ext1_generator_matches_operator_application(entries, beta):
    system = build_system(entries, beta)
    n = len(entries)
    # all generators except the distinguished one kill phi_vtilde; for a
    # plane matrix toric[n - 3] is toric[-1], its only binomial
    distinguished = system.toric[n - 3]
    closed = ext1_generator(entries, beta)
    closed_by_exponent = {
        tuple(b + x for b, x in zip(closed.base, u)): c
        for u, c in closed.terms.items()
    }
    for bound in (40, 60):  # the image is finite: the same at both bounds
        phi = modified_series(system, TruncationFrontier.uniform(n, bound))
        for op in system.operators:
            img = apply_operator(op, phi)
            if op is distinguished:
                assert not img.is_zero()
            else:
                assert img.is_zero()
        img = apply_operator(distinguished, phi)
        by_exponent = {
            tuple(b + x for b, x in zip(img.base, u)): c for u, c in img.terms.items()
        }
        assert by_exponent == closed_by_exponent, bound
    # the image sits on the slab -a_free <= x_solved <= -1: x_{n-1}^{-1}
    # C[x_1, .., x_{n-2}, x_n] for a smooth matrix, one monomial for (a b)
    solved, low = (0, -entries[1]) if n == 2 else (n - 2, -1)
    for exp in closed_by_exponent:
        assert low <= exp[solved] <= -1
        assert all(e >= 0 and e.denominator == 1 for i, e in enumerate(exp) if i != solved)
    if n == 2:
        assert len(closed.terms) == 1


def ext1_factorial_terms(entries, beta):
    """The terms of ext1_generator from (beta + a_{n-1})! / (e_1! prod m_i!)
    over a recursion on m (test oracle)."""
    n = len(entries)
    others = [i for i in range(1, n) if i != n - 2]
    top = math.factorial(beta + entries[n - 2])
    terms = {}

    def rec(pos, m, cost):
        if pos == len(others):
            e1 = beta - cost
            denom = math.factorial(e1)
            for mi in m:
                denom *= math.factorial(mi)
            u = [0] * n
            u[0] = e1
            for i, mi in zip(others, m):
                u[i] = mi
            terms[tuple(u)] = F(top, denom)
            return
        i = others[pos]
        mi = 0
        while cost + entries[i] * mi <= beta:
            rec(pos + 1, m + [mi], cost + entries[i] * mi)
            mi += 1

    rec(0, [], 0)
    return terms


@pytest.mark.parametrize("entries", [(1, 2, 3), (1, 2, 5), (1, 3, 7), (1, 3, 4, 5),
                                     (1, 2, 3, 7), (1, 4, 5, 6, 7)])
def test_ext1_generator_matches_factorial_formula(entries):
    for beta in range(12):
        gen = ext1_generator(curve_matrix(entries), beta)
        assert gen.terms == ext1_factorial_terms(entries, beta)


@st.composite
def smooth_ext1_requests(draw):
    n = draw(st.integers(3, 5))
    rest = draw(st.lists(st.integers(2, 12), min_size=n - 1, max_size=n - 1, unique=True))
    return (1, *sorted(rest)), draw(st.integers(0, 15))


@settings(max_examples=60, deadline=None)
@given(smooth_ext1_requests())
def test_ext1_generator_matches_factorial_formula_on_a_grid(request):
    entries, beta = request
    gen = ext1_generator(entries, beta)
    assert gen.exact
    assert gen.base == tuple(F(-(i == len(entries) - 2)) for i in range(len(entries)))
    assert gen.terms == ext1_factorial_terms(entries, beta)


def test_ext1_generator_seven_columns():
    entries = (1, 2, 3, 4, 5, 6, 7)
    gen = ext1_generator(entries, 30)
    assert len(gen.terms) == 1091
    assert gen.terms == ext1_factorial_terms(entries, 30)


def test_ext1_generator_large_beta():
    # the slab pins x_{n-1} = -1, so the walk's request is the 1-d ball of
    # x_3 at radius (beta + 4) // 5, far below the term cap
    gen = ext1_generator((1, 2, 5), 10**4)
    assert len(gen.terms) == 10**4 // 5 + 1
    assert gen.terms[(10**4, 0, 0)] == (10**4 + 2) * (10**4 + 1)


def test_ext1_generator_single_monomial_case():
    gen = ext1_generator((1, 2, 5), 0)
    assert gen.exact
    assert gen.terms == {(0, 0, 0): F(2)}  # 2 * x2^{-1}


def test_ext1_generator_validation():
    with pytest.raises(InvalidInputError, match="outside the semigroup"):
        ext1_generator((2, 3), 1)  # 1 is not in N(2 3)
    for entries in ((2, 3), (1, 2, 5)):
        with pytest.raises(InvalidInputError, match="outside the semigroup"):
            ext1_generator(entries, F(1, 2))
        with pytest.raises(InvalidInputError, match="outside the semigroup"):
            ext1_generator(entries, -2)
    with pytest.raises(InvalidInputError, match="general matrix"):
        ext1_generator((3, 4, 5), 3)

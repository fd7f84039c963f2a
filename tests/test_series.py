import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gkzcurve.errors import InvalidInputError
from gkzcurve.gamma import gamma_series, singular_exponents
from gkzcurve.gevrey import polynomial_solution
from gkzcurve.series import (
    TruncatedSeries,
    TruncationFrontier,
    WeylOperator,
    apply_operator,
    verify_annihilation,
)
from gkzcurve.system import build_system


def frontier2(bound=10):
    return TruncationFrontier.uniform(2, bound)


def test_frontier_membership_and_shrink():
    fr = TruncationFrontier.uniform(2, 7)
    assert fr.contains((2, -5)) and not fr.contains((-3, 5))
    assert fr.shrink(3) == TruncationFrontier(2, 4)
    assert hash(fr.shrink(3)) == hash(TruncationFrontier(2, 4))
    assert fr != TruncationFrontier(3, 7) and fr != TruncationFrontier(2, 6)
    assert fr.to_json() == {"weight": [1, 1], "bound": 7}
    with pytest.raises(TypeError):  # every frontier names its bound
        TruncationFrontier.uniform(2)


@pytest.mark.parametrize("bound", [2.5, 2.0, "3", None, True])
def test_frontier_bound_must_be_an_integer(bound):
    with pytest.raises(InvalidInputError, match="integer"):
        TruncationFrontier.uniform(2, bound)


def test_series_normalization():
    f = TruncatedSeries((F(1, 2), 0), {(0, 0): 1, (3, -2): 0}, frontier2())
    assert f.terms == {(0, 0): F(1)}
    with pytest.raises(InvalidInputError):
        TruncatedSeries((0, 0), {(11, 0): 1}, frontier2())


def test_series_frontier_must_match_base_dimension():
    with pytest.raises(InvalidInputError, match="dimension"):
        TruncatedSeries((0, 0), {(1, -1): 1}, TruncationFrontier(3, 5))
    with pytest.raises(InvalidInputError, match="dimension"):
        TruncatedSeries((0, 0, 0), {}, TruncationFrontier(2, 5), exact=True)


def test_series_json_round_trip():
    f = TruncatedSeries(
        (F(-1), F(1)), {(0, 0): 1, (-3, 2): F(-1, 2)}, frontier2()
    )
    data = json.loads(json.dumps(f.to_json()))
    assert data == {
        "base": ["-1", "1"],
        "terms": [  # sorted lexicographically
            {"offset": [-3, 2], "coeff": "-1/2"},
            {"offset": [0, 0], "coeff": "1"},
        ],
        "frontier": {"weight": [1, 1], "bound": 10},
        "exact": False,
    }


def test_apply_derivative_to_monomial():
    # d_1 (x_1^{5/2}) = 5/2 x_1^{3/2}
    f = TruncatedSeries((F(5, 2), F(0)), {(0, 0): 1}, frontier2())
    g = apply_operator(WeylOperator(2, [(1, (0, 0), (1, 0))]), f)
    assert g.coefficient((-1, 0)) == F(5, 2)
    assert g.frontier.bound == 9


def test_euler_kills_weight_beta_monomials():
    # E(beta) x^v = (A.v - beta) x^v, so weight-zero monomials die at beta=0
    fr = frontier2(30)
    f = TruncatedSeries((F(3), F(-2)), {(0, 0): 1}, fr)
    E = WeylOperator.euler((2, 3), 0)  # 2*3 + 3*(-2) = 0
    assert apply_operator(E, f).is_zero()
    E1 = WeylOperator.euler((2, 3), 1)
    assert apply_operator(E1, f).coefficient((0, 0)) == -1


def test_operator_linearity_and_composition():
    fr = frontier2(20)
    f = TruncatedSeries((F(1, 2), F(1)), {(0, 0): 1, (3, -2): F(2, 3)}, fr)
    P = WeylOperator.from_lattice((3, -2))
    E = WeylOperator.euler((2, 3), F(1, 2))
    lhs = apply_operator(WeylOperator(2, P.terms + E.terms), f)
    p, e = apply_operator(P, f), apply_operator(E, f)
    rhs = {u: p.coefficient(u) + e.coefficient(u) for u in set(p.terms) | set(e.terms)
           if lhs.frontier.contains(u)}
    assert lhs.terms == {u: c for u, c in rhs.items() if c != 0}


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
def test_apply_operator_is_linear_in_coefficients(c1, c2):
    fr = frontier2(12)
    f = TruncatedSeries((F(0), F(0)), {(0, 0): c1, (3, -2): c2}, fr)
    op = WeylOperator.euler((2, 3), F(1, 7))
    g = apply_operator(op, f)
    f3 = TruncatedSeries(f.base, {u: 3 * c for u, c in f.terms.items()}, fr)
    g3 = apply_operator(op, f3)
    assert g3.frontier == g.frontier
    assert g3.terms == {u: 3 * c for u, c in g.terms.items()}


def test_verify_annihilation_reports():
    fr = frontier2(20)
    f = TruncatedSeries((F(0), F(0)), {(0, 0): 1}, fr)
    E0 = WeylOperator.euler((2, 3), 0)   # kills constants
    E1 = WeylOperator.euler((2, 3), 1)   # does not
    r0, r1 = verify_annihilation([E0, E1], f)
    assert r0.annihilated and r0.max_residual_offset is None
    assert r1.residual_term_count == 1 and r1.max_residual_offset == (0, 0)


def test_exact_series_skip_frontier_shrink():
    fr = frontier2(4)
    f = TruncatedSeries((F(2), F(0)), {(0, 0): 1, (6, 0): 1}, fr, exact=True)
    g = apply_operator(WeylOperator(2, [(1, (0, 0), (2, 0))]), f)
    assert g.exact and g.frontier.bound == 4
    assert g.coefficient((-2, 0)) == 2          # d^2 x^2 = 2
    assert g.coefficient((4, 0)) == 8 * 7       # d^2 x^8


# ---------------------------------------------------------------------------
# apply_operator against the term-by-term loop


def apply_operator_termwise(op, f):
    """Every operator term times every source term, one Fraction at a time:
    the loop apply_operator ran before it grouped terms by shift (test
    oracle)."""
    if f.exact:
        new_frontier, exact = f.frontier, True
    else:
        new_frontier, exact = f.frontier.shrink(op.max_shift()), False
    acc = {}
    for c_op, p, q in op.terms:
        for u, c in f.terms.items():
            factor = F(1)
            for b, ui, qi in zip(f.base, u, q):
                for j in range(qi):
                    factor *= b + ui - j
            if factor == 0:
                continue
            newu = tuple(ui - qi + pi for ui, qi, pi in zip(u, q, p))
            if not exact and not new_frontier.contains(newu):
                continue
            acc[newu] = acc.get(newu, F(0)) + c_op * c * factor
    return TruncatedSeries(f.base, acc, new_frontier, exact)


def from_lattice_oracle(u):
    """box_u through the general normaliser WeylOperator(n, terms)."""
    z = (0,) * len(u)
    return WeylOperator(len(u), [(1, z, [max(x, 0) for x in u]),
                                 (-1, z, [max(-x, 0) for x in u])])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=6)
       | st.integers(1, 6).map(lambda n: [0] * n))
def test_from_lattice_matches_the_general_normaliser(u):
    want = from_lattice_oracle(u)
    for arg in (tuple(u), u, [F(x) for x in u]):  # entries coerced by int
        got = WeylOperator.from_lattice(arg)
        assert got.n == want.n and got.terms == want.terms
        assert len(got.terms) == (2 if any(u) else 0)
        for (c, p, q), (wc, _, _) in zip(got.terms, want.terms):
            assert type(c) is type(wc) is F
            assert type(p) is type(q) is tuple
            assert all(type(x) is int for x in p + q)
        assert got == want and hash(got) == hash(want)
        assert got.max_shift() == want.max_shift()
        assert got.to_json() == want.to_json()


SMALL_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def weyl_operators(draw, n):
    """A few shifts, each shared by several terms x^p d^q with p - q = shift."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        shift = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        for _ in range(draw(st.integers(1, 3))):
            q = [draw(st.integers(max(0, -s), 3)) for s in shift]
            p = [qi + s for qi, s in zip(q, shift)]
            terms.append((draw(SMALL_RATIONALS), p, q))
    return WeylOperator(n, terms)


@st.composite
def truncated_series(draw, n):
    base = draw(st.lists(st.sampled_from([F(-2), F(0), F(3), F(1, 2), F(-5, 3)]),
                         min_size=n, max_size=n))
    frontier = TruncationFrontier.uniform(n, draw(st.integers(0, 8)))
    exact = draw(st.booleans())
    offsets = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    if not exact:
        offsets = offsets.filter(frontier.contains)
    terms = draw(st.dictionaries(offsets, SMALL_RATIONALS, max_size=8))
    return TruncatedSeries(base, terms, frontier, exact)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(weyl_operators(n), truncated_series(n))))
def test_apply_operator_matches_termwise_loop(pair):
    op, f = pair
    got, want = apply_operator(op, f), apply_operator_termwise(op, f)
    assert got.terms == want.terms
    assert got.frontier == want.frontier and got.exact == want.exact


def test_apply_operator_matches_termwise_loop_on_gamma_series():
    for entries, beta, bound in (((2, 3), F(1, 2), 200), ((1, 2, 5), F(3, 2), 40),
                                 ((1, 2, 3, 5), F(1), 16)):
        system = build_system(entries, beta)
        f = gamma_series(singular_exponents(system)[0], system,
                         TruncationFrontier.uniform(system.n, bound))
        for op in system.operators:
            assert apply_operator(op, f).terms == apply_operator_termwise(op, f).terms
        # non-annihilating: the operators at beta + 1 (E leaves -f), and the
        # same coefficients on the base moved by e_0, off which the binomials
        # leave two nonzero contributions per target
        moved = TruncatedSeries((f.base[0] + 1,) + f.base[1:], f.terms, f.frontier)
        for g, ops in ((f, build_system(entries, beta + 1).operators),
                       (moved, system.operators)):
            residuals = [apply_operator(op, g) for op in ops]
            assert sum(len(r.terms) for r in residuals) > len(g.terms) // 2
            for op, got in zip(ops, residuals):
                want = apply_operator_termwise(op, g)
                assert got.terms == want.terms
                assert got.frontier == want.frontier
    # an exact series: the polynomial solution, with every operator
    system = build_system((1, 2, 5), 12)
    _, f = polynomial_solution((1, 2, 5), 12)
    for op in system.operators:
        got = apply_operator(op, f)
        assert got.terms == apply_operator_termwise(op, f).terms and got.exact


# ---------------------------------------------------------------------------
# verify_annihilation against the term-by-term loop


def report_fields(reports):
    return [(r.residual_term_count, r.max_residual_offset, r.frontier_bound, r.annihilated)
            for r in reports]


def verify_annihilation_termwise(ops, f):
    """The report fields of each operator, from apply_operator_termwise."""
    fields = []
    for op in ops:
        g = apply_operator_termwise(op, f)
        worst = max(g.terms, key=lambda u: (sum(map(abs, u)), u), default=None)
        fields.append((len(g.terms), worst, g.frontier.bound, not g.terms))
    return fields


@st.composite
def operator_lists(draw, n):
    """A series and random operators mixed with ones that annihilate it: the
    zero operator, an Euler operator sum a_j x_j d_j - a.base (on a series
    kept to a.u = 0), and for a truncated series a shift past its bound."""
    f = draw(truncated_series(n))
    a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if draw(st.booleans()):
        f = TruncatedSeries(f.base, {u: c for u, c in f.terms.items()
                                     if sum(x * y for x, y in zip(a, u)) == 0},
                            f.frontier, f.exact)
    killers = [WeylOperator(n, ()),
               WeylOperator.euler(a, sum(x * b for x, b in zip(a, f.base)))]
    if not f.exact:
        far = [f.frontier.bound + 1] + [0] * (n - 1)
        killers.append(WeylOperator(n, [(F(3, 2), far, [0] * n)]))
    ops = draw(st.lists(weyl_operators(n) | st.sampled_from(killers), max_size=6))
    return ops, f


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(operator_lists))
def test_verify_annihilation_matches_termwise_loop(pair):
    ops, f = pair
    reports = verify_annihilation(ops, f)
    assert [r.operator for r in reports] == ops
    assert report_fields(reports) == verify_annihilation_termwise(ops, f)


def test_verify_annihilation_mixes_annihilating_and_other_operators():
    for entries, beta, bound in (((2, 3), F(1, 2), 120), ((1, 2, 5), F(3, 2), 30),
                                 ((1, 2, 3, 5), F(1), 14)):
        system, other = build_system(entries, beta), build_system(entries, beta + 1)
        f = gamma_series(singular_exponents(system)[0], system,
                         TruncationFrontier.uniform(system.n, bound))
        moved = TruncatedSeries((f.base[0] + 1,) + f.base[1:], f.terms, f.frontier)
        ops = [op for pair in zip(system.operators, other.operators) for op in pair]
        verdicts = []
        for g in (f, moved):
            got = report_fields(verify_annihilation(ops, g))
            assert got == verify_annihilation_termwise(ops, g)
            verdicts.append([r[3] for r in got])
        # f: all but the last, the Euler operator at beta + 1; moved: no binomial
        assert verdicts[0] == [True] * (len(ops) - 1) + [False]
        assert not any(verdicts[1][:-2])


def test_verify_annihilation_finds_near_misses_at_bench_size():
    # the (2 3) series at bound 2000, beta = 7/2, exponent 1: 401 coefficients
    # of up to 7,155 bits, the largest of the benchmark
    system = build_system((2, 3), F(7, 2))
    f = gamma_series(singular_exponents(system)[1], system, TruncationFrontier.uniform(2, 2000))
    box = system.toric[0]
    # two operators whose three shifts (-3, 0), (0, -2), (3, -4), all of
    # A-degree -6, hit each target: (1 + x_1^3 d_2^2) box, which annihilates
    # f, and box + x_1^3 d_2^4, which does not
    ops = [*system.operators,
           WeylOperator(2, [*box.terms, *[(c, (3, 0), (q[0], q[1] + 2)) for c, _, q in box.terms]]),
           WeylOperator(2, [*box.terms, (1, (3, 0), (0, 4))])]
    assert report_fields(verify_annihilation(ops, f)) == verify_annihilation_termwise(ops, f)
    assert [r.annihilated for r in verify_annihilation(ops, f)] == [True, True, True, False]
    # corrupt the largest coefficient c whose targets all lie in the checked
    # frontier, one way at a time: c + 1 keeps the denominator, so a target's
    # divmod leaves no remainder but the numerators differ; c / p, p prime,
    # leaves a remainder; -c flips the sign
    u = max((u for u in f.pairs if sum(map(abs, u)) <= 1990), key=lambda u: abs(f.pairs[u][0]))
    c, den, prime = f.terms[u], f.pairs[u][1], 2**61 - 1
    assert c.numerator.bit_length() > 7000
    for bad, bad_den in ((c + 1, den), (c / prime, prime * den), (-c, den)):
        g = TruncatedSeries(f.base, {**f.terms, u: bad}, f.frontier)
        assert g.pairs[u][1] == bad_den
        got = report_fields(verify_annihilation(ops, g))
        assert got == verify_annihilation_termwise(ops, g)
        assert [r[3] for r in got] == [False, True, False, False]  # E acts termwise


def test_a_remainder_keeps_a_matching_quotient_from_cancelling():
    # (1 - x) f at offset 1 sums 1/3 and -2/7: divmod(7, 3) = (2, 1) and
    # 1 * 2 == 2 * 1, so only the remainder shows that the sum is not 0
    f = TruncatedSeries((F(0),), {(0,): F(2, 7), (1,): F(1, 3)}, TruncationFrontier.uniform(1, 4))
    op = WeylOperator(1, [(1, (0,), (0,)), (-1, (1,), (0,))])
    got = apply_operator(op, f)
    assert got.terms == apply_operator_termwise(op, f).terms
    assert got.coefficient((1,)) == F(1, 21)


# ---------------------------------------------------------------------------
# edges of the packed offsets


def test_exact_series_targets_beyond_every_stored_offset():
    # max |u_i| = 1, shifts up to 12: every target lies past the stored offsets
    f = TruncatedSeries((F(0), F(2)), {(0, 0): 1, (1, -1): F(-3, 2), (0, 1): 5},
                        frontier2(0), exact=True)
    ops = [WeylOperator(2, [(1, (9, 0), (0, 0))]),
           WeylOperator(2, [(2, (0, 12), (1, 0)), (-1, (7, 7), (0, 0))]),
           WeylOperator(2, [(1, (0, 0), (0, 11)), (F(1, 3), (0, 10), (10, 0))]),
           WeylOperator.from_lattice((-12, 12))]
    g = apply_operator(ops[0], f)
    assert g.terms == {(9, 0): 1, (10, -1): F(-3, 2), (9, 1): 5}
    assert g.exact and g.frontier.bound == 0
    assert apply_operator(ops[1], f).coefficient((7, 8)) == -5
    for op in ops:
        assert apply_operator(op, f).terms == apply_operator_termwise(op, f).terms
    assert report_fields(verify_annihilation(ops, f)) == verify_annihilation_termwise(ops, f)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("base", [F(1, 2), F(-2), F(-5, 3), F(0)], ids=str)
@pytest.mark.parametrize("exact", [False, True])
def test_offsets_at_plus_and_minus_m_in_every_coordinate(n, base, exact):
    m = 3
    corners = [tuple(m if (k >> i) & 1 else -m for i in range(n)) for k in range(2 ** n)]
    terms = {u: F(k + 1, k + 2) * (-1) ** k for k, u in enumerate(corners)}
    terms[(0,) * n] = 7
    f = TruncatedSeries((base,) * n, terms, TruncationFrontier.uniform(n, n * m + 2), exact)
    ones, twos = (1,) * n, (2,) * n
    ops = [WeylOperator(n, [(1, ones, (0,) * n), (-1, (0,) * n, twos)]),  # every coordinate
           WeylOperator.from_lattice([(-1) ** i * 2 for i in range(n)]),
           WeylOperator.euler(range(1, n + 1), F(1, 2))]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        ops.append(WeylOperator(n, [(F(-1, 3), [2 * x for x in e], e), (5, e, [3 * x for x in e])]))
    assert report_fields(verify_annihilation(ops, f)) == verify_annihilation_termwise(ops, f)
    for op in ops:
        got, want = apply_operator(op, f), apply_operator_termwise(op, f)
        assert got.terms == want.terms and got.frontier == want.frontier


def test_verify_annihilation_checks_every_operator_dimension():
    f = TruncatedSeries((F(1, 2), F(0)), {(0, 0): 1, (2, -1): 3}, frontier2())
    E, wrong = WeylOperator.euler((2, 3), 0), WeylOperator.euler((1, 2, 3), 1)
    assert verify_annihilation([], f) == []
    assert verify_annihilation(iter([E, E]), f)[1].residual_term_count == 2
    for ops in ([wrong], [wrong, E], [E, E, wrong], [E, wrong, E]):
        with pytest.raises(InvalidInputError, match="dimension"):
            verify_annihilation(ops, f)
    with pytest.raises(InvalidInputError, match="dimension"):
        apply_operator(wrong, f)

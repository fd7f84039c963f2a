import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gkzcurve import gamma as gamma_module
from gkzcurve.errors import InvalidInputError
from gkzcurve.gamma import (
    _beta_in_semigroup,
    _exponent_axes,
    _polynomial_exponent,
    _ratio_step,
    _series_terms,
    gamma_coefficient,
    gamma_series,
    generic_exponents,
    has_minimal_nsupp,
    lift,
    modified_exponent,
    modified_series,
    nsupp,
    restrict_series_x0,
    singular_exponents,
)
from gkzcurve.lattice import (_lattice_runs, curve_matrix, delta_j_set, enumerate_offsets,
                              homogenize_matrix)
from gkzcurve.rationals import falling_product
from gkzcurve.series import TruncationFrontier, verify_annihilation
from gkzcurve.system import HypergeometricSystem, build_system


def test_nsupp_only_counts_negative_integers():
    assert nsupp((F(-1), F(2))) == {0}
    assert nsupp((F(-1, 2), F(-3))) == {1}
    assert nsupp((F(0), F(5))) == set()
    assert nsupp((F(-2), F(-1), F(-7, 3))) == {0, 1}


def test_minimal_support_plane():
    A = curve_matrix((2, 3))
    # v = (-1, 1): translates (2, -1), (-4, 3), ... never have empty support
    assert has_minimal_nsupp((F(-1), F(1)), A).minimal
    # the modified exponent (-2, 2) for beta = 2 is NOT minimal: (1, 0) works
    res = has_minimal_nsupp((F(-2), F(2)), A)
    assert not res.minimal and res.exact


def test_minimal_support_smooth_is_exact():
    A = curve_matrix((1, 2, 5))
    # nonnegative support is minimal by definition, no search needed
    assert has_minimal_nsupp((F(0), F(1, 2), F(0)), A).exact
    # clearing the middle coordinate of (0, -1, 0) needs a point of N^3 with
    # A.w = -2, and there is none: minimal
    res = has_minimal_nsupp((F(0), F(-1), F(0)), A)
    assert res.minimal and res.exact
    # vtilde = (2, -1, 0) translates to (0, 0, 0): not minimal
    assert not has_minimal_nsupp((F(2), F(-1), F(0)), A).minimal
    # the only witnesses lie far outside a box of radius 160, e.g.
    # u = (-200, 0, 40) gives (-399/2, 0, 0)
    res = has_minimal_nsupp((F(1, 2), F(0), F(-40)), A)
    assert not res.minimal and res.exact
    # four columns: beta = -1 is outside the semigroup
    res = has_minimal_nsupp((F(0), F(0), F(-1), F(0)), curve_matrix((1, 2, 3, 5)))
    assert res.minimal and res.exact
    # beta = 3 * 10^7 - 2 lies far above the term cap, in the semigroup of (2 3)
    res = has_minimal_nsupp((F(-1), F(10**7)), curve_matrix((2, 3)))
    assert not res.minimal and res.exact


def nsupp_box_scan(v, A, radius):
    """Minimal negative support by scanning every u in ker A with
    |u_i| <= radius (a bounded search: exact only if a witness, when one
    exists, lies in the box)."""
    base_supp = nsupp(v)
    if not base_supp:
        return True
    frontier = TruncationFrontier.uniform(A.n, radius * A.n)
    for u in enumerate_offsets(A, frontier):
        if any(abs(x) > radius for x in u):
            continue
        if nsupp(tuple(a + b for a, b in zip(v, u))) < base_supp:
            return False
    return True


@st.composite
def nsupp_inputs(draw):
    n = draw(st.sampled_from([2, 3]))
    if n == 2:
        a = draw(st.integers(1, 7))
        b = draw(st.integers(a + 1, 8).filter(lambda b: math.gcd(a, b) == 1))
        entries = (a, b)
    else:
        entries = (1, *sorted(draw(st.sets(st.integers(2, 8), min_size=2, max_size=2))))
    v = draw(st.lists(st.one_of(st.integers(-3, 3).map(F),
                                st.sampled_from([F(-5, 2), F(-1, 3), F(1, 2), F(7, 3)])),
                      min_size=n, max_size=n))
    return curve_matrix(entries), tuple(v)


@settings(max_examples=40, deadline=None)
@given(nsupp_inputs())
def test_minimal_support_matches_box_scan(data):
    A, v = data
    res = has_minimal_nsupp(v, A)
    assert res.exact
    assert res.minimal == nsupp_box_scan(v, A, 64)


def test_gamma_coefficient_example():
    # A = (2 3), v = (1/2, 0), u = (-3, 2): (v)_{(3,0)} / (v+u)_{(0,2)} = 3/16
    assert gamma_coefficient((F(1, 2), F(0)), (-3, 2)) == F(3, 16)
    # coefficient at the lattice origin is always 1
    assert gamma_coefficient((F(1, 2), F(0)), (0, 0)) == 1
    # support-breaking offsets give 0
    assert gamma_coefficient((F(-1), F(1)), (3, -2)) == 0


def test_gamma_coefficient_against_factorial_ratio_oracle():
    """For integer v >= 0 and v + u >= 0, Gamma[v;u] = prod_i v_i!/(v_i+u_i)!."""
    rng = random.Random(20240817)
    matrices = [(2, 3), (2, 5), (3, 4), (1, 2, 5), (3, 4, 5)]
    checked = 0
    while checked < 100:
        ent = matrices[rng.randrange(len(matrices))]
        A = curve_matrix(ent)
        offs = [u for u in enumerate_offsets(A, TruncationFrontier.uniform(A.n, 18))
                if any(u)]
        u = offs[rng.randrange(len(offs))]
        v = tuple(rng.randrange(0, 12) for _ in ent)
        if any(vi + ui < 0 for vi, ui in zip(v, u)):
            continue
        oracle = F(1)
        for vi, ui in zip(v, u):
            oracle *= F(math.factorial(vi), math.factorial(vi + ui))
        assert gamma_coefficient(tuple(map(F, v)), u) == oracle
        checked += 1


@pytest.mark.parametrize(
    "entries,beta",
    [((2, 3), 0), ((2, 3), F(7, 2)), ((2, 5), 2), ((1, 2, 5), 1), ((1, 3, 7), F(1, 3))],
)
def test_exponent_counts_weights_and_supports(entries, beta):
    system = build_system(entries, beta)
    A = system.matrix
    sing = singular_exponents(system)
    gen = generic_exponents(system)
    if A.family == "plane":
        assert len(sing) == entries[0] and len(gen) == entries[1]
    else:
        assert len(sing) == entries[-2] and len(gen) == entries[-1]
    for v in sing + gen:
        assert A.dot(v) == beta
        assert has_minimal_nsupp(v, A).minimal
    # exponent k sits at position k: its free coordinate holds k
    free = 1 if A.family == "plane" else 0
    assert [v[free] for v in sing] == list(range(len(sing)))
    assert [v[0] for v in gen] == list(range(len(gen)))


def test_general_family_exponents_live_on_homogenization():
    system = build_system((3, 4, 5), 2)
    sing = singular_exponents(system)
    gen = generic_exponents(system)
    assert len(sing) == 4 and len(gen) == 5
    Ah = homogenize_matrix(system.matrix)
    for v in sing + gen:
        assert len(v) == 4
        assert Ah.dot(v) == 2


def test_gamma_series_constant_term_and_annihilation():
    system = build_system((2, 3), 1)
    fr = TruncationFrontier.uniform(2, 40)
    for v in singular_exponents(system) + generic_exponents(system):
        f = gamma_series(v, system, fr)
        assert f.coefficient((0, 0)) == 1
        assert all(r.annihilated for r in verify_annihilation(system.operators, f))


def test_gamma_series_wrong_beta_rejected():
    system = build_system((2, 3), 1)
    with pytest.raises(InvalidInputError):
        gamma_series((F(1), F(1)), system, TruncationFrontier.uniform(2, 10))


def test_modified_exponent_plane():
    # beta = 2 = 0*3 + 1*2: q = 0, m0 = 1, m' = 1, vtilde = (-2, 2)
    got = modified_exponent(build_system((2, 3), 2))
    assert got is not None
    q, vt = got
    assert q == 0 and vt == (F(-2), F(2))
    # beta = 1 is not in 2N + 3N
    assert modified_exponent(build_system((2, 3), 1)) is None
    assert modified_exponent(build_system((2, 3), F(1, 2))) is None


def test_modified_exponent_smooth():
    got = modified_exponent(build_system((1, 2, 5), 3))
    assert got is not None
    q, vt = got
    assert q == 1 and vt == (F(5), F(-1), F(0))
    # general (3 4 5): on the homogenized matrix (1 3 4 5), q = 3 mod 4
    q, vt = modified_exponent(build_system((3, 4, 5), 3))
    assert q == 3 and vt == (F(7), F(0), F(-1), F(0))
    # a homogenized matrix answers as the smooth matrix with the same
    # entries: its own semigroup holds every beta >= 0, the gaps 1, 2 of
    # <3,4,5> included
    Ah = homogenize_matrix(curve_matrix((3, 4, 5)))
    for beta in range(13):
        got = modified_exponent(build_system(Ah, beta))
        assert got == modified_exponent(build_system((1, 3, 4, 5), beta)), beta
        assert got is not None
    assert modified_exponent(build_system((3, 4, 5), 2)) is None


def modified_exponent_by_family(system):
    """The plane and smooth formulas that the one translate of
    modified_exponent replaced (test oracle)."""
    A, beta = system.matrix, system.beta
    if not _beta_in_semigroup(A, beta):
        return None
    q, poly = _polynomial_exponent(A, beta)
    ent = _exponent_axes(A, "singular")[0]
    if A.family == "plane":
        a, b = ent
        m0 = int(poly[0])
        mprime = -((m0 + 1) // -b)  # ceil((m0+1)/b)
        return q, (F(m0 - b * mprime), F(q + a * mprime))
    n = len(ent)
    v = [F(0)] * n
    v[0] = beta + ent[n - 2]
    v[n - 2] = F(-1)
    return q, tuple(v)


MODIFIED_GRID = (
    [(a, b) for b in range(2, 13) for a in range(1, b) if math.gcd(a, b) == 1]
    + [(1, 2, 3), (1, 2, 5), (1, 3, 7), (1, 5, 6), (1, 2, 3, 5), (1, 3, 4, 5),
       (1, 3, 4, 7), (1, 4, 5, 6, 7)]
    + [(3, 4, 5), (3, 5, 7), (5, 6, 7), (2, 5, 7), (4, 5, 7), (3, 4, 7), (2, 3, 7),
       (4, 6, 9), (4, 5, 6, 7)]
)


def test_one_translate_matches_the_family_formulas():
    matrices = [curve_matrix(e) for e in MODIFIED_GRID]
    matrices += [homogenize_matrix(A) for A in matrices if A.family == "general"]
    answered = 0
    for A in matrices:
        built = build_system(A, 0)
        for beta in [F(b) for b in range(-2, 40)] + [F(1, 2)]:
            system = HypergeometricSystem(  # both read only A and beta
                built.matrix, beta, built.toric, built.euler)
            got = modified_exponent(system)
            assert got == modified_exponent_by_family(system), (A, beta)
            if got is not None:
                answered += 1
                assert all(isinstance(x, F) for x in got[1])
    assert answered > 1000


def test_modified_series_not_minimal_but_euler_killed():
    system = build_system((2, 3), 2)
    fr = TruncationFrontier.uniform(2, 40)
    f = modified_series(system, fr)
    _, vt = modified_exponent(system)
    assert not has_minimal_nsupp(vt, system.matrix).minimal
    reports = verify_annihilation(system.operators, f)
    # Euler dies, the toric operator does not (that residual is the Ext^1 class)
    assert reports[-1].annihilated
    assert not reports[0].annihilated


def test_restrict_series_x0():
    A = curve_matrix((3, 4, 5))
    hom_system = build_system(homogenize_matrix(A), 2)
    fr = TruncationFrontier.uniform(4, 24)
    v = singular_exponents(hom_system)[1]
    f = gamma_series(v, hom_system, fr)
    r = restrict_series_x0(f)
    assert r.n == 3
    assert r.frontier.bound == 24 - int(v[0])
    # every kept term had x0-exponent zero and keeps its coefficient
    for u, c in r.terms.items():
        full = (-int(v[0]),) + u
        assert f.coefficient(full) == c
    # restricted series is killed by the general system (generic beta fact)
    gen_system = build_system(A, 2)
    assert all(r2.annihilated for r2 in verify_annihilation(gen_system.operators, r))


def test_lift_homogenizes_only_a_general_matrix():
    A = curve_matrix((3, 4, 5))
    Ah, series = lift(A)
    assert Ah == homogenize_matrix(A)
    system, fr = build_system(Ah, F(1, 2)), TruncationFrontier.uniform(4, 20)
    for v in singular_exponents(system):
        want = restrict_series_x0(gamma_series(v, system, fr))
        assert series(v, system, fr).to_json() == want.to_json()
    for entries in ((2, 3), (1, 2, 5)):
        system = build_system(entries, 1)
        same, builder = lift(system.matrix)
        assert same is system.matrix and builder is gamma_series
    assert lift(Ah)[0] is Ah


@pytest.mark.parametrize("entries", [(3, 4, 5), (3, 5, 7), (5, 6, 7), (2, 5, 7), (4, 5, 6, 7),
                                     (3, 4, 5, 7, 8)], ids=str)
def test_lift_builder_matches_lift_then_restrict(entries):
    # oracle: the whole lifted series, filtered to x_0 = 0 by restrict_series_x0
    Ah, series = lift(curve_matrix(entries))
    for beta in (F(0), F(7), F(-3), F(1, 2), F(5, 3)):
        system = build_system(Ah, beta)
        for v in singular_exponents(system) + generic_exponents(system):
            j = int(v[0])
            for bound in sorted({0, max(j - 1, 0), j, j + 3, 9}):
                fr = TruncationFrontier.uniform(Ah.n, bound)
                want = restrict_series_x0(gamma_series(v, system, fr))
                assert series(v, system, fr).to_json() == want.to_json(), (beta, v, bound)


def test_lift_builder_checks_its_input():
    Ah, series = lift(curve_matrix((3, 4, 5)))
    fr = TruncationFrontier.uniform(4, 10)
    # the slice of an x_0-exponent outside N is not walked
    for beta, v in ((F(1, 2), (F(1, 2), 0, 0, 0)), (F(2), (-1, 1, 0, 0))):
        with pytest.raises(InvalidInputError, match="nonnegative integer"):
            series(v, build_system(Ah, beta), fr)
    # and it checks v, beta and the frontier as gamma_series does
    system = build_system(Ah, 3)
    for v, frontier, match in (((3, 0, 0), fr, "exponent dimension"),
                               ((3, 1, 0, 0), fr, "differs from beta"),
                               ((3, 0, 0, 0), TruncationFrontier.uniform(3, 10), "frontier")):
        with pytest.raises(InvalidInputError, match=match):
            series(v, system, frontier)


@pytest.mark.parametrize("entries", [(3, 4, 5), (3, 5, 7), (4, 5, 6, 7), (2, 5, 7), (5, 6, 7),
                                     (3, 4, 5, 7, 8)], ids=str)
def test_delta_j_set_indexes_the_slice_of_singular_exponent_j(entries):
    # Delta_j is the support of the slice of singular exponent j of A' at
    # beta = j - A.entries[n - 2], bound D + j, with coordinate n - 2 negated
    A = curve_matrix(entries)
    Ah, series = lift(A)
    pivot = A.n - 2
    for j in range(A.entries[pivot]):
        system = build_system(Ah, j - A.entries[pivot])
        v = singular_exponents(system)[j]
        for D in (0, 3, 8, 14):
            f = series(v, system, TruncationFrontier.uniform(Ah.n, D + j))
            support = sorted(tuple(-x if i == pivot else x for i, x in enumerate(u))
                             for u in f.terms)
            assert support == delta_j_set(Ah, j, D), (j, D)


# ---------------------------------------------------------------------------
# gamma_series against the full-ball walk


def gamma_coefficient_termwise(v, u):
    """Gamma[v; u] from the definition, one Fraction factor at a time, and 0
    when v + u changes the negative support (test oracle)."""
    shifted = tuple(a + b for a, b in zip(v, u))
    if nsupp(shifted) != nsupp(v):
        return F(0)
    out = F(1)
    for vi, si, ui in zip(v, shifted, u):
        for j in range(max(-ui, 0)):
            out *= vi - j
        for j in range(max(ui, 0)):
            out /= si - j
    return out


def gamma_series_full_ball(v, system, frontier):
    """Every kernel offset of the frontier ball, kept where the coefficient
    is nonzero: the walk gamma_series made before it passed the box of N_v
    to the enumerator (test oracle)."""
    terms = {}
    for u in enumerate_offsets(system.matrix, frontier):
        c = gamma_coefficient(v, u)
        assert c == gamma_coefficient_termwise(v, u)
        if c != 0:
            terms[u] = c
    return terms


EXPONENT_ENTRIES = st.sampled_from([F(-3), F(-1), F(0), F(1), F(2), F(-5, 2), F(1, 3),
                                    F(-7, 4)])


@st.composite
def series_requests(draw):
    entries, bound = draw(st.sampled_from([((2, 3), 30), ((2, 5), 30), ((3, 4), 30),
                                           ((1, 2, 5), 12), ((1, 3, 7), 12),
                                           ((1, 2, 3, 5), 7)]))
    v = tuple(draw(st.lists(EXPONENT_ENTRIES, min_size=len(entries), max_size=len(entries))))
    beta = sum(a * x for a, x in zip(entries, v))
    return build_system(entries, beta), v, TruncationFrontier.uniform(len(entries), bound)


@settings(max_examples=60, deadline=None)
@given(series_requests())
def test_gamma_series_matches_full_ball_walk(request):
    system, v, frontier = request
    f = gamma_series(v, system, frontier)
    assert f.terms == gamma_series_full_ball(v, system, frontier)
    assert f.frontier == frontier and not f.exact


def test_gamma_series_matches_full_ball_walk_on_bench_sizes():
    for entries, beta, bound in (((2, 3), F(1), 400), ((1, 2, 5), F(1, 2), 60),
                                 ((1, 2, 3, 5), F(3, 2), 24),
                                 (homogenize_matrix(curve_matrix((3, 4, 5))), F(1, 2), 20)):
        system = build_system(entries, beta)
        fr = TruncationFrontier.uniform(system.n, bound)
        for v in singular_exponents(system) + generic_exponents(system):
            assert gamma_series(v, system, fr).terms == gamma_series_full_ball(v, system, fr)


# ---------------------------------------------------------------------------
# reduced pairs against Fraction stepping


def gamma_ratio_fraction(p, q, u):
    """Gamma[v; u] for v_i = p_i / q_i as a Fraction (test oracle)."""
    num = den = 1
    for pi, qi, k in zip(p, q, u):
        if k < 0:
            num, den = num * falling_product(pi, qi, -k), den * qi**-k
        elif k:
            num, den = num * qi**k, den * falling_product(pi + k * qi, qi, k)
    return F(num, den)


def gamma_terms_fraction(p, q, z, runs):
    """The ratio steps of gamma._gamma_terms on Fraction objects, the form
    the coefficients had before they became reduced pairs (test oracle)."""
    p0, q0, d, pn, qn, s = p[0], q[0], z[0], p[-1], q[-1], z[-1]
    terms = {}
    for u, count in runs:
        c = terms[u] = gamma_ratio_fraction(p, q, u)
        u0, un, mid = u[0], u[-1], u[1:-1]
        for _ in range(count - 1):
            a, b = _ratio_step(p0, q0, u0, d)
            e, f = _ratio_step(pn, qn, un, s)
            u0 += d
            un += s
            c = terms[(u0, *mid, un)] = c * F(a * e, b * f)
    return terms


# (matrix, largest bound drawn for it)
PAIR_MATRICES = [((2, 3), 60), ((3, 7), 60), ((5, 13), 60), ((1, 2, 5), 60),
                 ((1, 3, 7), 60), ((1, 5, 6), 60), ((1, 2, 3, 5), 30),
                 (homogenize_matrix(curve_matrix((3, 4, 5))), 30),
                 (homogenize_matrix(curve_matrix((2, 5, 7))), 30)]


@st.composite
def pair_requests(draw):
    entries, top = draw(st.sampled_from(PAIR_MATRICES))
    beta = draw(st.sampled_from([F(0), F(1), F(7), F(-3), F(1, 2), F(-5, 3), F(11, 4)]))
    system = build_system(entries, beta)
    vs = singular_exponents(system) + generic_exponents(system)
    return system, vs[draw(st.integers(0, len(vs) - 1))], draw(st.integers(0, top))


@settings(max_examples=80, deadline=None)
@given(pair_requests())
def test_pair_stepping_matches_fraction_stepping(request):
    system, v, bound = request
    entries = system.matrix.entries
    pairs = _series_terms(entries, v, 0, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_module, "_gamma_terms", gamma_terms_fraction)
        want = _series_terms(entries, v, 0, bound)
    assert pairs == {u: (c.numerator, c.denominator) for u, c in want.items()}
    assert all(c for c in want.values())


@pytest.mark.parametrize("entries, beta, bound", [
    ((2, 3), F(1, 2), 2000), ((1, 2, 5), F(1, 2), 220), ((1, 2, 3, 5), F(1, 2), 60),
    (homogenize_matrix(curve_matrix((3, 4, 5))), F(1, 2), 40)])
def test_pair_stepping_matches_fraction_stepping_on_bench_sizes(entries, beta, bound):
    # long runs reuse the factor tables and step ratios of _gamma_terms many times
    system = build_system(entries, beta)
    for v in singular_exponents(system) + generic_exponents(system):
        pairs = _series_terms(system.matrix.entries, v, 0, bound)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gamma_module, "_gamma_terms", gamma_terms_fraction)
            want = _series_terms(system.matrix.entries, v, 0, bound)
        assert pairs == {u: (c.numerator, c.denominator) for u, c in want.items()}


def test_series_build_no_fraction_per_term(monkeypatch):
    system = build_system((1, 2, 5), 1)
    v = singular_exponents(system)[0]
    frontier = TruncationFrontier.uniform(3, 220)
    # v = (0, 1/2, 0): the box of N_v is u_0 >= 0, u_2 >= 0
    runs = _lattice_runs(system.matrix.entries, 0, (1, 1, 1), 220, [0, None, 0])[1]
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    f = gamma_series(v, system, frontier)
    reports = verify_annihilation(system.operators, f)
    data = f.to_json()
    monkeypatch.undo()
    assert len(f.pairs) == len(data["terms"]) == 2368 and all(r.annihilated for r in reports)
    assert len(built) <= len(runs) + sum(len(op.terms) for op in system.operators)
    assert len(built) < len(f.pairs) // 100


def test_terms_is_a_fraction_view_that_writes_pairs():
    system = build_system((2, 3), F(1, 2))
    v = singular_exponents(system)[1]
    f = gamma_series(v, system, TruncationFrontier.uniform(2, 40))
    old = {u: gamma_coefficient(v, u) for u in f.pairs}
    assert f.terms == old and dict(f.terms) == old and len(f.terms) == len(old)
    assert set(f.terms) == set(old) and all(u in f.terms for u in old)
    assert (7, 7) not in f.terms and f.coefficient((7, 7)) == 0
    assert all(isinstance(c, F) for c in f.terms.values())
    assert all((c.numerator, c.denominator) == f.pairs[u] for u, c in f.terms.items())
    u, w = sorted(f.terms)[-2:]
    f.terms[u] = f.terms[u] * 2
    assert f.pairs[u] == ((2 * old[u]).numerator, (2 * old[u]).denominator)
    f.terms[u] = F(6, -4)
    assert f.pairs[u] == (-3, 2) and f.coefficient(u) == F(-3, 2)
    f.terms[w] = 0
    assert w not in f.pairs
    del f.terms[u]
    assert u not in f.pairs and len(f.terms) == len(old) - 2
    with pytest.raises(KeyError):
        del f.terms[u]

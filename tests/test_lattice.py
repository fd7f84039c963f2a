import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gkzcurve import lattice
from gkzcurve.errors import InvalidInputError, ResourceLimitError
from gkzcurve.gamma import gamma_series, singular_exponents
from gkzcurve.lattice import (
    CurveMatrix,
    _ball_count,
    _lattice_points,
    _lattice_runs,
    curve_matrix,
    delta_j_set,
    enumerate_offsets,
    homogenize_matrix,
    in_semigroup,
    minimal_delta,
    semigroup_contains,
)
from gkzcurve.restriction import restrict_decomposition
from gkzcurve.series import TruncationFrontier
from gkzcurve.system import build_system


# ---------------------------------------------------------------------------
# matrix classification


def test_family_inference():
    assert curve_matrix((2, 3)).family == "plane"
    assert curve_matrix((1, 2, 5)).family == "smooth"
    assert curve_matrix((3, 4, 5)).family == "general"
    A = curve_matrix((3, 4, 5))
    Ah = homogenize_matrix(A)
    assert Ah.family == "homogenized" and Ah.entries == (1, 3, 4, 5)
    # equality and hashing read the entries and the family
    plain = CurveMatrix((1,) + A.entries, "homogenized")
    assert Ah == plain and hash(Ah) == hash(plain)
    assert CurveMatrix((1, 2, 5), "smooth") != CurveMatrix((1, 2, 5), "general")


def test_a_hand_built_homogenized_matrix_is_the_homogenization():
    # the entries alone fix a homogenized matrix: its base is entries[1:]
    made = homogenize_matrix(curve_matrix((3, 4, 5)))
    plain = CurveMatrix((1, 3, 4, 5), "homogenized")
    assert CurveMatrix.__slots__ == ("entries", "family")
    for beta in (0, Fraction(1, 2), 3):
        assert build_system(plain, beta).operators == build_system(made, beta).operators
        assert (restrict_decomposition(plain, beta).to_json()
                == restrict_decomposition(made, beta).to_json())
    assert restrict_decomposition(plain, 1).components == ((curve_matrix((3, 4, 5)), 1),)
    for j in range(4):
        assert delta_j_set(plain, j, 12) == delta_j_set(made, j, 12)


@pytest.mark.parametrize(
    "entries",
    [(3, 2), (2, 4), (2,), (0, 3), (-1, 2), (2, 4, 6), (5, 3, 4), (1, 1, 2)],
)
def test_invalid_matrices_rejected(entries):
    with pytest.raises(InvalidInputError):
        curve_matrix(entries)


def test_invalid_matrix_messages():
    with pytest.raises(InvalidInputError, match="entries must be strictly increasing"):
        curve_matrix((3, 2))
    for entries in ((2, 4), (2, 4, 6)):
        with pytest.raises(InvalidInputError, match="entries must have gcd 1"):
            curve_matrix(entries)


def curve_matrix_by_family(entries):
    """The family-by-family validation that the one rule of curve_matrix
    replaced, with the family inferred (test oracle)."""
    ent = tuple(int(a) for a in entries)
    if len(ent) < 2:
        raise InvalidInputError("need at least two columns")
    if any(a <= 0 for a in ent):
        raise InvalidInputError("matrix entries must be positive")
    if len(ent) == 2:
        family = "plane"
    elif ent[0] == 1:
        family = "smooth"
    else:
        family = "general"
    if family == "plane":
        a, b = ent
        if not a < b:
            raise InvalidInputError("plane family needs a < b")
        if math.gcd(a, b) != 1:
            raise InvalidInputError("plane family needs gcd(a, b) = 1")
    elif family == "smooth":
        if any(x >= y for x, y in zip(ent, ent[1:])):
            raise InvalidInputError("entries must be strictly increasing")
    else:
        if ent[0] <= 1:
            raise InvalidInputError("general family needs all entries > 1")
        if any(x >= y for x, y in zip(ent, ent[1:])):
            raise InvalidInputError("entries must be strictly increasing")
        if math.gcd(*ent) != 1:
            raise InvalidInputError("general family needs gcd = 1")
    return CurveMatrix(ent, family)


def test_one_validation_rule_accepts_what_the_family_rules_accepted():
    def build(f, entries):
        try:
            return f(entries)
        except InvalidInputError:
            return None

    count = 0
    for n in range(1, 5):
        for entries in itertools.product(range(-1, 9), repeat=n):
            got = build(curve_matrix, entries)
            assert got == build(curve_matrix_by_family, entries), entries
            assert got is None or got.family == curve_matrix_by_family(entries).family
            count += 1
    assert count == 11110


# ---------------------------------------------------------------------------
# semigroup membership (oracle: exhaustive enumeration)


def brute_force_member(gens, target):
    if target < 0:
        return False
    ranges = [range(target // g + 1) for g in gens]
    return any(
        sum(c * g for c, g in zip(combo, gens)) == target
        for combo in itertools.product(*ranges)
    )


def witness_ok(gens, target, witness):
    """A witness is nonnegative and sums to the target."""
    return all(c >= 0 for c in witness) and sum(c * g for c, g in zip(witness, gens)) == target


@pytest.mark.parametrize("gens", [(2, 3), (2, 5), (3, 4), (3, 5, 7), (4, 6, 9)])
def test_semigroup_against_brute_force(gens):
    for target in range(0, 61):
        witness = semigroup_contains(gens, target)
        # a member has a witness, a non-member none
        assert (witness is not None) == brute_force_member(gens, target)
        assert witness is None or witness_ok(gens, target, witness)


def lex_smallest_witness(gens, target):
    """Lexicographically smallest (c_1, ..., c_r) with sum c_i g_i = target,
    by exhaustive recursion (exponential; small inputs only)."""
    if target < 0:
        return None
    if not gens:
        return () if target == 0 else None
    g, rest = gens[0], gens[1:]
    for c in range(target // g + 1):
        tail = lex_smallest_witness(rest, target - c * g)
        if tail is not None:
            return (c,) + tail
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 15), min_size=1, max_size=4), st.integers(0, 80))
def test_semigroup_witness_is_lex_smallest(gens, target):
    assert semigroup_contains(gens, target) == lex_smallest_witness(tuple(gens), target)


def dp_semigroup_contains(gens, target):
    """The lexicographically smallest witness by a bitset DP as long as the
    target: bit t of reach[k] is set iff t is a sum of gens[k:], and reach[k]
    closes reach[k + 1] under adding g_k by shifts of g_k, 2 g_k, 4 g_k, ..."""
    if target < 0:
        return None
    mask = (1 << (target + 1)) - 1
    reach = [1]
    for g in reversed(gens):
        bits, step = reach[-1], g
        while step <= target:
            bits |= (bits << step) & mask
            step *= 2
        reach.append(bits)
    reach.reverse()
    if not reach[0] >> target & 1:
        return None
    counts, t = [], target
    for k, g in enumerate(gens):
        c = 0
        while not reach[k + 1] >> (t - c * g) & 1:
            c += 1
        counts.append(c)
        t -= c * g
    return tuple(counts)


@st.composite
def semigroup_cases(draw):
    """1-5 unsorted generators in 1..40, possibly repeated; gens[k:] share the
    factor f, so the whole list (k = 0) or a suffix may have gcd > 1."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    f = draw(st.integers(1, 5))
    gens = [draw(st.integers(1, 40)) for _ in range(k)]
    gens += [f * draw(st.integers(1, 40 // f)) for _ in range(n - k)]
    return gens, draw(st.integers(-5, 600))


@settings(max_examples=400, deadline=None)
@given(semigroup_cases())
@example(([6, 6, 4], 16))
@example(([7, 4, 6, 6], 9))
@example(([12, 8, 20], 600))
@example(([40, 39, 40], 599))
@example(([1], -5))
def test_semigroup_matches_the_dp_oracle(case):
    gens, target = case
    want = dp_semigroup_contains(tuple(gens), target)
    assert semigroup_contains(gens, target) == want
    assert in_semigroup(gens, target) == (want is not None)


def test_semigroup_rejects_non_integers():
    for gens, target in [((2, 3), 5.5), ((2.5, 3), 5), ((2, 3), Fraction(7, 2)),
                         ((2, Fraction(3, 2)), 6), ((2, 3), "5")]:
        with pytest.raises(InvalidInputError):
            semigroup_contains(gens, target)
        with pytest.raises(InvalidInputError):
            in_semigroup(gens, target)
    # values equal to integers are taken as those integers
    assert semigroup_contains((2.0, Fraction(3)), 7.0) == (2, 1)


def test_semigroup_answers_targets_of_any_size():
    t = 10**12
    witness = semigroup_contains((3, 5, 7), t)
    assert witness_ok((3, 5, 7), t, witness)
    # lex smallest: every t >= 24 lies in <5, 7>, so c_1 = 0; c_2 is the least
    # c with 7 | t - 5 c, and c_3 = (t - 5 c_2) / 7
    c2 = min(c for c in range(7) if (t - 5 * c) % 7 == 0)
    assert witness == (0, c2, (t - 5 * c2) // 7)
    assert in_semigroup((4, 6), t + 2) and not in_semigroup((4, 6), t + 1)


def test_in_semigroup_answers_above_the_term_cap(monkeypatch):
    # the cap bounds the Apéry table, min(g) / gcd(g) entries, not the target
    monkeypatch.setenv("GKZ_TERM_CAP", "100")
    assert in_semigroup((2, 3), 10**7 + 1)
    assert in_semigroup((3, 4, 5), 101)
    assert in_semigroup((4, 6), 102) and not in_semigroup((4, 6), 103)
    assert not in_semigroup((2, 3), -1)
    with pytest.raises(ResourceLimitError):
        in_semigroup((101, 103), 300)
    # membership needs the table of (2 101 103) alone, not the one of
    # (101 103) that the witness walk would build
    assert in_semigroup((2, 101, 103), 300)
    with pytest.raises(ResourceLimitError):
        semigroup_contains((2, 101, 103), 300)
    with pytest.raises(InvalidInputError):
        in_semigroup((0, 2), 3)


def test_semigroup_edge_cases():
    assert semigroup_contains((2, 3), 0) == (0, 0)
    assert semigroup_contains((2, 3), -5) is None
    assert semigroup_contains((2, 3), 1) is None
    with pytest.raises(InvalidInputError):
        semigroup_contains((), 3)
    with pytest.raises(InvalidInputError):
        semigroup_contains((0, 2), 3)


def test_semigroup_term_cap(monkeypatch):
    monkeypatch.setenv("GKZ_TERM_CAP", "100")
    assert semigroup_contains((2, 3), 101) == (1, 33)
    # a table of 101 entries is refused
    with pytest.raises(ResourceLimitError):
        semigroup_contains((101, 103), 300)
    # remainders below the least of (10^7, 10^7 + 1) need no table
    assert semigroup_contains((2, 10**7, 10**7 + 1), 4) == (2, 0, 0)
    # a target below the least generator needs none either
    assert semigroup_contains((101, 103), 100) is None
    monkeypatch.setenv("GKZ_TERM_CAP", "bogus")
    with pytest.raises(InvalidInputError):
        semigroup_contains((2, 3), 5)


def test_semigroup_query_reads_the_term_cap_once(monkeypatch):
    reads = []
    monkeypatch.setattr(lattice, "term_cap", lambda: reads.append(1) or 10**6)
    A = curve_matrix((4, 5, 6, 7))
    # the witness walk of (4 5 6 7) builds the tables of (4 5 6 7), (5 6 7)
    # and (6 7), and minimal_delta several more; one query reads the cap once
    for t in range(4, 40):
        reads.clear()
        semigroup_contains(A.entries, t)
        assert len(reads) == 1
    for i in range(A.n):
        reads.clear()
        minimal_delta(A, i)
        assert len(reads) == 1
    # a target below every generator needs no table and reads no cap
    reads.clear()
    assert semigroup_contains(A.entries, 3) is None and not reads


# ---------------------------------------------------------------------------
# minimal delta


def brute_force_delta(entries, i):
    others = tuple(a for j, a in enumerate(entries) if j != i)
    delta = 0
    while True:
        if brute_force_member(others, 1 + delta * entries[i]):
            return delta
        delta += 1


@pytest.mark.parametrize("entries", [(2, 3), (3, 4, 5), (2, 5, 7), (3, 5, 11)])
def test_minimal_delta_against_brute_force(entries):
    A = curve_matrix(entries)
    for i in range(A.n):
        delta, rho = minimal_delta(A, i)
        assert delta == brute_force_delta(entries, i)
        assert rho[i] == 0
        assert sum(r * a for r, a in zip(rho, entries)) == 1 + delta * entries[i]


def test_minimal_delta_witness_is_lex_smallest():
    # 1 + 2*1 = 3 = 0*<skip> + 1*3 for A = (2 3), i = 0
    assert minimal_delta(curve_matrix((2, 3)), 0) == (1, (0, 1))
    # for (3 4 5), i = 2: 1 + 5 = 6 = 2*3 + 0*4 beats 0*3 + ... none smaller
    delta, rho = minimal_delta(curve_matrix((3, 4, 5)), 2)
    assert (delta, rho) == (1, (2, 0, 0))
    for entries in [(3, 5, 7), (4, 6, 9, 11), (5, 7, 9), (3, 10, 17)]:
        for i in range(len(entries)):
            delta, rho = minimal_delta(curve_matrix(entries), i)
            others = tuple(a for j, a in enumerate(entries) if j != i)
            want = lex_smallest_witness(others, 1 + delta * entries[i])
            assert rho == want[:i] + (0,) + want[i:]


@pytest.mark.parametrize("entries", [(2, 3), (3, 4, 5), (2, 5, 7), (3, 5, 7), (3, 5, 11),
                                     (5, 7, 9), (3, 10, 17), (4, 6, 9, 11),
                                     (1000, 1001, 1003), (1, 2, 5), (1, 4, 6, 9)])
def test_minimal_delta_matches_the_dp_oracle(entries):
    A = curve_matrix(entries)
    for i in range(A.n):
        others = tuple(a for j, a in enumerate(entries) if j != i)
        delta = 0
        while (want := dp_semigroup_contains(others, 1 + delta * entries[i])) is None:
            delta += 1
        assert minimal_delta(A, i) == (delta, want[:i] + (0,) + want[i:])
    if entries == (1000, 1001, 1003):
        assert minimal_delta(A, 2)[0] == 333


# ---------------------------------------------------------------------------
# offset enumeration (oracle: full box scan)


def brute_force_offsets(entries, frontier):
    n = len(entries)
    lim = frontier.bound
    found = []
    for combo in itertools.product(range(-lim, lim + 1), repeat=n):
        if sum(a * x for a, x in zip(entries, combo)) != 0:
            continue
        if frontier.contains(combo):
            found.append(combo)
    return sorted(found)


@pytest.mark.parametrize(
    "entries,bound",
    [((2, 3), 10), ((2, 3), 17), ((1, 2, 5), 9), ((3, 4, 5), 8)],
)
def test_enumerate_offsets_complete(entries, bound):
    A = curve_matrix(entries)
    frontier = TruncationFrontier.uniform(A.n, bound)
    got = enumerate_offsets(A, frontier)
    assert got == brute_force_offsets(entries, frontier)
    assert (0,) * A.n in got


def test_enumerate_offsets_cap(monkeypatch):
    monkeypatch.setenv("GKZ_TERM_CAP", "3")
    A = curve_matrix((2, 3))
    with pytest.raises(ResourceLimitError):
        enumerate_offsets(A, TruncationFrontier.uniform(2, 40))


def lattice_box_scan(coeffs, rhs, weight, bound, signed):
    """Every x of the box |x_i| <= bound // w_i (x >= 0 unless ``signed``)
    on the hyperplane and inside the weighted ball, sorted (test oracle)."""
    box = [range(-(bound // w) if signed else 0, bound // w + 1) if bound >= 0 else range(0)
           for w in weight]
    return sorted(
        x for x in itertools.product(*box)
        if sum(c * xi for c, xi in zip(coeffs, x)) == rhs
        and sum(w * abs(xi) for w, xi in zip(weight, x)) <= bound
    )


# per-coordinate bounds, cut to the length of the drawn coefficients
CLIPS = st.lists(st.one_of(st.none(), st.integers(-4, 4)), min_size=4, max_size=4)
NONE4 = [None] * 4


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 3)), min_size=0, max_size=3),
    c0=st.integers(-4, 4).filter(bool),
    w0=st.integers(1, 3),
    rhs=st.integers(-6, 6),
    bound=st.integers(-1, 8),
    signed=st.booleans(),
    lower=CLIPS,
    upper=CLIPS,
)
# the one-signed boxes of N_v that the Gamma series walk: coordinate 2 free
# (a non-integer exponent) or every coordinate >= 0; the last has x_2 >= 1
@example(data=[(2, 1), (3, 1), (5, 1)], c0=1, w0=1, rhs=0, bound=8, signed=True,
         lower=[0, 0, None, 0], upper=NONE4)
@example(data=[(3, 1), (4, 1), (5, 1)], c0=1, w0=1, rhs=0, bound=8, signed=True,
         lower=[0, 0, None, 0], upper=NONE4)
@example(data=[(2, 1), (3, 1), (5, 1)], c0=1, w0=1, rhs=7, bound=8, signed=False,
         lower=[0, 0, 0, 0], upper=NONE4)
@example(data=[(3, 1), (4, 1), (5, 1)], c0=1, w0=1, rhs=0, bound=8, signed=False,
         lower=[0, 0, 0, 0], upper=NONE4)
@example(data=[(3, 1), (4, 1), (5, 1)], c0=1, w0=1, rhs=9, bound=8, signed=False,
         lower=[0, 0, 1, 0], upper=NONE4)
# negative coefficients: x < 0 raises sum_i c_i x_i, x > 0 lowers it
@example(data=[(-3, 3)], c0=-3, w0=1, rhs=6, bound=4, signed=True, lower=NONE4, upper=NONE4)
@example(data=[(-3, 3)], c0=-3, w0=1, rhs=-6, bound=4, signed=True, lower=NONE4, upper=NONE4)
def test_lattice_points_match_box_scan(data, c0, w0, rhs, bound, signed, lower, upper):
    coeffs = (c0,) + tuple(c for c, _ in data)
    weight = (w0,) + tuple(w for _, w in data)
    expected = lattice_box_scan(coeffs, rhs, weight, bound, signed)
    n = len(coeffs)
    assert _lattice_points(coeffs, rhs, weight, bound, [None if signed else 0] * n) == expected
    # per-coordinate bounds clip the same scan
    lower, upper = lower[:n], upper[:n]
    if not signed:
        lower = [0 if lo is None else max(lo, 0) for lo in lower]
    clipped = [x for x in expected
               if all(lo is None or lo <= xi for lo, xi in zip(lower, x))
               and all(hi is None or xi <= hi for hi, xi in zip(upper, x))]
    assert _lattice_points(coeffs, rhs, weight, bound, lower, upper) == clipped


def walk_nodes(call):
    """(call(), the number of nodes of the run walk it entered)."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        nodes += event == "call" and frame.f_code.co_name == "rec"
    sys.setprofile(count)
    try:
        got = call()
    finally:
        sys.setprofile(None)
    return got, nodes


def test_walk_prunes_a_one_signed_box():
    # homogenized (3 4 5), exponent (0, 0, 0, 0) at bound 40: the box x >= 0
    # holds only x = 0, and the sign of rest rejects every x_1 > 0 and, with
    # x_1 = 0, every x_2 > 0 before entering it
    got, nodes = walk_nodes(lambda: _lattice_runs((1, 3, 4, 5), 0, (1,) * 4, 40, (0,) * 4))
    assert got == ((-5, 0, 0, 1), [((0, 0, 0, 0), 1)])
    assert 0 < nodes <= 100


@pytest.mark.parametrize("entries, bound, terms, most", [
    # 741 and 159 nodes; a walk that tests each child only after entering it
    # enters 3,207 and 442
    ((1, 2, 3, 5), 60, 2387, 800),
    ((1, 2, 5), 220, 2368, 200),
])
def test_walk_enters_only_children_that_pass_the_prune(entries, bound, terms, most):
    system = build_system(entries, Fraction(1, 2))
    v = singular_exponents(system)[0]
    frontier = TruncationFrontier.uniform(system.n, bound)
    f, nodes = walk_nodes(lambda: gamma_series(v, system, frontier))
    assert len(f.pairs) == terms
    assert 0 < nodes <= most


@pytest.mark.parametrize("coeffs, weight", [
    ((4, 6), (1, 1)),            # gcd 2: the solved coordinate steps by 2
    ((-6, 4), (2, 1)),           # step 3, coordinate 0 moves up by 2
    ((9, 1, 6), (1, 2, 1)),      # step 3 behind a free coordinate
    ((6, -2, 3, 10), (2, 2, 2, 1)),  # step 3, coordinate 0 moves by -5
    ((5, 2, 0), (1, 1, 3)),      # c_{n-1} = 0: only x_{n-1} moves
])
def test_lattice_points_match_box_scan_with_long_steps(coeffs, weight):
    n = len(coeffs)
    g = math.gcd(coeffs[0], coeffs[-1])
    step = (-coeffs[-1] * (abs(coeffs[0]) // g) // coeffs[0],) + (0,) * (n - 2) \
        + (abs(coeffs[0]) // g,)
    longest = 0
    for rhs in (-7, 0, 4, 12):
        for signed in (True, False):
            lower = [None if signed else 0] * n
            expected = lattice_box_scan(coeffs, rhs, weight, 14, signed)
            assert _lattice_points(coeffs, rhs, weight, 14, lower) == expected
            z, runs = _lattice_runs(coeffs, rhs, weight, 14, lower)
            assert z == step
            assert sum(count for _, count in runs) == len(expected)
            longest = max([longest] + [count for _, count in runs])
        # bounds on both moving coordinates cut the runs from either end
        lower, upper = [-3] + [None] * (n - 1), [None] * (n - 1) + [2]
        clipped = [x for x in lattice_box_scan(coeffs, rhs, weight, 14, True)
                   if x[0] >= -3 and x[-1] <= 2]
        assert _lattice_points(coeffs, rhs, weight, 14, lower, upper) == clipped
    assert longest > 1


@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 4), r=st.integers(0, 7), signed=st.booleans(),
       weight=st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_ball_count_against_brute_force(d, r, signed, weight):
    box = list(itertools.product(range(-r if signed else 0, r + 1), repeat=d))
    assert _ball_count(d, r, signed) == sum(sum(map(abs, x)) <= r for x in box)
    # weighted balls: counted at radius r // min weight, never below the truth
    w = weight[:d]
    if d:
        true = sum(sum(wi * abs(xi) for wi, xi in zip(w, x)) <= r for x in box)
        assert _ball_count(d, r // min(w), signed) >= true


def test_term_cap_counts_the_request_not_the_output(monkeypatch):
    # x_0 + x_1 + x_2 + x_3 = 0 in the ball of radius 6: the free ball of
    # x_1, x_2, x_3 holds 377 points and fewer are kept, yet the cap counts 377
    coeffs, weight = (1, 1, 1, 1), (1, 1, 1, 1)
    ball = _ball_count(3, 6, True)
    monkeypatch.setenv("GKZ_TERM_CAP", str(ball))
    kept = _lattice_points(coeffs, 0, weight, 6, [None] * 4)
    assert 0 < len(kept) < ball
    monkeypatch.setenv("GKZ_TERM_CAP", str(ball - 1))
    with pytest.raises(ResourceLimitError):
        _lattice_points(coeffs, 0, weight, 6, [None] * 4)
    # over x >= 0 the smaller ball is counted, C(6 + 3, 3)
    monkeypatch.setenv("GKZ_TERM_CAP", str(_ball_count(3, 6, False)))
    assert _lattice_points(coeffs, 6, weight, 6, [0] * 4)
    # a coordinate that its bounds pin to one value adds nothing to the
    # request: with x_2 = 2 the open ball of x_1, x_3 holds C(6 + 2, 2) points
    pinned = ([0, 0, 2, 0], [None, None, 2, None])
    monkeypatch.setenv("GKZ_TERM_CAP", str(_ball_count(2, 6, False)))
    assert _lattice_points(coeffs, 6, weight, 6, *pinned) == \
        sorted((4 - a - b, a, 2, b) for a in range(5) for b in range(5 - a))
    monkeypatch.setenv("GKZ_TERM_CAP", str(_ball_count(2, 6, False) - 1))
    with pytest.raises(ResourceLimitError):
        _lattice_points(coeffs, 6, weight, 6, *pinned)
    monkeypatch.setenv("GKZ_TERM_CAP", str(_ball_count(3, 6, False)))
    # upper bounds clip the output but not the request: x_1, x_2, x_3 <= 0
    # mirrors the x >= 0 walk above, yet the signed ball is counted
    with pytest.raises(ResourceLimitError):
        _lattice_points(coeffs, 6, weight, 6, [0] + [None] * 3, [None] + [0] * 3)


def test_term_cap_counts_a_negative_box_over_n(monkeypatch):
    # x_1, x_2, x_3 in [-6, -1] keep one sign class of N_v, as x >= 0 does:
    # the request is the ball over N^3, C(6 + 3, 3) points, not the signed one
    coeffs, weight = (1, 1, 1, 1), (1, 1, 1, 1)
    box = ([None] + [-6] * 3, [None] + [-1] * 3)
    monkeypatch.setenv("GKZ_TERM_CAP", str(_ball_count(3, 6, False)))
    # x_0 = s - 6 with s = |x_1| + |x_2| + |x_3|, so |x|_1 = 6 for every s <= 6
    assert _lattice_points(coeffs, -6, weight, 6, *box) == sorted(
        (-sum(x) - 6, *x) for x in itertools.product(range(-6, 0), repeat=3) if sum(x) >= -6)
    monkeypatch.setenv("GKZ_TERM_CAP", str(_ball_count(3, 6, False) - 1))
    with pytest.raises(ResourceLimitError):
        _lattice_points(coeffs, -6, weight, 6, *box)


# ---------------------------------------------------------------------------
# delta_j sets


def delta_j_simplex(Aprime, j, degree_bound):
    """Delta_j by the simplex recursion over all n coordinates (test oracle)."""
    base = Aprime.entries[1:]
    n = len(base)
    pivot = n - 2
    out = []

    def rec(pos, partial, total):
        if pos == n:
            lhs = sum(base[i] * partial[i] for i in range(n) if i != pivot)
            if lhs == j + base[pivot] * partial[pivot]:
                out.append(tuple(partial))
            return
        for m in range(degree_bound - total + 1):
            partial.append(m)
            rec(pos + 1, partial, total + m)
            partial.pop()

    rec(0, [], 0)
    return sorted(out)


@pytest.mark.parametrize("entries", [(2, 3), (3, 4, 5), (2, 5, 7), (4, 5, 6, 7), (3, 5, 7)])
def test_delta_j_set_matches_simplex_oracle(entries):
    Ah = homogenize_matrix(CurveMatrix(entries, "general"))
    for j in range(entries[-2]):
        for degree_bound in (0, 1, 5, 11):
            assert delta_j_set(Ah, j, degree_bound) == delta_j_simplex(Ah, j, degree_bound)


def test_delta_j_set_membership_and_closure():
    A = curve_matrix((3, 4, 5))
    Ah = homogenize_matrix(A)
    for j in range(4):  # a_{n-1} = 4
        members = delta_j_set(Ah, j, 12)
        for m in members:
            lhs = 3 * m[0] + 5 * m[2]
            assert lhs == j + 4 * m[1]
            # closure under the step (0, ..., a_n, a_{n-1})
            stepped = (m[0], m[1] + 5, m[2] + 4)
            assert 3 * stepped[0] + 5 * stepped[2] == j + 4 * stepped[1]
    # j = 0 always contains the origin
    assert (0, 0, 0) in delta_j_set(Ah, 0, 6)


def test_delta_j_set_validation():
    Ah = homogenize_matrix(curve_matrix((3, 4, 5)))
    with pytest.raises(InvalidInputError):
        delta_j_set(Ah, 4, 5)
    with pytest.raises(InvalidInputError):
        delta_j_set(curve_matrix((1, 3, 4)), 0, 5)

import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gkzcurve.errors import ResourceLimitError
from gkzcurve.lattice import curve_matrix, homogenize_matrix, minimal_delta
from gkzcurve.restriction import homogenize
from gkzcurve.series import TruncationFrontier, WeylOperator
from gkzcurve.system import HypergeometricSystem, _general_kernel, build_system
from gkzcurve import lattice

PLANE = [(a, b) for b in range(2, 13) for a in range(1, b) if math.gcd(a, b) == 1]
SMOOTH = [(1, 2, 3), (1, 2, 5), (1, 3, 7), (1, 5, 6), (1, 2, 3, 5), (1, 3, 4, 5),
          (1, 3, 4, 7), (1, 4, 5, 6, 7)]
GENERAL = [(3, 4, 5), (3, 5, 7), (5, 6, 7), (2, 5, 7), (4, 5, 7), (3, 4, 7), (2, 3, 7),
           (4, 6, 9), (4, 5, 6, 7)]


def test_plane_system_shape():
    system = build_system((2, 3), F(1, 2))
    assert len(system.toric) == 1
    assert system.toric[0] == WeylOperator.from_lattice((3, -2))
    assert system.euler == WeylOperator.euler((2, 3), F(1, 2))
    assert system.operators[-1] is system.euler
    assert system.operators == system.toric + (system.euler,)
    rebuilt = HypergeometricSystem(system.matrix, system.beta, system.toric)
    assert rebuilt.operators == system.operators
    # the matrix and beta decide E
    assert rebuilt.euler == WeylOperator.euler(system.matrix.entries, system.beta)


def test_smooth_system_shape():
    system = build_system((1, 2, 5), 0)
    # d1^{a_i} - d_i for i = 2, 3
    assert system.toric == (
        WeylOperator(3, [(1, (0, 0, 0), (2, 0, 0)), (-1, (0, 0, 0), (0, 1, 0))]),
        WeylOperator(3, [(1, (0, 0, 0), (5, 0, 0)), (-1, (0, 0, 0), (0, 0, 1))]),
    )


def test_homogenized_system_includes_contiguity_operators():
    Ah = homogenize_matrix(curve_matrix((3, 4, 5)))
    kernel = build_system(Ah, 0).toric
    assert len(kernel) == 3
    system = homogenize((3, 4, 5), 0).system
    assert system.toric[:3] == kernel
    # one Q_i per base column, after the kernel binomials; each is a
    # binomial in the d's only
    contiguity = system.toric[3:]
    assert len(contiguity) == 3
    for op in contiguity:
        assert len(op.terms) == 2
        for c, p, q in op.terms:
            assert p == (0, 0, 0, 0)
            assert c in (1, -1)
    # Q for column 0 of (3 4 5): delta=1, rho=(0,1,0) -> d0 d1 - d2
    q0 = contiguity[0]
    assert q0 == WeylOperator(
        4, [(1, (0,) * 4, (1, 1, 0, 0)), (-1, (0,) * 4, (0, 0, 1, 0))]
    )


def contiguity_monomials(base, i):
    """Q_i = d_0 d_{i+1}^{delta_i} - d^{(0, rho_i)}, monomial minus monomial."""
    n = base.n + 1
    delta, rho = minimal_delta(base, i)
    left = [0] * n
    left[0] = 1
    left[i + 1] += delta
    right = [0] + list(rho)
    zero = (0,) * n
    return WeylOperator(n, [(1, zero, tuple(left)), (-1, zero, tuple(right))])


@pytest.mark.parametrize("entries", [(3, 4, 5), (4, 5, 6, 7), (5, 6, 7)])
def test_contiguity_operators_match_monomial_difference(entries):
    base = curve_matrix(entries)
    system = homogenize(base, 0).system
    assert system.toric[base.n:] == tuple(contiguity_monomials(base, i) for i in range(base.n))


def test_general_system_binomials_lie_in_kernel():
    A = curve_matrix((3, 4, 5))
    system = build_system(A, 1)
    assert system.toric  # nonempty
    for op in system.toric:
        assert len(op.terms) == 2
        (c1, p1, q1), (c2, p2, q2) = op.terms
        assert {c1, c2} == {1, -1}
        u = tuple(a - b for a, b in zip(q1, q2))
        assert A.dot(u) == 0
        assert max(sum(q1), sum(q2)) <= 2 * max(A.entries)


def toric_by_family(A):
    """The per-family kernel vectors that the one rule u_i = a_i e_0 - a_0 e_i
    replaced: (b, -a) for a plane matrix, a_i e_0 - e_i otherwise (test oracle)."""
    ent, n = A.entries, A.n
    if A.family == "plane":
        a, b = ent
        return [(b, -a)]
    return [tuple(ent[i] * (j == 0) - (j == i) for j in range(n)) for i in range(1, n)]


def test_one_toric_rule_matches_the_family_vectors():
    matrices = [curve_matrix(e) for e in PLANE + SMOOTH]
    matrices += [homogenize_matrix(curve_matrix(e)) for e in GENERAL]
    cases = 0
    for A in matrices:
        for beta in (0, F(1, 2), 3):
            system = build_system(A, beta)
            assert system.toric == tuple(WeylOperator.from_lattice(u)
                                         for u in toric_by_family(A)), (A, beta)
            cases += 1
    assert cases == 3 * (len(PLANE) + len(SMOOTH) + len(GENERAL))


def general_kernel_loop(A):
    """The first-met representative loop that the sorted filter of
    _general_kernel replaced (test oracle)."""
    degree_bound = 2 * max(A.entries)
    frontier = TruncationFrontier.uniform(A.n, 2 * degree_bound)
    seen = set()
    kernel = []
    for u in lattice.enumerate_offsets(A, frontier):
        if all(x == 0 for x in u):
            continue
        plus = sum(x for x in u if x > 0)
        minus = -sum(x for x in u if x < 0)
        if max(plus, minus) > degree_bound:
            continue
        key = max(u, tuple(-x for x in u))
        if key in seen:
            continue
        seen.add(key)
        kernel.append(key)
    return kernel


@pytest.mark.parametrize("entries", GENERAL, ids=str)
def test_general_kernel_matches_first_met_loop(entries):
    A = curve_matrix(entries)
    assert _general_kernel(A) == general_kernel_loop(A)


def general_kernel_ball(A):
    """The L1-ball filter that the budgeted walk of _general_kernel replaced
    (test oracle): max(|u_+|, |u_-|) = (|u|_1 + |sum u|) / 2 <= D."""
    degree_bound = 2 * max(A.entries)
    frontier = TruncationFrontier.uniform(A.n, 2 * degree_bound)
    zero = (0,) * A.n
    return sorted((u for u in lattice.enumerate_offsets(A, frontier)
                   if u > zero and sum(map(abs, u)) + abs(sum(u)) <= 2 * degree_bound),
                  reverse=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 13), min_size=3, max_size=5, unique=True)
       .map(sorted).filter(lambda e: math.gcd(*e) == 1))
def test_general_kernel_matches_the_ball_filter(entries):
    A = curve_matrix(entries)
    try:
        want = general_kernel_ball(A)
    except ResourceLimitError:
        # refused by the same ball count, before either walk
        with pytest.raises(ResourceLimitError):
            _general_kernel(A)
        return
    assert _general_kernel(A) == want


def test_general_kernel_refuses_at_the_ball_count(monkeypatch):
    # (4 5 6 7): D = 14, and the ball |u|_1 <= 28 over u_1 .. u_3 holds 30,913 points
    assert lattice._ball_count(3, 28, True) == 30913
    monkeypatch.setenv("GKZ_TERM_CAP", "30912")
    with pytest.raises(ResourceLimitError):
        build_system((4, 5, 6, 7), 0)
    monkeypatch.setenv("GKZ_TERM_CAP", "30913")
    assert len(build_system((4, 5, 6, 7), 0).operators) == 672


# sha256 of the sorted-key JSON of build_system(A, beta).operators, recorded
# before the kernel binomials were built straight into normal form
OPERATOR_JSON_SHA256 = {
    ((3, 4, 5), "0"): "621872f6a44ee391659efdad24798e1f12d56bd38940d1b89d5a70cd55d9986c",
    ((3, 4, 5), "1/2"): "a3383d79eec2eec4cc713c9f904d41986031e5e04b0f834d091e4ad90b91e8dc",
    ((4, 5, 6, 7), "0"): "02295f9f19c123cfac035b430cb1848e249cb50e2c0aa0d0a6ea240d82dce125",
    ((4, 5, 6, 7), "1/2"): "e4974f5fbd80a5abdd23d3ad87834574c1be0dc9d9f560e57a4d477715704726",
}


@pytest.mark.parametrize("entries, beta", list(OPERATOR_JSON_SHA256), ids=str)
def test_general_operator_json_is_pinned(entries, beta):
    operators = build_system(entries, F(beta)).operators
    assert len(operators) == {(3, 4, 5): 33, (4, 5, 6, 7): 672}[entries]
    text = json.dumps([op.to_json() for op in operators], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OPERATOR_JSON_SHA256[entries, beta]

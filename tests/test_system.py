from fractions import Fraction as F

import pytest

from gkzcurve.lattice import curve_matrix, homogenize_matrix, minimal_delta
from gkzcurve.series import WeylOperator
from gkzcurve.system import build_system


def test_plane_system_shape():
    system = build_system((2, 3), F(1, 2))
    assert len(system.toric) == 1
    assert system.toric[0] == WeylOperator.from_lattice((3, -2))
    assert system.euler == WeylOperator.euler((2, 3), F(1, 2))
    assert system.operators[-1] is system.euler


def test_smooth_system_shape():
    system = build_system((1, 2, 5), 0)
    # d1^{a_i} - d_i for i = 2, 3
    assert system.toric == (
        WeylOperator(3, [(1, (0, 0, 0), (2, 0, 0)), (-1, (0, 0, 0), (0, 1, 0))]),
        WeylOperator(3, [(1, (0, 0, 0), (5, 0, 0)), (-1, (0, 0, 0), (0, 0, 1))]),
    )


def test_homogenized_system_includes_contiguity_operators():
    Ah = homogenize_matrix(curve_matrix((3, 4, 5)))
    system = build_system(Ah, 0)
    assert len(system.toric) == 3
    # one Q_i per base column; each is a binomial in the d's only
    assert len(system.extra) == 3
    for op in system.extra:
        assert len(op.terms) == 2
        for c, p, q in op.terms:
            assert p == (0, 0, 0, 0)
            assert c in (1, -1)
    # Q for column 0 of (3 4 5): delta=1, rho=(0,1,0) -> d0 d1 - d2
    q0 = system.extra[0]
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
    system = build_system(homogenize_matrix(base), 0)
    assert system.extra == tuple(contiguity_monomials(base, i) for i in range(base.n))


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

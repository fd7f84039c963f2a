"""Tour of the plane-curve case A = (a b).

Builds the hypergeometric system for A = (2 3), lists the exponents at the
singular and generic points, expands the series solutions, checks them
against the operators, and estimates the Gevrey index along x_2.
"""

from fractions import Fraction

from gkzcurve import (
    TruncationFrontier,
    apply_operator,
    build_system,
    gamma_coefficient,
    gamma_series,
    generic_exponents,
    gevrey_index_estimate,
    polynomial_solution,
    semigroup_contains,
    singular_exponents,
    verify_annihilation,
)


def main():
    beta = Fraction(1)
    system = build_system((2, 3), beta)
    print(f"A = (2 3), beta = {beta}")
    print("operators:")
    for op in system.operators:
        print("  ", op)

    print("\nexponents at the singular point (x_2 = 0):")
    for k, v in enumerate(singular_exponents(system)):
        print(f"  v^{k} = {tuple(str(x) for x in v)}")
    print("exponents at a generic point:")
    for k, v in enumerate(generic_exponents(system)):
        print(f"  v^{k} = {tuple(str(x) for x in v)}")

    fr = TruncationFrontier.uniform(2, 30)
    v = singular_exponents(system)[1]
    f = gamma_series(v, system, fr)
    print(f"\nphi_v for v = {tuple(str(x) for x in v)}, {len(f.terms)} terms:")
    for u, c in f.sorted_terms()[:6]:
        print(f"  offset {u}: {c}")
    # each coefficient is Gamma[v; u] = (v)_{u_-} / (v + u)_{u_+}
    assert all(f.coefficient(u) == gamma_coefficient(v, u) for u in f.terms)
    ok = all(r.annihilated for r in verify_annihilation(system.operators, f))
    print("annihilated by the full system:", ok)

    fr = TruncationFrontier.uniform(2, 160)
    f = gamma_series(v, system, fr)
    est = gevrey_index_estimate(f, 1, matrix=system.matrix)
    print(f"\nGevrey index along x_2: {est['estimate']:.4f} "
          f"(expected 3/2; stderr {est['stderr']:.1e})")

    got = polynomial_solution((2, 3), 6)
    assert got is not None
    q, p = got
    # beta = 6 lies in N A, and p sums monomials x^w with w in N^2, A.w = 6:
    # the lexicographically smallest such w, 6 = 0*2 + 2*3, is one of them
    exponents = {tuple(b + x for b, x in zip(p.base, u)) for u in p.terms}
    assert semigroup_contains((2, 3), 6) in exponents
    print(f"\npolynomial solution at beta = 6 (from v^{q}):")
    for u, c in p.sorted_terms():
        print(f"  offset {u}: {c}")
    system6 = build_system((2, 3), 6)
    print("exactly annihilated:",
          all(apply_operator(op, p).is_zero() for op in system6.operators))


if __name__ == "__main__":
    main()

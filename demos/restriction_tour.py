"""Homogenization, restriction, b-functions, and the Ext^1 recurrence.

Three short stories:

1. A general matrix A = (3 4 5) is homogenized to A' = (1 3 4 5), series
   are computed upstairs and pushed back down by restricting to x_0 = 0.
2. A smooth matrix (1 4 6) restricts to the hyperplane x_1 = 0 and the
   result decomposes into plane-curve systems.
3. At a germ off the origin the Ext^1 obstruction is computed by a
   coefficient recurrence; the modified series shows the class explicitly.
"""

from fractions import Fraction

from gkzcurve import (
    TruncationFrontier,
    apply_operator,
    b_function_1kakb,
    build_system,
    curve_matrix,
    ext1_generator,
    ext1_recurrence_solve,
    gamma_series,
    homogenize,
    modified_series,
    recurrence_series,
    restrict_decomposition,
    restrict_series_x0,
    series_equal,
    singular_exponents,
    verify_annihilation,
)


def main():
    # 1. homogenize and restrict back
    A = curve_matrix((3, 4, 5))
    hom = homogenize(A, 0)
    print(f"A = (3 4 5) homogenizes to A' = {hom.matrix.entries}")
    print(f"  deltas = {hom.deltas}, rhos = {hom.rhos}")
    general = build_system(A, 0)
    fr = TruncationFrontier.uniform(4, 24)
    for v in singular_exponents(hom.system):
        f = gamma_series(v, hom.system, fr)
        g = restrict_series_x0(f)
        up = all(r.annihilated for r in verify_annihilation(hom.system.operators, f))
        down = all(r.annihilated for r in verify_annihilation(general.operators, g))
        print(f"  v = {tuple(str(x) for x in v)}: "
              f"annihilated upstairs = {up}, after restriction = {down}")

    # 2. restriction decomposes into plane systems
    dec = restrict_decomposition((1, 4, 6), 5)
    print("\nrestriction of A = (1 4 6), beta = 5 to x_1 = 0:")
    for m, b in dec.components:
        print(f"  component: A = {m.entries}, beta = {b}")
    bf = b_function_1kakb(2, 2, 3)
    print(f"b-function of the restriction for A = (1 4 6) (k = 2, a = 2, "
          f"b = 3): roots {bf.roots}, coefficients {bf.coefficients()}")

    # 3. the Ext^1 class at a germ off the origin
    system = build_system((2, 3), 4)
    fr = TruncationFrontier.uniform(2, 20)
    phi = modified_series(system, fr)
    print("\nmodified series for A = (2 3), beta = 4 "
          f"(base {tuple(str(x) for x in phi.base)}):")
    residuals = [apply_operator(op, phi) for op in system.operators]
    print("  residual term counts per operator:",
          [len(r.terms) for r in residuals])

    for entries in ((2, 3), (1, 2, 3)):
        A = curve_matrix(entries)
        gen = ext1_generator(A, 4)
        print(f"\nExt^1 generator P(phi_vtilde) for A = {A}, beta = 4 "
              f"(base {tuple(str(x) for x in gen.base)}):")
        for u, c in gen.sorted_terms():
            print(f"  offset {u}: {c}")

    h = ext1_recurrence_solve((2, 3), 1, 1, {(0, 0): Fraction(1)}, num_terms=8)
    print("\nrecurrence solution of P(h) = f for f = x_1^(1/2 - 3) "
          "(chain k = 0):")
    for m in range(4):
        print(f"  h_({0},{m}) = {h[(0, m)]}")
    hs = recurrence_series((2, 3), 1, h, shift=0, bound=24)[0]
    fs = recurrence_series((2, 3), 1, {(0, 0): Fraction(1)}, shift=1, bound=24)[0]
    P = build_system((2, 3), 1).toric[0]
    print("P(h) = f exactly within the frontier:",
          series_equal(apply_operator(P, hs), fs))


if __name__ == "__main__":
    main()

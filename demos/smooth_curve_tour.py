"""Tour of the smooth monomial curve case A = (1 a_2 ... a_n).

For A = (1 2 5), beta = 1: series solutions at both points, the Gevrey
index a_n / a_{n-1} = 5/2 read off numerically, the slope report, and the
dimension table for Ext groups of the irregularity sheaves as the Gevrey
order s crosses the threshold.
"""

from fractions import Fraction

from gkzcurve import (
    TruncationFrontier,
    build_system,
    dimension_table,
    gamma_series,
    generic_exponents,
    gevrey_index_estimate,
    singular_exponents,
    slope_report,
    verify_annihilation,
)


def main():
    beta = Fraction(1)
    system = build_system((1, 2, 5), beta)
    print(f"A = (1 2 5), beta = {beta}")

    sing = singular_exponents(system)
    gen = generic_exponents(system)
    print(f"{len(sing)} singular exponents, {len(gen)} generic exponents")

    fr = TruncationFrontier.uniform(3, 40)
    for k, v in enumerate(sing):
        f = gamma_series(v, system, fr)
        ok = all(r.annihilated for r in verify_annihilation(system.operators, f))
        print(f"  v^{k} = {tuple(str(x) for x in v)}: "
              f"{len(f.terms)} terms, annihilated = {ok}")

    fr = TruncationFrontier.uniform(3, 220)
    f = gamma_series(sing[0], system, fr)
    est = gevrey_index_estimate(f, 2, matrix=system.matrix)
    print(f"\nGevrey index along x_3: {est['estimate']:.4f} (expected 5/2)")

    print("\nslope report:")
    rep = slope_report((1, 2, 5))
    for entry in rep.entries:
        if entry.has_slope:
            print(f"  variable {entry.variable}: jump {entry.gevrey_jump}, "
                  f"slope {entry.slope}")
        else:
            print(f"  variable {entry.variable}: no slope")

    for s in (Fraction(2), Fraction(5, 2), "inf"):
        table = dimension_table((1, 2, 5), 3, s)
        print(f"\ndimension table at s = {s} "
              f"(threshold {table.threshold}, beta {table.beta_class}):")
        print(table.render())


if __name__ == "__main__":
    main()

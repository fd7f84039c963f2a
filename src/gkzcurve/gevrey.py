"""Gevrey indices, slope reports, solution-space dimension tables.

A series sum_i f_i x^i is Gevrey of order s along x when
sum_i f_i / (i!)^{s-1} x^i converges; the Gevrey *index* is the least such
s.  For the singular Gamma series of a plane matrix (a b) the index along
the second variable is b/a, and for a smooth matrix (1 a_2 .. a_n) the
index along the last variable is a_n / a_{n-1}.  Numerically the index is
recovered from a coefficient diagonal: ln|c_d| grows like
(s-1) d ln d + O(d), so a least-squares fit of ln|c_d| against
(d ln d, d, ln d, 1) estimates s - 1 in the leading coordinate.  The
nuisance regressors d and ln d absorb the C D^d and polynomial envelope
factors that the plain d ln d regression cannot, which is what makes the
estimate converge at a few dozen terms.

The dimension tables collect, for the solution sheaves

* O_X|Y       convergent series along the singular hyperplane Y,
* O^(s)       formal/Gevrey-s series along Y,
* Q_Y(s)      the Gevrey quotient O^(s) / O_X|Y,

the dimensions of Ext^0 and Ext^1 of the hypergeometric module at the
special point (origin, resp. Y meet Z) and at a generic smooth point of Y.
All higher Ext groups vanish.  The entries depend only on whether beta
lies in the semigroup N A ("special") and on the position of s relative to
the unique slope threshold (b/a, resp. a_n/a_{n-1}).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import InvalidInputError, ResourceLimitError
from .gamma import (_beta_in_semigroup, _box_gamma_terms, _polynomial_exponent, lift, nsupp,
                    restrict_series_x0)
from .lattice import CurveMatrix, curve_matrix, term_cap
from .rationals import as_rational, log_abs
from .series import TruncatedSeries, TruncationFrontier


def _coerce_s(s):
    """Accept a rational, an int, float('inf'), or the string 'inf'."""
    if s in (math.inf, "inf", "oo"):
        return None  # None encodes infinity
    s = as_rational(s)
    if s < 1:
        raise InvalidInputError("Gevrey order s must satisfy s >= 1")
    return s


def _s_at_least(s, threshold: Fraction) -> bool:
    return s is None or s >= threshold


# ---------------------------------------------------------------------------
# index estimation


def _diagonal_direction(A: CurveMatrix, var: int) -> tuple[int, ...]:
    """The primitive kernel direction whose multiples form the growth
    diagonal along x_var.

    The diagonal is supported on the last two coordinates: the primitive
    vector (0, ..., 0, -a_n/g, a_{n-1}/g) with g = gcd leaves all other
    exponents fixed (for two variables it spans the kernel).  The sign is
    normalized so that the x_var-degree increases along the diagonal.  The
    other coordinate then falls, and the diagonal leaves N_v where it falls
    from N to a negative integer: for var = n - 2 at once if v_{n-1} in N is
    below a_{n-1}/g, and the fit then finds too few points.
    """
    ent = A.entries
    g = math.gcd(ent[-2], ent[-1])
    z = (0,) * (A.n - 2) + (-(ent[-1] // g), ent[-2] // g)
    if z[var] == 0:
        raise InvalidInputError(f"no growth diagonal along variable {var}")
    return z if z[var] > 0 else tuple(-x for x in z)


def gevrey_index_estimate(f: TruncatedSeries, var: int, min_terms: int = 8,
                          matrix=None) -> dict:
    """Estimate the Gevrey index of f along x_var from coefficient growth.

    Reads the coefficients c_m on the diagonal u = u_0 + m z, m >= 0, where
    z is the primitive kernel direction of :func:`_diagonal_direction` for
    ``matrix`` (required unless f is exact) and u_0 is the kept offset of
    least L1 norm, ties broken lexicographically (0 for a Gamma series,
    where Gamma[v; 0] = 1, and 0 when f has no terms), and fits

        ln|c_m|  ~  alpha * d ln d  +  gamma * d  +  delta * ln d  +  mu,
        d = x_var-degree of the m-th diagonal term,

    after discarding the first 20% of the terms as burn-in.  The nuisance
    regressors soak up the Stirling corrections, leaving s - 1 in alpha.
    Returns {'estimate': 1 + alpha, 'stderr': ..., 'diagonal': ...}, and
    raises InvalidInputError when min_terms is negative or the points left
    cannot determine the fit.
    Exact (complete) series are polynomials and get index 1 by convention.
    """
    if not 0 <= var < f.n:
        raise InvalidInputError("variable index out of range")
    if min_terms < 0:
        raise InvalidInputError("min_terms must be nonnegative")
    if f.exact:
        return {"estimate": 1.0, "stderr": 0.0,
                "diagonal": "finite series (polynomial): index 1 by convention"}
    if matrix is None:
        raise InvalidInputError("pass matrix= to choose the growth diagonal")
    z = _diagonal_direction(curve_matrix(matrix), var)
    zero = (0,) * f.n
    start = zero if zero in f.pairs else min(
        f.pairs, key=lambda u: (sum(map(abs, u)), u), default=zero)

    points: list[tuple[float, float]] = []  # (degree, ln|c|)
    m = 0
    while f.frontier.contains(u := tuple(s + m * x for s, x in zip(start, z))):
        c, d = f.pairs.get(u), float(f.base[var] + u[var])
        if c and d >= 1.0:
            points.append((d, log_abs(*c)))
        m += 1
    need = max(min_terms, 1)  # the fit below needs at least one point
    if len(points) < need:
        last = tuple(s + (m - 1) * x for s, x in zip(start, z))
        # one coordinate falls, one rises: once off N_v the diagonal stays off
        left = m and nsupp([b + x for b, x in zip(f.base, last)]) != nsupp(f.base)
        why = f": the diagonal m*{z} leaves the support N_v inside the frontier" if left else ""
        raise InvalidInputError(f"only {len(points)} diagonal terms available, need {need}{why}")
    burn = len(points) // 5
    points = points[burn:]
    d = [p[0] for p in points]
    alpha, stderr = _least_squares(d, [p[1] for p in points])
    through = f"{start} + " if any(start) else ""
    return {
        "estimate": 1.0 + alpha,
        "stderr": stderr,
        "diagonal": (
            f"offsets {through}m*{z}, x_{var}-degrees {d[0]:g}..{d[-1]:g} "
            f"({len(points)} points after burn-in)"
        ),
    }


def _least_squares(d: list[float], y: list[float]) -> tuple[float, float]:
    """(alpha, stderr) of the fit y ~ gamma d + delta ln d + mu + alpha d ln d,
    solved exactly.  Scaled by one power of two, every float point is an
    integer, so the Gram matrix G of the columns (d, ln d, 1, d ln d, y) is
    integer; the scale cancels from alpha and the stderr.  One Bareiss pass
    over G, without row swaps, leaves in entry (p, j >= p) the minor of rows
    0..p and columns 0..p-1, j, every division exact; G and every step are
    symmetric, so only j >= i is built and updated, reading G[p][i] for
    G[i][p].  With N the normal matrix (G without row and column y), that is
    det N at (3, 3), det N with alpha's column replaced by the y column at
    (3, 4), alpha's cofactor at (2, 2) and det G at (4, 4): Cramer's rule
    gives alpha, (N^-1)_33 and the residual sum of squares det G / det N,
    the same rationals as the solve over the rationals.  N is a Gram matrix,
    so a zero among its pivots (0, 0)..(3, 3) means N is singular."""
    ln = [math.log(di) for di in d]
    ratios = [x.as_integer_ratio()
              for x in d + ln + [1.0] * len(d) + [di * li for di, li in zip(d, ln)] + y]
    e = max(den.bit_length() for _, den in ratios)
    ints = [num << (e - den.bit_length()) for num, den in ratios]
    k = len(d)  # points
    cols = [ints[i * k:(i + 1) * k] for i in range(5)]
    G = [[0] * i + [sum(a * b for a, b in zip(ci, cj)) for cj in cols[i:]]
         for i, ci in enumerate(cols)]
    prev = 1
    for p in range(4):
        piv = G[p][p]
        if piv == 0:
            raise InvalidInputError(
                "singular normal equations: too few distinct diagonal points to fit"
            )
        for i in range(p + 1, 5):
            for j in range(i, 5):
                G[i][j] = (G[i][j] * piv - G[p][i] * G[p][j]) // prev
        prev = piv
    det_n = G[3][3]
    alpha, inv33, rss = (Fraction(m, det_n) for m in (G[3][4], G[2][2], G[4][4]))
    return float(alpha), math.sqrt(float(rss / max(k - 4, 1) * inv33))


# ---------------------------------------------------------------------------
# slopes


class SlopeEntry:
    __slots__ = ("variable", "has_slope", "gevrey_jump", "slope")

    def __init__(self, variable: int, has_slope: bool,
                 gevrey_jump: Optional[Fraction] = None, slope: Optional[Fraction] = None):
        self.variable = variable
        self.has_slope = has_slope
        self.gevrey_jump = gevrey_jump
        self.slope = slope


class SlopeReport:
    __slots__ = ("matrix", "entries")

    def __init__(self, matrix: CurveMatrix, entries: tuple[SlopeEntry, ...]):
        self.matrix, self.entries = matrix, entries

    def to_json(self) -> dict:
        from .rationals import format_rational
        return {
            "matrix": list(self.matrix.entries),
            "slopes": [
                {
                    "variable": e.variable,
                    "has_slope": e.has_slope,
                    **(
                        {
                            "gevrey_jump": format_rational(e.gevrey_jump),
                            "slope": format_rational(e.slope),
                        }
                        if e.has_slope
                        else {}
                    ),
                }
                for e in self.entries
            ],
        }


def slope_threshold(A: CurveMatrix) -> Fraction:
    """The unique Gevrey jump: b/a for plane, a_n/a_{n-1} otherwise."""
    ent = A.entries
    return Fraction(ent[-1], ent[-2])


def slope_report(A) -> SlopeReport:
    """Irregularity slopes along each coordinate hyperplane.

    Only the hyperplane of the last variable carries a slope; the jump in
    Gevrey index there is slope_threshold(A), recorded both as the jump
    and in the customary negative normalization  a/(a-b) < 0.
    """
    A = curve_matrix(A)
    ent = A.entries
    n = A.n
    jump = slope_threshold(A)
    entries = [SlopeEntry(i, False) for i in range(n - 1)]
    entries.append(
        SlopeEntry(
            n - 1,
            True,
            jump,
            Fraction(ent[-2], ent[-2] - ent[-1]),
        )
    )
    return SlopeReport(A, tuple(entries))


# ---------------------------------------------------------------------------
# dimension tables


SHEAVES = ("O_X|Y", "O^(s)", "Q_Y(s)")
POINTS = ("origin-or-Z", "smooth-point-of-Y")


class DimensionTable:
    """Ext^0 / Ext^1 dimensions, keyed by (sheaf, ext_index, point_class)."""

    __slots__ = ("matrix", "beta", "s", "beta_class", "threshold", "validity", "cells")

    def __init__(self, matrix: CurveMatrix, beta: Fraction, s: Optional[Fraction],
                 beta_class: str, threshold: Fraction, validity: str, cells: dict):
        self.matrix = matrix
        self.beta = beta
        self.s = s                    # None = infinity
        self.beta_class = beta_class  # 'special' or 'generic'
        self.threshold = threshold
        self.validity = validity      # 'exact' or 'generic-beta'
        self.cells = cells

    def cell(self, sheaf: str, ext_index: int, point: str) -> int:
        return self.cells[(sheaf, ext_index, point)]

    def to_json(self) -> dict:
        from .rationals import format_rational
        return {
            "matrix": list(self.matrix.entries),
            "beta": format_rational(self.beta),
            "s": "inf" if self.s is None else format_rational(self.s),
            "beta_class": self.beta_class,
            "threshold": format_rational(self.threshold),
            "validity": self.validity,
            "cells": [
                {"sheaf": k[0], "ext": k[1], "point": k[2], "dim": v}
                for k, v in sorted(self.cells.items())
            ],
        }

    def render(self) -> str:
        s_txt = "inf" if self.s is None else str(self.s)
        head = (
            f"A = {self.matrix}   beta = {self.beta} ({self.beta_class})   "
            f"s = {s_txt}   threshold = {self.threshold}"
        )
        rows = [head, "-" * len(head)]
        label = {"origin-or-Z": "origin/Z", "smooth-point-of-Y": "point p"}
        rows.append(f"{'sheaf':8} | {'ext0 ' + label[POINTS[0]]:>14} "
                    f"{'ext0 ' + label[POINTS[1]]:>14} "
                    f"{'ext1 ' + label[POINTS[0]]:>14} "
                    f"{'ext1 ' + label[POINTS[1]]:>14}")
        for sheaf in SHEAVES:
            cells = [self.cell(sheaf, e, p) for e in (0, 1) for p in POINTS]
            rows.append(f"{sheaf:8} | " + " ".join(f"{c:>14}" for c in cells))
        return "\n".join(rows)


def dimension_table(A, beta, s) -> DimensionTable:
    """Dimensions of Ext^0 and Ext^1 with values in the three solution
    sheaves, at the special point and at a generic smooth point of Y.

    The table is exact for the plane and smooth families and valid for
    generic parameters in the general family.
    """
    A = curve_matrix(A)
    beta = as_rational(beta)
    s = _coerce_s(s)
    thr = slope_threshold(A)
    special = _beta_in_semigroup(A, beta)
    rank0 = A.entries[-2]
    validity = "generic-beta" if A.family == "general" else "exact"
    high = _s_at_least(s, thr)
    one = 1 if special else 0

    cells = {
        ("O_X|Y", 0, POINTS[0]): one,
        ("O_X|Y", 0, POINTS[1]): one,
        ("O_X|Y", 1, POINTS[0]): one,
        ("O_X|Y", 1, POINTS[1]): one,
        # At the special point the Gevrey quotient has no solutions in any
        # degree, so the formal/Gevrey sheaf agrees with the convergent one.
        ("O^(s)", 0, POINTS[0]): one,
        ("O^(s)", 1, POINTS[0]): one,
        ("O^(s)", 0, POINTS[1]): rank0 if high else one,
        ("O^(s)", 1, POINTS[1]): 1 if (special and not high) else 0,
        ("Q_Y(s)", 0, POINTS[0]): 0,
        ("Q_Y(s)", 0, POINTS[1]): rank0 if high else 0,
        ("Q_Y(s)", 1, POINTS[0]): 0,
        ("Q_Y(s)", 1, POINTS[1]): 0,
    }
    return DimensionTable(
        A, beta, s, "special" if special else "generic", thr, validity, cells
    )


# ---------------------------------------------------------------------------
# polynomial solutions


def polynomial_solution(A, beta) -> Optional[tuple[int, TruncatedSeries]]:
    """The (unique up to scale) polynomial solution, or None.

    Present exactly when beta lies in the semigroup N A.  Returns
    (q, series): the base is v^q, the one singular exponent that is a
    nonnegative integer vector, and its Gamma series terminates.  The
    monomials are the x >= 0 with A.x = beta, each with coefficient
    Gamma[v^q; x - v^q] from :func:`gamma._box_gamma_terms`.  The series
    is exact (complete) and can be checked against the system without
    frontier loss.  beta is tested against the semigroup of A; the
    polynomial is computed on lift(A) and brought down.
    Raises ResourceLimitError for beta above the term cap, since the
    monomials fill a ball of radius beta.
    """
    A = curve_matrix(A)
    beta = as_rational(beta)
    if not _beta_in_semigroup(A, beta):
        return None
    if beta > term_cap():
        raise ResourceLimitError(f"polynomial solution for beta = {beta} exceeds the term cap")
    lifted = lift(A)[0]
    q, v = _polynomial_exponent(lifted, beta)
    terms = _box_gamma_terms(lifted, [int(x) for x in v], [(0, None)] * lifted.n)
    span = max((sum(abs(x) for x in u) for u in terms), default=0)
    f = TruncatedSeries._built(v, terms, TruncationFrontier.uniform(lifted.n, span), exact=True)
    # not lift's slice: its frontier would span the kept terms, not the whole lifted polynomial
    return q, f if lifted is A else restrict_series_x0(f)

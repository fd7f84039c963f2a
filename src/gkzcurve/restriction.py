"""Homogenization, b-functions, restriction decompositions, Ext^1 data.

Adding a column of 1's to a general matrix (a_1 ... a_n) produces the
smooth-shaped matrix A' = (1 a_1 ... a_n); the hypergeometric module of A
is recovered (for generic parameters) by restricting the module of A' to
x_0 = 0.  This module packages:

* :func:`homogenize` -- A' with build_system's operators and the contiguity
  binomials Q_i = d_0 d_i^{delta_i} - d^{rho_i} from minimal semigroup data;
* :func:`b_function_1kakb` -- the b-function of the (1 ka kb) system with
  respect to the weight (1, 0, 0), namely tau (tau-1) ... (tau-k+1) for
  generic parameters;
* :func:`restrict_decomposition` -- the direct-sum shape of a restricted
  module, as a list of (plane or general matrix, parameter) components;
* :func:`ext1_recurrence_solve` -- coefficientwise solution of P(h) = f at
  a germ off the origin on the singular line, plus the Gevrey envelope
  check |h_{k+am}| <= C D^m (k+am)!^{s-1} at s = b/a;
* :func:`ext1_generator` -- the Ext^1 witness P(phi_vtilde) of a plane,
  smooth or homogenized matrix: P on the finite slab of phi_vtilde.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInputError, ResourceLimitError
from .gamma import _box_gamma_terms, _exponent_axes, lift, modified_exponent
from .lattice import curve_matrix, homogenize_matrix, minimal_delta, term_cap
from .rationals import as_rational, falling_product, format_rational, reduced_pair
from .series import TruncatedSeries, TruncationFrontier, WeylOperator, apply_operator
from .system import HypergeometricSystem, build_system


# ---------------------------------------------------------------------------
# homogenization


class Homogenization:
    __slots__ = ("matrix", "system", "deltas", "rhos")

    def __init__(self, matrix, system, deltas: tuple[int, ...], rhos: tuple[tuple[int, ...], ...]):
        self.matrix = matrix  # A' = (1 a_1 ... a_n)
        self.system = system  # generators of the A' system, the Q_i before E
        self.deltas = deltas
        self.rhos = rhos

    def to_json(self) -> dict:
        return {
            "matrix": list(self.matrix.entries),
            "deltas": list(self.deltas),
            "rhos": [list(r) for r in self.rhos],
            "operators": [op.to_json() for op in self.system.operators],
        }


def homogenize(A, beta) -> Homogenization:
    """Homogenize a general matrix and assemble the A'-system for beta: the
    kernel binomials of build_system, then Q_i = box_u for u = e_0 + delta_i
    e_{i+1} - (0, rho_i), (delta_i, rho_i) = minimal_delta(A, i), then E."""
    A = curve_matrix(A)
    Ah = homogenize_matrix(A)
    kernel = build_system(Ah, beta)
    deltas, rhos = zip(*(minimal_delta(A, i) for i in range(A.n)))
    # rho_i = 0, so the two halves of u have disjoint supports
    contiguity = tuple(
        WeylOperator.from_lattice((1, *(d * (j == i) - r for j, r in enumerate(rho))))
        for i, (d, rho) in enumerate(zip(deltas, rhos)))
    system = HypergeometricSystem(Ah, kernel.beta, kernel.toric + contiguity, kernel.euler)
    return Homogenization(Ah, system, deltas, rhos)


# ---------------------------------------------------------------------------
# b-function


class BFunction:
    """b(tau) for the restriction to x_0 = 0 w.r.t. the weight (1, 0, ..., 0)."""

    __slots__ = ("k", "roots")

    def __init__(self, k: int, roots: tuple[int, ...]):
        self.k, self.roots = k, roots

    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients of prod (tau - r), lowest degree first, expanded in
        integers (the roots are integers)."""
        coeffs = [1]
        for r in self.roots:
            # c_i of the product with (tau - r) is c_{i-1} - r c_i
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        return tuple(map(Fraction, coeffs))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "roots": list(self.roots),
            "coefficients": [format_rational(c) for c in self.coefficients()],
        }


def b_function_1kakb(k: int, a: int, b: int) -> BFunction:
    """b(tau) = tau (tau - 1) ... (tau - k + 1) for A = (1, ka, kb).

    Valid for generic parameters; requires 1 <= a < b, gcd(a, b) = 1 and
    ka > 1 so that (1, ka, kb) is a smooth-family matrix.  Raises
    ResourceLimitError when the k (k + 1) / 2 multiply-adds of expanding
    the coefficients exceed the term cap.
    """
    if not (1 <= a < b):
        raise InvalidInputError("need 1 <= a < b")
    if math.gcd(a, b) != 1:
        raise InvalidInputError("need gcd(a, b) = 1")
    if k < 1 or k * a <= 1:
        raise InvalidInputError("need k >= 1 and ka > 1")
    if k * (k + 1) // 2 > term_cap():
        raise ResourceLimitError(f"{k * (k + 1) // 2} b-function multiply-adds exceed the term cap")
    return BFunction(k, tuple(range(k)))


# ---------------------------------------------------------------------------
# restriction decompositions


class RestrictionDecomposition:
    """M restricted to a coordinate subspace, as a direct sum of components.

    Each component is (matrix, parameter).  ``generic`` records that the
    isomorphism holds for all but finitely many parameters.
    """

    __slots__ = ("source", "beta", "restricted_vars", "components", "generic")

    def __init__(self, source, beta: Fraction, restricted_vars: tuple[int, ...],
                 components: tuple, generic: bool = True):
        self.source = source
        self.beta = beta
        self.restricted_vars = restricted_vars
        self.components = components
        self.generic = generic

    def to_json(self) -> dict:
        return {
            "source": list(self.source.entries),
            "beta": format_rational(self.beta),
            "restricted_vars": list(self.restricted_vars),
            "generic": self.generic,
            "components": [
                {"matrix": list(m.entries), "beta": format_rational(b)}
                for m, b in self.components
            ],
        }


def restrict_decomposition(Aprime, beta) -> RestrictionDecomposition:
    """Direct-sum decomposition of the restricted hypergeometric module.

    Three shapes are recognized:

    * homogenized (1 a_1 ... a_n): restriction to x_0 = 0 is the single
      module of (a_1 ... a_n) with the same parameter;
    * (1 c_2 c_3) with k = gcd(c_2, c_3): restriction to x_1 = 0 splits
      into k plane components ((c_2/k c_3/k), (beta - i)/k), i = 0..k-1;
    * (1 a_2 ... a_n), n > 3: restriction to x_1 = ... = x_{n-2} = 0
      splits into k = gcd(a_{n-1}, a_n) components ((a_{n-1} a_n), beta-i).

    All decompositions hold for generic parameters.
    """
    Aprime = curve_matrix(Aprime)
    beta = as_rational(beta)
    ent = Aprime.entries
    n = Aprime.n

    if Aprime.family == "homogenized":
        comp = ((curve_matrix(ent[1:]), beta),)
        return RestrictionDecomposition(Aprime, beta, (0,), comp)

    if Aprime.family != "smooth":
        raise InvalidInputError(
            "restriction shapes start from a smooth or homogenized matrix"
        )

    # (1 c_2 ... c_n) restricted to x_1 = ... = x_{n-2} = 0.  The component
    # matrix (c_{n-1} c_n) with parameter beta - i is normalized by the gcd k:
    # dividing both entries by k divides the Euler operator by k, so the
    # component is the plane module of (c_{n-1}/k c_n/k) at (beta - i)/k.
    p, q = ent[-2], ent[-1]
    k = math.gcd(p, q)
    base = curve_matrix((p // k, q // k))
    comps = tuple((base, Fraction(beta - i, k)) for i in range(k))
    return RestrictionDecomposition(Aprime, beta, tuple(range(n - 2)), comps)


# ---------------------------------------------------------------------------
# Ext^1 recurrence at a germ on the singular line


def _plane_entries(A) -> tuple[int, int]:
    """(a, b) of a plane matrix; InvalidInputError for any other matrix."""
    A = curve_matrix(A)
    if A.family != "plane":
        raise InvalidInputError("the recurrence is stated for plane matrices")
    return A.entries


def ext1_recurrence_solve(A, epsilon, beta, f_coeffs, h_init=None,
                          num_terms: int = 40) -> dict:
    """Solve P(h) = f coefficientwise at a germ off the origin.

    For a plane matrix (a b), in coordinates centered at (epsilon, 0) the
    unknown h = sum h_{k+am} x_1^{(beta-bk)/a - bm} x_2^{k+am} satisfies

        h_{k+a(m+1)} = [ ((beta-bk)/a - bm)_b * h_{k+am} - f_{k+am} ]
                       / (k + a(m+1))_a ,

    one chain per residue k = 0..a-1, where (z)_r is the 1-d falling
    factorial.  ``f_coeffs`` and the optional ``h_init`` map (k, m) to
    rationals; missing f entries are 0 and missing initial values h_{k}
    (i.e. (k, 0)) default to 0; k must lie in 0..a-1.  Returns
    {(k, m): h_{k+am}} for m = 0..num_terms, and raises ResourceLimitError
    when those a (num_terms + 1) entries exceed the term cap.  Each chain
    steps as a reduced integer pair; one Fraction is built per entry.
    """
    a, b = _plane_entries(A)
    if num_terms < 0:
        raise InvalidInputError("the number of terms must be nonnegative")
    if a * (num_terms + 1) > term_cap():
        raise ResourceLimitError(f"{a * (num_terms + 1)} recurrence entries exceed the term cap")
    epsilon = as_rational(epsilon)
    if epsilon == 0:
        raise InvalidInputError("the germ must sit off the origin: epsilon != 0")
    beta = as_rational(beta)
    f = {(int(k), int(m)): as_rational(c) for (k, m), c in f_coeffs.items()}
    for (k, m) in f:
        if not (0 <= k < a) or m < 0:
            raise InvalidInputError(f"f index {(k, m)} out of range")
    init = {int(k): as_rational(c) for k, c in (h_init or {}).items()}
    if any(not 0 <= k < a for k in init):
        raise InvalidInputError(f"h_init keys {sorted(init)} leave 0..{a - 1}")
    # z = (beta - bk)/a - bm = zn / zd, zd = a q_beta: (z)_b = falling(zn, zd, b) / zd^b
    zd, h = a * beta.denominator, {}
    for k in range(a):
        num, den = h[(k, 0)] = init.get(k, Fraction(0)).as_integer_ratio()
        for m in range(num_terms):
            zn = beta.numerator - b * beta.denominator * (k + a * m)
            fn, fd = f.get((k, m), Fraction(0)).as_integer_ratio()
            # (k + a(m+1))_a multiplies a consecutive integers, each at least 1
            num, den = h[(k, m + 1)] = reduced_pair(
                falling_product(zn, zd, b) * num * fd - fn * zd**b * den,
                zd**b * den * fd * falling_product(k + a * (m + 1), 1, a))
    return {km: Fraction(*c) for km, c in h.items()}


def recurrence_series(A, beta, table, shift: int = 0,
                      bound: int = 40) -> list[TruncatedSeries]:
    """Assemble a coefficient table {(k, m): c} of a plane matrix (a b)
    into two-variable series.

    Entry (k, m) contributes  c * x_1^{(beta-bk)/a - b(m+shift)} x_2^{k+am}.
    With shift=0 this reconstructs h from :func:`ext1_recurrence_solve`;
    with shift=1 it reconstructs the right-hand side f in its normal form.
    Chains with different k have incommensurable base exponents, so one
    series per residue k is returned, in increasing order of k.
    """
    a, b = _plane_entries(A)
    beta = as_rational(beta)
    frontier = TruncationFrontier.uniform(2, bound)
    per_k: dict[int, dict] = {}
    for (k, m), c in table.items():
        per_k.setdefault(k, {})[(-b * (m + shift), a * m)] = c
    out = []
    for k in sorted(per_k):
        base = (Fraction(beta - b * k, a), Fraction(k))
        terms = {u: c for u, c in per_k[k].items() if frontier.contains(u)}
        out.append(TruncatedSeries(base, terms, frontier))
    return out


def gevrey_envelope_fit(values: Sequence[float]) -> tuple[float, float]:
    """Fit r_m <= C D^m: D from the least-squares slope of ln r_m, then the
    smallest C making the bound hold on every given term."""
    pts = [(m, v) for m, v in enumerate(values) if v > 0]
    if len(pts) < 2:
        return (max([v for _, v in pts], default=0.0) or 1.0, 1.0)
    m_mean = sum(m for m, _ in pts) / len(pts)
    y_mean = sum(math.log(v) for _, v in pts) / len(pts)
    slope = (sum((m - m_mean) * (math.log(v) - y_mean) for m, v in pts)
             / sum((m - m_mean) ** 2 for m, _ in pts))
    D = math.exp(slope)
    C = max(v / D**m for m, v in pts)
    return C, D


# ---------------------------------------------------------------------------
# Ext^1 generator


def ext1_generator(A, beta) -> TruncatedSeries:
    """P(phi_vtilde), the Ext^1 witness of a plane, smooth or homogenized
    matrix for beta in N A, as an exact series.

    P is the toric generator box_{+-step} (the one of column n - 2 if n > 2)
    for the step a_solved e_free - a_free e_solved of modified_exponent.
    Its monomials d^{step_+} and d^{step_-} send the terms of phi_vtilde at
    x and at x - step to one monomial, where the two cancel by the Gamma
    recurrence if both lie in N_vtilde: x_solved <= -1, x_i >= 0 otherwise.
    As step raises x_free, x - step in N_vtilde implies x in N_vtilde.  So
    the image is +-d_free^{a_solved} on the finite slab -a_free <= x_solved
    <= -1 of N_vtilde (it sends the x with x_free < a_solved to 0): vtilde
    alone for (a b); for a smooth matrix, the sum over m with e_1 = beta -
    sum_{i != n-1} a_i m_i >= 0 of (beta + a_{n-1})! / (e_1! prod m_i!)
    x_1^{e_1} x^m / x_{n-1} (1-based).  The base is vtilde with x_free set
    to 0, and the frontier reaches one past the largest offset.
    """
    A = curve_matrix(A)
    if lift(A)[0] is not A:
        raise InvalidInputError("the Ext^1 generator of a general matrix lives on its homogenization")
    system = build_system(A, beta)
    got = modified_exponent(system)
    if got is None:
        raise InvalidInputError("beta lies outside the semigroup: no modified exponent")
    ent, free, solved = _exponent_axes(A, "singular")
    vt, n = [int(x) for x in got[1]], A.n
    box = [(0, None)] * n
    box[solved] = (-ent[free], -1)
    base = vt[:free] + [0] + vt[free + 1:]
    slab = TruncatedSeries._built(base, _box_gamma_terms(A, vt, box, base),
                                  TruncationFrontier.uniform(n, 0), exact=True)
    P = system.toric[n - 3]  # toric[-1], the only one, for a plane matrix
    image = apply_operator(WeylOperator(n, [t for t in P.terms if t[2][free]]), slab).pairs
    span = max(sum(map(abs, u)) for u in image) + 1
    return TruncatedSeries._built(base, image, TruncationFrontier.uniform(n, span), exact=True)

"""Command-line front end.

All subcommands take the matrix as ``-A a1,a2,...`` and the parameter as
``-b p/q``; outputs are JSON (default) or plain text with ``--output text``.
Exit codes: 0 success, 1 the reader of stdout went away, 2 invalid input,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidInputError, ResourceLimitError
from .gamma import (
    generic_exponents,
    has_minimal_nsupp,
    lift,
    modified_series,
    singular_exponents,
)
from .gevrey import (
    dimension_table,
    gevrey_index_estimate,
    polynomial_solution,
    slope_report,
)
from .lattice import curve_matrix
from .rationals import format_rational, parse_rational
from .restriction import (
    b_function_1kakb,
    ext1_recurrence_solve,
    homogenize,
    restrict_decomposition,
)
from .series import DEFAULT_BOUND, TruncationFrontier, verify_annihilation
from .system import build_system


def _matrix(arg: str):
    try:
        entries = [int(x) for x in arg.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"bad matrix {arg!r}: expected comma-separated ints") from exc
    return curve_matrix(entries)


def _emit(args, payload, text: str | None = None) -> None:
    if args.output == "json":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write((text if text is not None else json.dumps(payload, indent=2)) + "\n")


_EXPONENTS = {"singular": singular_exponents, "generic": generic_exponents}


def _exponent_payload(system, which: str):
    out = []
    for k, v in enumerate(_EXPONENTS[which](system)):
        res = has_minimal_nsupp(v, system.matrix)
        out.append({
            "index": k,
            "vector": [format_rational(x) for x in v],
            "minimal_negative_support": bool(res),
            "exact_check": res.exact,
        })
    return out


def cmd_exponents(args):
    A = _matrix(args.matrix)
    system = build_system(lift(A)[0], parse_rational(args.beta))
    payload = {
        "matrix": list(A.entries),
        "beta": args.beta,
        "singular": _exponent_payload(system, "singular"),
        "generic": _exponent_payload(system, "generic"),
    }
    lines = []
    for which in ("singular", "generic"):
        for e in payload[which]:
            lines.append(f"{which}[{e['index']}] = ({', '.join(e['vector'])})"
                         f"  minimal={e['minimal_negative_support']}")
    _emit(args, payload, "\n".join(lines))


def _series(args):
    """(A, system, f): the user's matrix, the system of lift(A), and the
    solution on A that ``--point`` and ``--index`` ask for, built by lift's
    series builder.  A modified series needs A to be its own lift."""
    A, beta = _matrix(args.matrix), parse_rational(args.beta)
    if args.bound < 0:
        raise InvalidInputError("--bound must be nonnegative")
    lifted, series = lift(A)
    if args.point == "modified" and lifted is not A:
        raise InvalidInputError(
            "modified series of a general matrix lives on the homogenized system")
    system = build_system(lifted, beta)
    frontier = TruncationFrontier.uniform(system.n, args.bound)
    if args.point == "modified":
        return A, system, modified_series(system, frontier)
    vs = _EXPONENTS[args.point](system)
    if not 0 <= args.index < len(vs):
        raise InvalidInputError(f"index {args.index} out of range for {args.point} exponents")
    return A, system, series(vs[args.index], system, frontier)


def cmd_series(args):
    f = _series(args)[2]
    _emit(args, f.to_json(), repr(f))


def cmd_verify(args):
    A, system, f = _series(args)
    if system.matrix is not A:  # a general A: its own operators act on the restricted f
        system = build_system(A, system.beta)
    reports = verify_annihilation(system.operators, f)
    payload = {
        "series": repr(f),
        "reports": [
            {
                "operator": r.operator.to_json(),
                "residual_term_count": r.residual_term_count,
                "max_residual_offset": list(r.max_residual_offset) if r.max_residual_offset else None,
                "frontier_bound": r.frontier_bound,
                "annihilated": r.annihilated,
            }
            for r in reports
        ],
        "all_annihilated": all(r.annihilated for r in reports),
    }
    text = "\n".join(
        f"operator {i}: residual terms = {r.residual_term_count}"
        for i, r in enumerate(reports)
    )
    _emit(args, payload, text)


def cmd_gevrey_index(args):
    A, _, f = _series(args)
    est = gevrey_index_estimate(f, args.var, args.min_terms, matrix=A)
    _emit(args, est, f"estimate = {est['estimate']:.4f} +- {est['stderr']:.4f}")


def cmd_slopes(args):
    rep = slope_report(_matrix(args.matrix))
    text = "\n".join(
        f"x_{e.variable}: " + (f"jump {e.gevrey_jump}, slope {e.slope}"
                               if e.has_slope else "no slope")
        for e in rep.entries
    )
    _emit(args, rep.to_json(), text)


def cmd_dims(args):
    table = dimension_table(_matrix(args.matrix), parse_rational(args.beta), args.s)
    _emit(args, table.to_json(), table.render())


def cmd_restrict(args):
    A = _matrix(args.matrix)
    dec = restrict_decomposition(A, parse_rational(args.beta))
    text = "\n".join(
        f"component {i}: A = {m}, beta = {b}"
        for i, (m, b) in enumerate(dec.components)
    )
    _emit(args, dec.to_json(), text)


def cmd_homogenize(args):
    hom = homogenize(_matrix(args.matrix), parse_rational(args.beta))
    _emit(args, hom.to_json(),
          f"A' = {hom.matrix}, deltas = {hom.deltas}, rhos = {hom.rhos}")


def cmd_bfunction(args):
    bf = b_function_1kakb(args.k, args.a, args.b)
    _emit(args, bf.to_json(), f"roots: {list(bf.roots)}")


def _table_index(x) -> int:
    """A JSON int, or a string holding one; int() alone would truncate a
    float and accept a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def cmd_solve_ext1(args):
    f_table = {}
    if args.f:
        try:
            if not isinstance(table := json.loads(args.f), list):  # {} and "" iterate as []
                raise TypeError(f"expected a list, got {table!r}")
            items = [((_table_index(e["k"]), _table_index(e["m"])), parse_rational(e["coeff"]))
                     for e in table]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise InvalidInputError(f"bad --f table {args.f!r}: expected a JSON list "
                                    'like [{"k":0,"m":0,"coeff":"1"}]') from exc
        for (k, m), coeff in items:
            if (k, m) in f_table:
                raise InvalidInputError(f"--f repeats the index k={k}, m={m}")
            f_table[k, m] = coeff
    h = ext1_recurrence_solve(
        _matrix(args.matrix), parse_rational(args.epsilon),
        parse_rational(args.beta), f_table, num_terms=args.terms,
    )
    payload = [
        {"k": k, "m": m, "coeff": format_rational(c)}
        for (k, m), c in sorted(h.items())
    ]
    text = "\n".join(f"h[k={e['k']}, m={e['m']}] = {e['coeff']}" for e in payload)
    _emit(args, payload, text)


def cmd_polysol(args):
    got = polynomial_solution(_matrix(args.matrix), parse_rational(args.beta))
    if got is None:
        _emit(args, {"present": False}, "no polynomial solution")
        return
    q, f = got
    _emit(args, {"present": True, "q": q, "series": f.to_json()},
          f"q = {q}, {len(f.terms)} monomials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz",
        description="Gamma series, Gevrey data and restrictions for monomial-curve "
                    "hypergeometric systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, beta=True, bound=False, point=False):
        p.add_argument("-A", "--matrix", required=True,
                       help="comma-separated positive integers, e.g. 2,3")
        if beta:
            p.add_argument("-b", "--beta", default="0", help="rational parameter p/q")
        if bound:
            p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                           help=f"frontier bound (default {DEFAULT_BOUND})")
        if point:
            p.add_argument("--point", choices=["singular", "generic", "modified"],
                           default="singular")
            p.add_argument("--index", type=int, default=0,
                           help="which exponent of the chosen kind")
        p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("exponents", help="solution exponents and their supports")
    common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("series", help="truncated Gamma series")
    common(p, bound=True, point=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="apply the system generators to a series")
    common(p, bound=True, point=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gevrey-index", help="estimate a Gevrey index from growth")
    common(p, bound=True, point=True)
    p.add_argument("--var", type=int, required=True, help="0-based variable index")
    p.add_argument("--min-terms", type=int, default=8)
    p.set_defaults(func=cmd_gevrey_index)

    p = sub.add_parser("slopes", help="irregularity slopes per hyperplane")
    common(p, beta=False)
    p.set_defaults(func=cmd_slopes)

    p = sub.add_parser("dims", help="Ext dimension table")
    common(p)
    p.add_argument("-s", default="inf", help="Gevrey order, a rational or 'inf'")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("restrict", help="direct-sum decomposition of a restriction")
    common(p)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("homogenize", help="homogenized matrix and its operators")
    common(p)
    p.set_defaults(func=cmd_homogenize)

    p = sub.add_parser("bfunction", help="b-function of (1, ka, kb) at weight (1,0,0)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--output", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_bfunction)

    p = sub.add_parser("solve-ext1", help="solve P(h) = f at a germ off the origin")
    common(p)
    p.add_argument("--epsilon", default="1", help="germ position, nonzero rational")
    p.add_argument("--f", default="",
                   help='JSON list like [{"k":0,"m":0,"coeff":"1"}]')
    p.add_argument("--terms", type=int, default=40)
    p.set_defaults(func=cmd_solve_ext1)

    p = sub.add_parser("polysol", help="the polynomial solution, when present")
    common(p)
    p.set_defaults(func=cmd_polysol)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact answers pass the 4,300-digit default
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at devnull so that the flush
        # at interpreter shutdown does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line surface.

Every subcommand supports --json; numeric output is always exact decimal
strings (rationals as num/den), never floats.  A handler returns its result
twice, as JSON-ready data and as text, and `run` prints one of them: the only
write to stdout.  Exit codes: 0 success, 1 mathematical error, 2 usage error
(argparse, or malformed numeric input), 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import elliptic, newton, poly, reduction, valuation
from .certify import _dump
from .certify import certify as run_certify
from .certify import scan as run_scan
from .certify import survey_family
from .errors import BudgetExceededError, MathDomainError, MonodivError


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not _:
        raise argparse.ArgumentTypeError("range must look like LO:HI")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {text} is empty: LO must be at most HI")
    return lo, hi


def _bounded_n(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("n must be at least 1")
    if n > elliptic.MAX_N:
        raise argparse.ArgumentTypeError(f"n must be at most {elliptic.MAX_N}")
    return n


def _budget_ms(text: str) -> int:
    ms = int(text)
    if ms < 0:
        raise argparse.ArgumentTypeError("budget must be at least 0 ms")
    return ms


def _curve_from_args(args) -> elliptic.WeierstrassCurve:
    if args.a_invariants:
        if args.alpha is not None or args.beta is not None:
            raise MathDomainError("provide --alpha/--beta or --a-invariants, not both")
        vals = [Fraction(part) for part in args.a_invariants.split(",")]
        if len(vals) != 5:
            raise MathDomainError("--a-invariants needs a1,a2,a3,a4,a6")
        return elliptic.WeierstrassCurve(*vals)
    if args.alpha is None or args.beta is None:
        raise MathDomainError("provide --alpha/--beta or --a-invariants")
    return elliptic.tate_curve(args.alpha, args.beta).weierstrass


def _division_poly(dp: elliptic.DivisionPoly):
    text = dp.poly.to_text()
    return {"n": dp.n, "even_part": dp.even_part, "coefficients": text}, text


def _cmd_divpoly(args):
    return _division_poly(elliptic.psi(_curve_from_args(args), args.n))


def _cmd_fueter(args):
    return _division_poly(elliptic.fueter(elliptic.tate_curve(args.alpha, args.beta), args.n))


def _cmd_reduce(args):
    if args.prime is not None:
        rows = [reduction.classify(args.alpha, args.beta, args.prime)]
    else:
        rows = reduction.reduction_table(args.alpha, args.beta, budget_ms=args.budget_ms)
    data = [
        {"p": r.p, "kodaira": str(r.kodaira), "f": r.f, "c": r.c, "case": r.case_tag}
        for r in rows
    ]
    lines = ["p      kodaira  f  c  case"]
    for r in data:
        f = "-" if r["f"] is None else str(r["f"])
        c = "-" if r["c"] is None else str(r["c"])
        lines.append(f"{r['p']:<6} {r['kodaira']:<8} {f:<2} {c:<2} {r['case']}")
    return data, "\n".join(lines)


def _render_polygon(polygon: newton.NewtonPolygon) -> str:
    finite = [(j, v) for j, v in polygon.points if v is not None]
    max_v = max(v for _, v in finite)
    max_j = max(j for j, _ in finite)
    vertices = set()
    for s in polygon.sides:
        vertices.add((s.x0, s.y0))
        vertices.add((s.x1, s.y1))
    lines = []
    for v in range(max_v, -1, -1):
        row = [f"{v:>3} |"]
        for j in range(max_j + 1):
            if (j, v) in vertices:
                row.append(" o")
            elif (j, v) in finite:
                row.append(" *")
            else:
                row.append("  ")
        lines.append("".join(row))
    lines.append("    +" + "--" * (max_j + 1))
    lines.append("     " + "".join(f"{j:>2}" for j in range(max_j + 1)))
    return "\n".join(lines)


def _cmd_newton(args):
    Phi = poly.PolyInt.from_text(args.poly)
    phi = poly.PolyInt.from_text(args.phi)
    polygon = newton.build_polygon(poly.phi_development(Phi, phi), args.prime)
    ind = newton.ind_phi(polygon, phi.degree)
    lines = [_render_polygon(polygon)]
    for side in polygon.sides:
        lines.append(
            f"side ({side.x0},{side.y0})->({side.x1},{side.y1}) "
            f"slope {side.slope_text} degree {side.degree}"
        )
    lines.append(f"ind_phi = {ind}")
    return {**polygon.to_json_dict(), "ind_phi": ind}, "\n".join(lines)


def _cmd_index(args):
    Phi = poly.PolyInt.from_text(args.poly)
    lift = poly.PolyInt.from_text(args.phi) if args.phi else None
    report = newton.index_report(Phi, args.prime, lift=lift)
    data = {
        "p": report.p,
        "ind_p_lower_bound": report.ind_p_lower_bound,
        "exact": report.exact,
        "per_phi": [
            {
                "phi": r.phi.to_text(),
                "exponent": r.exponent,
                "a0_val": r.a0_val,
                "ind_phi": r.ind_phi,
                "regular": r.regular,
                "polygon": r.polygon.to_json_dict(),
            }
            for r in report.per_phi
        ],
    }
    lines = [
        f"p = {report.p}: ind_p >= {report.ind_p_lower_bound}"
        f" ({'exact' if report.exact else 'bound only'})"
    ]
    for r in report.per_phi:
        lines.append(
            f"  phi = {r.phi.to_text()} (e = {r.exponent}): "
            f"ind_phi = {r.ind_phi}, regular = {r.regular}"
        )
    return data, "\n".join(lines)


def _cmd_certify(args):
    cert = run_certify(args.alpha, budget_ms=args.budget_ms)
    # certify returns not_certified with its hypothesis undecided only when
    # the budget ran out while factoring alpha -+ 8
    if cert.verdict == "not_certified" and not cert.hypothesis_ok:
        raise BudgetExceededError(cert.reason)
    lines = [f"alpha = {cert.alpha}: {cert.verdict}"]
    if cert.field_disc is not None:
        lines.append(f"  field discriminant = {cert.field_disc}")
    for row in cert.primes:
        lines.append(
            f"  p = {row.p}: ind_p = {row.ind_p_lower_bound}"
            f" ({'exact' if row.exact else 'bound'}), dedekind maximal = {row.dedekind}"
        )
    if cert.reason:
        lines.append(f"  reason: {cert.reason}")
    lines += [f"  trust: {note}" for note in cert.trust]
    return cert.to_json_dict(), "\n".join(lines)


def _cmd_scan(args):
    certs = run_scan(args.min, args.max, budget_ms=args.budget_ms)
    lines = [f"{c.alpha}: {c.verdict}" + (f" ({c.reason})" if c.reason else "") for c in certs]
    good = [str(c.alpha) for c in certs if c.verdict == "monogenic"]
    lines.append("monogenic: " + ",".join(good))
    return [c.to_json_dict() for c in certs], "\n".join(lines)


def _cmd_survey(args):
    entries = survey_family(args.family, args.s, args.t, budget_ms=args.budget_ms)
    data = [
        {
            "family": e.family,
            "s": e.s,
            "t": e.t,
            "poly": e.poly.to_text(),
            "predicted_disc": str(e.predicted_disc),
            "disc_ok": e.disc_ok,
            "squared_factor": str(e.squared_factor),
            "verdict": e.verdict,
        }
        for e in entries
    ]
    text = "\n".join(
        f"{e.family}({e.s},{e.t}): disc {'ok' if e.disc_ok else 'MISMATCH'}, "
        f"montes {'skipped' if e.verdict is None else e.verdict}"
        for e in entries
    )
    return data, text


def _cmd_valuation(args):
    curve = elliptic.tate_curve(args.alpha, args.beta)
    case = valuation.singular_case(curve, args.prime)
    pred_psi = valuation.predicted_valuation(case, args.n)
    pred_f = valuation.predicted_fueter_valuation(case, args.n)
    obs_psi = valuation.observed_psi_valuation(curve, case, args.n)
    obs_f = valuation.observed_fueter_valuation(curve, case, args.n)
    data = {
        "case": case.tag,
        "p": case.p,
        "v": case.v,
        "n": args.n,
        "psi": {"predicted": pred_psi, "observed": obs_psi},
        "fueter": {"predicted": pred_f, "observed": obs_f},
    }
    text = (
        f"case {case.tag} at p = {case.p} (v = {case.v}), n = {args.n}\n"
        f"  psi:    predicted {pred_psi}, observed {obs_psi}\n"
        f"  fueter: predicted {pred_f}, observed {obs_f}"
    )
    return data, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monodiv",
        description="Exact division-polynomial arithmetic, Newton polygons, "
        "reduction types, and monogenicity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--budget-ms", type=_budget_ms, default=None)

    p = sub.add_parser("divpoly", help="division polynomial of a curve")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--a-invariants", help="a1,a2,a3,a4,a6 (rationals)")
    p.add_argument("--n", type=_bounded_n, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_divpoly)

    p = sub.add_parser("fueter", help="Fueter polynomial of a Tate-form curve")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--n", type=_bounded_n, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_fueter)

    p = sub.add_parser("reduce", help="Kodaira/conductor table")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--prime", type=int)
    add_common(p, budget=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("newton", help="phi-development Newton polygon")
    p.add_argument("--poly", required=True, help="ascending coefficients, comma-separated")
    p.add_argument("--phi", required=True)
    p.add_argument("--prime", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("index", help="index bound at a prime")
    p.add_argument("--poly", required=True)
    p.add_argument("--phi", help="optional lift override")
    p.add_argument("--prime", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("certify", help="monogenicity certificate for one alpha")
    p.add_argument("--alpha", type=int, required=True)
    add_common(p, budget=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="certify a range of alpha")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    add_common(p, budget=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("survey", help="experimental family survey")
    p.add_argument("--family", choices=("A", "B", "C"), required=True)
    p.add_argument("--s", type=_parse_range, required=True, help="range LO:HI")
    p.add_argument("--t", type=_parse_range, required=True, help="range LO:HI")
    add_common(p, budget=True)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("valuation", help="predicted vs observed singular valuations")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=_bounded_n, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_valuation)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scan" and args.min > args.max:
        parser.error(f"argument --max: {args.max} is below --min {args.min}")
    try:
        data, text = args.func(args)
    except BudgetExceededError as exc:
        print(exc, file=sys.stderr)
        return 3
    except MonodivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        # malformed numeric input (bad coefficient lists, zero denominators)
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    print(_dump(data) if args.json else text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

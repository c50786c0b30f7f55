"""Command-line front end: reports, profiles, membership tests, and grids.

Every value printed is an exact rational or a polynomial over F2; no code
path touches floating point.  Exit status: 0 on success, 1 on a domain
error (the error class name goes to stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog
from .basechange import BUILTIN_NAMES, b_family, builtin, series_poly
from .errors import ConcordiaError, UsageError
from .field2 import parse_fraction_text
from .homalg import dumps
from .ideals import FractionalIdeal, g_region, parse_generators, render_g_region
from .invariants import (
    KnotModel,
    as_forward,
    connected_sum,
    describe_bn_ideal,
    f_plus,
    f_profile,
    f_sigma,
    invariant_report,
    unknotting_bound,
    znat_bn,
)
from .laurent import L, Ring, parse_laurent_fraction
from .valuation import Order


# -- shared flag handling -----------------------------------------------------------

def _add_sigma_flags(p):
    p.add_argument("--example", choices=BUILTIN_NAMES, required=True,
                   help="builtin base change")
    p.add_argument("--r", help="exact rational parameter for example B, like 1/2")


def _add_model_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--knot", help="catalog entry name")
    src.add_argument("--stdin", action="store_true",
                     help="read knot-model JSON from standard input")
    src.add_argument("--file", help="path to a knot-model JSON file")


def _sigma_from(args):
    if args.example == "B" and args.r is None:
        raise UsageError("base change B needs --r (an exact rational like 1/2)")
    r = parse_fraction_text(args.r) if args.r is not None else None
    return builtin(args.example, r)


def _model_from(args) -> KnotModel:
    if args.knot is not None:
        return catalog.get_model(args.knot)
    if args.stdin:
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse knot-model JSON: {exc}")
    return KnotModel.from_json(data)


def _parse_samples(spec: str):
    spec = spec.strip()
    if ".." in spec:
        span, _, count = spec.partition(":")
        lo_text, _, hi_text = span.partition("..")
        lo, hi = parse_fraction_text(lo_text), parse_fraction_text(hi_text)
        try:
            n = int(count) if count else 8
        except ValueError:
            n = 0
        if n < 1 or hi <= lo:
            raise UsageError(f"bad sample range {spec!r}; want lo..hi[:steps]")
        step = (hi - lo) / n
        return [lo + step * k for k in range(n + 1)]
    samples = [parse_fraction_text(tok) for tok in spec.split(",") if tok.strip()]
    if not samples:
        raise UsageError("empty sample list")
    return samples


# -- subcommands --------------------------------------------------------------------

def _cmd_eval(args) -> int:
    sigma = _sigma_from(args)
    x = parse_laurent_fraction(args.element, Ring(args.ring))
    value = sigma.apply(x)
    print(value)
    if args.ord:
        print(f"ord = {sigma.weight.ord_rf(value)}")
    if args.leading_form:
        print(f"leading form = {sigma.weight.leading_form_rf(value)}")
    return 0


def _cmd_invariants(args) -> int:
    model = _model_from(args)
    if args.signature is not None:
        model = KnotModel(model.name, model.complex, model.cycle, args.signature)
    sys.stdout.write(invariant_report(model, _sigma_from(args)))
    return 0


def _cmd_profile(args) -> int:
    model = _model_from(args)
    report = f_profile(model, _parse_samples(args.samples), depth=args.depth)
    print(report.render())
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report.csv())
        except OSError as exc:
            raise UsageError(f"cannot write {args.csv!r}: {exc}")
    return 0


def _cmd_sum(args) -> int:
    names = [n.strip() for n in args.knots.split(",") if n.strip()]
    if len(names) < 2:
        raise UsageError("--knots needs at least two comma-separated names")
    # one model per distinct name, so a repeated factor is the same object
    forward = {n: as_forward(catalog.get_model(n)) for n in dict.fromkeys(names)}
    models = [forward[n] for n in names]
    total = models[0]
    for m in models[1:]:
        total = connected_sum(total, m)
    sys.stdout.write(invariant_report(total, _sigma_from(args)))
    return 0


def _cmd_membership(args) -> int:
    ring = Ring(args.ring)
    ideal = FractionalIdeal.from_gens(ring, parse_generators(args.ideal, ring))
    x = parse_laurent_fraction(args.element, ring)
    print("true" if ideal.contains(x) else "false")
    return 0


def _cmd_g_region(args) -> int:
    ring = Ring(args.ring)
    ideal = FractionalIdeal.from_gens(ring, parse_generators(args.ideal, ring))
    print(render_g_region(g_region(ideal, args.gmax, args.dmax), args.gmax, args.dmax))
    return 0


def _cmd_unknotting(args) -> int:
    model = _model_from(args)
    print(unknotting_bound(model, _sigma_from(args)).render())
    return 0


def _format_entry(entry) -> str:
    lines = [f"name: {entry.name}"]
    if entry.conjecture:
        lines.append("status: conjectural (excluded from verification)")
    lines.append(f"notes: {entry.notes}")
    if entry.model is not None:
        m = entry.model
        lines.append(f"ring: {m.ring.value}")
        ranks = ", ".join(f"{d}: {m.complex.rank(d)}" for d in m.complex.degrees())
        lines.append(f"ranks by degree: {ranks}")
        lines.append(f"direction: {m.cycle.direction}")
        lines.append(f"genus g = {m.cycle.genus}, dplus = {m.cycle.dplus}")
        if m.signature is not None:
            lines.append(f"signature: {m.signature}")
    if entry.expected_ideal is not None:
        lines.append(f"expected ideal: {describe_bn_ideal(entry.expected_ideal)}")
    if entry.extra is not None:
        lines.append("extra: skein-assembly matrices (use --json to inspect)")
    return "\n".join(lines)


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            print(name)
        return 0
    if args.name is None:
        raise UsageError("catalog show needs an entry name")
    if args.json:
        print(dumps(catalog.show_json(args.name)))
    else:
        print(_format_entry(catalog.get(args.name)))
    return 0


def _cmd_verify(args) -> int:
    lines = []
    ok_all = True

    def check(label, passed):
        nonlocal ok_all
        ok_all = ok_all and passed
        lines.append(f"{'pass' if passed else 'FAIL'}  {label}")

    half = Fraction(1, 2)
    trefoil = catalog.get("trefoil")
    left = catalog.get("trefoil_left")
    check("trefoil ideal equals <L, P>", znat_bn(trefoil.model) == trefoil.expected_ideal)
    check("left-trefoil ideal equals <1>", znat_bn(left.model) == left.expected_ideal)
    # every B(r) of the suite shares sigma's images with this one
    sigma_half = builtin("B", half)
    for r in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
              half, Fraction(2, 3), Fraction(1)):
        sigma = b_family(r, sigma_half)
        check(f"f_{r}(trefoil) = {r}", f_sigma(trefoil.model, sigma) == Order.rational(r))
        check(f"f_{r}(trefoil_left) = {-r}",
              f_sigma(left.model, sigma) == Order.rational(-r))
    example_e = catalog.get_model("exampleE")
    f_example_e = {r: f_sigma(example_e, b_family(r, sigma_half))
                   for r in (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), half, Fraction(1))}
    for r in (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)):
        check(f"f_{r}(exampleE) = {3 * r}", f_example_e[r] == Order.rational(3 * r))
    for r in (Fraction(1, 3), half, Fraction(1)):
        check(f"f_{r}(exampleE) = 1", f_example_e[r] == Order.rational(1))
    check("f_plus(exampleE) = 3", f_plus(example_e) == 3)

    a = builtin("A")
    pi, lam = a.pi_lambda()
    check("base change A has (pi, lambda) = (1, 1)",
          pi == Order.rational(1) and lam == Order.rational(1))
    lf = a.weight.leading_form_rf(a.sigma_P())
    expected = series_poly("q2^2*q3^2*x^4 + q3^2*q1^2*x^4 + q1^2*q2^2*x^4")
    check("base change A sigma(P) leading form", lf == expected)
    for r in (Fraction(1, 8), half, Fraction(2, 3)):
        pi, lam = b_family(r, sigma_half).pi_lambda()
        check(f"base change B (r = {r}) has (pi, lambda) = (1, {r})",
              pi == Order.rational(1) and lam == Order.rational(r))
    pi, lam = builtin("C").pi_lambda()
    check("base change C has (pi, lambda) = ((1, 0), (0, 1))",
          pi == Order.lex(1, 0) and lam == Order.lex(0, 1))
    d = builtin("D")
    check("base change D has sigma(P) = sigma(V)", d.sigma_P() == d.sigma_V())
    cp = builtin("Cprime")
    check("base change Cprime has sigma(P) = 0", cp.sigma_P().is_zero())
    check("base change Cprime has ord sigma(L) = 1",
          cp.weight.ord_rf(cp.apply(L())) == Order.rational(1))

    unknot = catalog.get_model("unknot")
    check("f_{1/2}(unknot) = 0", f_sigma(unknot, sigma_half) == Order.rational(0))
    double = connected_sum(trefoil.model, trefoil.model)
    check("f_{1/2}(trefoil # trefoil) = 1",
          f_sigma(double, sigma_half) == Order.rational(1))
    mixed = connected_sum(trefoil.model, as_forward(left.model))
    check("f_{1/2}(trefoil # trefoil_left) = 0",
          f_sigma(mixed, sigma_half) == Order.rational(0))

    skein_ok, skein_lines = catalog.verify_skein_consistency()
    lines.extend(skein_lines)
    ok_all = ok_all and skein_ok

    print("\n".join(lines))
    print("verify: all checks passed" if ok_all else "verify: FAILURES present")
    return 0 if ok_all else 1


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concordia",
        description="exact concordance-invariant calculus over local coefficient systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an element under a base change")
    _add_sigma_flags(p)
    p.add_argument("--element", required=True,
                   help="Laurent expression, e.g. 'P' or 'P^2*L^-1'")
    p.add_argument("--ring", choices=("FULL", "BN"), default="FULL")
    p.add_argument("--ord", action="store_true", help="also print the valuation")
    p.add_argument("--leading-form", action="store_true", dest="leading_form",
                   help="also print the leading form")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("invariants", help="full invariant report for one knot model")
    _add_model_flags(p)
    _add_sigma_flags(p)
    p.add_argument("--signature", type=int, help="override the declared signature")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("profile", help="fit r -> f_r over sampled r")
    _add_model_flags(p)
    p.add_argument("--samples", default="1/8..1",
                   help="comma list of rationals, or lo..hi[:steps] (default 1/8..1)")
    p.add_argument("--csv", help="write samples as 'r,f_r' rows to this path")
    p.add_argument("--depth", type=int, default=6,
                   help="bisection depth for breakpoint tightening")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("sum", help="invariant report for a connected sum")
    p.add_argument("--knots", required=True, help="comma-separated catalog names")
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("membership", help="fraction-field ideal membership")
    p.add_argument("--ring", choices=("FULL", "BN"), required=True)
    p.add_argument("--ideal", required=True, help="comma-separated generators")
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("g-region", help="grid of (g, delta) with P^g V^delta in the ideal")
    p.add_argument("--ring", choices=("FULL", "BN"), required=True)
    p.add_argument("--ideal", required=True, help="comma-separated generators")
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=_cmd_g_region)

    p = sub.add_parser("unknotting-bound", help="torsion bound with annihilation checks")
    _add_model_flags(p)
    _add_sigma_flags(p)
    p.set_defaults(func=_cmd_unknotting)

    p = sub.add_parser("catalog", help="list or show the built-in models")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.add_argument("--json", action="store_true", help="emit the knot-model JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="run the golden identity suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def _bind_negative_r(argv):
    """Spell '--r -1/3' as '--r=-1/3', since argparse reads -1/3 as an option.

    A negative r then reaches builtin and fails there like any r outside
    (0, 1].
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--r" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--r={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_bind_negative_r(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ConcordiaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

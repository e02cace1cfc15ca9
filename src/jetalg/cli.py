"""Command-line interface.

Exit codes: 0 on success (all checks pass), 1 when a mathematical check or
validation fails, 2 on usage, parse, or schema errors."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .atlas import (
    MissingTransition, TransitionError, cocycle_check, transition_l,
    transition_via_iso,
)
from .charts import ChartError, validate_chart
from .envalg import av_to_tensor
from .fileio import SchemaError, load_atlas, load_chart, value_to_data
from .fixtures import STANDARD_ATLASES, STANDARD_CHARTS, standard_atlas, standard_chart
from .jets import delta, delta_power, jet_of
from .jetfields import (
    jf_from_pair, localization_partial_sum, localization_remainder,
)
from .liealg import CurrentElem, SemiDirectElem, phi, psi
from .multipoly import mi_degree, mi_range
from .parser import ExprSyntaxError, parse_expression
from .suites import SUITE_IDS, run_verification
from .vfields import VectorField

DEFAULT_CHARTS = ("affine2", "loc_x", "elliptic")
DEFAULT_ATLAS = "p1"


def _resolve_chart(label):
    if label in STANDARD_CHARTS:
        return standard_chart(label)
    if os.path.exists(label):
        return load_chart(label)
    raise SchemaError(label, "not a built-in chart name or a readable file")


def _resolve_atlas(label):
    if label in STANDARD_ATLASES:
        return standard_atlas(label)
    if os.path.exists(label):
        return load_atlas(label)
    raise SchemaError(label, "not a built-in atlas name or a readable file")


def _parse_vf(src, chart):
    parts = [p.strip() for p in src.split(";")]
    if len(parts) != chart.nparams:
        raise ExprSyntaxError(
            f"expected {chart.nparams} component(s) separated by ';', got {len(parts)}", 0)
    return VectorField(chart, [parse_expression(p, chart) for p in parts])


def _parse_jetfield(src, chart, k):
    if "#" not in src:
        raise ExprSyntaxError("expected 'coefficient # v1;...;vN'", 0)
    a_src, vf_src = src.split("#", 1)
    a = parse_expression(a_src.strip(), chart)
    return jf_from_pair(a, _parse_vf(vf_src, chart), k)


def _parse_monomial(src, n):
    try:
        m = tuple(int(p) for p in src.split(","))
    except ValueError:
        raise ExprSyntaxError(f"bad monomial {src!r}: expected comma-separated integers", 0)
    if len(m) != n or any(e < 0 for e in m):
        raise ExprSyntaxError(
            f"monomial needs {n} non-negative exponent(s), got {src!r}", 0)
    return m


def _order(text):
    """argparse type of every --order and --den-power: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _check_index(index, n):
    if not 0 <= index < n:
        raise ValueError(f"--index {index} out of range: the overlap has {n} coordinate(s)")


def _parse_diffop(src, chart):
    from .envalg import DiffOp
    terms = []
    for piece in src.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "@" in piece:
            expr_src, mi_src = piece.rsplit("@", 1)
            m = _parse_monomial(mi_src.strip(), chart.nparams)
        else:
            expr_src, m = piece, (0,) * chart.nparams
        terms.append((m, parse_expression(expr_src.strip(), chart)))
    return DiffOp(chart, terms)


def _parse_av_word(src, chart):
    factors = []
    for piece in src.split("|"):
        piece = piece.strip()
        if not piece:
            continue
        kind, _, rest = piece.partition(" ")
        if kind == "f":
            factors.append(("fun", parse_expression(rest.strip(), chart)))
        elif kind == "v":
            factors.append(("vf", _parse_vf(rest, chart)))
        else:
            raise ExprSyntaxError(
                f"each factor must start with 'f' or 'v', got {piece!r}", 0)
    if not factors:
        raise ExprSyntaxError("empty word", 0)
    return factors


def _emit(args, text, data):
    if getattr(args, "format", "text") == "json":
        payload = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        payload = text if text.endswith("\n") else text + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_validate(args):
    lines = []
    failed = False
    for label in args.chart or []:
        chart = _resolve_chart(label)
        try:
            validate_chart(chart)
            lines.append(f"chart {chart.name}: ok")
        except ChartError as e:
            lines.append(f"chart {chart.name}: FAILED ({e})")
            failed = True
    if args.atlas:
        atlas = _resolve_atlas(args.atlas)
        try:
            atlas.validate(args.order)
            lines.append(
                f"atlas {atlas.name}: ok "
                f"({len(atlas.charts)} charts, {len(atlas.transitions)} transitions)")
        except (ChartError, TransitionError) as e:
            lines.append(f"atlas {atlas.name}: FAILED ({e})")
            failed = True
    if not lines:
        raise ValueError("nothing to validate: pass --chart and/or --atlas")
    _emit(args, "\n".join(lines), {"results": lines, "ok": not failed})
    return 1 if failed else 0


def cmd_jet(args):
    chart = _resolve_chart(args.chart)
    f = parse_expression(args.expr, chart)
    j = jet_of(f, args.order)
    _emit(args, str(j), value_to_data(j))
    return 0


def cmd_delta(args):
    chart = _resolve_chart(args.chart)
    if (args.expr is None) == (args.power is None):
        raise ValueError("pass exactly one of --expr or --power")
    if args.expr is not None:
        j = delta(parse_expression(args.expr, chart), args.order)
    else:
        m = _parse_monomial(args.power, chart.nparams)
        j = delta_power(chart, m, args.order)
    _emit(args, str(j), value_to_data(j))
    return 0


def cmd_bracket(args):
    chart = _resolve_chart(args.chart)
    u = _parse_jetfield(args.left, chart, args.order)
    w = _parse_jetfield(args.right, chart, args.order)
    b = u.bracket(w)
    _emit(args, str(b), value_to_data(b))
    return 0


def cmd_phi(args):
    chart = _resolve_chart(args.chart)
    u = _parse_jetfield(args.field, chart, args.order)
    p = phi(u)
    _emit(args, str(p), value_to_data(p))
    return 0


def cmd_psi(args):
    chart = _resolve_chart(args.chart)
    k = args.order
    if args.vf:
        v = _parse_vf(args.vf, chart)
    else:
        v = VectorField.zero(chart)
    terms = []
    for spec in args.term or []:
        pieces = spec.split(":", 2)
        if len(pieces) != 3:
            raise ExprSyntaxError(
                f"expected 'm1,..,mN:index:expression', got {spec!r}", 0)
        m = _parse_monomial(pieces[0], chart.nparams)
        i = int(pieces[1])
        if not (1 <= mi_degree(m) <= k) or not (0 <= i < chart.nparams):
            raise ValueError(f"term {spec!r} out of range for order {k}")
        terms.append(((m, i), parse_expression(pieces[2], chart)))
    p = SemiDirectElem(v, CurrentElem(chart, k, terms))
    u = psi(p, k)
    _emit(args, str(u), value_to_data(u))
    return 0


def cmd_localize(args):
    chart = _resolve_chart(args.chart)
    k = args.order
    m = args.den_power if args.den_power is not None else k
    g = chart.elem(chart.denominator)
    v = _parse_vf(args.vf, chart)
    part = localization_partial_sum(g, v, m, k)
    rem = localization_remainder(g, v, m, k)
    target = jf_from_pair(chart.one(), v.scale(g.invert()), k)
    defect = target - part
    lines = [
        f"partial sum S_{m}: {part}",
        f"closed-form defect: {rem}",
        f"defect order: {defect.jf_order()} (needs >= {m + 1})",
        f"defect matches closed form: {defect == rem}",
    ]
    _emit(args, "\n".join(lines), {
        "partial_sum": value_to_data(part),
        "defect": value_to_data(defect),
        "defect_order": defect.jf_order(),
        "matches_closed_form": defect == rem,
    })
    return 0 if defect == rem else 1


def cmd_dop_mul(args):
    chart = _resolve_chart(args.chart)
    left = _parse_diffop(args.left, chart)
    right = _parse_diffop(args.right, chart)
    prod = left * right
    if args.apply is not None:
        result = prod.apply(parse_expression(args.apply, chart))
        _emit(args, str(result), value_to_data(result))
    else:
        _emit(args, str(prod), value_to_data(prod))
    return 0


def cmd_av_map(args):
    chart = _resolve_chart(args.chart)
    word = _parse_av_word(args.word, chart)
    t = av_to_tensor(word, args.order)
    _emit(args, str(t), value_to_data(t))
    return 0


def cmd_transition(args):
    atlas = _resolve_atlas(args.atlas)
    if ":" not in args.pair:
        raise ValueError("--pair must look like FROM:TO")
    fr, to = args.pair.split(":", 1)
    tp = atlas.transition(fr, to)
    m = _parse_monomial(args.monomial, tp.overlap.nparams)
    if mi_degree(m) < 1:
        raise ValueError("the monomial must have positive total degree")
    _check_index(args.index, tp.overlap.nparams)
    ce = transition_l(tp, m, args.index, args.order)
    lines = [f"image of X^{list(m)} d/dX_{args.index}: {ce}"]
    agree = None
    if args.route == "both":
        agree = ce == transition_via_iso(tp, m, args.index, args.order)
        lines.append(f"coefficient and isomorphism routes agree: {agree}")
    _emit(args, "\n".join(lines), {
        "image": value_to_data(ce),
        "routes_agree": agree,
    })
    return 0 if agree in (None, True) else 1


def cmd_cocycle(args):
    atlas = _resolve_atlas(args.atlas)
    triple = tuple(p.strip() for p in args.triple.split(","))
    if len(triple) != 3:
        raise ValueError("--triple must name three charts, comma separated")
    tp = atlas.transition(triple[0], triple[1])
    n = tp.overlap.nparams
    if args.monomial is not None:
        monos = [_parse_monomial(args.monomial, n)]
    else:
        monos = [m for m in mi_range(n, min(3, args.order)) if mi_degree(m) >= 1]
    if args.index is not None:
        _check_index(args.index, n)
    indices = [args.index] if args.index is not None else list(range(n))
    lines = []
    ok = True
    for m in monos:
        for p in indices:
            good = cocycle_check(atlas, triple, m, p, args.order)
            ok = ok and good
            lines.append(
                f"m={list(m)} p={p}: {'ok' if good else 'FAILED'}")
    lines.append(f"cocycle identity: {'holds' if ok else 'FAILED'}")
    _emit(args, "\n".join(lines), {"results": lines, "ok": ok})
    return 0 if ok else 1


def cmd_verify(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    chart_labels = list(args.chart) if args.chart else list(DEFAULT_CHARTS)
    charts = [_resolve_chart(label) for label in chart_labels]
    atlas_label = args.atlas if args.atlas else DEFAULT_ATLAS
    atlas = _resolve_atlas(atlas_label)
    orders = [int(p) for p in args.orders.split(",")]
    if not orders or any(k < 1 for k in orders):
        raise ValueError("--orders must be positive integers, comma separated")
    report = run_verification(
        args.suite, charts, atlas, orders, args.samples, args.seed,
        chart_labels=chart_labels, atlas_label=atlas_label)
    _emit(args, report.to_text(), report.to_data())
    return 0 if report.passed() else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="jetalg",
        description="Exact jet calculus on etale charts: jets, brackets, "
                    "semidirect models, enveloping algebras, and bundle "
                    "transitions over the rationals.")
    ap.add_argument("--version", action="version", version=f"jetalg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("validate", help="validate charts and atlases")
    p.add_argument("--chart", action="append",
                   help="built-in chart name or chart JSON file (repeatable)")
    p.add_argument("--atlas", help="built-in atlas name or atlas JSON file")
    p.add_argument("--order", type=_order, default=2,
                   help="jet order for the atlas inverse checks")
    add_output(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("jet", help="expand a chart function into its jet")
    p.add_argument("--chart", required=True)
    p.add_argument("--expr", required=True, help="expression, e.g. '1/x' or 'y^2*x'")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_jet)

    p = sub.add_parser("delta", help="difference of a function and its jet")
    p.add_argument("--chart", required=True)
    p.add_argument("--expr", help="expression to apply delta to")
    p.add_argument("--power", help="monomial 'm1,..,mN': expand a delta power instead")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("bracket", help="bracket of two decomposable jet fields")
    p.add_argument("--chart", required=True)
    p.add_argument("--left", required=True, help="'coefficient # v1;...;vN'")
    p.add_argument("--right", required=True)
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("phi", help="decompose a jet field into the semidirect model")
    p.add_argument("--chart", required=True)
    p.add_argument("--field", required=True, help="'coefficient # v1;...;vN'")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("psi", help="assemble a jet field from semidirect data")
    p.add_argument("--chart", required=True)
    p.add_argument("--vf", help="vector-field part 'v1;...;vN'")
    p.add_argument("--term", action="append",
                   help="current term 'm1,..,mN:index:expression' (repeatable)")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("localize",
                       help="partial sums of the localization series for v over "
                            "the chart denominator")
    p.add_argument("--chart", required=True)
    p.add_argument("--vf", required=True, help="'v1;...;vN'")
    p.add_argument("--den-power", type=_order, help="series cutoff m (default: order)")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("dop-mul", help="compose differential operators in normal form")
    p.add_argument("--chart", required=True)
    p.add_argument("--left", required=True,
                   help="operator 'expr @ k1,..,kN; ...' ('@ ...' optional per term)")
    p.add_argument("--right", required=True)
    p.add_argument("--apply", help="apply the product to this expression")
    add_output(p)
    p.set_defaults(func=cmd_dop_mul)

    p = sub.add_parser("av-map",
                       help="factor a word of functions and vector fields through "
                            "operators tensor the truncated enveloping algebra")
    p.add_argument("--chart", required=True)
    p.add_argument("--word", required=True,
                   help="factors 'f expr | v v1;...;vN | ...' in order")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_av_map)

    p = sub.add_parser("transition",
                       help="transport a basis vector through a chart transition")
    p.add_argument("--atlas", required=True)
    p.add_argument("--pair", required=True, help="FROM:TO chart names")
    p.add_argument("--monomial", required=True, help="'m1,..,mN', positive degree")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--order", type=_order, required=True)
    p.add_argument("--route", choices=["coeff", "both"], default="both")
    add_output(p)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("cocycle", help="check the composition identity on a chart triple")
    p.add_argument("--atlas", required=True)
    p.add_argument("--triple", required=True, help="three chart names, comma separated")
    p.add_argument("--monomial", help="restrict to one monomial 'm1,..,mN'")
    p.add_argument("--index", type=int, help="restrict to one coordinate index")
    p.add_argument("--order", type=_order, required=True)
    add_output(p)
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("--suite", default="all", choices=list(SUITE_IDS) + ["all"])
    p.add_argument("--chart", action="append",
                   help="chart to verify on (repeatable; default: built-ins)")
    p.add_argument("--atlas", help="atlas for transition suites (default: p1)")
    p.add_argument("--orders", default="1,2,3", help="comma-separated jet orders")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except MissingTransition as e:  # names a pair the atlas lacks: usage
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ChartError, TransitionError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

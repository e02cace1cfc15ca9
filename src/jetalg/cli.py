"""Command-line interface.

Exit codes: 0 on success, 1 only as the verdict of validate, localize,
transition --route both, cocycle and verify, 2 for every refusal."""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .atlas import cocycle_check, transition_l, transition_via_iso
from .envalg import DiffOp, av_to_tensor
from .fileio import SchemaError, load_atlas, load_chart, value_to_data
from .fixtures import STANDARD_ATLASES, STANDARD_CHARTS, standard_atlas, standard_chart
from .jets import delta, delta_power, jet_of
from .jetfields import jf_from_pair, localization_defect, localization_remainder
from .liealg import CurrentElem, SemiDirectElem, phi, psi
from .multipoly import mi_degree, mi_range
from .parser import parse_expression
from .report import dumps
from .suites import CHART_SUITES, SUITE_IDS, run_verification
from .vfields import VectorField

DEFAULT_CHARTS = ("affine2", "loc_x", "elliptic")
DEFAULT_ATLAS = "p1"
# input limits, checked before any work: at MAX_ORDER (every --order and
# --den-power, and verify's --orders) the built-in charts and atlas answer
# in well under a second
MAX_SAMPLES = 100
MAX_ORDER = 16
# every refusal is a ValueError (ChartError, TransitionError, SchemaError,
# ExprSyntaxError) or an OSError: main prints it as one error line, validate
# as the target's FAILED line
REFUSALS = (ValueError, OSError)


def _message(e):
    """The text of a refusal; CPython's int-to-string refusal in our words."""
    if "int_max_str_digits" in str(e):
        return f"cannot print an integer of more than {sys.get_int_max_str_digits()} digits"
    return str(e)


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
        raise ValueError(
            f"expected {chart.nparams} component(s) separated by ';', got {len(parts)}")
    return VectorField(chart, [parse_expression(p, chart) for p in parts])


def _parse_jetfield(src, chart, k):
    if "#" not in src:
        raise ValueError("expected 'coefficient # v1;...;vN'")
    a_src, vf_src = src.split("#", 1)
    a = parse_expression(a_src.strip(), chart)
    return jf_from_pair(a, _parse_vf(vf_src, chart), k)


def _parse_monomial(src, n):
    parts = src.split(",")  # decimal digits only, as in _order: no sign, no "_"
    if not all(p.strip().isdecimal() for p in parts):
        raise ValueError(f"bad monomial {src!r}: expected comma-separated integers")
    m = tuple(map(int, parts))
    if len(m) != n:
        raise ValueError(f"monomial needs {n} non-negative exponent(s), got {src!r}")
    if mi_degree(m) > MAX_ORDER:
        raise ValueError(f"monomial {src!r} has total degree above {MAX_ORDER}")
    return m


def _order(text):
    """argparse type of every --order and --den-power: an integer >= 0 and
    <= MAX_ORDER."""
    if not text.strip().isdecimal() or int(text) > MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0 and <= {MAX_ORDER}, got {text!r}")
    return int(text)


def _check_index(index, n):
    if not 0 <= index < n:
        raise ValueError(f"--index {index} out of range: the overlap has {n} coordinate(s)")


def _parse_diffop(src, chart):
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
            raise ValueError(
                f"each factor must start with 'f' or 'v', got {piece!r}")
    if not factors:
        raise ValueError("empty word")
    return factors


def _emit(args, text, data):
    if getattr(args, "format", "text") == "json":
        payload = dumps(data)
    else:
        payload = text if text.endswith("\n") else text + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _show(args, value):
    """Emit a computed value as text or JSON; exit code 0."""
    _emit(args, str(value), value_to_data(value))
    return 0


def cmd_validate(args):
    lines = []
    failed = False
    targets = [("chart", label) for label in args.chart or []]
    if args.atlas:
        targets.append(("atlas", args.atlas))
    for kind, label in targets:
        name = label  # until the file is loaded
        try:
            if kind == "chart":
                name = _resolve_chart(label).name  # loading validates it
                lines.append(f"chart {name}: ok")
            else:
                atlas = _resolve_atlas(label)
                name = atlas.name
                atlas.validate(args.order)
                lines.append(
                    f"atlas {name}: ok "
                    f"({len(atlas.charts)} charts, {len(atlas.transitions)} transitions)")
        except REFUSALS as e:
            lines.append(f"{kind} {name}: FAILED ({_message(e)})")
            failed = True
    if not lines:
        raise ValueError("nothing to validate: pass --chart and/or --atlas")
    _emit(args, "\n".join(lines), {"results": lines, "ok": not failed})
    return 1 if failed else 0


def cmd_jet(args):
    chart = _resolve_chart(args.chart)
    f = parse_expression(args.expr, chart)
    return _show(args, jet_of(f, args.order))


def cmd_delta(args):
    chart = _resolve_chart(args.chart)
    if (args.expr is None) == (args.power is None):
        raise ValueError("pass exactly one of --expr or --power")
    if args.expr is not None:
        return _show(args, delta(parse_expression(args.expr, chart), args.order))
    m = _parse_monomial(args.power, chart.nparams)
    return _show(args, delta_power(chart, m, args.order))


def cmd_bracket(args):
    chart = _resolve_chart(args.chart)
    u = _parse_jetfield(args.left, chart, args.order)
    w = _parse_jetfield(args.right, chart, args.order)
    return _show(args, u.bracket(w))


def cmd_phi(args):
    chart = _resolve_chart(args.chart)
    u = _parse_jetfield(args.field, chart, args.order)
    return _show(args, phi(u))


def cmd_psi(args):
    chart = _resolve_chart(args.chart)
    k = args.order
    if args.vf:
        v = _parse_vf(args.vf, chart)
    else:
        v = VectorField.zero(chart)
    terms = []
    for spec in args.term or []:
        try:
            m_src, i_src, expr = spec.split(":", 2)
            if not i_src.strip().isdecimal():
                raise ValueError
            i = int(i_src)
        except ValueError:  # too few pieces, or an index that is no integer
            raise ValueError(
                f"expected 'm1,..,mN:index:expression', got {spec!r}") from None
        m = _parse_monomial(m_src, chart.nparams)
        if not (1 <= mi_degree(m) <= k) or not (0 <= i < chart.nparams):
            raise ValueError(f"term {spec!r} out of range for order {k}")
        terms.append(((m, i), parse_expression(expr, chart)))
    p = SemiDirectElem(v, CurrentElem(chart, k, terms))
    return _show(args, psi(p, k))


def cmd_localize(args):
    chart = _resolve_chart(args.chart)
    k = args.order
    m = args.den_power if args.den_power is not None else k
    g = chart.elem(chart.denominator)
    v = _parse_vf(args.vf, chart)
    part, defect = localization_defect(g, v, m, k)
    rem = localization_remainder(g, v, m, k)
    order, matches = defect.jf_order(), defect == rem
    lines = [
        f"partial sum S_{m}: {part}",
        f"closed-form defect: {rem}",
        f"defect order: {order} (needs >= {min(m, k) + 1})",
        f"defect matches closed form: {matches}",
    ]
    _emit(args, "\n".join(lines), {
        "partial_sum": value_to_data(part),
        "defect": value_to_data(defect),
        "defect_order": order,
        "matches_closed_form": matches,
    })
    return 0 if matches else 1


def cmd_dop_mul(args):
    chart = _resolve_chart(args.chart)
    left = _parse_diffop(args.left, chart)
    right = _parse_diffop(args.right, chart)
    prod = left * right
    if args.apply is not None:
        return _show(args, prod.apply(parse_expression(args.apply, chart)))
    return _show(args, prod)


def cmd_av_map(args):
    chart = _resolve_chart(args.chart)
    word = _parse_av_word(args.word, chart)
    return _show(args, av_to_tensor(word, args.order))


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
        monos = mi_range(n, min(3, args.order))[1:]
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
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ValueError(
            f"--samples must be >= 1 and <= {MAX_SAMPLES}, got {args.samples}")
    pieces = args.orders.split(",")
    if not all(p.strip().isdecimal() and int(p) >= 1 for p in pieces):
        raise ValueError("--orders must be positive integers, comma separated")
    orders = [int(p) for p in pieces]
    if max(orders) > MAX_ORDER or len(set(orders)) < len(orders):
        raise ValueError(f"--orders must be distinct and at most "
                         f"{MAX_ORDER}, got {args.orders!r}")
    chart_labels = list(args.chart) if args.chart else list(DEFAULT_CHARTS)
    charts = [_resolve_chart(label) for label in chart_labels]
    # the chart suites read no atlas, so only an explicit --atlas is loaded
    atlas_label = args.atlas or (None if args.suite in CHART_SUITES else DEFAULT_ATLAS)
    atlas = _resolve_atlas(atlas_label) if atlas_label else None
    report = run_verification(
        args.suite, charts, atlas, orders, args.samples, args.seed,
        chart_labels=chart_labels, atlas_label=atlas_label)
    _emit(args, report.to_text(), report.to_data())
    return 0 if report.passed() else 1


def _arg(*flags, **kw):
    return flags, kw


CHART = _arg("--chart", required=True)
ORDER = _arg("--order", type=_order, required=True)

# name, help, arguments; cmd_<name> runs it, and every one takes --format
# and --out
COMMANDS = [
    ("validate", "validate charts and atlases", [
        _arg("--chart", action="append",
             help="built-in chart name or chart JSON file (repeatable)"),
        _arg("--atlas", help="built-in atlas name or atlas JSON file"),
        _arg("--order", type=_order, default=2,
             help="jet order for the atlas inverse checks")]),
    ("jet", "expand a chart function into its jet", [
        CHART, _arg("--expr", required=True, help="expression, e.g. '1/x' or 'y^2*x'"),
        ORDER]),
    ("delta", "difference of a function and its jet", [
        CHART, _arg("--expr", help="expression to apply delta to"),
        _arg("--power", help="monomial 'm1,..,mN': expand a delta power instead"),
        ORDER]),
    ("bracket", "bracket of two decomposable jet fields", [
        CHART, _arg("--left", required=True, help="'coefficient # v1;...;vN'"),
        _arg("--right", required=True), ORDER]),
    ("phi", "decompose a jet field into the semidirect model", [
        CHART, _arg("--field", required=True, help="'coefficient # v1;...;vN'"), ORDER]),
    ("psi", "assemble a jet field from semidirect data", [
        CHART, _arg("--vf", help="vector-field part 'v1;...;vN'"),
        _arg("--term", action="append",
             help="current term 'm1,..,mN:index:expression' (repeatable)"),
        ORDER]),
    ("localize", "partial sums of the localization series for v over the chart "
                 "denominator", [
        CHART, _arg("--vf", required=True, help="'v1;...;vN'"),
        _arg("--den-power", type=_order, help="series cutoff m (default: order)"),
        ORDER]),
    ("dop-mul", "compose differential operators in normal form", [
        CHART,
        _arg("--left", required=True,
             help="operator 'expr @ k1,..,kN; ...' ('@ ...' optional per term)"),
        _arg("--right", required=True),
        _arg("--apply", help="apply the product to this expression")]),
    ("av-map", "factor a word of functions and vector fields through operators "
               "tensor the truncated enveloping algebra", [
        CHART,
        _arg("--word", required=True, help="factors 'f expr | v v1;...;vN | ...' in order"),
        ORDER]),
    ("transition", "transport a basis vector through a chart transition", [
        _arg("--atlas", required=True),
        _arg("--pair", required=True, help="FROM:TO chart names"),
        _arg("--monomial", required=True, help="'m1,..,mN', positive degree"),
        _arg("--index", type=int, default=0),
        ORDER, _arg("--route", choices=["coeff", "both"], default="both")]),
    ("cocycle", "check the composition identity on a chart triple", [
        _arg("--atlas", required=True),
        _arg("--triple", required=True, help="three chart names, comma separated"),
        _arg("--monomial", help="restrict to one monomial 'm1,..,mN'"),
        _arg("--index", type=int, help="restrict to one coordinate index"),
        ORDER]),
    ("verify", "run the seeded verification suites", [
        _arg("--suite", default="all", choices=list(SUITE_IDS) + ["all"]),
        _arg("--chart", action="append",
             help="chart to verify on (repeatable; default: built-ins)"),
        _arg("--atlas", help="atlas for transition suites (default: p1)"),
        _arg("--orders", default="1,2,3", help="comma-separated jet orders"),
        _arg("--samples", type=int, default=8),
        _arg("--seed", type=int, default=0)]),
]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="jetalg",
        description="Exact jet calculus on etale charts: jets, brackets, "
                    "semidirect models, enveloping algebras, and bundle "
                    "transitions over the rationals.")
    ap.add_argument("--version", action="version", version=f"jetalg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help, args in COMMANDS:
        p = sub.add_parser(name, help=help)
        for flags, kw in args:
            p.add_argument(*flags, **kw)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except REFUSALS as e:
        print(f"error: {_message(e)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

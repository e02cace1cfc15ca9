"""Chart and atlas files, and structured serialization of computed values.

Chart schema:  {"name": str, "params": [str, ...],
                "gens": [{"name": str, "degree": int, "rhs": expr}, ...],
                "denominator": expr}
The rhs of a generator may use the parameters and earlier generators; the
denominator may use everything.  Both are polynomial expressions (division
only by rational constants).

Atlas schema:  {"name": str, "charts": [chart, ...],
                "transitions": [{"from": str, "to": str, "overlap": str,
                                 "G": [expr, ...], "H": [expr, ...]}, ...]}
The overlap names a chart in the same file; G and H are parsed over it.
An optional "x_of_y"/"y_of_x" pair holds {"chart": str, "exprs": [expr, ...]}
each.

Schema violations raise SchemaError whose message carries the JSON path:
a key the schema does not name, in any object, a field of the wrong type
(``true`` is not an int), and a parameter or generator name that is not
the parser's NAME token, which no expression could refer to.
Value serialization (value_to_data / value_from_data) is loss-free and
deterministic: coefficients are exact rational strings and term lists are
sorted in the monomial order.  A ring element is written as {"num", "s"},
num / g^s with an int s: an element over several factors of g
(``charts``) is lifted to the least whole power of g first
(``RingElem.over_g``), so it reads back ring-equal, and on a chart whose g
is one factor the written form is the element's own numerator and s.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .charts import ChartSpec, GenSpec, RingElem
from .envalg import DiffOp, TensorElem
from .jets import Jet
from .jetfields import JetField
from .liealg import CurrentElem, LElem, SemiDirectElem
from .multipoly import Poly
from .parser import NAME, parse_expression, parse_poly
from .atlas import AtlasSpec, TransitionPair
from .vfields import VectorField


class SchemaError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _get(data, path, key, typ, required=True, default=None):
    here = f"{path}.{key}" if path else key
    if key not in data:
        if required:
            raise SchemaError(here, "missing required field")
        return default
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, typ):
        raise SchemaError(here, f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _object(data, path, what, keys):
    """data if it is a JSON object whose keys are all among keys."""
    if not isinstance(data, dict):
        raise SchemaError(path, f"{what} must be a JSON object")
    for key in data:
        if key not in keys:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown field")
    return data


def _name(name, path):
    if not NAME.fullmatch(name):
        raise SchemaError(path, f"{name!r} is not a name ({NAME.pattern})")
    return name


def loads_chart(data, path=""):
    _object(data, path, "chart", ("name", "params", "gens", "denominator"))
    name = _get(data, path, "name", str)
    params = _get(data, path, "params", list)
    ppath = f"{path}.params" if path else "params"
    if not params or not all(isinstance(p, str) for p in params):
        raise SchemaError(ppath, "must be a non-empty list of names")
    for idx, p in enumerate(params):
        _name(p, f"{ppath}[{idx}]")
    gens_data = _get(data, path, "gens", list, required=False, default=[])
    gens = []
    seen = list(params)
    for idx, g in enumerate(gens_data):
        gpath = f"{path}.gens[{idx}]" if path else f"gens[{idx}]"
        _object(g, gpath, "generator", ("name", "degree", "rhs"))
        gname = _name(_get(g, gpath, "name", str), f"{gpath}.name")
        degree = _get(g, gpath, "degree", int)
        rhs_src = _get(g, gpath, "rhs", str)
        rhs = parse_poly(rhs_src, tuple(seen))
        gens.append(GenSpec(gname, degree, rhs))
        seen.append(gname)
    den_src = _get(data, path, "denominator", str)
    den = parse_poly(den_src, tuple(seen))
    return ChartSpec(name, params, gens, den)


def _read_json(filename):
    """The JSON value of a chart or atlas file.  The decoder recurses once
    per nesting level, so a file nested deeper than the interpreter's
    recursion limit raises SchemaError."""
    with open(filename) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError(filename, "JSON nested too deeply") from None


def load_chart(filename):
    return loads_chart(_read_json(filename))


def loads_atlas(data):
    _object(data, "", "atlas", ("name", "charts", "transitions"))
    name = _get(data, "", "name", str, required=False, default="atlas")
    charts_data = _get(data, "", "charts", list)
    charts = {}
    for idx, c in enumerate(charts_data):
        chart = loads_chart(c, path=f"charts[{idx}]")
        if chart.name in charts:
            raise SchemaError(f"charts[{idx}].name", f"duplicate chart {chart.name!r}")
        charts[chart.name] = chart
    transitions = []
    for idx, t in enumerate(_get(data, "", "transitions", list, required=False, default=[])):
        tpath = f"transitions[{idx}]"
        _object(t, tpath, "transition",
                ("from", "to", "overlap", "G", "H", "x_of_y", "y_of_x"))
        frm = _get(t, tpath, "from", str)
        to = _get(t, tpath, "to", str)
        ov = _get(t, tpath, "overlap", str)
        for label, cname in (("from", frm), ("to", to), ("overlap", ov)):
            if cname not in charts:
                raise SchemaError(f"{tpath}.{label}", f"unknown chart {cname!r}")
        overlap = charts[ov]
        G = _exprs(t, tpath, "G", overlap)
        H = _exprs(t, tpath, "H", overlap)
        formulas = None
        have = [k for k in ("x_of_y", "y_of_x") if k in t]
        if len(have) == 1:
            raise SchemaError(
                f"{tpath}.{have[0]}", "x_of_y and y_of_x must be given together"
            )
        if len(have) == 2:
            formulas = tuple(
                _formula_tuple(t[k], f"{tpath}.{k}", charts)
                for k in ("x_of_y", "y_of_x")
            )
        transitions.append(TransitionPair(frm, to, overlap, G, H, formulas=formulas))
    return AtlasSpec(name, charts, transitions)


def _formula_tuple(data, path, charts):
    _object(data, path, "formula entry", ("chart", "exprs"))
    cname = _get(data, path, "chart", str)
    if cname not in charts:
        raise SchemaError(f"{path}.chart", f"unknown chart {cname!r}")
    return tuple(_exprs(data, path, "exprs", charts[cname]))


def _exprs(data, path, key, chart):
    """The list of expression strings at data[key], each parsed over chart."""
    out = []
    for idx, src in enumerate(_get(data, path, key, list)):
        if not isinstance(src, str):
            raise SchemaError(f"{path}.{key}[{idx}]",
                              f"expected str, got {type(src).__name__}")
        out.append(parse_expression(src, chart))
    return out


def load_atlas(filename):
    return loads_atlas(_read_json(filename))


# ---------------------------------------------------------------------------
# value serialization

def _poly_data(p):
    return [[list(m), str(c)] for m, c in p.sorted_terms(reverse=False)]


def _poly_from(data, vars):
    return Poly(vars, {tuple(m): Fraction(c) for m, c in data})


def _ring_data(e):
    num, s = e.over_g()
    return {"num": _poly_data(num), "s": s}


def _ring_from(data, chart):
    return RingElem(chart, _poly_from(data["num"], chart.allvars), data["s"])


def _mono_data(e):
    """[[m, elem], ...] of a multi-index-keyed value, in display order."""
    return [[list(m), _ring_data(c)] for m, c in e.sorted_items()]


def _mono_from(rows, chart):
    return {tuple(m): _ring_from(c, chart) for m, c in rows}


def _basis_data(e, enc):
    """[[m, i, enc(c)], ...] of an L^(r)-basis-keyed value, in display order."""
    return [[list(m), i, enc(c)] for (m, i), c in e.sorted_items()]


def _basis_from(rows, dec):
    return {(tuple(m), i): dec(c) for m, i, c in rows}


def _vf_from(rows, chart):
    return VectorField(chart, [_ring_from(c, chart) for c in rows])


def _tensor_from(rows, chart):
    return {(tuple(dm), tuple((tuple(m), i) for m, i in w)): _ring_from(c, chart)
            for dm, w, c in rows}


# kind -> (type, data fields of a value, value from data and chart).  Every
# kind but "lelem" lives on a chart, whose name the data carries.
_KINDS = {
    "elem": (RingElem, _ring_data, _ring_from),
    "vfield": (
        VectorField,
        lambda v: {"coeffs": [_ring_data(c) for c in v.coeffs]},
        lambda d, ch: _vf_from(d["coeffs"], ch),
    ),
    "jet": (
        Jet,
        lambda v: {"order": v.order, "coeffs": _mono_data(v)},
        lambda d, ch: Jet(ch, d["order"], _mono_from(d["coeffs"], ch)),
    ),
    "jetfield": (
        JetField,
        lambda v: {"order": v.order, "comps": [_mono_data(c) for c in v.comps]},
        lambda d, ch: JetField(ch, d["order"], [
            Jet(ch, d["order"], _mono_from(c, ch)) for c in d["comps"]
        ]),
    ),
    "lelem": (
        LElem,
        lambda v: {"nvars": v.nvars, "r": v.r, "terms": _basis_data(v, str)},
        lambda d, _: LElem(d["nvars"], d["r"], _basis_from(d["terms"], Fraction)),
    ),
    "current": (
        CurrentElem,
        lambda v: {"r": v.r, "terms": _basis_data(v, _ring_data)},
        lambda d, ch: CurrentElem(
            ch, d["r"], _basis_from(d["terms"], lambda c: _ring_from(c, ch))
        ),
    ),
    "semidirect": (
        SemiDirectElem,
        lambda v: {
            "r": v.r, "v": [_ring_data(c) for c in v.v.coeffs],
            "c": _basis_data(v.c, _ring_data),
        },
        lambda d, ch: SemiDirectElem(
            _vf_from(d["v"], ch),
            CurrentElem(ch, d["r"], _basis_from(d["c"], lambda c: _ring_from(c, ch))),
        ),
    ),
    "diffop": (
        DiffOp,
        lambda v: {"terms": _mono_data(v)},
        lambda d, ch: DiffOp(ch, _mono_from(d["terms"], ch)),
    ),
    "tensor": (
        TensorElem,
        lambda v: {"r": v.r, "terms": [
            [list(dm), [[list(m), i] for m, i in w], _ring_data(c)]
            for (dm, w), c in v.sorted_items()
        ]},
        lambda d, ch: TensorElem(ch, d["r"], _tensor_from(d["terms"], ch)),
    ),
}


def value_to_data(v):
    """Structured, order-stable representation of a computed value."""
    for kind, (cls, to_data, _) in _KINDS.items():
        if isinstance(v, cls):
            head = {"kind": kind} if kind == "lelem" else {"kind": kind, "chart": v.chart.name}
            return {**head, **to_data(v)}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def value_from_data(data, chart=None):
    """Rebuild a value from value_to_data output.  Chart-valued kinds need
    the chart passed in (the name field is checked)."""
    kind = data["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind != "lelem":
        if chart is None:
            raise ValueError(f"kind {kind!r} needs a chart")
        if data.get("chart") != chart.name:
            raise ValueError(
                f"value was saved on chart {data.get('chart')!r}, not {chart.name!r}"
            )
    return _KINDS[kind][2](data, chart)

"""Library refusals: each raises its layer's exception with its own message, and
a multi-index entry that is not a non-negative integer is refused wherever
a multi-index enters."""

import pytest

from jetalg.atlas import (
    AtlasSpec, TransitionError, TransitionPair, cocycle_check, compose_formula,
    frame_jet, jacobian_quotient_check, transport_current, validate_transition,
)
from jetalg.charts import ChartError, ChartSpec, GenSpec, RingElem, sum_products
from jetalg.envalg import DiffOp, TensorElem, av_to_tensor, fun_factor
from jetalg.fileio import SchemaError, loads_atlas, loads_chart, value_from_data
from jetalg.fixtures import STANDARD_CHARTS, standard_atlas, standard_chart
from jetalg.jetfields import (
    JetField, jf_from_pair, localization_partial_sum, localization_remainder,
)
from jetalg.jets import (
    Jet, delta, delta_powers, jet_of, jet_scalar, taylor_identity_check,
)
from jetalg.liealg import CurrentElem, LElem, SemiDirectElem, basis_check, psi
from jetalg.multipoly import (
    Poly, mi_add, mi_binomial, mi_le, mi_split, mi_sub, mi_unit,
)
from jetalg.parser import ExprSyntaxError, parse_poly
from jetalg.suites import run_verification
from jetalg.vfields import VectorField


def _x():
    return standard_chart("loc_x").param(0)


def _dx():
    return VectorField.coordinate(standard_chart("loc_x"), 0)


def _punct():
    """The line with t inverted, for coordinate formulas."""
    return loads_chart({"name": "punct", "params": ["t"], "gens": [],
                        "denominator": "t"})


def _pair(G=None, H=None, formulas=None):
    """A transition over loc_x, the identity unless told otherwise."""
    x = _x()
    return TransitionPair("a", "b", standard_chart("loc_x"), G or [x], H or [x],
                          formulas=formulas)


def _validate_with_frames(chart, x_frame, y_frame):
    """validate_transition on the identity pair over chart, handed the
    given frames.  Frames built from G and H always commute and always
    compose to the identity, so only handed frames reach these refusals."""
    params = [chart.param(i) for i in range(chart.nparams)]
    tp = TransitionPair("a", "b", chart, params, params)
    tp.frames = (x_frame, y_frame)
    return validate_transition(tp)


def _noncommuting_frames():
    # (d/dx1, x1 d/dx2): the bracket is d/dx2
    c = standard_chart("affine2")
    frame = (VectorField.coordinate(c, 0), VectorField(c, [c.zero(), c.param(0)]))
    return _validate_with_frames(c, frame, frame)


def _frames_that_do_not_compose():
    # x-frame 2 d/dx against y-frame d/dx: H(G(y+Y)) reads H + 2Y
    c = standard_chart("loc_x")
    return _validate_with_frames(c, (VectorField(c, [c.elem(2)]),),
                                 (VectorField.coordinate(c, 0),))


def _unavailable_formula_inverse():
    # x_of_y = 1/t composed with y_of_x = t - 1 needs 1/(t - 1), which the
    # chart with only t inverted lacks
    punct = _punct()
    return validate_transition(_pair(formulas=(
        [punct.inv_denominator()], [punct.param(0) - punct.one()])))


def _atlas_over_two_overlaps():
    """Transitions a->b and b->c over loc_x, a->c over elliptic."""
    loc_x, ell = standard_chart("loc_x"), standard_chart("elliptic")
    x, y = loc_x.param(0), ell.param(0)
    return AtlasSpec("three", {"a": loc_x, "b": loc_x, "c": loc_x}, [
        TransitionPair("a", "b", loc_x, [x], [x]),
        TransitionPair("b", "c", loc_x, [x], [x]),
        TransitionPair("a", "c", ell, [y], [y]),
    ])


def _file_form_beyond_the_bound():
    # g = x1^2 x2 allows g^s up to s = 16383, so 1/x2^32767 has no file
    # form num / g^S
    c = loads_chart({"name": "c", "params": ["x1", "x2"], "gens": [],
                     "denominator": "x1^2*x2"})
    return (c.param(1).invert() ** 32767).over_g()


def _atlas_with_formula(entry):
    data = {"charts": [STANDARD_CHARTS["loc_x"]], "transitions": [
        {"from": "loc_x", "to": "loc_x", "overlap": "loc_x", "G": ["x"],
         "H": ["x"], "x_of_y": entry, "y_of_x": entry}]}
    return loads_atlas(data)


def _jet():
    return jet_of(_x(), 2)


REFUSALS = {
    # atlas
    "frame_jet size": (lambda: frame_jet([], _x(), 1),
                       ValueError, "frame size must match"),
    "compose_formula arity": (lambda: compose_formula(_x(), []),
                              ValueError, "one argument per formula parameter"),
    "pair G/H count": (lambda: _pair(G=[_x(), _x()]),
                       ValueError, "one G and one H entry per overlap parameter"),
    "pair G/H chart": (lambda: _pair(G=[standard_chart("elliptic").param(0)]),
                       ChartError, "must live on the overlap chart"),
    "pair formula count": (lambda: _pair(formulas=([_x()], [])),
                           ValueError, "formula tuples need one entry per coordinate"),
    "pair formula chart": (
        lambda: _pair(formulas=([standard_chart("affine2").param(0)],) * 2),
        ValueError, "formula chart must have one parameter per coordinate"),
    "pair formula tuple charts": (
        lambda: TransitionPair(
            "a", "b", standard_chart("affine2"),
            [standard_chart("affine2").param(i) for i in range(2)],
            [standard_chart("affine2").param(i) for i in range(2)],
            formulas=([standard_chart("affine2").param(0),
                       loads_chart(STANDARD_CHARTS["affine2"] | {"name": "b2"}).param(1)],
                      [standard_chart("affine2").param(i) for i in range(2)])),
        ChartError, "elements live on different charts"),
    "frames that do not commute": (_noncommuting_frames, TransitionError,
                                   "frame fields do not commute"),
    "frames that do not compose": (
        _frames_that_do_not_compose, TransitionError,
        "H_0(G(y+Y)) does not equal H_0 + Y_0 at order 2"),
    "formula inverse unavailable": (_unavailable_formula_inverse, TransitionError,
                                    "formula substitution needs an unavailable inverse"),
    "transport off the overlap": (
        lambda: transport_current(standard_atlas("p1_pair").transition("std", "inf"),
                                  CurrentElem(standard_chart("loc_x"), 2, {}), 2),
        ChartError, "current element must live on the overlap chart"),
    "jacobian check degree": (
        lambda: jacobian_quotient_check(
            standard_atlas("p1_pair").transition("std", "inf"), (2,), 0, 2),
        ValueError, "needs |a| = 1"),
    "cocycle over two overlaps": (
        lambda: cocycle_check(_atlas_over_two_overlaps(), ("a", "b", "c"), (1,), 0, 1),
        TransitionError, "all three transitions over one overlap chart"),
    "atlas unknown chart": (
        lambda: AtlasSpec("a", {"a": standard_chart("loc_x")}, [_pair()]),
        TransitionError, "transition a->b references unknown charts"),
    "atlas dimensions": (
        lambda: AtlasSpec("a", {"a": standard_chart("affine2"), "b": standard_chart("loc_x")},
                          [_pair()]).validate(),
        TransitionError, "chart dimensions do not match the overlap"),
    # suites
    "unknown suite": (lambda: run_verification("nosuch", [], None, [1], 1, 0),
                      ValueError, "unknown suite 'nosuch'"),
    "transition without atlas": (
        lambda: run_verification("transition", [], None, [1], 1, 0),
        ValueError, "the transition suite needs an atlas"),
    "cocycle without atlas": (
        lambda: run_verification("cocycle", [], None, [1], 1, 0),
        ValueError, "the cocycle suite needs an atlas"),
    # fileio and fixtures
    "schema field type": (lambda: loads_chart({"name": 5, "params": ["x"]}),
                          SchemaError, "name: expected"),
    "schema generator": (
        lambda: loads_chart({"name": "c", "params": ["x"], "gens": [5]}),
        SchemaError, "gens[0]: generator must be a JSON object"),
    "schema atlas": (lambda: loads_atlas([]), SchemaError,
                     "atlas must be a JSON object"),
    "schema formula entry": (lambda: _atlas_with_formula(5), SchemaError,
                             "x_of_y: formula entry must be a JSON object"),
    "schema formula chart": (
        lambda: _atlas_with_formula({"chart": "nosuch", "exprs": ["x"]}),
        SchemaError, "x_of_y.chart: unknown chart 'nosuch'"),
    "schema unknown chart field": (
        lambda: loads_chart({"name": "c", "params": ["x"], "generators": [],
                             "denominator": "x"}),
        SchemaError, "generators: unknown field"),
    "schema unknown generator field": (
        lambda: loads_chart({"name": "c", "params": ["x"], "denominator": "y",
                             "gens": [{"name": "y", "degree": 2, "rhs": "x", "deg": 2}]}),
        SchemaError, "gens[0].deg: unknown field"),
    "schema unknown atlas field": (
        lambda: loads_atlas({"charts": [STANDARD_CHARTS["loc_x"]], "transition": []}),
        SchemaError, "transition: unknown field"),
    "schema unknown atlas chart field": (
        lambda: loads_atlas({"charts": [STANDARD_CHARTS["loc_x"] | {"gen": []}]}),
        SchemaError, "charts[0].gen: unknown field"),
    "schema unknown transition field": (
        lambda: loads_atlas({"charts": [STANDARD_CHARTS["loc_x"]], "transitions": [
            {"from": "loc_x", "to": "loc_x", "overlap": "loc_x", "G": ["x"],
             "H": ["x"], "x_of_y_": {}, "y_of_x_": {}}]}),
        SchemaError, "transitions[0].x_of_y_: unknown field"),
    "schema unknown formula field": (
        lambda: _atlas_with_formula({"chart": "loc_x", "exprs": ["x"], "expr": "x"}),
        SchemaError, "x_of_y.expr: unknown field"),
    "schema parameter name": (
        lambda: loads_chart({"name": "c", "params": ["x", "x+1"], "denominator": "x"}),
        SchemaError, "params[1]: 'x+1' is not a name ([A-Za-z_][A-Za-z_0-9]*)"),
    "schema generator name": (
        lambda: loads_chart({"name": "c", "params": ["x"], "denominator": "1",
                             "gens": [{"name": "1y", "degree": 2, "rhs": "x"}]}),
        SchemaError, "gens[0].name: '1y' is not a name"),
    "schema bool degree": (
        lambda: loads_chart({"name": "c", "params": ["x"], "denominator": "y",
                             "gens": [{"name": "y", "degree": True, "rhs": "x"}]}),
        SchemaError, "gens[0].degree: expected int, got bool"),
    "schema degree beyond the bound": (
        lambda: loads_chart({"name": "c", "params": ["x"], "denominator": "y",
                             "gens": [{"name": "y", "degree": 100000, "rhs": "x"}]}),
        ChartError, "generator y: degree must be an integer from 2 to 32767"),
    "built-in chart": (lambda: standard_chart("nosuch"), KeyError,
                       "no built-in chart 'nosuch'"),
    "built-in atlas": (lambda: standard_atlas("nosuch"), KeyError,
                       "no built-in atlas 'nosuch'"),
    # jets, jet fields and the Lie side
    "jet order": (lambda: Jet(standard_chart("loc_x"), -1, {}), ValueError,
                  "jet order must be >= 0"),
    "jet truncated below zero": (lambda: _jet().truncated(-1), ValueError,
                                 "jet order must be >= 0"),
    "jet_scalar order": (lambda: jet_scalar(_x(), -3), ValueError,
                         "jet order must be >= 0"),
    "jet zero order": (lambda: Jet.zero(standard_chart("loc_x"), -1), ValueError,
                       "jet order must be >= 0"),
    "jet field zero order": (lambda: JetField.zero(standard_chart("loc_x"), -2),
                             ValueError, "jet order must be >= 0"),
    "jet_of order": (lambda: jet_of(_x(), -1), ValueError,
                     "jet order must be >= 0"),
    "delta order": (lambda: delta(_x(), -1), ValueError,
                    "jet order must be >= 0"),
    "delta_powers order": (lambda: delta_powers(standard_chart("loc_x"), -1, 1),
                           ValueError, "jet order must be >= 0"),
    "jf_from_pair order": (lambda: jf_from_pair(_x(), _dx(), -1), ValueError,
                           "jet order must be >= 0"),
    "frame_jet order": (lambda: frame_jet([_dx()], _x(), -1), ValueError,
                        "jet order must be >= 0"),
    "taylor check order": (lambda: taylor_identity_check(_x(), -1), ValueError,
                           "jet order must be >= 0"),
    "localization partial sum order": (
        lambda: localization_partial_sum(_x(), _dx(), 1, -1), ValueError,
        "jet order must be >= 0"),
    "localization remainder order": (
        lambda: localization_remainder(_x(), _dx(), 1, -1), ValueError,
        "jet order must be >= 0"),
    "jet truncated upward": (lambda: _jet().truncated(3), ValueError,
                             "cannot extend a jet to higher order"),
    "jet field charts": (
        lambda: jf_from_pair(standard_chart("elliptic").one(),
                             VectorField.coordinate(standard_chart("loc_x"), 0), 1),
        ChartError, "scalar and field live on different charts"),
    "basis direction": (lambda: basis_check(1, 2, ((1,), 1)), IndexError,
                        "direction 1 out of range"),
    "psi truncation": (
        lambda: psi(SemiDirectElem(VectorField.zero(standard_chart("loc_x")),
                                   CurrentElem(standard_chart("loc_x"), 3, {})), 2),
        ValueError, "truncation 3 exceeds jet order 2"),
    "empty av word": (lambda: av_to_tensor([], 1), ValueError,
                      "empty word: pass at least one factor"),
    # charts, ring elements and polynomials
    "chart names distinct": (
        lambda: ChartSpec("c", ["x"], [GenSpec("x", 2, Poly.one(("x",)))],
                          denominator=Poly.variable(("x",), "x")),
        ChartError, "parameter and generator names must be distinct"),
    "generator degree bound": (
        lambda: ChartSpec("c", ["x"], [GenSpec("y", 32768, Poly.variable(("x",), "x"))],
                          denominator=Poly.variable(("x", "y"), "y")),
        ChartError, "generator y: degree must be an integer from 2 to 32767"),
    "derivative exponent bound": (
        lambda: RingElem(standard_chart("loc_x"), (_x() + 1).num, 32767).derive(0),
        ValueError, "would pass the exponent bound 32767"),
    "sum of products exponent bound": (
        lambda: sum_products(standard_chart("loc_x"), [
            (standard_chart("loc_x").inv_denominator(16384),) * 2 + (1,)] * 2),
        ValueError, "would pass the exponent bound 32767"),
    "file form exponent bound": (_file_form_beyond_the_bound, ValueError,
                                 "would pass the exponent bound 32767"),
    "ring denominator exponent": (
        lambda: RingElem(standard_chart("loc_x"), _x().num, -1),
        ValueError, "denominator exponent must be >= 0"),
    "ring power": (lambda: _x() ** -1, ValueError,
                   "exponent must be a non-negative integer"),
    "poly power": (lambda: _x().num ** -1, ValueError,
                   "exponent must be a non-negative integer"),
    # bool is an int subclass: True is refused as an exponent, as in a
    # multi-index
    "ring power of True": (lambda: _x() ** True, ValueError,
                           "exponent must be a non-negative integer"),
    "poly power of True": (lambda: _x().num ** True, ValueError,
                           "exponent must be a non-negative integer"),
    "poly unknown variable": (lambda: Poly.variable(("x",), "z"), ValueError,
                              "unknown variable 'z'"),
    "poly variable lists": (lambda: Poly.one(("x",)) + Poly.one(("y",)),
                            ValueError, "variable lists differ"),
    "poly extended": (lambda: Poly.one(("x",)).extended(("y", "x")), ValueError,
                      "old variable list must be a prefix of the new one"),
    "parse_poly symbol": (lambda: parse_poly("x + z", ["x"]), ExprSyntaxError,
                          "unknown symbol 'z' (position 4)"),
    "parse_poly parenthesis": (lambda: parse_poly("(x", ["x"]), ExprSyntaxError,
                               "expected ')' (position 2)"),
    "parse_poly token": (lambda: parse_poly("x + )", ["x"]), ExprSyntaxError,
                         "unexpected token ')' (position 4)"),
    # multi-index helpers
    "mi_unit": (lambda: mi_unit(2, 2), IndexError,
                "direction 2 out of range for 2 variables"),
    "mi_add": (lambda: mi_add((1,), (1, 2)), ValueError, "length mismatch"),
    "mi_sub length": (lambda: mi_sub((1,), (1, 2)), ValueError, "length mismatch"),
    "mi_sub order": (lambda: mi_sub((1,), (2,)), ValueError,
                     "(2,) is not componentwise <= (1,)"),
    "mi_split": (lambda: mi_split((0, 0)), ValueError,
                 "the zero multi-index has no predecessor"),
    "mi_le": (lambda: mi_le((1,), (1, 2)), ValueError, "length mismatch"),
    "mi_binomial": (lambda: mi_binomial((1,), (2,)), ValueError,
                    "binomial requires (2,) <= (1,) componentwise"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_library_refusal_raises_its_message(case):
    call, exc, msg = REFUSALS[case]
    with pytest.raises(exc) as info:
        call()
    assert msg in str(info.value)


def test_cocycle_suite_skips_a_triple_over_two_overlaps():
    # the suite checks only triples whose transitions share one overlap
    report = run_verification("cocycle", [], _atlas_over_two_overlaps(), [1], 1, 0)
    assert report.records == []


# each binary method returns NotImplemented for an operand of a foreign type,
# so Python tries the other operand and then raises its own TypeError
FOREIGN = {
    "ChartSpec ==": (lambda: standard_chart("loc_x"), "__eq__"),
    "RingElem +": (_x, "__add__"),
    "RingElem -": (_x, "__sub__"),
    "Poly +": (lambda: _x().num, "__add__"),
    "Poly -": (lambda: _x().num, "__sub__"),
    "Jet *": (_jet, "__mul__"),
    "Jet ==": (_jet, "__eq__"),
    "DiffOp *": (lambda: DiffOp.from_function(_x()), "__mul__"),
    "TensorElem *": (lambda: fun_factor(_x(), 1), "__mul__"),
}


@pytest.mark.parametrize("case", FOREIGN)
def test_foreign_operands_are_not_implemented(case):
    make, method = FOREIGN[case]
    assert getattr(make(), method)(None) is NotImplemented


# -- multi-indices: one entry per variable, each a non-negative int

def _jet_data(m):
    return {"kind": "jet", "chart": "loc_x", "order": 2,
            "coeffs": [[m, {"num": [[[0], "1"]], "s": 0}]]}


MI_ENTRY_POINTS = {
    "Jet": lambda m: Jet(standard_chart("loc_x"), 2, {m: standard_chart("loc_x").one()}),
    "DiffOp": lambda m: DiffOp(standard_chart("loc_x"), {m: standard_chart("loc_x").one()}),
    "TensorElem": lambda m: TensorElem(standard_chart("loc_x"), 1,
                                       {(m, ()): standard_chart("loc_x").one()}),
    "CurrentElem": lambda m: CurrentElem(standard_chart("affine2"), 2,
                                         {((2,) + m, 0): standard_chart("affine2").one()}),
    "LElem": lambda m: LElem(2, 2, {((2,) + m, 0): 1}),
    "derive_multi": lambda m: _x().derive_multi(m),
    "Poly": lambda m: Poly(("x",), {m: 1}),
    "value_from_data": lambda m: value_from_data(_jet_data(list(m)), standard_chart("loc_x")),
}


@pytest.mark.parametrize("entry", [-1, 0.5, "1", True],
                         ids=["negative", "float", "str", "bool"])
@pytest.mark.parametrize("where", MI_ENTRY_POINTS)
def test_multi_index_entries_must_be_non_negative_ints(where, entry):
    with pytest.raises(ValueError, match="not a non-negative integer"):
        MI_ENTRY_POINTS[where]((entry,))

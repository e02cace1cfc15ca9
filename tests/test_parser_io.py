"""Expression parsing, chart/atlas files, and value serialization."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jetalg

from jetalg.envalg import DiffOp, av_to_tensor, vf_factor
from jetalg.fileio import (
    SchemaError, load_atlas, load_chart, loads_atlas, loads_chart,
    value_from_data, value_to_data,
)
from jetalg.fixtures import (
    STANDARD_ATLASES, STANDARD_CHARTS, standard_atlas, standard_chart,
)
from jetalg.jetfields import jf_from_pair
from jetalg.liealg import CurrentElem, phi
from jetalg.parser import ExprSyntaxError, parse_expression, parse_poly
from jetalg.sampling import Sampler
from jetalg.vfields import VectorField

from conftest import make_sampler


# -- expression grammar


def test_parse_polynomial(loc_x):
    x = loc_x.param(0)
    assert parse_expression("x^2 + 1", loc_x) == x ** 2 + 1
    assert parse_expression("(x + 1)*(x - 1)", loc_x) == x ** 2 - 1
    assert parse_expression("-x^2", loc_x) == -(x ** 2)
    assert parse_expression("2 - -x", loc_x) == x + 2


def test_parse_rational_literals(loc_x):
    from fractions import Fraction

    assert parse_expression("3/4", loc_x) == loc_x.elem(Fraction(3, 4))
    x = loc_x.param(0)
    assert parse_expression("x/2", loc_x) == x * Fraction(1, 2)


def test_parse_generator_reduction(elliptic):
    x = elliptic.param(0)
    y = elliptic.gen(0)
    assert parse_expression("y*y", elliptic) == x ** 3 - x + 1
    assert parse_expression("y^3", elliptic) == y * (x ** 3 - x + 1)


def test_parse_inversion_forms(loc_x):
    inv = loc_x.inv_denominator()
    assert parse_expression("1/x", loc_x) == inv
    assert parse_expression("inv(x)", loc_x) == inv
    assert parse_expression("1/x^2", loc_x) == inv ** 2
    assert parse_expression("(x + 1)/x", loc_x) * loc_x.param(0) == loc_x.param(0) + 1


def test_parse_overlap_denominators(p1):
    triple = p1.charts["triple"]
    x = triple.param(0)
    assert parse_expression("1/x", triple) * x == triple.one()
    assert parse_expression("1/(x - 1)", triple) * (x - 1) == triple.one()


def test_illegal_denominator(loc_x):
    refusal = (r"\(x \+ 1\) is not invertible on chart 'loc_x': "
               "denominators must divide a power of the chart denominator")
    with pytest.raises(ValueError, match=refusal):
        parse_expression("1/(x + 1)", loc_x)
    with pytest.raises(ValueError, match=refusal):
        parse_expression("inv(x + 1)", loc_x)


def test_syntax_errors(loc_x):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x^2 + ", loc_x)
    assert err.value.pos == 6
    with pytest.raises(ExprSyntaxError):
        parse_expression("x^-1", loc_x)
    with pytest.raises(ExprSyntaxError):
        parse_expression("x(2)", loc_x)
    with pytest.raises(ExprSyntaxError):
        parse_expression("x + $", loc_x)


def test_unknown_symbol(loc_x):
    with pytest.raises(ExprSyntaxError, match=r"unknown symbol 'z' \(position 4\)") as err:
        parse_expression("x + z", loc_x)
    assert err.value.pos == 4


def test_parse_poly_constant_division_only():
    p = parse_poly("x^2/2 + 1/3", ("x",))
    assert p.terms[(2,)] * 2 == 1
    with pytest.raises(ValueError, match="only rational constants may be inverted"):
        parse_poly("1/x", ("x",))


# -- chart and atlas files


def test_chart_file_roundtrip(tmp_path, elliptic):
    data = {
        "name": "elliptic",
        "params": ["x"],
        "gens": [{"name": "y", "degree": 2, "rhs": "x^3 - x + 1"}],
        "denominator": "y",
    }
    fn = tmp_path / "chart.json"
    fn.write_text(json.dumps(data))
    chart = load_chart(str(fn))
    assert chart == elliptic
    assert chart.gen(0) ** 2 == chart.param(0) ** 3 - chart.param(0) + 1


def test_chart_schema_errors():
    with pytest.raises(SchemaError):
        loads_chart({"name": "c", "params": ["x"]})
    with pytest.raises(SchemaError):
        loads_chart({"name": "c", "denominator": "1"})
    with pytest.raises(SchemaError):
        loads_chart({"name": "c", "params": [], "denominator": "1"})
    with pytest.raises(SchemaError):
        loads_chart({"name": "c", "params": ["x"], "gens": [{"name": "y"}],
                     "denominator": "1"})
    with pytest.raises(SchemaError):
        loads_chart(["not", "a", "chart"])


def test_atlas_file_roundtrip(tmp_path):
    from jetalg.fixtures import STANDARD_ATLASES

    fn = tmp_path / "atlas.json"
    fn.write_text(json.dumps(STANDARD_ATLASES["p1"]))
    atlas = load_atlas(str(fn))
    assert sorted(atlas.charts) == [
        "inf", "punctured_0", "punctured_1", "punctured_neg1", "shift",
        "std", "std_inf", "triple",
    ]
    assert len(atlas.transitions) == 6
    atlas.validate(jet_order=2)
    tp = atlas.transition("std", "inf")
    assert tp.formulas is not None
    x_of_y, y_of_x = tp.formulas
    assert x_of_y[0].chart.name == "punctured_0"


def test_atlas_schema_errors():
    base = {
        "name": "a",
        "charts": [{"name": "c", "params": ["x"], "gens": [],
                    "denominator": "x"}],
    }
    with pytest.raises(SchemaError):
        loads_atlas({**base, "transitions": [{"from": "c", "to": "nope",
                                              "overlap": "c",
                                              "G": ["x"], "H": ["1/x"]}]})
    with pytest.raises(SchemaError):
        loads_atlas({**base, "transitions": [{"from": "c", "to": "c",
                                              "overlap": "c",
                                              "G": ["x"], "H": ["x"],
                                              "x_of_y": {"chart": "c",
                                                         "exprs": ["x"]}}]})
    with pytest.raises(SchemaError):
        loads_atlas({**base, "transitions": ["not a dict"]})
    dup = {**base, "charts": base["charts"] * 2}
    with pytest.raises(SchemaError):
        loads_atlas(dup)


# -- value serialization


def _roundtrip(v, chart=None):
    blob = json.dumps(value_to_data(v), sort_keys=True)
    return value_from_data(json.loads(blob), chart)


def test_elem_vfield_roundtrip(all_charts):
    smp = make_sampler("io", "elem")
    for chart in all_charts:
        for _ in range(5):
            e = smp.elem(chart)
            assert _roundtrip(e, chart) == e
            vf = smp.vfield(chart)
            assert _roundtrip(vf, chart) == vf


def test_jet_roundtrip(all_charts):
    smp = make_sampler("io", "jet")
    for chart in all_charts:
        j = smp.jet(chart, 2, density=2)
        assert _roundtrip(j, chart) == j
        u = smp.jetfield(chart, 2)
        assert _roundtrip(u, chart) == u


def test_algebra_roundtrips(loc_x):
    smp = make_sampler("io", "alg")
    le = smp.lelem(2, 3)
    assert _roundtrip(le) == le
    sd = smp.semidirect(loc_x, 2)
    assert _roundtrip(sd, loc_x) == sd
    p = phi(jf_from_pair(loc_x.inv_denominator(),
                         VectorField(loc_x, [loc_x.param(0)]), 2))
    assert _roundtrip(p.c, loc_x) == p.c
    assert isinstance(p.c, CurrentElem)


def test_operator_roundtrips(loc_x):
    x = loc_x.param(0)
    d = DiffOp(loc_x, {(1,): x, (0,): loc_x.one()})
    assert _roundtrip(d, loc_x) == d
    t = av_to_tensor([("vf", VectorField(loc_x, [x])),
                      ("fun", loc_x.inv_denominator()),
                      ("vf", VectorField(loc_x, [x ** 2]))], 3)
    assert _roundtrip(t, loc_x) == t
    assert _roundtrip(vf_factor(VectorField(loc_x, [x]), 2), loc_x) == vf_factor(
        VectorField(loc_x, [x]), 2
    )


def test_serialization_mismatches(loc_x, elliptic):
    e = loc_x.param(0) ** 2
    data = value_to_data(e)
    with pytest.raises(ValueError):
        value_from_data(data, elliptic)
    with pytest.raises(ValueError):
        value_from_data(data)
    with pytest.raises(ValueError):
        value_from_data({"kind": "mystery"}, loc_x)
    with pytest.raises(TypeError):
        value_to_data(object())


# -- round trips of sampled elements through the display and the data forms

ROUNDTRIP_CHARTS = ("elliptic", "affine2", "loc_x")


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), name=st.sampled_from(ROUNDTRIP_CHARTS),
       max_deg=st.integers(1, 8))
def test_sampled_elements_roundtrip_through_str_and_data(seed, name, max_deg):
    chart = standard_chart(name)
    e = Sampler(seed).elem(chart, max_deg=max_deg, terms=4, max_s=2)
    assert parse_expression(str(e), chart) == e
    data = json.loads(json.dumps(value_to_data(e)))
    assert value_from_data(data, chart) == e


# -- the built-ins have one home: the chart files shipped in the package

CHART_DIR = Path(jetalg.__file__).resolve().parent / "charts"
CHART_FILES = sorted(CHART_DIR.glob("*.json"))


def test_every_chart_file_is_a_builtin_under_its_stem():
    stems = [f.stem for f in CHART_FILES]
    assert stems == sorted(STANDARD_CHARTS.keys() | STANDARD_ATLASES.keys())
    assert not STANDARD_CHARTS.keys() & STANDARD_ATLASES.keys()
    assert {"affine2", "loc_x", "elliptic", "p1", "p1_pair"} <= set(stems)


@pytest.mark.parametrize("path", CHART_FILES, ids=lambda f: f.stem)
def test_loading_a_chart_file_gives_its_builtin(path):
    if path.stem in STANDARD_CHARTS:
        assert load_chart(str(path)) == standard_chart(path.stem)
        return
    got, want = load_atlas(str(path)), standard_atlas(path.stem)
    assert (got.name, got.charts) == (want.name, want.charts)
    assert got.transitions.keys() == want.transitions.keys()
    for key, tp in got.transitions.items():
        tq = want.transitions[key]
        assert tp.overlap == tq.overlap
        assert (list(tp.G), list(tp.H)) == (list(tq.G), list(tq.H))
        assert [list(f) for f in tp.formulas] == [list(f) for f in tq.formulas]


def test_pyproject_declares_the_chart_files_as_package_data():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        setuptools = tomllib.load(fh)["tool"]["setuptools"]
    assert setuptools["package-data"]["jetalg"] == ["charts/*.json"]

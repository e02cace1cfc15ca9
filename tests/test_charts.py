import gc
import math
import random
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jetalg import charts, multipoly
from jetalg.charts import (
    ChartMismatch, ChartSpec, GenSpec, MissingInvertibleGenerator, NonMonicRelation,
    NotInvertible, RingElem, ZeroDenominator,
)
from jetalg.fileio import loads_chart
from jetalg.fixtures import STANDARD_CHARTS, standard_chart
from jetalg.multipoly import DEGREE_LIMIT, Poly
from jetalg.parser import parse_expression, parse_poly

from conftest import make_sampler
from derivref import ref_derive, ref_total_derivative
from invref import ref_invert
from sumref import ref_sum_products
from polyref import ref_reduce
from test_factored import C4


def chart_from(data):
    return loads_chart(data)


def test_affine_line_validates():
    c = chart_from({"name": "a1", "params": ["x"], "gens": [],
                    "denominator": "1"})
    assert c.nparams == 1 and c.ngens == 0


def test_elliptic_chart_validates(elliptic):
    assert elliptic.ngens == 1


def test_generator_must_divide_denominator():
    with pytest.raises(MissingInvertibleGenerator):
        chart_from({"name": "bad", "params": ["x"],
                    "gens": [{"name": "y", "degree": 2, "rhs": "x^3"}],
                    "denominator": "1"})


def test_chart_whose_second_generator_does_not_divide_g_is_refused():
    # the second generator z does not divide g = y
    vars = ("x", "y", "z")
    with pytest.raises(MissingInvertibleGenerator, match="generator z"):
        ChartSpec("two", ["x"], [GenSpec("y", 2, parse_poly("x", vars[:1])),
                                 GenSpec("z", 2, parse_poly("x", vars[:2]))],
                  parse_poly("y", vars))


def test_chart_refused_while_building_its_tables():
    # y^3 = x, g = 2*y*x^20000: dy/dx = 1/(3*y^2) needs (g/y)^2 of total
    # degree 40000, so the tables refuse the chart after g was split
    vars = ("x", "y")
    with pytest.raises(ValueError, match="total degree 40000"):
        ChartSpec("big", ["x"], [GenSpec("y", 3, parse_poly("x", vars[:1]))],
                  parse_poly("2*y*x^20000", vars))


def test_chart_without_parameters_is_refused():
    with pytest.raises(charts.ChartError, match="at least one parameter"):
        ChartSpec("none", [])


def test_rhs_using_a_later_generator_is_refused():
    # y's rhs reads z, which is defined after y
    vars = ("x", "y", "z")
    with pytest.raises(NonMonicRelation, match="generator y: rhs may only use"):
        ChartSpec("later", ["x"], [GenSpec("y", 2, parse_poly("z", vars)),
                                   GenSpec("z", 2, parse_poly("x", vars[:1]))],
                  parse_poly("y*z", vars))


def test_relation_degree_must_be_at_least_two():
    with pytest.raises(NonMonicRelation):
        chart_from({"name": "bad", "params": ["x"],
                    "gens": [{"name": "y", "degree": 1, "rhs": "x"}],
                    "denominator": "y"})


def test_duplicate_names_rejected():
    with pytest.raises((NonMonicRelation, ValueError)):
        chart_from({"name": "bad", "params": ["x"],
                    "gens": [{"name": "x", "degree": 2, "rhs": "x"}],
                    "denominator": "x"})


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        chart_from({"name": "bad", "params": ["x"], "gens": [],
                    "denominator": "0"})


@pytest.mark.parametrize("change", [
    {"gens": [{"name": "y", "degree": 3, "rhs": "x^3 - x + 1"}]},
    {"gens": [{"name": "y", "degree": 2, "rhs": "x^3 + 1"}]},
    {"denominator": "x*y"},
    {"name": "elliptic2"},
])
def test_chart_equality_reads_every_field(change):
    data = STANDARD_CHARTS["elliptic"]
    a, b = chart_from(data), chart_from(data)
    assert a is not b and a == b and hash(a) == hash(b)
    assert chart_from({**data, **change}) != a


def test_genspec_repr():
    rhs = parse_poly("x^3 - x + 1", ("x",))
    assert repr(GenSpec("y", 2, rhs)) == "GenSpec(y^2 = x^3 - x + 1)"


def test_ring_element_and_polynomial_reprs(loc_x):
    assert repr(loc_x.param(0).num) == "Poly('x')"
    assert repr(loc_x.inv_denominator()) == "RingElem('(1)/(x)' on 'loc_x')"


def test_relation_reduction(elliptic):
    y = elliptic.gen(0)
    x = elliptic.param(0)
    assert y * y == x ** 3 - x + elliptic.one()
    assert y ** 3 == y * (x ** 3 - x + elliptic.one())


def test_localized_inverse(loc_x):
    x = loc_x.param(0)
    inv = loc_x.inv_denominator()
    assert inv * x == loc_x.one()
    assert x + loc_x.zero() == x


def test_equality_by_cross_multiplication(loc_x, elliptic):
    x = loc_x.param(0)
    assert x * loc_x.inv_denominator() == loc_x.one()
    y = elliptic.gen(0)
    xe = elliptic.param(0)
    assert y ** 2 == xe ** 3 - xe + elliptic.one()
    assert x != x + loc_x.one()


def test_quotient_rule_on_localized_chart(loc_x):
    x = loc_x.param(0)
    inv = loc_x.inv_denominator()
    assert inv.derive(0) == -(inv ** 2)
    assert inv.derive_multi((2,)) == 2 * inv ** 3
    assert (x ** 2).derive(0) == 2 * x


def test_implicit_differentiation_oracle(elliptic):
    """Differentiating the defining relation y^2 = x^3 - x + 1 gives
    2 y y' = 3x^2 - 1, so y' = (3x^2 - 1) / (2y)."""
    x = elliptic.param(0)
    y = elliptic.gen(0)
    dy = y.derive(0)
    assert 2 * y * dy == 3 * x ** 2 - elliptic.one()
    assert dy == (3 * x ** 2 - elliptic.one()) * (2 * y).invert()
    # the derivative of the relation itself is zero
    rel = y ** 2 - (x ** 3 - x + elliptic.one())
    assert rel.is_zero() and rel.derive(0).is_zero()


def test_higher_partials():
    c = chart_from({"name": "a2", "params": ["x1", "x2"], "gens": [],
                    "denominator": "1"})
    x1, x2 = c.param(0), c.param(1)
    assert (x1 ** 3).derive_multi((2, 0)) == 6 * x1
    assert (x1 * x2).derive_multi((1, 1)) == c.one()


def test_derivation_leibniz_sampled(all_charts):
    for chart in all_charts:
        smp = make_sampler("charts-leibniz", chart.name)
        for _ in range(12):
            a, b = smp.elem(chart), smp.elem(chart)
            for i in range(chart.nparams):
                assert (a * b).derive(i) == a.derive(i) * b + a * b.derive(i)


def test_partials_commute_sampled(affine2):
    smp = make_sampler("charts-commute")
    for _ in range(12):
        a = smp.elem(affine2)
        assert a.derive(0).derive(1) == a.derive(1).derive(0)


def test_invert_positive_cases(loc_x, elliptic):
    x = loc_x.param(0)
    assert (x ** 2).invert() == loc_x.inv_denominator(2)
    assert (2 * x).invert() * (2 * x) == loc_x.one()
    y = elliptic.gen(0)
    assert y.invert() * y == elliptic.one()


def test_invert_divides_once_per_power_without_generators(loc_x, monkeypatch):
    # Without generators the raw and the reduced g^k are one polynomial, so
    # the search makes one exact division per k: k = 0..3 for 1/x^3, and
    # k = 0..bound (= 0 + 1 + 4) for the non-unit x + 1.
    calls = []
    real = charts.poly_div_exact

    def counting(num, den):
        calls.append(num)
        return real(num, den)

    monkeypatch.setattr(charts, "poly_div_exact", counting)
    x = loc_x.param(0)
    inv = (x ** 3).invert()
    assert len(calls) == 4
    assert str(inv) == "(1)/(x)^3" and inv * x ** 3 == loc_x.one()
    calls.clear()
    with pytest.raises(NotInvertible):
        (x + loc_x.one()).invert()
    assert len(calls) == 6


def test_invert_negative_cases(loc_x, affine2):
    with pytest.raises(NotInvertible):
        (loc_x.param(0) + loc_x.one()).invert()
    with pytest.raises(NotInvertible):
        loc_x.zero().invert()
    with pytest.raises(NotInvertible):
        affine2.param(0).invert()


def test_triple_overlap_ring_inverts_both_factors():
    c = chart_from({"name": "t", "params": ["x"], "gens": [],
                    "denominator": "x^2 - x"})
    x = c.param(0)
    assert x.invert() * x == c.one()
    assert (x - c.one()).invert() * (x - c.one()) == c.one()


def test_invert_divides_twice_only_where_reduce_changes_the_power(elliptic, monkeypatch):
    # g = y: reduce leaves g^0 and g^1 as they are and turns g^2 into
    # x^3 - x + 1, so 1/y divides at k = 0, 1 and 1/y^2 at k = 0, 1, 2, 2
    calls = []
    real = charts.poly_div_exact
    monkeypatch.setattr(charts, "poly_div_exact",
                        lambda num, den: calls.append(num) or real(num, den))
    y = elliptic.gen(0)
    assert str(y.invert()) == "(1)/(y)" and len(calls) == 2
    calls.clear()
    assert str((y * y).invert()) == "(1)/(y)^2" and len(calls) == 4


def test_refused_inversion_leaves_the_power_caches_as_they_were():
    chart = loads_chart(STANDARD_CHARTS["elliptic"])
    a = parse_expression("x^40 + 1", chart)
    lifts, fpow = dict(chart._lifts), [dict(c) for c in chart._fpow]
    with pytest.raises(NotInvertible):
        a.invert()
    assert chart._lifts == lifts and chart._fpow == fpow


def test_invert_keeps_its_result_on_the_element(elliptic, monkeypatch):
    # a repeat returns the stored object without a second search; a refused
    # inversion stores nothing, so a repeat searches and raises again
    calls = []
    real = RingElem._invert
    monkeypatch.setattr(RingElem, "_invert",
                        lambda self: calls.append(self) or real(self))
    y = elliptic.gen(0)
    inv = y.invert()
    assert y.invert() is inv and len(calls) == 1
    bad = elliptic.param(0) + 1
    for _ in range(2):
        with pytest.raises(NotInvertible):
            bad.invert()
    assert len(calls) == 3 and bad._inv is None


# -- invert against the search over independently built powers of g

_C4 = loads_chart(C4)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["loc_x", "elliptic", "triple", "c4"]),
       st.sampled_from([1, -2, Fraction(3, 5)]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=3, max_size=3),
       st.sampled_from(["x + 1", "x^2 + 1", "2*x - 5"]))
def test_invert_matches_the_search_over_separate_powers(loc_x, elliptic, p1, name, c,
                                                         exps, h):
    """a = c * prod f_k^(e_k) / f_k^(i_k) over the factors f_k of g is a
    unit: invert and ref_invert give the same numerator and s.  a times h,
    a polynomial in x coprime to g, is not: both raise NotInvertible."""
    chart = {"loc_x": loc_x, "elliptic": elliptic, "triple": p1.charts["triple"],
             "c4": _C4}[name]
    one = chart.one().num
    a = chart.elem(c)
    for f, sh, (e, i) in zip(chart.factors, chart._shifts, exps):
        a = a * RingElem(chart, f) ** e * RingElem._new(chart, one, i << sh)
    got, want = a.invert(), ref_invert(a)
    assert (got.num, got.s) == (want.num, want.s)
    assert got * a == chart.one()
    b = a * parse_expression(h, chart)
    for invert in (RingElem.invert, ref_invert):
        with pytest.raises(NotInvertible):
            invert(b)


def test_chart_mismatch_rejected(loc_x, affine2):
    with pytest.raises(ChartMismatch):
        loc_x.param(0) + affine2.param(0)


def test_scalar_coefficients(loc_x):
    x = loc_x.param(0)
    half = x * Fraction(1, 2)
    assert half + half == x


def test_operand_dispatch_of_ring_elements_and_polynomials(loc_x):
    """Which operands RingElem and Poly accept, and what they give back."""
    num = parse_poly("x + 1", loc_x.allvars)
    r = RingElem(loc_x, num, 1)
    assert r * 1 is r and r * Fraction(1) is r
    assert 2 * r == r * 2 == r + r and (2 * r).num == num * 2
    assert not r == 3 and loc_x.elem(3) == 3 and 3 == loc_x.elem(3)
    assert (r + Fraction(1, 2)) - r == loc_x.elem(Fraction(1, 2))
    assert 1 - r == loc_x.one() - r and (1 - r) + r == 1
    half = Poly.const(loc_x.allvars, Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and not num == 1
    assert 1 - num == Poly.one(loc_x.allvars) - num and (1 - num) + num == 1
    with pytest.raises(TypeError):
        r * num
    with pytest.raises(TypeError):
        num * 1.5
    assert (num == "x") is False and (r == "x") is False


# -- reduce against the Fraction-dict reference

RATIONAL_TOWER = {
    "name": "tower", "params": ["x"],
    "gens": [{"name": "y", "degree": 2, "rhs": "x^3/2 - x/3 + 1"},
             {"name": "z", "degree": 3, "rhs": "x*y/3 + 2/5"}],
    "denominator": "y*z",
}


def _relations(chart):
    return [(chart.gen_index(j), gs.degree, dict(gs.rhs.terms))
            for j, gs in reversed(list(enumerate(chart.gens)))]


def _raw_dicts(nvars, max_gen_exp):
    coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
    mono = st.tuples(st.integers(0, 3), *[st.integers(0, max_gen_exp)] * (nvars - 1))
    return st.dictionaries(mono, coeffs, max_size=5).map(
        lambda d: {m: c for m, c in d.items() if c})


@settings(deadline=None, max_examples=60)
@given(_raw_dicts(2, 7))
def test_reduce_matches_reference_on_elliptic(elliptic, a):
    got = elliptic.reduce(Poly(elliptic.allvars, a))
    assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
    assert dict(got.terms) == ref_reduce(a, _relations(elliptic))


@settings(deadline=None, max_examples=40)
@given(_raw_dicts(3, 5))
def test_reduce_matches_reference_with_rational_relations(a):
    tower = chart_from(RATIONAL_TOWER)
    got = tower.reduce(Poly(tower.allvars, a))
    assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
    assert dict(got.terms) == ref_reduce(a, _relations(tower))


def test_power_is_repeated_product(elliptic):
    e = (elliptic.gen(0) * Fraction(1, 2) + elliptic.param(0)) * elliptic.inv_denominator()
    expected = elliptic.one()
    for n in range(7):
        got = e ** n
        assert got == expected
        assert (got.num, got.s) == (expected.num, expected.s)
        expected = expected * e



def test_first_large_powers_need_no_recursion_depth():
    # the _q_power cache and lift's factor-power cache are filled by loops
    c = chart_from({"name": "sq", "params": ["x"],
                    "gens": [{"name": "y", "degree": 2, "rhs": "x"}],
                    "denominator": "y"})
    n = sys.getrecursionlimit() + 500
    x, y = c.param(0), c.gen(0)
    assert c._q_power(0, n) == (x ** n).num
    assert c.lift(2 * n) == (x ** n).num
    assert c.lift(2 * n + 1) == (x ** n * y).num

# -- the reduce-free fast paths of RingElem

def _form(e):
    return e.num.nums, e.num.den, e.s


def _product_form(a, b):
    """(nums, den, s) of a * b by the general product: reduce the numerator
    product, add the packed exponents, and s = 0 for zero."""
    num = a.chart.reduce(a.num * b.num)
    return num.nums, num.den, a.s + b.s if num.nums else 0


def test_multiplying_by_one_returns_the_element(all_charts, p1):
    for chart in all_charts + [p1.charts["triple"]]:
        smp = make_sampler("times-one", chart.name)
        e = smp.elem(chart, max_s=2)
        assert e * 1 is e
        assert 1 * e is e
        assert e * Fraction(1) is e
        assert (e * 2).num == e.num * 2 and (e * 2).s == e.s
        z = e * 0
        assert z.is_zero() and z.s == 0
        # the unit as a ring element: the product is the other factor itself,
        # equal in (nums, den, s) to what the general product builds
        one = chart.one()
        x0 = chart.gen(0) if chart.ngens else chart.param(0)
        for x in (e, chart.zero(), (x0 + 2) * chart.inv_denominator(3), x0):
            assert x * one is x and one * x is x
            assert _form(x) == _product_form(x, one) == _product_form(one, x)
            for y in (chart.elem(2), chart.inv_denominator(), chart.elem(Fraction(1, 3))):
                assert _form(x * y) == _product_form(x, y)
                assert _form(y * x) == _product_form(y, x)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_sum_over_unequal_powers_of_g_is_reduced(elliptic, seed):
    # a.num * g^(b.s - a.s) carries y^2 = x^3 - x + 1 terms (g = y), which
    # the sum must reduce away; summing without reduce leaves them in.
    smp = make_sampler("unequal-s", seed)
    y = elliptic.gen(0)
    a = smp.elem(elliptic, max_s=0) * y + y
    b = smp.nonzero_elem(elliptic) * elliptic.inv_denominator(smp.rng.randint(1, 3))
    assert a.s < b.s
    for total in (a + b, b + a, a - b):
        assert all(m[1] < 2 for m in total.num.terms)
    assert a + b == b + a
    assert (a + b) - b == a


def test_sum_at_equal_power_cancels_to_zero(elliptic):
    e = elliptic.gen(0) * elliptic.inv_denominator(2)
    z = e + (-e)
    assert z.is_zero() and z.s == 0
    assert (e - e).s == 0


def test_reduce_beyond_the_degree_bound_raises(elliptic):
    # y^2 -> x^3 - x + 1 raises the total degree by one
    x, y = (Poly.variable(elliptic.allvars, v) for v in elliptic.allvars)
    top = x ** (DEGREE_LIMIT - 3) * y ** 2
    assert top.degree() == DEGREE_LIMIT - 1
    with pytest.raises(ValueError):
        elliptic.reduce(top)
    assert elliptic.reduce(x ** (DEGREE_LIMIT - 4) * y ** 2).degree() == DEGREE_LIMIT - 1


# -- the one-pass derivation kernel against the RingElem-arithmetic reference

TWO_PARAMS = {
    "name": "two", "params": ["u", "v"],
    "gens": [{"name": "y", "degree": 2, "rhs": "u^2*v - v/2 + 3"}],
    "denominator": "y*u",
}
_TOWER = chart_from(RATIONAL_TOWER)
_TWO = chart_from(TWO_PARAMS)


def _assert_derive_matches(got, want, cancelled):
    """The kernel's d/dx_i against ref_derive's: the same numerator and s
    unless the reference's partial sum cancelled midway, the same ring
    element always."""
    assert got == want
    if not cancelled:
        assert (got.num.nums, got.num.den, got.s) == (want.num.nums, want.num.den, want.s)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["affine2", "loc_x", "elliptic", "tower", "two", "triple"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
       st.lists(st.integers(0, 1), min_size=1, max_size=3))
def test_derive_matches_reference(affine2, loc_x, elliptic, p1, name, seed, s, dirs):
    chart = {"affine2": affine2, "loc_x": loc_x, "elliptic": elliptic,
             "tower": _TOWER, "two": _TWO, "triple": p1.charts["triple"]}[name]
    smp = make_sampler("derive-ref", seed)
    e = RingElem(chart, smp.poly(chart, max_deg=3, terms=4), s)
    for i in dirs:
        i %= chart.nparams
        got = e.derive(i)
        _assert_derive_matches(got, *ref_derive(e, i))
        e = got


TABLE_CHARTS = [standard_chart(n) for n in ("affine2", "loc_x", "elliptic")] + [
    _TOWER, _TWO,
    chart_from({"name": "tower1", "params": ["x"], "denominator": "y*z",
                "gens": [{"name": "y", "degree": 2, "rhs": "x"},
                         {"name": "z", "degree": 3, "rhs": "y + 1"}]}),
]


@pytest.mark.parametrize("chart", TABLE_CHARTS, ids=lambda c: c.name)
def test_derivative_tables_match_the_reference(chart):
    # RingElem.derive builds the tables dy_j/dx_i and df_k/dx_i that
    # ref_derive reads; pin them against the reference's total derivative
    # of the relation, d * y_j^(d-1) * dy_j/dx_i = D_i q_j, and of each
    # factor f_k of g, so the reference does not rest on the kernel it is
    # compared with
    for i in range(chart.nparams):
        for j, gs in enumerate(chart.gens):
            lhs = chart.gen(j) ** (gs.degree - 1) * gs.degree * chart._dy[j][i]
            assert lhs == ref_total_derivative(chart, gs.rhs, i)
        for k, f in enumerate(chart.factors):
            assert chart._df[k][i] == ref_total_derivative(chart, f, i)


def test_derive_makes_one_reduce_call(elliptic, monkeypatch):
    x, y = elliptic.param(0), elliptic.gen(0)
    e = (x * y + 3 * x ** 2 - y) * elliptic.inv_denominator(2)
    e.derive(0)  # fills the kernel table entry and the powers of g it uses
    # an equal, distinct element has an empty derivative memo
    fresh = RingElem._new(elliptic, e.num, e.s)
    calls = []
    real = charts.ChartSpec.reduce

    def counting(chart, poly):
        calls.append(poly)
        return real(chart, poly)

    monkeypatch.setattr(charts.ChartSpec, "reduce", counting)
    d = fresh.derive(0)
    assert len(calls) == 1
    # the repeat is a memo hit: the same object, no further reduce
    assert fresh.derive(0) is d and len(calls) == 1
    assert d == ref_derive(e, 0)[0]


# -- the derivative memo: each element keeps the derivatives asked of it

@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["loc_x", "elliptic", "affine2", "triple"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 2),
       st.lists(st.integers(0, 1), min_size=1, max_size=4), st.randoms())
# N = c * x^2 on triple (g = x * (x - 1)): the reference's partial sum
# cancels after the quotient piece of x, so only the ring elements agree
@example(name="triple", seed=479, s=2, dirs=[0], rnd=random.Random(0))
def test_derive_memo(loc_x, elliptic, affine2, p1, name, seed, s, dirs, rnd):
    chart = {"loc_x": loc_x, "elliptic": elliptic, "affine2": affine2,
             "triple": p1.charts["triple"]}[name]
    n = chart.nparams
    smp = make_sampler("derive-memo", seed)
    e = RingElem(chart, smp.poly(chart, max_deg=3, terms=4), s)
    assume(e)
    i = dirs[0] % n
    d = e.derive(i)
    # a repeat returns the stored object, equal to the reference
    assert e.derive(i) is d
    _assert_derive_matches(d, *ref_derive(e, i))
    # an equal but distinct element computes its own, identical derivative
    twin = RingElem._new(chart, e.num, e.s)
    got = twin.derive(i)
    assert got is not d and (got.num, got.s) == (d.num, d.s)
    # after a memo hit an invalid direction still raises
    for bad in (-1, n):
        with pytest.raises(IndexError):
            e.derive(bad)
    # derive_multi against the same derivations in any order
    steps = [j % n for j in dirs]
    m = tuple(steps.count(j) for j in range(n))
    rnd.shuffle(steps)
    other = twin
    for j in steps:
        other = other.derive(j)
    assert e.derive_multi(m) == other
    # only the element's memo refers to its derivative: no chart attribute
    # (the rejected per-chart memo) holds it
    refs = [r for r in gc.get_referrers(d) if not isinstance(r, types.FrameType)]
    assert not any(r is a for r in refs for a in (chart, *vars(chart).values()))
    assert len(refs) == 1 and refs[0] is e._derivs


def test_derive_beyond_the_degree_bound_raises(p1):
    # g = x^2 - x: the quotient-rule piece x^32767 * (2x - 1) has degree
    # 32768; the chart has no generators, so reduce checks nothing
    triple = p1.charts["triple"]
    x = Poly.variable(triple.allvars, "x")
    with pytest.raises(ValueError):
        RingElem(triple, x ** (DEGREE_LIMIT - 1), 1).derive(0)
    assert RingElem(triple, x ** (DEGREE_LIMIT - 1)).derive(0).num.degree() == DEGREE_LIMIT - 2


# -- the sum-of-products kernel against one-at-a-time RingElem sums

_P1_TRIPLE = loads_chart({"name": "triple", "params": ["x"], "gens": [],
                          "denominator": "x^2 - x"})
_QS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(["elliptic", "affine2", "loc_x", "tower", "p1"]),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.sampled_from(_QS)), min_size=0, max_size=6))
def test_sum_products_matches_reference(affine2, loc_x, elliptic, name, seed, picks):
    chart = {"affine2": affine2, "loc_x": loc_x, "elliptic": elliptic,
             "tower": _TOWER, "p1": _P1_TRIPLE}[name]
    smp = make_sampler("sum-products-ref", seed)
    # a pool of three elements with s <= 3, so picks repeat and cancel
    pool = [RingElem(chart, smp.poly(chart, max_deg=2, terms=3), smp.rng.randint(0, 3))
            for _ in range(3)]
    triples = [(pool[i], pool[j], q) for i, j, q in picks]
    got = charts.sum_products(chart, triples)
    want, cancelled = ref_sum_products(chart, triples)
    assert got == want
    if not cancelled:
        assert (got.num.nums, got.num.den, got.s) == (want.num.nums, want.num.den, want.s)


def test_sum_products_lifts_only_the_groups_below_the_join(loc_x, monkeypatch):
    """Triples that share one s take no lift; with several groups, each
    group below the join is lifted once and the group at it not at all."""
    lifts = []
    lift = charts.ChartSpec.lift
    monkeypatch.setattr(charts.ChartSpec, "lift",
                        lambda chart, d: lifts.append(d) or lift(chart, d))
    x, inv = loc_x.param(0), loc_x.inv_denominator()
    for triples, want_lifts in (
            ([(x, inv, 2), (inv, x + 1, Fraction(-1, 3)), (loc_x.one(), inv, 1)], 0),
            ([(x, x, 1), (inv, x + 1, Fraction(1, 2))], 1),
            ([(x, x, 1), (inv, inv, Fraction(1, 2)), (x, inv, 3)], 2)):
        lifts.clear()
        got = charts.sum_products(loc_x, triples)
        assert len(lifts) == want_lifts
        want, cancelled = ref_sum_products(loc_x, triples)
        assert not cancelled
        assert (got.num.nums, got.num.den, got.s) == (want.num.nums, want.num.den, want.s)


def test_sum_products_sits_over_the_join_where_a_group_cancels():
    """On c4 (generators, three factors of g) the group over y0 cancels; the
    sum still sits over the join of both groups' s."""
    a, b, x = _C4.gen(0).invert(), _C4.gen(1).invert(), _C4.param(0)
    got = charts.sum_products(_C4, [(a, x, 1), (a, x, -1), (b, x, 1)])
    assert got == b * x
    assert got.s == _C4.join(a.s, b.s) != b.s


# -- one-sided equality against two-sided cross-multiplication

def _cross_equal(a, b):
    """The former RingElem equality: each numerator lifted by the other's
    full denominator."""
    c = a.chart
    return c.reduce(a.num * c.lift(b.s)) == c.reduce(b.num * c.lift(a.s))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["loc_x", "elliptic", "p1"]), st.integers(0, 2 ** 32 - 1))
def test_one_sided_equality_matches_cross_multiplication(loc_x, elliptic, name, seed):
    chart = {"loc_x": loc_x, "elliptic": elliptic, "p1": _P1_TRIPLE}[name]
    smp = make_sampler("one-sided-eq", seed)
    num = smp.poly(chart, max_deg=2, terms=3)
    s, j = smp.rng.randint(0, 2), smp.rng.randint(1, 3)
    term = Poly.variable(chart.allvars, chart.params[0]) * Fraction(smp.rng.choice([1, -2, 3]), 2)
    a = RingElem(chart, num, s)
    gj = chart.lift(j * chart._gexp)  # reduced g^j
    same = RingElem(chart, num * gj, s + j)  # a, written over g^(s+j)
    off = RingElem(chart, num * gj + term, s + j)  # one term more
    lone = RingElem(chart, term, s + j)  # nonzero, s > 0
    assert a == same and same == a and a != off and off != a
    for x, y in ((a, same), (a, off), (chart.zero(), lone)):
        for u, v in ((x, y), (y, x)):
            assert (u == v) == _cross_equal(u, v)


def test_sum_products_cancelling_to_zero_has_s_zero(elliptic):
    a = elliptic.gen(0) * elliptic.inv_denominator(2)
    b = elliptic.param(0) + 1
    z = charts.sum_products(elliptic, [(a, b, 1), (b, a, Fraction(-1)), (a, a, 0)])
    assert z.is_zero() and z.s == 0


def test_sum_products_sits_over_the_largest_power_of_g(loc_x):
    # the two s = 2 products cancel; the result still sits over x^2, where
    # adding one at a time falls back to x^1 after the partial sum is zero
    a = loc_x.inv_denominator(1)
    triples = [(a, a, 1), (a, a, -1), (a, loc_x.param(0), 1)]
    got = charts.sum_products(loc_x, triples)
    want, cancelled = ref_sum_products(loc_x, triples)
    assert cancelled and got == want
    assert (got.s, want.s) == (2, 1)


def test_sum_products_beyond_the_degree_bound_raises(loc_x):
    # loc_x has no generators, so reduce checks nothing: the pair and the
    # lift check the bound themselves
    x = loc_x.param(0)
    big = x ** (DEGREE_LIMIT - 1)
    with pytest.raises(ValueError):
        charts.sum_products(loc_x, [(big, x, 1), (x, x, 1)])
    with pytest.raises(ValueError):  # big * 1 over g^0 lifted to g^1 = x
        charts.sum_products(loc_x, [(big, loc_x.one(), 1), (loc_x.inv_denominator(), x, 1)])
    assert charts.sum_products(loc_x, [(big, loc_x.one(), 1), (x, x, 1)]).num.degree() == DEGREE_LIMIT - 1


def test_power_without_generators_checks_the_bound_first(loc_x, elliptic, monkeypatch):
    bases = [(c.param(0) + 1, c.param(0) * c.inv_denominator()) for c in (loc_x, elliptic)]
    calls = []
    mul = RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for a, b in bases:
        with pytest.raises(ValueError, match="total degree 100000 exceeds the bound"):
            a ** 100000
        with pytest.raises(ValueError, match="exceeds the bound"):
            b ** DEGREE_LIMIT
    assert calls == []


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), name=st.sampled_from(["loc_x", "elliptic", "affine2"]),
       e=st.integers(0, 5))
def test_power_is_the_repeated_product(seed, name, e):
    # with or without a generator in the numerator: same numerator, same s
    chart = standard_chart(name)
    a = make_sampler("pow", seed).elem(chart, max_s=2)
    want = chart.one()
    for _ in range(e):
        want = want * a
    got = a ** e
    assert (got.num, got.s) == (want.num, want.s)


# Powers through relations: y^2 = x, whose powers of y keep one term, and
# two relations with a rational coefficient.  BUDGET is the meter's refusal.
SQRT_X = loads_chart({"name": "sqrt_x", "params": ["x"], "denominator": "y",
                      "gens": [{"name": "y", "degree": 2, "rhs": "x"}]})
THIRD = loads_chart({"name": "third", "params": ["x"], "denominator": "y",
                     "gens": [{"name": "y", "degree": 2, "rhs": "1/3*x + 1"}]})
QUARTER = loads_chart({"name": "quarter", "params": ["x"], "denominator": "y",
                       "gens": [{"name": "y", "degree": 2, "rhs": "x/4 + 1/4"}]})
BUDGET = f"work budget of {multipoly.WORK_BUDGET} units exceeded"


def test_generator_powers_reduce_through_rational_relations():
    # reduction grows the content denominator: y^40 = (x/3 + 1)^20 and
    # y^12 = ((x + 1)/4)^6
    assert (THIRD.gen(0) ** 40).num.den == 3 ** 20
    assert (QUARTER.gen(0) ** 12).num.den == 2 ** 12


def test_power_with_a_generator_is_metered():
    # y^e reduces to one term on y^2 = x, so only the degree bound, which
    # each product checks first, stops its powers
    r = SQRT_X.gen(0)
    assert r ** 65534 == SQRT_X.param(0) ** 32767
    with pytest.raises(ValueError, match="total degree 32768 exceeds the bound 32767"):
        r ** 65535
    # on elliptic y^e has about 3e/2 terms: the meter refuses the squaring
    # that would pass the budget, also over a power of g
    chart = loads_chart(STANDARD_CHARTS["elliptic"])
    y = chart.gen(0)
    for base in (y, y * chart.inv_denominator()):
        with pytest.raises(ValueError, match=BUDGET):
            base ** 20000


def test_refused_work_leaves_the_chart_usable():
    # a refused power, inversion and lift keep nothing unfinished: the
    # caches hold only finished powers and the memos only finished results,
    # so what follows equals the same work on a fresh chart
    def values(chart):
        x, y = chart.param(0), chart.gen(0)
        return [_form(v) for v in (y ** 40, (x + y) ** 20, (y ** 7).invert(),
                                   (x * y + 1) ** 3 * y.invert() ** 300 + 1)]

    used = loads_chart(STANDARD_CHARTS["elliptic"])
    x, y = used.param(0), used.gen(0)
    with pytest.raises(ValueError, match=BUDGET):
        y ** 3000
    big = x ** 1600 + 1
    with pytest.raises(ValueError, match=BUDGET):
        big.invert()
    assert big._inv is None
    with pytest.raises(ValueError, match=BUDGET):
        y.invert() ** 1000 + 1  # the lift of 1 to y^1000 fills _fpow
    assert 300 < len(used._fpow[0]) < 1000
    assert values(used) == values(loads_chart(STANDARD_CHARTS["elliptic"]))

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetalg import charts, jets
from jetalg.fileio import loads_chart
from jetalg.fixtures import STANDARD_CHARTS, standard_atlas, standard_chart
from jetalg.jets import (
    Jet, delta, delta_power, jet_of, jet_of_pair, jet_scalar,
    taylor_identity_check,
)
from jetalg.multipoly import Poly, mi_range

from conftest import make_sampler
from jetref import exact, ref_jet_coeffs, ref_jet_poly


def test_jet_of_polynomial(loc_x):
    x = loc_x.param(0)
    j = jet_of(x ** 2, 2)
    assert j.coeff((0,)) == x ** 2
    assert j.coeff((1,)) == 2 * x
    assert j.coeff((2,)) == loc_x.one()


_POLY_CHARTS = {name: standard_chart(name) for name in ("affine2", "loc_x", "elliptic")}
_POLY_CHARTS["triple"] = standard_atlas("p1").charts["triple"]


@settings(deadline=None)
@given(name=st.sampled_from(sorted(_POLY_CHARTS)), k=st.integers(0, 6), data=st.data())
def test_jet_of_polynomial_matches_the_binomial_reference(name, k, data):
    # p(x + t) by the binomial theorem, never through derive; affine2's two
    # parameters give mixed t^m coefficients
    chart = _POLY_CHARTS[name]
    exps = st.tuples(*[st.integers(0, 5)] * chart.nparams)
    coefs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    terms = data.draw(st.dictionaries(exps, coefs, max_size=5))
    p = chart.elem(Poly(chart.allvars, {a + (0,) * chart.ngens: c for a, c in terms.items()}))
    assert jet_of(p, k) == ref_jet_poly(chart, terms, k)


@pytest.mark.parametrize("name", sorted(_POLY_CHARTS))
def test_jet_coefficients_are_exactly_the_scaled_derivatives(name):
    # numerator dict, content denominator and s of each coefficient equal
    # those of d^m f * Fraction(1, m!), at every |m| <= 6
    chart = _POLY_CHARTS[name]
    smp = make_sampler("jet-exact", name)
    for _ in range(3):
        f = smp.nonzero_elem(chart, max_s=2)
        got = exact(jet_of(f, 6))
        assert got == ref_jet_coeffs(f, 6) and got


def test_jet_of_inverse_is_geometric(loc_x):
    x = loc_x.param(0)
    inv = loc_x.inv_denominator()
    j = jet_of(inv, 2)
    assert j.coeff((0,)) == inv
    assert j.coeff((1,)) == -(inv ** 2)
    assert j.coeff((2,)) == inv ** 3


def test_jet_of_generator(elliptic):
    y = elliptic.gen(0)
    x = elliptic.param(0)
    j = jet_of(y, 1)
    assert j.coeff((0,)) == y
    assert j.coeff((1,)) == (3 * x ** 2 - elliptic.one()) * (2 * y).invert()


def test_delta_examples(loc_x):
    x = loc_x.param(0)
    d = delta(x, 2)
    assert d.coeff((0,)).is_zero()
    assert d.coeff((1,)) == -loc_x.one()
    d2 = delta(x ** 2, 2)
    assert d2.coeff((1,)) == -2 * x
    assert d2.coeff((2,)) == -loc_x.one()
    assert delta(loc_x.one(), 2).is_zero()


def test_delta_squared_carries_positive_sign(loc_x):
    x = loc_x.param(0)
    sq = delta(x, 2) * delta(x, 2)
    assert sq == delta_power(loc_x, (2,), 2)
    assert sq.coeff((2,)) == loc_x.one()


def test_delta_powers_multiply(affine2):
    m1 = delta_power(affine2, (1, 0), 3)
    m2 = delta_power(affine2, (0, 2), 3)
    assert m1 * m2 == delta_power(affine2, (1, 2), 3)


def test_jet_product_examples(loc_x):
    x = loc_x.param(0)
    assert jet_of(x, 2) * jet_of(x, 2) == jet_of(x ** 2, 2)
    u = jet_of(x ** 3, 2)
    assert u * jet_scalar(loc_x.one(), 2) == u


def test_t_order(loc_x):
    x = loc_x.param(0)
    assert (delta(x, 2) * delta(x ** 2, 2)).t_order() == 2
    assert delta(loc_x.one(), 3).t_order() == 4
    assert jet_of(x, 2).t_order() == 0
    assert Jet.zero(loc_x, 2).t_order() == 3


def test_order_mismatch_rejected(loc_x):
    x = loc_x.param(0)
    with pytest.raises(ValueError):
        jet_of(x, 2) * jet_of(x, 3)


def test_eval_diagonal(loc_x):
    x = loc_x.param(0)
    f, g = x ** 2, loc_x.inv_denominator()
    assert jet_of_pair(g, f, 2).eval_diagonal() == g * f
    assert delta(f, 2).eval_diagonal().is_zero()
    assert jet_scalar(loc_x.one(), 2).eval_diagonal() == loc_x.one()


def test_jet_of_pair(loc_x):
    x = loc_x.param(0)
    j = jet_of_pair(x, x, 1)
    assert j.coeff((0,)) == x ** 2
    assert j.coeff((1,)) == x
    assert jet_of_pair(loc_x.one(), x ** 2, 2) == jet_of(x ** 2, 2)


def test_taylor_identities_on_special_functions(loc_x, elliptic):
    x = loc_x.param(0)
    assert taylor_identity_check(x ** 3, 3)
    assert taylor_identity_check(loc_x.inv_denominator(), 3)
    assert taylor_identity_check(elliptic.gen(0), 2)


def test_taylor_identities_sampled(all_charts):
    for chart in all_charts:
        smp = make_sampler("jets-taylor", chart.name)
        for k in (1, 2, 3):
            for _ in range(4):
                assert taylor_identity_check(smp.elem(chart), k)


@pytest.mark.parametrize("name, k, make", [
    ("affine2", 3, lambda chart: make_sampler("jets-taylor-count").elem(chart)),
    ("elliptic", 8, lambda chart: chart.gen(0).invert()),
    ("loc_x", 0, lambda chart: chart.inv_denominator()),
], ids=["affine2", "elliptic-inv-y", "order-0"])
def test_taylor_check_derives_each_derivative_once(name, k, make, request, monkeypatch):
    """One derive per d^m f with 1 <= |m| <= 2k.  The delta table does not
    depend on f, so it is built before derive is counted."""
    chart = request.getfixturevalue(name)
    f = make(chart)
    table = jets.delta_powers(chart, k, k)
    monkeypatch.setattr(jets, "delta_powers", lambda c, order, r: table)
    calls = []
    derive = charts.RingElem.derive
    monkeypatch.setattr(charts.RingElem, "derive",
                        lambda e, i: calls.append(i) or derive(e, i))
    assert taylor_identity_check(f, k)
    assert len(calls) == len(mi_range(chart.nparams, 2 * k)) - 1


@pytest.mark.parametrize("name, k", [("affine2", 3), ("elliptic", 4)])
def test_delta_powers_derive_the_parameters_once_per_chart(name, k, monkeypatch):
    """The deltas are jets of the chart's own parameter elements
    (ChartSpec.param), so only the first table of a chart makes fresh
    derivations (derive memo misses, made by RingElem._derive)."""
    chart = loads_chart(STANDARD_CHARTS[name])
    calls = []
    real = charts.RingElem._derive
    monkeypatch.setattr(charts.RingElem, "_derive",
                        lambda e, i: calls.append(i) or real(e, i))
    first = jets.delta_powers(chart, k, k)
    assert calls
    calls.clear()
    assert jets.delta_powers(chart, k, k) == first
    assert calls == []


def _one_entry_changed(change):
    """A delta_powers stand-in whose entry at e_0 goes through change."""
    real = jets.delta_powers

    def mutated(chart, k, r):
        table = dict(real(chart, k, r))
        e0 = (1,) + (0,) * (chart.nparams - 1)
        table[e0] = change(table[e0])
        return table
    return mutated


def _wrong_coefficient(dp):
    m, c = next(iter(dp.terms.items()))
    return Jet(dp.chart, dp.order, {**dp.terms, m: c * 2})


@pytest.mark.parametrize("change", [_wrong_coefficient, lambda dp: -dp],
                         ids=["wrong-coefficient", "wrong-sign"])
def test_taylor_check_can_fail(change, loc_x, elliptic, affine2, monkeypatch):
    """The identities are formal in the derivative table, so the check is
    mutated where it does work: one coefficient of one delta power, or the
    sign of one Taylor weight (the same as negating that delta power)."""
    x1, x2 = affine2.param(0), affine2.param(1)
    cases = [loc_x.inv_denominator(), elliptic.gen(0), x1 ** 3 * x2 + x1]
    assert all(taylor_identity_check(f, 2) for f in cases)
    monkeypatch.setattr(jets, "delta_powers", _one_entry_changed(change))
    for f in cases:
        assert not taylor_identity_check(f, 2)


def test_jet_homomorphism_sampled(all_charts):
    for chart in all_charts:
        smp = make_sampler("jets-hom", chart.name)
        for k in (1, 2, 3):
            for _ in range(4):
                f, g = smp.elem(chart), smp.elem(chart)
                assert jet_of(f * g, k) == jet_of(f, k) * jet_of(g, k)
                assert jet_of(f + g, k) == jet_of(f, k) + jet_of(g, k)


def test_delta_leibniz_sampled(all_charts):
    for chart in all_charts:
        smp = make_sampler("jets-delta-leibniz", chart.name)
        for k in (1, 2, 3):
            for _ in range(4):
                f, g = smp.elem(chart), smp.elem(chart)
                lhs = delta(f * g, k)
                assert lhs == delta(g, k).scale(f) + delta(f, k) * jet_of(g, k)


def test_order_superadditivity_sampled(loc_x):
    smp = make_sampler("jets-order")
    k = 3
    for _ in range(8):
        u = smp.jet(loc_x, k)
        w = smp.jet(loc_x, k)
        assert (u * w).t_order() >= min(k + 1, u.t_order() + w.t_order())


def test_truncation_consistency(loc_x):
    f = loc_x.inv_denominator()
    assert jet_of(f, 3).truncated(2) == jet_of(f, 2)


def test_jet_product_reduces_once_per_coefficient(elliptic, monkeypatch):
    x, y = elliptic.param(0), elliptic.gen(0)
    a = jet_of(y * x + elliptic.inv_denominator(), 3)
    b = jet_of(x ** 2 - y * elliptic.inv_denominator(2), 3)
    want = a * b  # fills the powers of g the lifts use
    calls = []
    real = charts.ChartSpec.reduce

    def counting(chart, poly):
        calls.append(poly)
        return real(chart, poly)

    monkeypatch.setattr(charts.ChartSpec, "reduce", counting)
    got = a * b
    assert len(got.terms) == 4 and len(calls) == 4
    assert got == want


def test_jet_product_beyond_the_degree_bound_raises(loc_x):
    # t^1 collects 1 * 1 and x^16384 * x^16384 (degree 2^15 = 32768); loc_x
    # has no generators, so the kernel's own check must refuse it
    x, one = loc_x.param(0), loc_x.one()
    big = x ** (1 << 14)
    a = Jet(loc_x, 1, {(0,): one, (1,): big})
    b = Jet(loc_x, 1, {(0,): one, (1,): one})
    with pytest.raises(ValueError):
        a * Jet(loc_x, 1, {(0,): big, (1,): one})
    assert (a * b).coeff((1,)) == big + one

"""The per-chart jet tables (``ChartSpec._jets``): the delta powers of
``jets.delta_powers`` and the localization series of ``jetfields``.

A repeated call at the same order builds nothing, each kept entry is exactly
a fresh build (numerator dicts, content denominator and s), a returned table
cannot be changed, and the chart keeps one delta table per (k, r) asked and
one series table per order."""

from fractions import Fraction

import pytest

from jetalg import jetfields, jets
from jetalg.fileio import loads_chart
from jetalg.fixtures import STANDARD_CHARTS
from jetalg.jetfields import localization_partial_sum, localization_remainder
from jetalg.jets import Jet, delta, jet_scalar, taylor_identity_check
from jetalg.liealg import psi
from jetalg.multipoly import mi_powers, mi_range

from conftest import make_sampler
from jetref import exact


def fresh(name):
    """A chart loaded from its file, so its tables start empty."""
    return loads_chart(STANDARD_CHARTS[name])


@pytest.fixture
def count(monkeypatch):
    """calls, filled with "delta" and "mul" for each delta and Jet product."""
    calls = []
    mul = Jet.__mul__
    for module in (jets, jetfields):
        monkeypatch.setattr(module, "delta", lambda f, n: calls.append("delta") or delta(f, n))
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    return calls


def exact_ring(a):
    return a.num.nums, a.num.den, a.s


def exact_pair(a, d):
    return exact_ring(a), exact(d)


@pytest.mark.parametrize("name", ["affine2", "elliptic"])
def test_a_second_call_at_the_same_order_makes_no_jet_product(name, count):
    chart = fresh(name)
    smp = make_sampler("jet-tables", name)
    k, n = 3, chart.nparams
    p = smp.semidirect(chart, k)
    f, g = smp.elem(chart), chart.elem(chart.denominator)
    v, w = smp.vfield(chart, max_s=0), smp.vfield(chart, max_s=0)
    table = len(mi_range(n, k)) - 1  # the entries above the unit
    first = psi(p, k)
    assert (count.count("delta"), count.count("mul")) == (n, table)
    count.clear()
    # a second psi, and a Taylor check at the same order, read that table
    assert psi(p, k) == first
    assert taylor_identity_check(f, k)
    assert count == []
    # a Taylor check at another order builds that order's table once
    assert taylor_identity_check(f, k - 1)
    assert (count.count("delta"), count.count("mul")) == (n, len(mi_range(n, k - 1)) - 1)
    count.clear()
    assert taylor_identity_check(f, k - 1)
    assert count == []
    # the series makes delta(g) and k products; a partial sum of another
    # field against an equal g then makes only the product of each
    # component of 1 # w by the series jet
    localization_partial_sum(g, v, k, k)
    assert (count.count("delta"), count.count("mul")) == (1, k + n)
    count.clear()
    localization_partial_sum(chart.elem(chart.denominator), w, k, k)
    assert (count.count("delta"), count.count("mul")) == (0, n)


@pytest.mark.parametrize("name", ["affine2", "elliptic", "loc_x"])
def test_each_kept_entry_is_exactly_a_fresh_build(name):
    chart = fresh(name)
    smp = make_sampler("jet-tables-exact", name)
    g = chart.elem(chart.denominator) * Fraction(-3, 2)
    for k in (0, 1, 3):
        for r in range(k + 1):
            table = jets.delta_powers(chart, k, r)
            deltas = [delta(chart.param(i), k) for i in range(chart.nparams)]
            want = mi_powers(jet_scalar(chart.one(), k), deltas, r)
            assert list(table) == list(want)
            assert {m: exact(j) for m, j in table.items()} == {
                m: exact(j) for m, j in want.items()}
        v = smp.vfield(chart, max_s=0)
        localization_partial_sum(g, v, k, k)
        key, kept = chart._jets["series", k]
        assert key == (g.s, g.num)
        # the running products from 1/g and delta(g) of a fresh build
        ginv, dg = g.invert(), delta(g, k)
        a, d, want = ginv, jet_scalar(chart.one(), k), []
        for _ in range(k + 1):
            want.append(exact_pair(a, d))
            a, d = a * ginv, d * dg
        assert [exact_pair(a, d) for a, d in kept] == want
        # the same powers as the power form ginv ** s
        assert [exact_ring(a) for a, _ in kept] == [
            exact_ring(ginv ** (r + 1)) for r in range(k + 1)]


def test_a_kept_table_cannot_be_changed():
    chart = fresh("affine2")
    table = jets.delta_powers(chart, 2, 2)
    m = next(iter(table))
    with pytest.raises(TypeError):
        table[m] = table[m]
    with pytest.raises(TypeError):
        del table[m]
    with pytest.raises(AttributeError):
        table.clear()
    assert jets.delta_powers(chart, 2, 2) is table
    g, v = chart.elem(chart.denominator), make_sampler("jet-tables-ro").vfield(chart)
    localization_partial_sum(g, v, 2, 2)
    kept = chart._jets["series", 2][1]
    assert isinstance(kept, tuple) and all(isinstance(p, tuple) for p in kept)


def test_the_chart_keeps_one_delta_table_per_k_r_and_one_series_per_order():
    chart = fresh("loc_x")
    x = chart.param(0)
    v = make_sampler("jet-tables-size").vfield(chart, max_s=0)
    for k in (1, 2, 3):
        for r in range(k + 1):
            jets.delta_powers(chart, k, r)
            jets.delta_powers(chart, k, r)
        for g in (x * 2, x, x * x, x):  # the last g asked is x
            localization_partial_sum(g, v, k, k)
            localization_remainder(g, v, k + 2, k)
    keys = sorted(chart._jets, key=repr)
    assert keys == sorted([("delta", k, r) for k in (1, 2, 3) for r in range(k + 1)]
                          + [("series", k) for k in (1, 2, 3)], key=repr)
    assert all(chart._jets["series", k][0] == (x.s, x.num) for k in (1, 2, 3))
    assert [len(chart._jets["series", k][1]) for k in (1, 2, 3)] == [2, 3, 4]

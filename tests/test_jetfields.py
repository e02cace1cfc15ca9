import os
from fractions import Fraction

import pytest

from jetalg.charts import RingElem
from jetalg.cli import main
from jetalg.fileio import loads_chart
from jetalg.fixtures import standard_atlas, standard_chart
from jetalg.jetfields import (
    JetField, decompose, jf_from_pair, localization_defect,
    localization_partial_sum, localization_remainder,
)
from jetalg.jets import delta, jet_of
from jetalg.vfields import VectorField

from bracketref import mutant_bracket, ref_bracket
from conftest import make_sampler
from decompref import ref_decompose
from jetref import exact, ref_localization_remainder
from test_factored import C4


def three_term_bracket(a1, g1, a2, g2, k):
    """Independent oracle for the bracket on decomposables:
    [a1 # g1, a2 # g2] = a1 g1(a2) # g2 - a2 g2(a1) # g1 + a1 a2 # [g1, g2]."""
    return (
        jf_from_pair(a1 * g1.apply(a2), g2, k)
        - jf_from_pair(a2 * g2.apply(a1), g1, k)
        + jf_from_pair(a1 * a2, g1.bracket(g2), k)
    )


def test_from_pair_examples(loc_x):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    u = jf_from_pair(loc_x.one(), d, 2)
    assert u.comps[0].coeff((0,)) == loc_x.one()
    xd = VectorField(loc_x, [x])
    w = jf_from_pair(x, xd, 1)
    assert w.comps[0].coeff((0,)) == x ** 2
    assert w.comps[0].coeff((1,)) == x
    assert jf_from_pair(loc_x.zero(), d, 2).is_zero()


def test_bracket_matches_vector_field_cases(affine2, loc_x):
    d1 = VectorField.coordinate(affine2, 0)
    x1 = affine2.param(0)
    k = 2
    u = jf_from_pair(affine2.one(), d1, k)
    w = jf_from_pair(x1, d1, k)
    assert u.bracket(w) == jf_from_pair(affine2.one(), d1, k)

    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    xd = VectorField(loc_x, [x])
    assert jf_from_pair(loc_x.one(), xd, k).bracket(
        jf_from_pair(loc_x.one(), d, k)
    ) == jf_from_pair(-loc_x.one(), d, k)
    assert jf_from_pair(x, d, k).bracket(jf_from_pair(loc_x.one(), xd, k)).is_zero()


def test_bracket_agrees_with_oracle(all_charts):
    for chart in all_charts:
        smp = make_sampler("jf-oracle", chart.name)
        for k in (1, 2, 3):
            for _ in range(4):
                a1, a2 = smp.elem(chart), smp.elem(chart)
                g1, g2 = smp.vfield(chart), smp.vfield(chart)
                lhs = jf_from_pair(a1, g1, k).bracket(jf_from_pair(a2, g2, k))
                assert lhs == three_term_bracket(a1, g1, a2, g2, k)


def test_bracket_matches_the_two_halves_reference(all_charts, p1):
    """The fused bracket (both halves in one sum of products per
    coefficient) against bracketref.py's H(u, w) - H(w, u), by ring
    equality: drawn jet fields and drawn decomposables, orders 1-3, and at
    order 1 on the two-generator, three-factor chart c4."""
    cases = [(chart, (1, 2, 3)) for chart in all_charts + [p1.charts["triple"]]]
    cases.append((loads_chart(C4), (1,)))
    for chart, orders in cases:
        smp = make_sampler("jf-bracketref", chart.name)
        for k in orders:
            u, w = smp.jetfield(chart, k), smp.jetfield(chart, k)
            assert u.bracket(w) == ref_bracket(u, w), (chart.name, k)
            u, w = (jf_from_pair(smp.elem(chart), smp.vfield(chart), k)
                    for _ in range(2))
            assert u.bracket(w) == ref_bracket(u, w), (chart.name, k)


def test_smash_bracket_suite_catches_the_bracket_without_its_constant_part(
        monkeypatch, tmp_path):
    """A bracket whose second half drops u_i(0) * Dx_i (bracketref.py's
    mutant) fails the smash-bracket suite, which passes on the real one."""
    argv = ["verify", "--suite", "smash-bracket", "--samples", "1",
            "--orders", "1,2", "--out", os.fspath(tmp_path / "report")]
    assert main(argv) == 0
    monkeypatch.setattr(JetField, "bracket", mutant_bracket)
    assert main(argv) == 1


def test_bracket_lie_axioms(loc_x, elliptic):
    for chart in (loc_x, elliptic):
        smp = make_sampler("jf-lie", chart.name)
        k = 2
        for _ in range(4):
            u, w, z = (smp.jetfield(chart, k) for _ in range(3))
            assert u.bracket(w) == -(w.bracket(u))
            jac = (u.bracket(w).bracket(z) + w.bracket(z).bracket(u)
                   + z.bracket(u).bracket(w))
            assert jac.is_zero()


def test_order_filtration_is_an_ideal(loc_x):
    smp = make_sampler("jf-ideal")
    k = 3
    for _ in range(8):
        u = smp.jetfield(loc_x, k)
        w = smp.jetfield(loc_x, k)
        assert u.bracket(w).jf_order() >= w.jf_order()


def test_order_examples(loc_x):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    k = 2
    assert jf_from_pair(loc_x.one(), d, k).jf_order() == 0
    u = jf_from_pair(loc_x.one(), d, k).scale_jet(delta(x, k))
    assert u.jf_order() == 1
    assert JetField.zero(loc_x, k).jf_order() == k + 1


def test_anchor(loc_x):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    v = VectorField(loc_x, [x ** 2])
    k = 2
    assert jf_from_pair(x, v, k).anchor() == v.scale(x)
    assert jf_from_pair(loc_x.one(), d, k).anchor() == d
    u = jf_from_pair(loc_x.one(), d, k).scale_jet(delta(x, k))
    assert u.anchor() == VectorField.zero(loc_x)


def test_anchor_is_a_lie_map(elliptic):
    smp = make_sampler("jf-anchor")
    k = 2
    for _ in range(6):
        u = smp.jetfield(elliptic, k)
        w = smp.jetfield(elliptic, k)
        assert u.bracket(w).anchor() == u.anchor().bracket(w.anchor())


def test_left_module_structure(loc_x):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    k = 2
    u = jf_from_pair(loc_x.one(), d, k)
    assert u.scale(x) == jf_from_pair(x, d, k)
    assert u.scale(loc_x.one()) == u
    assert u.scale(loc_x.zero()).is_zero()


def test_decompose_reassembles(all_charts):
    for chart in all_charts:
        smp = make_sampler("jf-decompose", chart.name)
        for k in (1, 2, 3):
            u = smp.jetfield(chart, k)
            acc = JetField.zero(chart, k)
            for a, eta in decompose(u):
                acc = acc + jf_from_pair(a, eta, k)
            assert acc == u


def test_decompose_matches_the_per_pair_power_loop(all_charts, p1):
    """decompose, with its table of parameter powers, returns the pairs of
    the loop that takes a fresh params[i] ** e per pair (decompref.py): the
    same pairs in the same order, printed byte for byte alike.  Sampled jet
    fields on every standard chart in its own coordinates, and on every p1
    overlap in the pair's x-frame (params G, basis the x-frame fields)."""
    cases = [(chart, chart.name, None, None) for chart in all_charts]
    for (a, b), tp in sorted(p1.transitions.items()):
        cases.append((tp.overlap, f"p1-{a}:{b}", list(tp.G), list(tp.frames[0])))
    for chart, label, params, basis in cases:
        smp = make_sampler("jf-decompose-ref", label)
        for k in (1, 2, 3, 4):
            u = smp.jetfield(chart, k)
            got = decompose(u, params=params, basis=basis)
            want = ref_decompose(u, params=params, basis=basis)
            assert len(got) == len(want) > 0
            for (a, eta), (ra, reta) in zip(got, want):
                assert str(a) == str(ra) and str(eta) == str(reta), (label, k)
                assert a == ra and eta == reta


def test_localization_geometric_example(loc_x):
    x = loc_x.param(0)
    g = x
    d = VectorField.coordinate(loc_x, 0)
    s = localization_partial_sum(g, d, 2, 2)
    inv = loc_x.inv_denominator()
    assert s.comps[0] == jet_of(inv, 2)
    assert localization_partial_sum(g, d, 0, 2) == jf_from_pair(inv, d, 2)


def test_localization_defect(loc_x, elliptic):
    for chart, g in ((loc_x, loc_x.param(0)), (elliptic, elliptic.gen(0))):
        smp = make_sampler("jf-localization", chart.name)
        ginv = g.invert()
        for k in (1, 2, 3):
            for _ in range(3):
                v = smp.vfield(chart, max_s=0)
                target = jf_from_pair(chart.one(), v.scale(ginv), k)
                for m in range(k + 1):
                    defect = target - localization_partial_sum(g, v, m, k)
                    assert defect == localization_remainder(g, v, m, k)
                    assert defect.jf_order() >= m + 1
                # at m = k the series is exact
                assert target == localization_partial_sum(g, v, k, k)
                assert target == localization_partial_sum(g, v, k + 2, k)


def test_localization_maps_share_one_inversion_of_g(elliptic, monkeypatch):
    # g keeps its inverse, so the defect and the remainder invert it once
    calls = []
    real = RingElem._invert
    monkeypatch.setattr(RingElem, "_invert",
                        lambda self: calls.append(self) or real(self))
    g = elliptic.elem(elliptic.denominator)
    v = VectorField.coordinate(elliptic, 0)
    defect = localization_defect(g, v, 1, 2)[1]
    assert defect == localization_remainder(g, v, 1, 2)
    assert len(calls) == 1 and calls[0] is g


@pytest.mark.parametrize("name", ["affine2", "elliptic", "loc_x", "triple"])
def test_localization_remainder_is_exactly_the_power_form(name, monkeypatch):
    # the running products give the numerator dict, content denominator and
    # s of the ginv ** s / g ** (s - 1) form, and take no power
    chart = (standard_atlas("p1").charts["triple"] if name == "triple"
             else standard_chart(name))
    smp = make_sampler("jf-remainder-exact", name)
    gs = (chart.elem(chart.denominator) * Fraction(-3, 2), chart.inv_denominator() * 2)
    vs = [smp.vfield(chart) for _ in range(2)]
    cases = [(g, v, m, k) for g, v in zip(gs, vs) for k in range(5) for m in range(k + 1)]
    want = [ref_localization_remainder(*case) for case in cases]
    pows = []
    real = RingElem.__pow__
    monkeypatch.setattr(RingElem, "__pow__", lambda self, e: pows.append(e) or real(self, e))
    got = [[exact(c) for c in localization_remainder(*case).comps] for case in cases]
    assert got == want
    assert pows == []


def test_localization_argument_checks(loc_x):
    # the remainder refuses m < 0 as the partial sum does
    d = VectorField.coordinate(loc_x, 0)
    for fn in (localization_partial_sum, localization_remainder):
        for m in (-1, -2):
            with pytest.raises(ValueError):
                fn(loc_x.param(0), d, m, 2)

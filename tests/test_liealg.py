import itertools
from fractions import Fraction

import pytest

from jetalg import jets
from jetalg.jetfields import jf_from_pair
from jetalg.jets import Jet, delta
from jetalg.liealg import (
    CurrentElem, LElem, SemiDirectElem, basis_elements, basis_key, phi, psi,
)
from jetalg.vfields import VectorField

from conftest import make_sampler


def L(nvars, r, *terms):
    return LElem(nvars, r, {(m, i): Fraction(c) for m, i, c in terms})


def test_basis_enumeration():
    # one variable, order 3: X, X^2, X^3 on d/dX
    assert [m for m, _ in basis_elements(1, 3)] == [(1,), (2,), (3,)]
    # two variables, order 1: the four gl_2 elements
    assert len(basis_elements(2, 1)) == 4


@pytest.mark.parametrize("nvars,r", [(1, 4), (2, 3), (3, 3)])
def test_basis_elements_come_in_basis_key_order(nvars, r):
    box = itertools.product(range(r + 1), repeat=nvars)
    want = [(m, i) for m in box if 1 <= sum(m) <= r for i in range(nvars)]
    assert basis_elements(nvars, r) == sorted(want, key=basis_key)


def test_witt_relation():
    e = L(1, 3, ((1,), 0, 1))
    f = L(1, 3, ((2,), 0, 1))
    assert e.bracket(f) == f
    assert f.bracket(f).is_zero()


def test_gl_relation():
    a = L(2, 2, ((1, 0), 1, 1))   # X1 d/dX2
    b = L(2, 2, ((0, 1), 0, 1))   # X2 d/dX1
    expected = L(2, 2, ((1, 0), 0, 1), ((0, 1), 1, -1))
    assert a.bracket(b) == expected


def test_truncation_discards_high_degree():
    # [X^2 d/dX, X^3 d/dX] = X^4 d/dX has degree 3, gone at r = 3
    a = L(1, 3, ((2,), 0, 1))
    b = L(1, 3, ((3,), 0, 1))
    assert a.bracket(b).is_zero()
    a4 = L(1, 4, ((2,), 0, 1))
    b4 = L(1, 4, ((3,), 0, 1))
    assert a4.bracket(b4) == L(1, 4, ((4,), 0, 1))


def test_grading():
    smp = make_sampler("liealg-grading")
    r = 4
    for _ in range(6):
        a = smp.lelem(1, r)
        b = smp.lelem(1, r)
        for da in range(r):
            for db in range(r):
                br = a.degree_slice(da).bracket(b.degree_slice(db))
                assert br == br.degree_slice(da + db)


def test_current_bracket_is_pointwise(loc_x):
    x = loc_x.param(0)
    r = 2
    c1 = CurrentElem(loc_x, r, {((1,), 0): loc_x.one()})
    c2 = CurrentElem(loc_x, r, {((2,), 0): x})
    # [1 (x) X d/dX, x (x) X^2 d/dX] = x (x) X^2 d/dX
    assert c1.bracket(c2) == c2


def test_semidirect_bracket_examples(loc_x):
    x = loc_x.param(0)
    r = 2
    d = VectorField.coordinate(loc_x, 0)
    zero_c = CurrentElem.zero(loc_x, r)
    p = SemiDirectElem(d, zero_c)
    q = SemiDirectElem(
        VectorField.zero(loc_x), CurrentElem(loc_x, r, {((1,), 0): x}))
    out = p.bracket(q)
    assert out.v.is_zero()
    assert out.c == CurrentElem(loc_x, r, {((1,), 0): loc_x.one()})

    c1 = SemiDirectElem(
        VectorField.zero(loc_x), CurrentElem(loc_x, r, {((1,), 0): loc_x.one()}))
    c2 = SemiDirectElem(
        VectorField.zero(loc_x), CurrentElem(loc_x, r, {((2,), 0): loc_x.one()}))
    assert c1.bracket(c2) == c2

    v = VectorField(loc_x, [x])
    pv = SemiDirectElem(d, zero_c)
    qv = SemiDirectElem(v, zero_c)
    assert pv.bracket(qv) == SemiDirectElem(d, zero_c)


def test_phi_splits_off_the_anchor(loc_x):
    x = loc_x.param(0)
    k = 2
    u = jf_from_pair(loc_x.one(), VectorField(loc_x, [x ** 2]), k)
    p = phi(u)
    assert p.v == VectorField(loc_x, [x ** 2])
    assert p.c == CurrentElem(loc_x, k, {((1,), 0): 2 * x, ((2,), 0): loc_x.one()})

    d = VectorField.coordinate(loc_x, 0)
    p0 = phi(jf_from_pair(loc_x.one(), d, k))
    assert p0.v == d and p0.c.is_zero()

    high = jf_from_pair(loc_x.one(), d, k).scale_jet(delta(x, k))
    assert phi(high).v.is_zero()


def test_psi_examples(loc_x):
    x = loc_x.param(0)
    k = 2
    d = VectorField.coordinate(loc_x, 0)
    v = VectorField(loc_x, [x])
    u = psi(SemiDirectElem(v, CurrentElem.zero(loc_x, k)), k)
    assert u == jf_from_pair(x, d, k)

    g = x ** 2
    q = SemiDirectElem(
        VectorField.zero(loc_x), CurrentElem(loc_x, k, {((1,), 0): g}))
    w = psi(q, k)
    assert w.comps[0].coeff((1,)) == g
    assert w.comps[0].coeff((0,)).is_zero()

    assert psi(SemiDirectElem(VectorField.zero(loc_x),
                              CurrentElem.zero(loc_x, k)), k).is_zero()


def test_roundtrips_sampled(all_charts):
    for chart in all_charts:
        smp = make_sampler("liealg-roundtrip", chart.name)
        for k in (1, 2, 3):
            for _ in range(4):
                u = smp.jetfield(chart, k)
                assert psi(phi(u), k) == u
                p = smp.semidirect(chart, k)
                assert phi(psi(p, k)) == p


def test_phi_preserves_brackets(all_charts):
    for chart in all_charts:
        smp = make_sampler("liealg-hom", chart.name)
        for k in (1, 2):
            for _ in range(4):
                u = smp.jetfield(chart, k)
                w = smp.jetfield(chart, k)
                assert phi(u.bracket(w)) == phi(u).bracket(phi(w))


def test_maps_are_left_linear(loc_x):
    smp = make_sampler("liealg-linear")
    k = 2
    for _ in range(6):
        a = smp.elem(loc_x)
        u = smp.jetfield(loc_x, k)
        p = phi(u)
        scaled = phi(u.scale(a))
        # scaling the jet field scales the anchor and the current part
        assert scaled.v == p.v.scale(a)
        assert scaled.c == p.c.scale(a)
        q = smp.semidirect(loc_x, k)
        assert psi(SemiDirectElem(q.v.scale(a), q.c.scale(a)), k) == psi(q, k).scale(a)


def test_polynomial_inputs_lose_nothing_at_high_order(affine2):
    """With polynomial coefficients of degree <= 3 and order 6, every
    derivative the decomposition needs is stored exactly, so both
    roundtrips close without truncation effects."""
    smp = make_sampler("liealg-affine")
    k = 6
    for _ in range(4):
        u = smp.jetfield(affine2, k, max_deg=3, max_s=0)
        assert psi(phi(u), k) == u
        w = smp.jetfield(affine2, k, max_deg=3, max_s=0)
        assert phi(u.bracket(w)) == phi(u).bracket(phi(w))


def test_psi_builds_one_table_of_delta_powers(affine2, monkeypatch):
    """psi of all 18 basis terms of order 3 on affine2 makes one delta per
    parameter and one jet product per entry of the table above the unit."""
    k = 3
    terms = [(b, affine2.param(b[1])) for b in basis_elements(2, k)]
    p = SemiDirectElem(VectorField.zero(affine2), CurrentElem(affine2, k, terms))
    calls = []
    mul = Jet.__mul__
    monkeypatch.setattr(jets, "delta", lambda f, n: calls.append("delta") or delta(f, n))
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    u = psi(p, k)
    assert (calls.count("delta"), calls.count("mul")) == (2, 9)
    assert phi(u) == p

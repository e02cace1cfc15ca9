"""Independent oracle for the derivation and jets: sympy.

Ring elements are turned into sympy expressions num / g^s and differentiated
there, by implicit differentiation on the curve chart and by plain
``sympy.diff`` on the affine plane; jets on the localized line are compared
with ``sympy.series``.  Runs only where sympy is installed.
"""

import pytest

from jetalg.jets import jet_of

from conftest import make_sampler

sympy = pytest.importorskip("sympy")


def to_sympy(e, symbols):
    """num / g^s of the RingElem e as a sympy expression."""
    def poly(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*(v ** k for v, k in zip(symbols, m)))
             for m, c in p.terms.items()),
            sympy.Integer(0),
        )
    return poly(e.num) / poly(e.chart.denominator) ** e.s


def test_derive_matches_implicit_differentiation_on_elliptic(elliptic):
    x, y = syms = sympy.symbols("x y")
    relation = y ** 2 - (x ** 3 - x + 1)
    dydx = (3 * x ** 2 - 1) / (2 * y)
    smp = make_sampler("sympy-implicit")
    elems = [elliptic.gen(0), elliptic.gen(0).invert()]
    elems += [smp.elem(elliptic, max_deg=3, terms=3, max_s=3) for _ in range(10)]
    for e in elems:
        f = to_sympy(e, syms)
        want = sympy.diff(f, x) + sympy.diff(f, y) * dydx
        num = sympy.numer(sympy.together(to_sympy(e.derive(0), syms) - want))
        assert sympy.expand(sympy.rem(sympy.expand(num), relation, y)) == 0, str(e)


def test_derive_matches_diff_on_affine2(affine2):
    syms = sympy.symbols("x1 x2")
    smp = make_sampler("sympy-affine")
    for _ in range(10):
        e = smp.elem(affine2, max_deg=4, terms=4)
        f = to_sympy(e, syms)
        for i, v in enumerate(syms):
            assert sympy.expand(to_sympy(e.derive(i), syms) - sympy.diff(f, v)) == 0


def test_jet_of_inverse_matches_series_on_loc_x(loc_x):
    x, t = sympy.symbols("x t")
    jet = jet_of(loc_x.param(0).invert(), 6)
    series = sympy.series(1 / (x + t), t, 0, 7).removeO()
    for k in range(7):
        got = to_sympy(jet.coeff((k,)), (x,))
        assert sympy.simplify(got - series.coeff(t, k)) == 0

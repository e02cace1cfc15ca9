"""Independent oracle for the derivation and jets: sympy.

Ring elements are turned into sympy expressions num / g^s and differentiated
there, by implicit differentiation on the curve chart and by plain
``sympy.diff`` on the affine plane; jets on the localized line are compared
with ``sympy.series``.  On charts without generators, ``invert`` is checked
against the unit criterion of Q[x]_g, with the factors of g from
``sympy.factor_list``.  Runs only where sympy is installed.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from jetalg.charts import NotInvertible, RingElem
from jetalg.jets import jet_of
from jetalg.multipoly import Poly

from conftest import make_sampler

sympy = pytest.importorskip("sympy")


def poly_to_sympy(p, symbols):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(v ** k for v, k in zip(symbols, m)))
         for m, c in p.terms.items()),
        sympy.Integer(0),
    )


def to_sympy(e, symbols):
    """num / g^s of the RingElem e as a sympy expression."""
    den = poly_to_sympy(e.chart.denominator, symbols)
    return poly_to_sympy(e.num, symbols) / den ** e.s


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


@pytest.mark.parametrize("invert", [False, True], ids=["y", "1/y"])
def test_jet_of_generator_matches_series_on_elliptic(elliptic, invert):
    """j(y) and j(1/y) against the series of sqrt(q(x + t)) and its
    reciprocal, q = x^3 - x + 1, with y = sqrt(q(x)) put into the jet."""
    x, y, t = sympy.symbols("x y t")
    root = sympy.sqrt((x + t) ** 3 - (x + t) + 1)
    series = sympy.series(1 / root if invert else root, t, 0, 7).removeO()
    gen = elliptic.gen(0)
    jet = jet_of(gen.invert() if invert else gen, 6)
    for k in range(7):
        got = to_sympy(jet.coeff((k,)), (x, y)).subs(y, sympy.sqrt(x ** 3 - x + 1))
        assert sympy.simplify(got - series.coeff(t, k)) == 0


# -- invert against the units of Q[x]_g on charts without generators: a != 0
# is a unit iff every irreducible factor of its numerator divides g

_coefs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["loc_x", "std_inf", "triple", "affine2"]), c=_coefs,
       exps=st.lists(st.integers(0, 3), min_size=2, max_size=2), s=st.integers(0, 2),
       h=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _coefs,
                         min_size=1, max_size=3))
def test_invert_finds_exactly_the_units(loc_x, affine2, p1, name, c, exps, s, h):
    """a = c * prod f_i^e_i over the factors f_i of g inverts, with
    a * a^-1 == 1; a * h with h nonconstant and coprime to g does not.  On
    affine2 (g = 1) this leaves only the nonzero constants."""
    chart = {"loc_x": loc_x, "affine2": affine2, **p1.charts}[name]
    assert not chart.gens
    syms = sympy.symbols(chart.params)
    n = len(syms)
    factors = [Poly(chart.allvars, {m: Fraction(int(q.p), int(q.q))
                                    for m, q in sympy.Poly(f, *syms).terms()})
               for f, _ in sympy.factor_list(poly_to_sympy(chart.denominator, syms))[1]]
    assert len(factors) == {"triple": 2, "affine2": 0}.get(name, 1)
    num = Poly.const(chart.allvars, c)
    for f, e in zip(factors, exps):
        num = num * f ** e
    a = RingElem(chart, num, s)
    assert a * a.invert() == chart.one()
    h = Poly(chart.allvars, {m[:n]: q for m, q in h.items()})
    assume(h.degree() >= 1)
    assume(sympy.gcd(poly_to_sympy(h, syms),
                     poly_to_sympy(chart.denominator, syms)).is_number)
    with pytest.raises(NotInvertible):
        RingElem(chart, num * h, s).invert()

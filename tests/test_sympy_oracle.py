"""Independent oracle for the derivation and jets: sympy.

Ring elements are turned into sympy expressions num / prod f_k^s_k over the
factors f_k of g and differentiated there, by implicit differentiation on
the curve chart and by plain ``sympy.diff`` on the affine plane; jets on the
localized line are compared with ``sympy.series``.  On charts without
generators, ``invert`` is checked against the unit criterion of Q[x]_g, with
the factors of g from ``sympy.factor_list``, and on the curve chart against
its units c * y^k.  On ``p1``'s ``triple``
overlap, whose g = x(x - 1) is stored as two factors, ring arithmetic,
``derive``, equality, ``invert`` and the file form are checked against
sympy's rational functions.  Rational functions are compared by exact
cross-multiplication (``equal``).  Runs only where sympy is installed.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from jetalg.charts import NotInvertible, RingElem
from jetalg.fileio import value_from_data, value_to_data
from jetalg.jets import jet_of
from jetalg.multipoly import Poly
from jetalg.parser import parse_expression

from conftest import make_sampler

sympy = pytest.importorskip("sympy")


def equal(a, b):
    """a == b as rational functions, decided exactly by cross-multiplying:
    p/q == r/t iff p*t - q*r expands to 0 (faster than ``sympy.cancel``)."""
    p, q = sympy.fraction(sympy.together(a))
    r, t = sympy.fraction(sympy.together(b))
    return sympy.expand(p * t - q * r) == 0


def test_equal_refuses_answers_off_by_one_term():
    """Each comparison made by ``equal``, the right answer and the right
    answer plus one term: a series coefficient on loc_x, one with the root
    sqrt(q) on elliptic, and a quotient over x^i (x - 1)^j on triple."""
    x = sympy.Symbol("x")
    root = sympy.sqrt(x ** 3 - x + 1)
    for k in range(7):
        coeff = sympy.Integer(-1) ** k / x ** (k + 1)  # of 1/(x + t)
        assert equal(coeff * x ** 2 / x ** 2, coeff)
        assert not equal(coeff, coeff + x ** k) and not equal(coeff + 1, coeff)
    d1 = (3 * x ** 2 - 1) / (2 * root)  # the t-coefficient of sqrt(q(x + t))
    assert equal((3 * x ** 2 - 1) * root / (2 * root ** 2), d1)
    assert not equal(d1 + x, d1) and not equal(d1, d1 + root)
    for a, b, i, j in [(0, 0, 1, 0), (2, 1, 3, 3), (0, 3, 0, 2)]:
        q = sympy.Rational(3, 2) * x ** a * (x - 1) ** b / (x ** i * (x - 1) ** j)
        assert equal(sympy.expand(q * x * (x - 1)) / (x * (x - 1)), q)
        assert not equal(q + x ** a, q) and not equal(q, q - q / (x - 1))


def poly_to_sympy(p, symbols):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(v ** k for v, k in zip(symbols, m)))
         for m, c in p.terms.items()),
        sympy.Integer(0),
    )


def to_sympy(e, symbols):
    """num / prod f_k^s_k of the RingElem e as a sympy expression."""
    den = sympy.Integer(1)
    for f, n in zip(e.chart.factors, e.chart.exponents(e.s)):
        den *= poly_to_sympy(f, symbols) ** n
    return poly_to_sympy(e.num, symbols) / den


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
        assert equal(got, series.coeff(t, k))


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
        assert equal(got, series.coeff(t, k))


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


# -- invert on elliptic: g = y and y^2 = q = x^3 - x + 1, irreducible over Q.
# The units are c * y^k: a unit's norm divides a power of N(y) = -q, and
# N(h * y^k) = h^2 (-q)^k, so h * y^k with h in Q[x] nonconstant and coprime
# to q is no unit (every zero of h has y != 0).

@pytest.mark.parametrize("k", range(-3, 4))
@pytest.mark.parametrize("c", [1, -2, Fraction(3, 5)])
def test_invert_finds_the_units_on_elliptic(elliptic, c, k):
    y = elliptic.gen(0)
    a = (y if k >= 0 else y.invert()) ** abs(k) * c
    assert a * a.invert() == elliptic.one()


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("h", ["x - 2", "x", "x^2 + 1", "x + y"])
def test_invert_refuses_non_units_on_elliptic(elliptic, h, k):
    with pytest.raises(NotInvertible):
        (parse_expression(h, elliptic) * elliptic.gen(0) ** k).invert()


@settings(deadline=None, max_examples=40)
@given(h=st.dictionaries(st.integers(0, 3), _coefs, min_size=1, max_size=3),
       k=st.integers(0, 2), s=st.integers(0, 2))
def test_invert_refuses_coprime_polynomials_on_elliptic(elliptic, h, k, s):
    x = sympy.Symbol("x")
    hp = Poly(elliptic.allvars, {(e, k): c for e, c in h.items()})
    assume(hp.degree() > k)
    assume(sympy.gcd(poly_to_sympy(hp, (x, 1)), x ** 3 - x + 1).is_number)
    with pytest.raises(NotInvertible):
        RingElem(elliptic, hp, s).invert()


# -- factored denominators on p1's triple overlap (g = x(x - 1), two factors)

_exps = st.integers(0, 3)
_quotients = st.tuples(_coefs, _exps, _exps, _exps, _exps)  # c, a, b, i, j


def _quotient(chart, c, a, b, i, j):
    """c x^a (x - 1)^b / (x^i (x - 1)^j) as a RingElem, the denominator built
    from the inverses of x and x - 1, and as a sympy expression."""
    x = chart.param(0)
    elem = (x ** a * (x - 1) ** b * c * x.invert() ** i * (x - 1).invert() ** j)
    sx = sympy.Symbol("x")
    return elem, sympy.Rational(c.numerator, c.denominator) * sx ** (a - i) * (sx - 1) ** (b - j)


def _same(u, want):
    return equal(to_sympy(u, (sympy.Symbol("x"),)), want)


@settings(deadline=None, max_examples=25)
@given(left=st.lists(_quotients, min_size=1, max_size=3),
       right=st.lists(_quotients, min_size=1, max_size=3))
def test_factored_arithmetic_matches_sympy_on_triple(p1, left, right):
    chart = p1.charts["triple"]
    assert [str(f) for f in chart.factors] == ["x", "x - 1"]
    sx = sympy.Symbol("x")
    u, U = chart.zero(), sympy.Integer(0)
    for q in left:
        e, E = _quotient(chart, *q)
        assert _same(e, E)
        u, U = u + e, U + E
    v, V = chart.zero(), sympy.Integer(0)
    for q in right:
        e, E = _quotient(chart, *q)
        v, V = v + e, V + E
    assert _same(u + v, U + V) and _same(u - v, U - V) and _same(u * v, U * V)
    assert _same(u.derive(0), sympy.diff(U, sx))
    assert (u == v) == equal(U, V)
    # the same element over a larger denominator is equal, a changed one not
    x = chart.param(0)
    lifted = u * x * (x - 1) ** 2 * x.invert() * (x - 1).invert() ** 2
    assert lifted == u and u == lifted and lifted + 1 != u


@settings(deadline=None, max_examples=60)
@given(q=_quotients)
def test_factored_inverse_and_file_form_on_triple(p1, q):
    chart = p1.charts["triple"]
    c, a, b, i, j = q
    e, E = _quotient(chart, *q)
    inv = e.invert()
    assert _same(inv, 1 / E) and e * inv == chart.one()
    # 1 / (x^a (x - 1)^b): one numerator term, the factors in the denominator
    unit, _ = _quotient(chart, Fraction(1), a, b, 0, 0)
    assert len(unit.invert().num.nums) == 1
    assert chart.exponents(unit.invert().s) == (a, b)
    data = json.loads(json.dumps(value_to_data(e)))
    assert isinstance(data["s"], int)
    back = value_from_data(data, chart)
    assert back == e and _same(back, E)

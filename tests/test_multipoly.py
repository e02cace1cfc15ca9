import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from jetalg import multipoly
from jetalg.multipoly import (
    DEGREE_LIMIT, Poly, add_product, grlex_key, mi_add, mi_below, mi_binomial,
    mi_binomials, mi_degree, mi_fill, mi_inv_factorial, mi_le, mi_powers,
    mi_range, mi_split, mi_sub, mono_layout, mono_pack, poly_div_exact,
)
from jetalg.fileio import _poly_data, _poly_from

from polyref import (
    ref_add, ref_div_exact, ref_mul, ref_neg, ref_pow, ref_scale, ref_str,
)
from derivref import poly_partial

VARS = ("x", "y")

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monomials, fractions, max_size=4).map(
    lambda d: Poly(VARS, d))


def P(**coeffs):
    """Shorthand: P(x=1, y=2) is x + 2y; exponent tuples via double-under
    names like x2y1."""
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    table = {"x": x, "y": y}
    out = Poly.zero(VARS)
    for name, c in coeffs.items():
        out = out + table[name] * Fraction(c)
    return out


def test_product_of_conjugates():
    x = Poly.variable(("x",), "x")
    one = Poly.one(("x",))
    assert (x + one) * (x - one) == x * x - one


def test_additive_inverse():
    p = P(x=3, y=-2) + Poly.const(VARS, Fraction(1, 2))
    assert (p + (-p)).is_zero()


def test_binomial_square():
    x1 = Poly.variable(VARS, "x")
    x2 = Poly.variable(VARS, "y")
    lhs = (x1 + x2) ** 2
    assert lhs == x1 ** 2 + x1 * x2 * 2 + x2 ** 2


def test_multiindex_helpers():
    assert mi_inv_factorial((2, 1)) == Fraction(1, 2)
    assert mi_inv_factorial((3, 0, 2)) == Fraction(1, 12)
    # built once per multi-index: a repeat returns the cached object
    assert mi_inv_factorial((2, 1)) is mi_inv_factorial((2, 1))
    assert mi_binomial((2, 1), (1, 0)) == 2
    assert mi_binomial((2, 1), (2, 1)) == 1
    assert mi_degree((2, 1)) == 3
    assert mi_add((1, 0), (0, 2)) == (1, 2)
    assert mi_sub((2, 2), (1, 0)) == (1, 2)
    assert mi_le((1, 1), (2, 1)) and not mi_le((2, 0), (1, 1))
    below = list(mi_below((2, 1)))
    assert len(below) == 6 and (0, 0) in below and (2, 1) in below
    ms = list(mi_range(2, 2))
    assert len(ms) == 6
    assert ms == sorted(ms, key=grlex_key)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mi_range_is_the_grlex_sorted_box(n):
    for k in range(7):
        box = itertools.product(range(k + 1), repeat=n)
        assert mi_range(n, k) == sorted((m for m in box if sum(m) <= k), key=grlex_key)


def test_mi_range_enumerates_each_multi_index_once():
    # 43,758 multi-indices; filtering the (k+1)^n box would visit 11^8 of them
    start = time.perf_counter()
    assert len(mi_range(8, 10)) == math.comb(18, 8)
    assert time.perf_counter() - start < 2


def test_mi_range_returns_a_fresh_list():
    got = mi_range(2, 2)
    got[0] = None
    got.append((9, 9))
    assert mi_range(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def _loop_fill(first, n, k, step):
    """Reference: the fill loop over mi_range and mi_split, written out."""
    ms = mi_range(n, k)
    out = {ms[0]: first}
    for m in ms[1:]:
        i, prev = mi_split(m)
        out[m] = step(out[prev], i)
    return out


@pytest.mark.parametrize("n,k", [(1, 4), (2, 3), (3, 3), (4, 2)])
def test_mi_fill_is_the_explicit_loop(n, k):
    # the step records its path: entry m lists the directions by which it
    # was reached, m[i] times each, the last direction first
    def step(path, i):
        return path + (i,)

    got = mi_fill((), n, k, step)
    assert list(got) == mi_range(n, k)
    assert list(got.items()) == list(_loop_fill((), n, k, step).items())
    assert got == {m: tuple(i for i in reversed(range(n)) for _ in range(m[i]))
                   for m in mi_range(n, k)}


@pytest.mark.parametrize("m", [(0,), (3,), (2, 1), (0, 2), (1, 0, 2)])
def test_mi_below_is_the_graded_range_under_m(m):
    assert mi_below(m) == [
        k for k in mi_range(len(m), mi_degree(m)) if mi_le(k, m)
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mi_binomials_is_the_binomial_row_of_mi_below(n):
    for m in mi_range(n, 5):
        assert list(mi_binomials(m)) == [(k, mi_binomial(m, k)) for k in mi_below(m)]


@pytest.mark.parametrize("k", range(5))
def test_mi_powers_is_the_table_of_monomial_products(k):
    table = mi_powers(1, [2, 3, 5], k)
    assert list(table) == mi_range(3, k)
    assert table == {m: 2 ** m[0] * 3 ** m[1] * 5 ** m[2] for m in mi_range(3, k)}


def test_mi_powers_at_degree_zero_holds_only_the_unit():
    one = Poly.one(VARS)
    assert mi_powers(one, [P(x=1), P(y=1)], 0) == {(0, 0): one}


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(deadline=None, max_examples=60)
@given(polys)
def test_neutral_elements(p):
    assert p + Poly.zero(VARS) == p
    assert p * Poly.one(VARS) == p
    assert (p * Poly.zero(VARS)).is_zero()


@settings(deadline=None, max_examples=60)
@given(polys, polys)
def test_partial_leibniz(p, q):
    for i in range(2):
        assert (poly_partial(p * q, i)
                == poly_partial(p, i) * q + p * poly_partial(q, i))


@settings(deadline=None, max_examples=60)
@given(polys)
def test_partials_commute(p):
    assert (poly_partial(poly_partial(p, 0), 1)
            == poly_partial(poly_partial(p, 1), 0))


@settings(deadline=None, max_examples=60)
@given(polys, polys)
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_div_exact(p, q)
    else:
        assert poly_div_exact(p * q, q) == p


def test_exact_division_failure():
    x = Poly.variable(("x",), "x")
    one = Poly.one(("x",))
    assert poly_div_exact(x + one, x) is None


@settings(deadline=None, max_examples=40)
@given(polys, st.integers(0, 4))
def test_power_is_repeated_product(p, e):
    expected = Poly.one(VARS)
    for _ in range(e):
        expected = expected * p
    assert p ** e == expected


def test_variable_extension():
    x = Poly.variable(("x",), "x")
    ext = (x ** 2 + x).extended(("x", "y"))
    y = Poly.variable(("x", "y"), "y")
    assert ext * y == Poly.variable(("x", "y"), "x") ** 2 * y + Poly.variable(("x", "y"), "x") * y


def test_polys_are_immutable_and_hashable():
    p = P(x=1)
    q = P(x=1)
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


# -- differential tests: integer-numerator kernel vs a Fraction-dict reference

ref_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
ref_dicts = st.dictionaries(monomials, ref_fractions, max_size=6).map(
    lambda d: {m: c for m, c in d.items() if c})


def canonical(p):
    """Assert the canonical-form invariant and return the Fraction view."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    return dict(p.terms)


@settings(deadline=None, max_examples=80)
@given(ref_dicts, ref_dicts)
def test_kernel_matches_reference_add_sub_neg_mul(a, b):
    p, q = Poly(VARS, a), Poly(VARS, b)
    assert canonical(p) == a
    assert canonical(p + q) == ref_add(a, b)
    assert canonical(p - q) == ref_add(a, b, -1)
    assert canonical(-p) == ref_neg(a)
    assert canonical(p * q) == ref_mul(a, b)


@settings(deadline=None, max_examples=80)
@given(ref_dicts, st.one_of(ref_fractions, st.integers(-5, 5)))
def test_kernel_matches_reference_scalar_mul(a, c):
    p = Poly(VARS, a)
    assert canonical(p * c) == ref_scale(a, c)
    assert canonical(c * p) == ref_scale(a, c)


@settings(deadline=None, max_examples=80)
@given(ref_dicts, st.integers(1, 720))
def test_scaling_by_one_over_d_matches_reference_and_keeps_the_operand(a, d):
    # p * (1/d) may share p's numerator dict, so p must read as before
    p = Poly(VARS, a)
    nums, den = dict(p.nums), p.den
    assert canonical(p * Fraction(1, d)) == ref_scale(a, Fraction(1, d))
    assert (p.nums, p.den) == (nums, den)
    assert canonical(p) == a


@settings(deadline=None, max_examples=60)
@given(ref_dicts, st.integers(0, 4))
def test_kernel_matches_reference_pow(a, e):
    p = Poly(VARS, a)
    assert canonical(p ** e) == ref_pow(a, e, len(VARS))


@settings(deadline=None, max_examples=80)
@given(ref_dicts, ref_dicts, ref_dicts)
def test_kernel_matches_reference_div_exact(a, b, r):
    if not b:
        return
    p, q = Poly(VARS, a), Poly(VARS, b)
    got = poly_div_exact(p * q, q)
    assert canonical(got) == ref_div_exact(ref_mul(a, b), b) == a
    # a dividend with a remainder: both must agree that it does not divide,
    # or on the quotient when it happens to divide after all
    dividend = ref_add(ref_mul(a, b), r)
    got = poly_div_exact(Poly(VARS, dividend), q)
    want = ref_div_exact(dividend, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert canonical(got) == want


int_dicts = st.dictionaries(monomials, st.integers(-30, 30).filter(bool), max_size=6)


def _packed(d):
    return {mono_pack(m, len(VARS)): c for m, c in d.items()}


@settings(deadline=None, max_examples=80)
@given(int_dicts, int_dicts.filter(bool), int_dicts.filter(bool),
       st.integers(-7, 7).filter(bool), st.booleans())
def test_add_product_matches_reference(prior, a, b, f, cancel):
    # out already holds terms, as in reduce; with cancel it also holds
    # -f * a * b, so every product sum cancels to the prior terms
    product = ref_scale(ref_mul(a, b), f)
    if cancel:
        prior = {m: int(c) for m, c in ref_add(prior, product, -1).items()}
    out = _packed(prior)
    add_product(out, _packed(a), _packed(b), f, mono_layout(len(VARS))[1])
    assert {m: c for m, c in out.items() if c} == _packed(ref_add(prior, product))
    # a sum that cancels stays in out as 0: every key is kept
    keys = set(prior) | {mi_add(m1, m2) for m1 in a for m2 in b}
    assert set(out) == set(_packed(dict.fromkeys(keys)))
    assert all(isinstance(c, int) for c in out.values())


def test_add_product_refuses_the_degree_bound_before_any_work():
    top = mono_layout(len(VARS))[1]
    prior = _packed({(1, 1): 5})
    a = _packed({(0, 0): 1, (DEGREE_LIMIT - 1, 0): 2})
    b = _packed({(0, 0): 3, (0, 1): 1})
    out = dict(prior)
    with pytest.raises(ValueError, match="total degree 32768 exceeds the bound 32767"):
        add_product(out, a, b, 2, top)
    assert out == prior
    add_product(out, a, {0: 3}, 2, top)
    assert out == _packed({(1, 1): 5, (0, 0): 6, (DEGREE_LIMIT - 1, 0): 12})


@settings(deadline=None, max_examples=60)
@given(ref_dicts)
def test_str_and_fileio_roundtrip_match_reference(a):
    p = Poly(VARS, a)
    assert str(p) == ref_str(a, VARS)
    data = _poly_data(p)
    assert data == [[list(m), str(c)]
                    for m, c in sorted(a.items(), key=lambda t: grlex_key(t[0]))]
    back = _poly_from(json.loads(json.dumps(data)), VARS)
    assert back == p and str(back) == str(p)
    assert hash(back) == hash(p)


def test_public_constructor_checks_and_terms_view():
    with pytest.raises(ValueError):
        Poly(("x", "x"), {})
    with pytest.raises(ValueError):
        Poly(VARS, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(VARS, {(1, -1): 1})
    with pytest.raises(TypeError):
        Poly(VARS, {(1, 0): 0.5})
    p = Poly(VARS, [((1, 0), Fraction(1, 6)), ((0, 1), Fraction(1, 4)),
                    ((1, 0), Fraction(-1, 6))])
    assert p.terms == {(0, 1): Fraction(1, 4)} and len(p.nums) == 1 and p.den == 4
    assert p.terms == {(0, 1): Fraction(1, 4)}
    with pytest.raises(TypeError):
        p.terms[(0, 1)] = Fraction(1)
    with pytest.raises(AttributeError):
        p.den = 1
    assert Poly(VARS, p.terms) == p


# -- packed monomials: the degree bound and the edges that pack and unpack

VARS3 = ("x", "y", "z")


def test_public_constructor_enforces_the_degree_bound():
    with pytest.raises(ValueError):
        Poly(("x",), {(DEGREE_LIMIT,): 1})
    with pytest.raises(ValueError):
        Poly(VARS3, {(DEGREE_LIMIT // 2, 0, DEGREE_LIMIT // 2): 1})
    top = Poly(VARS3, {(DEGREE_LIMIT - 4, 1, 2): 1})
    assert top.degree() == DEGREE_LIMIT - 1
    assert top.terms == {(DEGREE_LIMIT - 4, 1, 2): 1}


def test_products_beyond_the_degree_bound_raise():
    x = Poly.variable(VARS, "x")
    with pytest.raises(ValueError):
        x ** DEGREE_LIMIT
    half = Poly(VARS, {(DEGREE_LIMIT // 2, 0): 1, (0, 1): 2})
    other = Poly(VARS, {(0, DEGREE_LIMIT // 2): 3})
    assert half.degree() == other.degree() == 2 ** 14
    with pytest.raises(ValueError):
        half * other
    assert (x ** (DEGREE_LIMIT - 1)).degree() == DEGREE_LIMIT - 1


BUDGET = f"work budget of {multipoly.WORK_BUDGET} units exceeded"


def test_the_meter_charges_before_the_work():
    # PAIR_UNITS per pair of terms plus the product of the limb counts: one
    # per term plus one per 64 bits of the numerators
    a, b = {1: 3, 2: 2 ** 64}, {4: 5}
    out = {}

    def product():
        left = multipoly._left
        add_product(out, a, b, 1, 32)
        return left - multipoly._left

    assert multipoly.metered(product) == multipoly.PAIR_UNITS * 2 + 3 * 1
    assert multipoly._left is None and out == {5: 15, 6: 5 * 2 ** 64}
    add_product(out, a, b, 1, 32)  # outside a metered call: no charge
    assert multipoly._left is None
    # a nested call shares the running budget; a refusal ends it
    charge = multipoly.charge

    def nested():
        charge(multipoly.WORK_BUDGET - 10)
        return multipoly.metered(lambda: multipoly._left)

    assert multipoly.metered(nested) == 10
    with pytest.raises(ValueError, match=BUDGET):
        multipoly.metered(charge, multipoly.WORK_BUDGET + 1)
    assert multipoly._left is None


def test_constant_powers_beyond_the_bit_bound_raise():
    # each squaring is charged before it runs, so a constant whose numerator
    # or denominator would pass the budget is never built; 0 and +-1 stay small
    with pytest.raises(ValueError, match=BUDGET):
        Poly.const(VARS, 3) ** (10 ** 9)
    with pytest.raises(ValueError, match=BUDGET):
        Poly.const(VARS, Fraction(1, 7)) ** (10 ** 9)
    # the content gcd of coprime numerator and denominator is charged too:
    # unmetered, it made this refusal take 0.7-1 s of CPU
    start = time.process_time()
    with pytest.raises(ValueError, match=BUDGET):
        Poly.const(VARS, Fraction(-5, 3)) ** (10 ** 9)
    assert time.process_time() - start < 0.25
    assert Poly.const(VARS, Fraction(-5, 3)) ** 5000 == Poly.const(VARS, Fraction(-5, 3) ** 5000)
    for c in (0, 1, -1):
        assert Poly.const(VARS, c) ** (10 ** 9 + 1) == Poly.const(VARS, c)


def test_polynomial_powers_beyond_the_bit_bound_raise():
    # the meter refuses a power of a polynomial with more than one term
    # before the squaring that would pass the budget; one term with
    # coefficient +-1 stays small
    x = Poly.variable(VARS, VARS[0])
    with pytest.raises(ValueError, match=BUDGET):
        (1048576 * x + 1) ** 800
    assert (x + 1) ** 20 == (x + 1) ** 10 * (x + 1) ** 10
    for p in (x, -x, x * x):
        assert (p ** 10000).degree() == 10000 * p.degree()


def test_div_exact_rejects_a_divisor_exceeding_any_single_field():
    for i in range(len(VARS3)):
        # the dividend has the larger total degree, but field i is too small
        low = [5, 5, 5]
        low[i] = 2
        over = [1, 1, 1]
        over[i] = 3
        for dividend in (Poly(VARS3, {tuple(low): 1}),
                         Poly(VARS3, {tuple(low): 1, (0, 0, 0): 2})):
            for divisor in (Poly(VARS3, {tuple(over): 1}),
                            Poly(VARS3, {tuple(over): 1, (1, 0, 0): -1})):
                assert poly_div_exact(dividend, divisor) is None
                assert poly_div_exact(dividend * divisor, divisor) == dividend


def test_coeff_of_malformed_multi_indices_is_zero():
    p = Poly(VARS3, {(1, 2, 3): Fraction(2, 3), (0, 0, 0): 5})
    assert p.coeff((1, 2, 3)) == Fraction(2, 3)
    assert p.coeff([0, 0, 0]) == 5
    assert p.coeff((1, 2)) == 0
    assert p.coeff((1, 2, 3, 0)) == 0
    assert p.coeff((2, 3, -1)) == 0
    assert p.coeff((-1, 0, 0)) == 0
    assert p.coeff((DEGREE_LIMIT, 0, 0)) == 0


def test_leading_degree_and_support_read_packed_keys():
    p = Poly(VARS3, {(0, 4, 0): 1, (1, 0, 3): -2, (2, 1, 1): 3, (0, 0, 1): 1})
    assert p.degree() == 4
    # graded lex: degree first, then the exponent tuple
    assert p.sorted_terms()[0] == ((2, 1, 1), Fraction(3))
    assert [m for m, _ in p.sorted_terms()] == sorted(p.terms, key=grlex_key, reverse=True)
    assert Poly(VARS3, {(0, 0, 2): 1, (3, 0, 0): 1}).support_vars() == {0, 2}
    ext = p.extended(VARS3 + ("w",))
    assert ext.terms == {m + (0,): c for m, c in p.terms.items()}


# -- differential tests over three variables with large exponents

ref_monomials3 = st.tuples(*[st.integers(0, 60)] * 3)
ref_dicts3 = st.dictionaries(ref_monomials3, ref_fractions, max_size=5).map(
    lambda d: {m: c for m, c in d.items() if c})


@settings(deadline=None, max_examples=60)
@given(ref_dicts3, ref_dicts3, st.one_of(ref_fractions, st.integers(-5, 5)))
def test_kernel_matches_reference_three_vars(a, b, c):
    p, q = Poly(VARS3, a), Poly(VARS3, b)
    assert canonical(p) == a
    assert canonical(p + q) == ref_add(a, b)
    assert canonical(p - q) == ref_add(a, b, -1)
    assert canonical(-p) == ref_neg(a)
    assert canonical(p * q) == ref_mul(a, b)
    assert canonical(p * c) == ref_scale(a, c)
    assert canonical(p ** 2) == ref_pow(a, 2, len(VARS3))
    assert p.degree() == max((sum(m) for m in a), default=-1)


@settings(deadline=None, max_examples=60)
@given(ref_dicts3, ref_dicts3, ref_dicts3)
def test_kernel_matches_reference_div_exact_three_vars(a, b, r):
    if not b:
        return
    p, q = Poly(VARS3, a), Poly(VARS3, b)
    assert canonical(poly_div_exact(p * q, q)) == a
    dividend = ref_add(ref_mul(a, b), r)
    got = poly_div_exact(Poly(VARS3, dividend), q)
    want = ref_div_exact(dividend, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert canonical(got) == want


@settings(deadline=None, max_examples=40)
@given(ref_dicts3)
def test_str_and_fileio_roundtrip_three_vars(a):
    p = Poly(VARS3, a)
    assert str(p) == ref_str(a, VARS3)
    back = _poly_from(json.loads(json.dumps(_poly_data(p))), VARS3)
    assert back == p and str(back) == str(p)


def test_power_beyond_the_degree_bound_raises_before_any_product(monkeypatch):
    # e * degree is the exact degree of a power over Q, so the bound is
    # checked up front, not at the product that crosses it
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    xy1 = x * y + 1
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    with pytest.raises(ValueError, match="total degree 100000 exceeds the bound 32767"):
        (x + 1) ** 100000
    with pytest.raises(ValueError, match="total degree 32768 exceeds"):
        xy1 ** (DEGREE_LIMIT // 2)
    assert calls == []
    monkeypatch.undo()
    assert (x * y) ** (DEGREE_LIMIT // 2 - 1) == Poly(VARS, {(16383, 16383): 1})
    assert (y ** (DEGREE_LIMIT - 1)).degree() == DEGREE_LIMIT - 1
    assert Poly.zero(VARS) ** 100000 == Poly.zero(VARS)

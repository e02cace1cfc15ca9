from fractions import Fraction

import pytest

from jetalg import envalg
from jetalg.charts import ChartMismatch, RingElem
from jetalg.envalg import (
    DiffOp, TensorElem, av_to_tensor, fun_factor, pbw_normalize, u_mul, vf_factor,
)
from jetalg.jetfields import jf_from_pair
from jetalg.liealg import phi
from jetalg.multipoly import mi_below, mi_binomials, mi_inv_factorial, mi_range, mi_zero
from jetalg.parser import parse_expression
from jetalg.vfields import VectorField

from conftest import make_sampler

E = ((1,), 0)   # X d/dX
F = ((2,), 0)   # X^2 d/dX


def test_weyl_relation(loc_x):
    x = loc_x.param(0)
    d = DiffOp(loc_x, {(1,): loc_x.one()})
    mx = DiffOp.from_function(x)
    prod = d * mx
    assert prod == DiffOp(loc_x, {(1,): x, (0,): loc_x.one()})
    d2 = d * d
    assert d2 * mx == DiffOp(loc_x, {(2,): x, (1,): 2 * loc_x.one()})


def test_composition_with_localized_coefficient(loc_x):
    inv = loc_x.inv_denominator()
    d = DiffOp(loc_x, {(1,): loc_x.one()})
    assert d * DiffOp.from_function(inv) == DiffOp(
        loc_x, {(1,): inv, (0,): -(inv ** 2)})


def test_apply(loc_x):
    x = loc_x.param(0)
    xd = DiffOp(loc_x, {(1,): x})
    assert xd.apply(x ** 2) == 2 * x ** 2
    d2 = DiffOp(loc_x, {(2,): loc_x.one()})
    assert d2.apply(x ** 3) == 6 * x
    assert DiffOp.from_function(loc_x.one()).apply(x ** 3) == x ** 3


def test_apply_refuses_a_function_on_another_chart(loc_x, elliptic, p1):
    """1 + x d/dx on loc_x applied to an element of another chart raises
    ChartMismatch up front, whether the derivatives would have run (on
    punctured_1, to a value on the wrong chart) or failed (on elliptic,
    beyond the degree bound)."""
    punctured = p1.charts["punctured_1"]
    f = parse_expression("(t^2 - t + 1)/(t - 1)", punctured)
    op = DiffOp(loc_x, {(0,): loc_x.one(), (1,): loc_x.param(0)})
    for g in (f, elliptic.gen(0) * elliptic.param(0)):
        with pytest.raises(ChartMismatch):
            op.apply(g)
    t = punctured.param(0)
    right = DiffOp(punctured, {(0,): punctured.one(), (1,): t})
    assert right.apply(f) == (2 * t ** 3 - 4 * t ** 2 + 2 * t - 1) * punctured.inv_denominator(2)


def test_apply_is_composition(loc_x, elliptic):
    for chart in (loc_x, elliptic):
        smp = make_sampler("envalg-apply", chart.name)
        for _ in range(6):
            a = DiffOp.from_vf(smp.vfield(chart))
            b = DiffOp.from_vf(smp.vfield(chart))
            f = smp.elem(chart)
            assert (a * b).apply(f) == a.apply(b.apply(f))


def test_operator_associativity(loc_x):
    smp = make_sampler("envalg-assoc")
    ops = []
    for _ in range(3):
        ops.append(DiffOp.from_vf(smp.vfield(loc_x)) * DiffOp.from_function(smp.elem(loc_x)))
    a, b, c = ops
    assert (a * b) * c == a * (b * c)


def test_straightening_examples():
    assert pbw_normalize((E,), 1, 3) == {(E,): Fraction(1)}
    assert pbw_normalize((E, E), 1, 3) == {(E, E): Fraction(1)}
    # [E, F] = F, so F E = E F - F
    assert pbw_normalize((F, E), 1, 3) == {(E, F): Fraction(1), (F,): Fraction(-1)}


def test_straightening_idempotent_and_associative():
    smp = make_sampler("envalg-pbw")
    r = 3
    for nvars in (1, 2):
        for _ in range(10):
            word = smp.basis_word(nvars, r, smp.rng.randint(2, 4))
            out = pbw_normalize(word, nvars, r)
            for w in out:
                assert list(w) == sorted(w, key=lambda b: ((sum(b[0]) - 1), b[0], b[1]))
                assert pbw_normalize(w, nvars, r) == {w: Fraction(1)}

            def mul(t1, t2):
                acc = {}
                for w1, c1 in t1.items():
                    for w2, c2 in t2.items():
                        for w, c in pbw_normalize(w1 + w2, nvars, r).items():
                            acc[w] = acc.get(w, Fraction(0)) + c1 * c2 * c
                return {w: c for w, c in acc.items() if c}

            u1 = {smp.basis_word(nvars, r, 2): Fraction(1)}
            u2 = {smp.basis_word(nvars, r, 2): Fraction(1)}
            u3 = {smp.basis_word(nvars, r, 2): Fraction(1)}
            assert mul(mul(u1, u2), u3) == mul(u1, mul(u2, u3))


def test_tensor_products(loc_x):
    x = loc_x.param(0)
    r = 2
    one = loc_x.one()
    d_tensor_1 = TensorElem(loc_x, r, {((1,), ()): one})
    x_tensor_1 = TensorElem(loc_x, r, {((0,), ()): x})
    assert d_tensor_1 * x_tensor_1 == TensorElem(
        loc_x, r, {((1,), ()): x, ((0,), ()): one})
    one_tensor_e = TensorElem(loc_x, r, {((0,), (E,)): one})
    assert one_tensor_e * d_tensor_1 == TensorElem(loc_x, r, {((1,), (E,)): one})
    s = smash = one_tensor_e * x_tensor_1
    assert fun_factor(loc_x.one(), r) * s == smash


def test_factor_maps(loc_x):
    x = loc_x.param(0)
    r = 2
    one = loc_x.one()
    d = VectorField.coordinate(loc_x, 0)
    assert vf_factor(d, r) == TensorElem(loc_x, r, {((1,), ()): one})
    xd = VectorField(loc_x, [x])
    assert vf_factor(xd, r) == TensorElem(
        loc_x, r, {((1,), ()): x, ((0,), (E,)): one})
    assert fun_factor(x, r) == TensorElem(loc_x, r, {((0,), ()): x})


def test_leibniz_relation_maps_to_zero(all_charts):
    for chart in all_charts:
        smp = make_sampler("envalg-leibniz", chart.name)
        for r in (1, 2, 3):
            for _ in range(4):
                eta = smp.vfield(chart)
                f = smp.nonzero_elem(chart)
                lhs = (av_to_tensor([("vf", eta), ("fun", f)], r)
                       - av_to_tensor([("fun", f), ("vf", eta)], r))
                assert lhs == av_to_tensor([("fun", eta.apply(f))], r)


def test_defining_relation_example(loc_x):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    r = 2
    diff = (av_to_tensor([("vf", d), ("fun", x)], r)
            - av_to_tensor([("fun", x), ("vf", d)], r))
    assert diff == fun_factor(loc_x.one(), r)


def test_av_multiplicative(all_charts):
    for chart in all_charts:
        smp = make_sampler("envalg-mult", chart.name)
        for r in (1, 2):
            for _ in range(4):
                w1 = smp.av_word(chart, 2)
                w2 = smp.av_word(chart, 1)
                assert av_to_tensor(w1 + w2, r) == av_to_tensor(w1, r) * av_to_tensor(w2, r)


def test_av_on_vector_field_commutators(loc_x):
    smp = make_sampler("envalg-commutator")
    r = 3
    for _ in range(6):
        eta, mu = smp.vfield(loc_x), smp.vfield(loc_x)
        lhs = av_to_tensor([("vf", eta.bracket(mu))], r)
        rhs = (av_to_tensor([("vf", eta), ("vf", mu)], r)
               - av_to_tensor([("vf", mu), ("vf", eta)], r))
        assert lhs == rhs


def test_av_extends_the_current_decomposition(loc_x):
    """On a single vector field, the enveloping-algebra factorization and
    the semidirect decomposition read off the same derivative data."""
    smp = make_sampler("envalg-phi")
    r = 3
    for _ in range(6):
        eta = smp.vfield(loc_x)
        t = av_to_tensor([("vf", eta)], r)
        p = phi(jf_from_pair(loc_x.one(), eta, r))
        for (m, i), c in p.c.terms.items():
            assert t.coeff((0,), ((m, i),)) == c


def test_word_validation(loc_x):
    with pytest.raises(ValueError):
        av_to_tensor([("bad", loc_x.one())], 2)


def _count_derives(monkeypatch):
    """Fresh derivations: derive memo misses, which RingElem._derive makes."""
    calls = []
    real = RingElem._derive

    def counting(self, i):
        calls.append(i)
        return real(self, i)

    monkeypatch.setattr(RingElem, "_derive", counting)
    return calls


def _fresh(t):
    """t with equal but distinct coefficients, whose derivative memos are
    empty."""
    return type(t)._new(t.chart, t.grade, {
        k: RingElem._new(c.chart, c.num, c.s) for k, c in t.terms.items()})


def _derivative_bound(left, right_keys):
    """Fresh derivations a product may make: one per (right-hand term, j)
    for every nonzero j below a left-hand multi-index."""
    js = set()
    for k in left:
        js.update(mi_below(k))
    js.discard(mi_zero(len(k)))
    return len(right_keys) * len(js)


def test_products_derive_each_right_term_once_per_multi_index(affine2, monkeypatch):
    smp = make_sampler("envalg-derive-table")
    r = 2
    left = av_to_tensor([("vf", smp.vfield(affine2)), ("vf", smp.vfield(affine2))], r)
    right = av_to_tensor([("vf", smp.vfield(affine2)), ("fun", smp.elem(affine2))], r)
    lop = DiffOp.from_vf(smp.vfield(affine2)) * DiffOp.from_vf(smp.vfield(affine2))
    rop = DiffOp.from_vf(smp.vfield(affine2)) * DiffOp.from_function(smp.elem(affine2))
    want_t = left * _fresh(right)
    want_d = lop * _fresh(rop)
    calls = _count_derives(monkeypatch)
    assert left * right == want_t
    bound = _derivative_bound([k for k, _w in left.terms], right.terms)
    assert 0 < len(calls) <= bound
    calls.clear()
    assert lop * rop == want_d
    assert 0 < len(calls) <= _derivative_bound(lop.terms, rop.terms)


def test_products_straighten_each_word_once_per_r(loc_x, monkeypatch):
    """The PBW expansion of a concatenated word is kept across products and
    keyed by (word, r): a repeated product straightens nothing, and the word
    x^2 d/dy * y^2 d/dx, whose bracket has degree 3, is straightened once at
    r = 2 and once at r = 3.  Both tables stay bounded."""
    assert envalg._expansion.cache_parameters()["maxsize"] == 4096
    assert mi_binomials.cache_parameters()["maxsize"] == 1024
    smp = make_sampler("envalg-pbw-memo")
    r = 2
    left = av_to_tensor([("vf", smp.vfield(loc_x)), ("vf", smp.vfield(loc_x))], r)
    right = av_to_tensor([("vf", smp.vfield(loc_x)), ("fun", smp.elem(loc_x))], r)
    envalg._expansion.cache_clear()
    calls = []
    real = envalg.pbw_normalize
    monkeypatch.setattr(envalg, "pbw_normalize",
                        lambda w, nvars, r: calls.append((w, r)) or real(w, nvars, r))
    first = left * right
    assert calls
    calls.clear()
    assert left * right == first and calls == []
    a, b = ((2, 0), 1), ((0, 2), 0)
    for r in (2, 3, 2, 3):
        got = u_mul({(a,): 1}, {(b,): 1}, r)
        assert got == real((a, b), 2, r) == dict(envalg._expansion((a, b), r))
    assert calls == [((a, b), 2), ((a, b), 3)]
    assert len(got) == 3


@pytest.mark.parametrize("name, r, bound", [("affine2", 3, 18), ("elliptic", 4, 4)])
def test_vf_factor_derives_each_multi_index_once(name, r, bound, request, monkeypatch):
    # one fresh derivation per (coefficient, m): affine2 has 9 multi-indices
    # with 1 <= |m| <= 3 and elliptic 4 with 1 <= |m| <= 4; deriving each d^m
    # from the coefficient itself takes 40 and 10.  Adding x_1^r keeps
    # every d^m of a drawn constant (elliptic draws 2) from vanishing.
    chart = request.getfixturevalue(name)
    smp = make_sampler("vf-factor-count", name)
    v = VectorField(chart, [smp.nonzero_elem(chart) + chart.param(0) ** r
                            for _ in range(chart.nparams)])
    calls = _count_derives(monkeypatch)
    t = vf_factor(v, r)
    assert len(calls) <= bound
    monkeypatch.undo()
    for (k, word), c in t.terms.items():
        if word:
            ((m, i),) = word
            want = v.coeffs[i].derive_multi(m) * mi_inv_factorial(m)
            assert (c.num, c.s) == (want.num, want.s)


def test_apply_derives_each_multi_index_once(affine2, monkeypatch):
    # all ten terms with |m| <= 3: one fresh derivation per nonzero m through
    # f's derivative memo (9), where deriving each d^m f from f itself takes 20
    smp = make_sampler("apply-count")
    op = DiffOp(affine2, {m: smp.nonzero_elem(affine2) for m in mi_range(2, 3)})
    f = smp.nonzero_elem(affine2, max_deg=4, terms=4)
    want = affine2.zero()
    for m, c in op.terms.items():
        # an equal, distinct element per m: no memo shared with f
        want = want + c * RingElem._new(affine2, f.num, f.s).derive_multi(m)
    calls = _count_derives(monkeypatch)
    got = op.apply(f)
    assert len(op.terms) == 10 and len(calls) <= 9
    assert got == want


def test_av_tensor_suite_catches_leibniz_without_binomials(monkeypatch, capsys):
    """The av-tensor mult check multiplies a product of three factors in two
    groupings, where binom(k, j) > 1 enters the Leibniz rule: a _leibniz that
    sets every binomial to 1 makes the suite fail."""
    from jetalg.cli import main

    def leibniz_binomial_one(a, k, b, l):
        out = []
        for j, q in mi_binomials(k):
            db = b.derive_multi(j)
            if db.num.nums:
                m = tuple(p - i + s for p, i, s in zip(k, j, l))
                out.append((m, a, db, 1))
        return out

    monkeypatch.setattr(envalg, "_leibniz", leibniz_binomial_one)
    code = main(["verify", "--suite", "av-tensor", "--samples", "1",
                 "--orders", "1,2"])
    fails = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("[FAIL]")]
    assert code == 1
    assert fails and all("/mult " in ln for ln in fails)

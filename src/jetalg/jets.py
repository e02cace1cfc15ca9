"""Truncated jets of functions on a chart.

A jet of order k stores the coefficients of a truncated Taylor expansion in
increment variables t_1..t_N (one per chart parameter): a map from
multi-indices of total degree <= k to ring elements, whose linear structure
comes from the sparse-module base sparse.SparseElem.  The jet of f is
j(f) = sum_{|m| <= k} (1/m!) d^m f * t^m, i.e. "f(x + t)", and more generally
j(g (x) f) = g * f(x + t).  Multiplication is the convolution truncated at
order k, which makes j a ring homomorphism into the truncated algebra.

Sign convention: delta(f) = f*1 - j(f), so delta(x_i) = -t_i and products of
deltas carry the sign delta(x)^m = (-1)^|m| t^m.  Under this convention both
truncated Taylor identities
    j(f)  = sum_m ((-1)^|m|/m!) (d^m f * 1) * delta(x)^m
    f * 1 = sum_m (1/m!) j(d^m f) * delta(x)^m
hold exactly at every order.  taylor_identity_check reads each d^m f, |m| <=
2k, from one order-2k jet; formal in those coefficients, the identities
exercise the delta powers, the convolution, sum_products and ring equality.
Commuting partials are pinned by test_charts.py::test_partials_commute_sampled
and test_acceptance.py::test_criterion_01_derivation_soundness.

Tables over multi-indices come from the one walk of multipoly: jet_along
fills its derivative chain with mi_fill and delta_powers is an mi_powers
table.

eval_diagonal reads off the constant coefficient (evaluation at t = 0).
"""

from __future__ import annotations

from .multipoly import (
    grlex_key, indexed_names, mi_add, mi_binomial, mi_check, mi_degree,
    mi_fill, mi_inv_factorial, mi_powers, mi_range, mi_zero, mono_str,
)
from .sparse import SparseElem


class Jet(SparseElem):
    """Order-k jet: dict multi-index -> RingElem, zero coefficients dropped."""

    __slots__ = ()

    # The base slots under their jet names.
    order = SparseElem.grade
    coeffs = SparseElem.terms

    def __init__(self, chart, order, coeffs):
        super().__init__(chart, _order(order), coeffs)

    @classmethod
    def zero(cls, chart, order):
        return cls._new(chart, _order(order), {})

    @staticmethod
    def _key(chart, order, m):
        m = mi_check(m, chart.nparams)
        if mi_degree(m) > order:
            raise ValueError(f"coefficient at {m} exceeds order {order}")
        return m

    def coeff(self, m):
        return self.get(tuple(m))

    # -- ring structure

    def __mul__(self, other):
        """Convolution truncated at the common order."""
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        k, pairs = self.order, {}
        for m1, c1 in self.terms.items():
            d1 = mi_degree(m1)
            for m2, c2 in other.terms.items():
                if d1 + mi_degree(m2) <= k:
                    pairs.setdefault(mi_add(m1, m2), []).append((c1, c2, 1))
        return Jet._from_products(self.chart, k, pairs)

    # -- structure maps

    def t_order(self):
        """Smallest |m| with a nonzero coefficient; k+1 for the zero jet."""
        if not self.terms:
            return self.order + 1
        return min(mi_degree(m) for m in self.terms)

    def eval_diagonal(self):
        """Constant coefficient (set t = 0)."""
        return self.coeff(mi_zero(self.chart.nparams))

    def truncated(self, k):
        if k > self.order:
            raise ValueError("cannot extend a jet to higher order")
        return Jet._new(
            self.chart, _order(k),
            {m: c for m, c in self.terms.items() if mi_degree(m) <= k},
        )

    _key_order = staticmethod(grlex_key)

    def _term_str(self, m, c):
        chart = self.chart
        mono = mono_str(indexed_names("t", chart.nparams, chart.allvars), m)
        return f"({c})*{mono}" if mono else f"({c})"


def _order(k):
    """k, refused when negative: the one order check of a jet."""
    if k < 0:
        raise ValueError("jet order must be >= 0")
    return k


def jet_along(f, k, step):
    """Order-k jet whose t^m coefficient is (1/m!) D^m f for commuting
    derivations D_i, where step(c, i) = D_i c: the unscaled chain D^m f is
    one mi_fill from f, so a second jet_of f reads the chain from the
    derivative memo.  Each D^m f is scaled on output by the cached 1/m!
    (mi_inv_factorial), a scaling that keeps its numerator dict
    (Poly._scale)."""
    chain = mi_fill(f, f.chart.nparams, _order(k), step)
    return Jet._new(f.chart, k, {m: c * mi_inv_factorial(m) for m, c in chain.items()})


def jet_of(f, k):
    """j(f) = f(x + t) truncated at order k: the jet along the coordinate
    derivations."""
    return jet_along(f, k, lambda c, i: c.derive(i))


def jet_of_pair(g, f, k):
    """j(g (x) f) = g * f(x + t): the jet of f with coefficients scaled by g."""
    return jet_of(f, k).scale(g)


def jet_scalar(f, k):
    """f * 1: the scalar f sitting at t^0."""
    return Jet._new(f.chart, _order(k), {mi_zero(f.chart.nparams): f})


def delta(f, k):
    """delta(f) = f*1 - j(f); measures the failure of f to be diagonal."""
    return jet_scalar(f, k) - jet_of(f, k)


def delta_powers(chart, k, r):
    """{m: prod_i delta(x_i)^{m_i}} as order-k jets for every |m| <= r: one
    mi_powers table over the deltas of the parameters (computed honestly as
    products of deltas; each equals (-1)^|m| t^m)."""
    deltas = [delta(chart.param(i), k) for i in range(chart.nparams)]
    return mi_powers(jet_scalar(chart.one(), k), deltas, r)


def delta_power(chart, m, k):
    """prod_i delta(x_i)^{m_i} as an order-k jet: entry m of delta_powers."""
    m = mi_check(m, chart.nparams)
    return delta_powers(chart, k, mi_degree(m))[m]


def taylor_identity_check(f, k):
    """Check both truncated Taylor expansion identities for f at order k:

        j(f)  = sum_{|m|<=k} ((-1)^|m|/m!) (d^m f * 1) * delta(x)^m
        f * 1 = sum_{|m|<=k} (1/m!) j(d^m f) * delta(x)^m

    Each d^m f, |m| <= 2k, is made once: m! w[m] for w = j(f) at order 2k,
    and j(d^m f)/m! has t^n coefficient binom(m+n, m) w[m+n].  Formal in w,
    the check exercises the delta powers, the convolution, sum_products and
    ring equality (commuting partials: module docstring).  Returns True/False."""
    chart, whole = f.chart, jet_of(f, 2 * k)
    w, ns = whole.terms, mi_range(chart.nparams, k)
    items_a, pairs_b = [], {}
    for m, dp in delta_powers(chart, k, k).items():
        if m in w:
            items_a.append((w[m], dp, (-1) ** mi_degree(m)))
        for l, c in dp.terms.items():
            for n in ns:
                p = mi_add(m, n)
                if p in w and mi_degree(n) + mi_degree(l) <= k:
                    pairs_b.setdefault(mi_add(n, l), []).append((w[p], c, mi_binomial(p, m)))
    return (whole.truncated(k) == Jet.combination(chart, k, items_a)
            and jet_scalar(f, k) == Jet._from_products(chart, k, pairs_b))

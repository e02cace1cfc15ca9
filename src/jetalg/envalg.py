"""Differential operators, PBW straightening, and the factorization of the
enveloping algebra of vector fields through D (x) U(L^(r)).

DiffOp is the algebra generated by A and the coordinate derivatives in normal
form sum_k a_k d^k (coefficients on the left); composition uses the Leibniz
rule d^k b = sum_{j<=k} binom(k,j) (d^j b) d^{k-j}, one loop (_leibniz) shared
with TensorElem.  Both are sparse.SparseElem modules over the chart ring.

PBW words are tuples of L^(r) basis elements (m, i); a word is normal when
non-decreasing in the basis order.  pbw_normalize straightens a word into the
PBW basis of U(L^(r)) by swapping adjacent out-of-order pairs and inserting
the bracket correction, with monomials of degree > r discarded exactly as in
the truncated bracket.

Products read two bounded tables of ints and multi-index tuples that last
across products: multipoly.mi_binomials(k) (at most 1024 k) for _leibniz, and
_expansion(word, r) (at most 4096 keys); cache_info() gives their hit rates.

TensorElem represents elements of D (x) U(L^(r)) as a map
(derivative multi-index, PBW word) -> ring coefficient.  av_to_tensor sends a
word in functions and vector fields to this algebra: a function f goes to
f (x) 1 and a vector field sum_i f_i d/dx_i goes to

    sum_i f_i d/dx_i (x) 1  +  sum_i sum_{1<=|m|<=r} (1/m!) d^m f_i (x) X^m d/dX_i,

extended multiplicatively over the word.  This is the finite-order shadow of
the isomorphism between the completed enveloping algebra of vector fields and
the completed tensor algebra; the tests check it respects the defining
relations and commutators.
"""

from __future__ import annotations

import functools

from .charts import sum_products
from .liealg import _basis_str, basis_bracket, basis_check, basis_key
from .multipoly import (
    grlex_key, indexed_names, mi_binomials, mi_check, mi_degree,
    mi_inv_factorial, mi_range, mi_unit, mi_zero,
)
from .sparse import SparseElem, accumulate


def _leibniz(a, k, b, l):
    """(a d^k)(b d^l) in normal form, as (m, a, d^j b, binom(k, j)) terms of
    a sum_{j<=k} binom(k,j) (d^j b) d^{k-j+l} over mi_binomials(k), with d^j b
    read through b's derivative memo; the callers sum the products per m
    with charts.sum_products.  Distinct j give distinct m."""
    out = []
    for j, q in mi_binomials(k):
        db = b.derive_multi(j)
        if db.num.nums:
            m = tuple(p - i + s for p, i, s in zip(k, j, l))
            out.append((m, a, db, q))
    return out


def _dterm_str(m, c):
    return f"({c})" if mi_degree(m) == 0 else f"({c})*D{list(m)}"


class DiffOp(SparseElem):
    """Normal-form differential operator: dict multi-index -> RingElem."""

    __slots__ = ()

    def __init__(self, chart, terms=()):
        super().__init__(chart, None, terms)

    @staticmethod
    def _key(chart, _grade, m):
        return mi_check(m, chart.nparams)

    @classmethod
    def from_function(cls, f):
        return cls._new(f.chart, None, {mi_zero(f.chart.nparams): f})

    @classmethod
    def from_vf(cls, v):
        n = v.chart.nparams
        return cls._new(
            v.chart, None, {mi_unit(n, i): c for i, c in enumerate(v.coeffs)}
        )

    def __mul__(self, other):
        """Composition, renormalized with the Leibniz rule (_leibniz)."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        pairs = {}
        for k, a in self.terms.items():
            for l, b in other.terms.items():
                for m, c, db, q in _leibniz(a, k, b, l):
                    pairs.setdefault(m, []).append((c, db, q))
        return DiffOp._from_products(self.chart, None, pairs)

    def apply(self, f):
        """Action on a ring element."""
        f._check(self)  # ChartError unless f lives on this chart
        return sum_products(self.chart, [(c, f.derive_multi(m), 1)
                                         for m, c in self.terms.items()])

    _key_order = staticmethod(grlex_key)
    _term_str = staticmethod(_dterm_str)


# ---------------------------------------------------------------------------
# PBW straightening in U(L^(r))

def pbw_normalize(word, nvars, r):
    """Expand a word of L^(r) basis elements over the PBW basis
    (non-decreasing words).  Returns dict word -> int (the structure
    constants are integers).

    Straightening swaps adjacent out-of-order pairs, inserting the bracket
    correction; brackets that leave the truncation are discarded, which is
    multiplication in U of the degree-truncated algebra.  Terminates because
    a swap lowers the inversion count at fixed length and a correction
    shortens the word."""
    out = {}
    stack = [(tuple(word), 1)]
    while stack:
        w, coef = stack.pop()
        idx = _first_descent(w)
        if idx is None:
            accumulate(out, w, coef)
            continue
        a, b = w[idx], w[idx + 1]
        stack.append((w[:idx] + (b, a) + w[idx + 2:], coef))
        for (m, q), c in basis_bracket(a[0], a[1], b[0], b[1], r).items():
            stack.append((w[:idx] + ((m, q),) + w[idx + 2:], coef * c))
    return {w: c for w, c in out.items() if c}


@functools.lru_cache(maxsize=4096)
def _expansion(word, r):
    """pbw_normalize's items; the word fixes nvars, which is never read."""
    return tuple(pbw_normalize(word, None, r).items())


def u_mul(t1, t2, r):
    """Product in U(L^(r)) of two PBW-basis expansions, each a dict
    normal word -> int (as pbw_normalize returns): the straightened
    concatenation of every pair of words, bilinearly, with zero
    coefficients dropped."""
    out = {}
    for w1, c1 in t1.items():
        for w2, c2 in t2.items():
            for w, c in _expansion(w1 + w2, r):
                accumulate(out, w, c1 * c2 * c)
    return {w: c for w, c in out.items() if c}


def _first_descent(w):
    for idx in range(len(w) - 1):
        if basis_key(w[idx]) > basis_key(w[idx + 1]):
            return idx
    return None


# ---------------------------------------------------------------------------
# D (x) U(L^(r))

class TensorElem(SparseElem):
    """Element of D (x) U(L^(r)): dict (derivative multi-index, PBW word) ->
    RingElem coefficient."""

    __slots__ = ()

    r = SparseElem.grade  # the base slot under its truncation name

    @staticmethod
    def _key(chart, r, key):
        dm, w = key
        dm = mi_check(dm, chart.nparams)
        w = tuple(basis_check(chart.nparams, r, b) for b in w)
        if list(w) != sorted(w, key=basis_key):
            raise ValueError("PBW word is not in normal order")
        return (dm, w)

    def coeff(self, dm, w):
        return self.get((tuple(dm), tuple(w)))

    def __mul__(self, other):
        """Componentwise product: DiffOp composition on the left factor,
        PBW-straightened concatenation on the right."""
        if not isinstance(other, TensorElem):
            return NotImplemented
        self._check(other)
        pairs = {}
        for (k, w1), a in self.terms.items():
            for (l, w2), b in other.terms.items():
                dterms = _leibniz(a, k, b, l)
                for word, wc in _expansion(w1 + w2, self.r):
                    for m, c, db, q in dterms:
                        pairs.setdefault((m, word), []).append((c, db, q * wc))
        return TensorElem._from_products(self.chart, self.r, pairs)

    @staticmethod
    def _key_order(key):
        dm, w = key
        return (grlex_key(dm), w)

    def _term_str(self, key, c):
        dm, w = key
        names = indexed_names("X", self.chart.nparams, self.chart.allvars)
        word = "*".join(_basis_str(m, i, names) for m, i in w) or "1"
        return f"{_dterm_str(dm, c)} (x) {word}"


def fun_factor(f, r):
    """Image of the function f: f (x) 1."""
    return TensorElem._new(f.chart, r, {(mi_zero(f.chart.nparams), ()): f})


def vf_factor(v, r):
    """Image of a vector field: the first-order operator plus its formal-jet
    tail in the current directions."""
    chart = v.chart
    n = chart.nparams
    terms = {}
    for i, f in enumerate(v.coeffs):
        if f.is_zero():
            continue
        terms[(mi_unit(n, i), ())] = f
        for m in mi_range(n, r)[1:]:
            terms[(mi_zero(n), ((m, i),))] = f.derive_multi(m) * mi_inv_factorial(m)
    return TensorElem._new(chart, r, terms)


def av_to_tensor(factors, r):
    """Map a word in functions and vector fields into D (x) U(L^(r)).

    `factors` is a sequence of ('fun', RingElem) / ('vf', VectorField)
    entries, multiplied left to right."""
    out = None
    for kind, val in factors:
        if kind == "fun":
            t = fun_factor(val, r)
        elif kind == "vf":
            t = vf_factor(val, r)
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        out = t if out is None else out * t
    if out is None:
        raise ValueError("empty word: pass at least one factor")
    return out

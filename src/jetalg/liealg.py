"""The positive part of the formal vector-field algebra, its truncations,
current algebras, the semidirect product, and the isomorphism with jet
fields.

L^(r) has basis X^m d/dX_i with 1 <= |m| <= r in N formal variables; the
element X^m d/dX_i sits in degree |m| - 1, so degrees 0..r-1 occur and the
degree-0 slice is gl_N.  Brackets are the vector-field brackets with every
output monomial of |m| > r discarded (the quotient by degrees >= r).

A current element is an A-linear combination of the same basis (coefficients
in the chart ring, linear structure from sparse.SparseElem); the current
bracket is pointwise.  A semidirect element pairs a vector field on the chart
with a current element; its bracket adds the action of the vector fields on
the current coefficients.

phi reads an order-k jet field as such a pair: the anchor (t = 0 part) is the
vector field, and the t^m coefficient of component i (1 <= |m| <= k) is the
coefficient of X^m d/dX_i.  psi goes back: a vector field g d/dx_i becomes
the constant jet g on component i, and a current term g (x) X^m d/dX_i
becomes (-1)^|m| g * delta(x)^m on component i, which under the sign
convention is g * t^m.  Both maps preserve brackets at matching truncation
(r = k), which is the content of the local isomorphism; the tests check it.
"""

from __future__ import annotations

from fractions import Fraction

from .charts import ChartMismatch
from .jets import Jet, delta_powers
from .jetfields import JetField
from .multipoly import (
    indexed_names, mi_add, mi_check, mi_degree, mi_lower, mi_range, mi_zero,
    mono_str,
)
from .sparse import SparseElem, TupleElem, accumulate
from .vfields import VectorField


def basis_key(b):
    """Sort key for the basis element (m, i): degree, then m, then i."""
    m, i = b
    return (mi_degree(m) - 1, m, i)


def basis_check(nvars, r, key):
    """The basis element key = (m, i) of L^(r) in N = nvars variables, with
    m as a tuple; raises unless 1 <= |m| <= r and 0 <= i < N."""
    m, i = key
    m = mi_check(m, nvars)
    if not 1 <= mi_degree(m) <= r:
        raise ValueError(f"monomial {m} outside degrees 1..{r}")
    if not 0 <= i < nvars:
        raise IndexError(f"direction {i} out of range")
    return (m, i)


def basis_elements(nvars, r):
    """All (m, i) with 1 <= |m| <= r, sorted by basis_key: mi_range order
    is already degree, then m."""
    return [(m, i) for m in mi_range(nvars, r)[1:] for i in range(nvars)]


def basis_bracket(a, i, b, j, r):
    """[X^a d/dX_i, X^b d/dX_j] expanded over the basis, discarding output
    monomials with |m| > r.  Returns dict (m, q) -> int."""
    out = {}
    if b[i]:
        m = mi_lower(mi_add(a, b), i)
        if mi_degree(m) <= r:
            accumulate(out, (m, j), b[i])
    if a[j]:
        m = mi_lower(mi_add(a, b), j)
        if mi_degree(m) <= r:
            accumulate(out, (m, i), -a[j])
    return {k: c for k, c in out.items() if c}


def _basis_str(m, i, names):
    return f"{mono_str(names, m)}*d/d{names[i]}"


class LElem(SparseElem):
    """Rational-coefficient element of L^(r): a SparseElem whose chart slot
    holds the number of variables and whose coefficients are Fractions."""

    __slots__ = ()

    # The base slots under their L^(r) names.
    nvars = SparseElem.chart
    r = SparseElem.grade

    _coef = staticmethod(Fraction)

    @staticmethod
    def _key(nvars, r, key):
        return basis_check(nvars, r, key)

    def _check(self, other):
        if self.nvars != other.nvars or self.r != other.r:
            raise ValueError("truncation data differs")

    def get(self, key):
        return self.terms.get(key, Fraction(0))

    def bracket(self, other):
        self._check(other)
        out = {}
        for (a, i), ca in self.terms.items():
            for (b, j), cb in other.terms.items():
                for key, c in basis_bracket(a, i, b, j, self.r).items():
                    accumulate(out, key, ca * cb * c)
        return LElem._new(self.nvars, self.r, out)

    def degree_slice(self, d):
        """Terms of degree d ( = |m| - 1 )."""
        return LElem._new(
            self.nvars, self.r,
            {k: c for k, c in self.terms.items() if mi_degree(k[0]) - 1 == d},
        )

    _key_order = staticmethod(basis_key)

    def _term_str(self, key, c):
        return f"({c})*{_basis_str(*key, indexed_names('X', self.nvars))}"


class CurrentElem(SparseElem):
    """A (x) L^(r): basis terms with chart-ring coefficients."""

    __slots__ = ()

    r = SparseElem.grade  # the base slot under its truncation name

    @staticmethod
    def _key(chart, r, key):
        return basis_check(chart.nparams, r, key)

    def coeff(self, m, i):
        return self.get((tuple(m), i))

    def bracket(self, other):
        """Pointwise current bracket: (a (x) l1, b (x) l2) -> ab (x) [l1, l2]."""
        self._check(other)
        pairs = {}
        for (a, i), ca in self.terms.items():
            for (b, j), cb in other.terms.items():
                for key, c in basis_bracket(a, i, b, j, self.r).items():
                    pairs.setdefault(key, []).append((ca, cb, c))
        return CurrentElem._from_products(self.chart, self.r, pairs)

    def differentiate(self, v):
        """Coefficientwise action of a vector field on the chart."""
        return CurrentElem._new(
            self.chart, self.r, {k: v.apply(c) for k, c in self.terms.items()}
        )

    _key_order = staticmethod(basis_key)

    def _term_str(self, key, c):
        names = indexed_names("X", self.chart.nparams, self.chart.allvars)
        return f"({c})*{_basis_str(*key, names)}"


class SemiDirectElem(TupleElem):
    """Pair (vector field, current element) in the semidirect product, at
    the truncation r of its current part; linear structure from
    sparse.TupleElem."""

    __slots__ = ()

    r = TupleElem.grade  # the base slot under its truncation name
    v = property(lambda self: self.parts[0])
    c = property(lambda self: self.parts[1])

    def __init__(self, v, c):
        if not isinstance(v, VectorField) or not isinstance(c, CurrentElem):
            raise TypeError("expected (VectorField, CurrentElem)")
        if v.chart is not c.chart and v.chart != c.chart:
            raise ChartMismatch("parts live on different charts")
        self.chart = v.chart
        self.r = c.r
        self.parts = (v, c)

    def bracket(self, other):
        """[(v1, c1), (v2, c2)] =
        ([v1, v2],  [c1, c2] + v1(c2) - v2(c1))."""
        self._check(other)
        v = self.v.bracket(other.v)
        c = (
            self.c.bracket(other.c)
            + other.c.differentiate(self.v)
            - self.c.differentiate(other.v)
        )
        return SemiDirectElem._new(self.chart, self.r, (v, c))

    def __str__(self):
        return f"({self.v} ; {self.c})"


def phi(u):
    """Read an order-k jet field as a semidirect element at truncation r = k:
    the anchor plus, for each component i and 1 <= |m| <= k, the t^m
    coefficient against X^m d/dX_i."""
    chart = u.chart
    k = u.order
    terms = {}
    for i, jet in enumerate(u.comps):
        for m, c in jet.terms.items():
            if mi_degree(m) >= 1:
                terms[(m, i)] = c
    return SemiDirectElem(u.anchor(), CurrentElem._new(chart, k, terms))


def psi(p, k):
    """Inverse direction at jet order k >= r: the vector-field part becomes
    constant jets, and g (x) X^m d/dX_i becomes (-1)^|m| g * delta(x)^m on
    component i (computed honestly as delta products, one table of them per
    call; this equals g t^m)."""
    chart = p.chart
    if p.r > k:
        raise ValueError(f"truncation {p.r} exceeds jet order {k}")
    dpow = delta_powers(chart, k, p.r)
    items = [[(c, dpow[mi_zero(chart.nparams)], 1)] for c in p.v.coeffs]
    for (m, i), g in p.c.terms.items():
        items[i].append((g, dpow[m], (-1) ** mi_degree(m)))
    return JetField(chart, k, [Jet.combination(chart, k, col) for col in items])

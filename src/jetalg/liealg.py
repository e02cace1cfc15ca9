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
from .jets import delta_power, jet_scalar
from .jetfields import JetField
from .multipoly import mi_check, mi_degree, mi_lower, mi_range
from .sparse import SparseElem
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
    """All (m, i) with 1 <= |m| <= r, sorted by basis_key."""
    out = [
        (m, i)
        for m in mi_range(nvars, r)
        if mi_degree(m) >= 1
        for i in range(nvars)
    ]
    out.sort(key=basis_key)
    return out


def basis_bracket(a, i, b, j, r):
    """[X^a d/dX_i, X^b d/dX_j] expanded over the basis, discarding output
    monomials with |m| > r.  Returns dict (m, q) -> int."""
    out = {}
    if b[i]:
        m = mi_lower(tuple(x + y for x, y in zip(a, b)), i)
        if mi_degree(m) <= r:
            out[(m, j)] = out.get((m, j), 0) + b[i]
    if a[j]:
        m = mi_lower(tuple(x + y for x, y in zip(a, b)), j)
        if mi_degree(m) <= r:
            out[(m, i)] = out.get((m, i), 0) - a[j]
    return {k: c for k, c in out.items() if c}


class LElem:
    """Rational-coefficient element of L^(r)."""

    __slots__ = ("nvars", "r", "terms")

    def __init__(self, nvars, r, terms=()):
        clean = {}
        for key, c in (terms.items() if isinstance(terms, dict) else terms):
            key = basis_check(nvars, r, key)
            c = Fraction(c)
            if c:
                new = clean.get(key, Fraction(0)) + c
                if new:
                    clean[key] = new
                elif key in clean:
                    del clean[key]
        self.nvars = nvars
        self.r = r
        self.terms = clean

    def _check(self, other):
        if self.nvars != other.nvars or self.r != other.r:
            raise ValueError("truncation data differs")

    def __add__(self, other):
        if not isinstance(other, LElem):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return LElem(self.nvars, self.r, out)

    def __neg__(self):
        return LElem(self.nvars, self.r, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return LElem(self.nvars, self.r, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def bracket(self, other):
        self._check(other)
        out = {}
        for (a, i), ca in self.terms.items():
            for (b, j), cb in other.terms.items():
                for key, c in basis_bracket(a, i, b, j, self.r).items():
                    out[key] = out.get(key, Fraction(0)) + ca * cb * c
        return LElem(self.nvars, self.r, out)

    def degree_slice(self, d):
        """Terms of degree d ( = |m| - 1 )."""
        return LElem(
            self.nvars, self.r,
            {k: c for k, c in self.terms.items() if mi_degree(k[0]) - 1 == d},
        )

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LElem):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

    def __str__(self):
        return _terms_str(self.terms, self.nvars, fmt=str)

    def __repr__(self):
        return f"LElem(r={self.r}, {str(self)!r})"


def _xnames(nvars):
    if nvars == 1:
        return ("X",)
    return tuple(f"X{i + 1}" for i in range(nvars))


def _basis_str(m, i, nvars):
    names = _xnames(nvars)
    mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
    return f"{mono}*d/d{names[i]}"


def _terms_str(terms, nvars, fmt):
    if not terms:
        return "0"
    parts = []
    for (m, i), c in sorted(terms.items(), key=lambda t: basis_key(t[0])):
        parts.append(f"({fmt(c)})*{_basis_str(m, i, nvars)}")
    return " + ".join(parts)


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

    def __str__(self):
        return _terms_str(self.terms, self.chart.nparams, fmt=str)

    def __repr__(self):
        return f"CurrentElem(r={self.r}, {str(self)!r})"


class SemiDirectElem:
    """Pair (vector field, current element) in the semidirect product."""

    __slots__ = ("v", "c")

    def __init__(self, v, c):
        if not isinstance(v, VectorField) or not isinstance(c, CurrentElem):
            raise TypeError("expected (VectorField, CurrentElem)")
        if v.chart is not c.chart and v.chart != c.chart:
            raise ChartMismatch("parts live on different charts")
        self.v = v
        self.c = c

    @property
    def chart(self):
        return self.v.chart

    @property
    def r(self):
        return self.c.r

    def _check(self, other):
        if self.r != other.r:
            raise ValueError("truncation orders differ")

    def __add__(self, other):
        if not isinstance(other, SemiDirectElem):
            return NotImplemented
        return SemiDirectElem(self.v + other.v, self.c + other.c)

    def __neg__(self):
        return SemiDirectElem(-self.v, -self.c)

    def __sub__(self, other):
        if not isinstance(other, SemiDirectElem):
            return NotImplemented
        return self + (-other)

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
        return SemiDirectElem(v, c)

    def __eq__(self, other):
        if not isinstance(other, SemiDirectElem):
            return NotImplemented
        return self.v == other.v and self.c == other.c

    __hash__ = None

    def __str__(self):
        return f"({self.v} ; {self.c})"

    def __repr__(self):
        return f"SemiDirectElem({str(self)!r})"


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
    component i (computed honestly as a delta product; this equals g t^m)."""
    chart = p.chart
    if p.r > k:
        raise ValueError(f"truncation {p.r} exceeds jet order {k}")
    comps = [jet_scalar(c, k) for c in p.v.coeffs]
    for (m, i), g in p.c.terms.items():
        signed = g * Fraction((-1) ** mi_degree(m))
        comps[i] = comps[i] + delta_power(chart, m, k).scale(signed)
    return JetField(chart, k, comps)

"""Coordinate rings of etale charts and their extended partial derivatives.

A chart ring is A = Q[x_1..x_N, y_1..y_n]_g.  The x_i are free parameters.
Each algebraic generator y_j satisfies one monic relation y_j^{d_j} = q_j
where q_j only involves the parameters and earlier generators (triangular
shape), with d_j >= 2.  A single denominator g is inverted; localizing at
several elements means folding their product into g.  Every y_j must divide
g so that 1/y_j exists, which makes the implicit-differentiation formula for
dy_j/dx_i well defined and turns d/dx_i into a derivation of all of A.

Elements are kept in normal form: the numerator polynomial is reduced so
every y_j-exponent is < d_j (substituting the relation for the last generator
first, which cannot reintroduce later generators), and the denominator is a
product F^s of powers f_k^(s_k) of the factors of g.  The ``ChartSpec``
constructor splits g by exact division in the free ring: each generator y_j
and then each parameter x_i with the multiplicity it divides g, then the
rest.  A chart whose split gives fewer than two nonconstant factors, or
leaves a constant other than 1, keeps g as its only factor, and there s is
the power of g.
The exponents are packed into the int ``RingElem.s``, s_k in the 16-bit field
at bit 16 * k, as ``multipoly`` packs monomials: products add packed
exponents and lifts subtract them.  Every s_k is at most 32767 (beyond it
ValueError), so the sum of two fields never carries.
``RingElem(chart, num, s)`` still means num / g^s.  Numerator/denominator
pairs are not cancelled; only ``invert`` divides, by powers of g that it
builds one from the other and the chart does not keep.  Equality of N/F^s
and N'/F^s' lifts each side to t, the componentwise maximum of s and s'
(``ChartSpec.join``), by the factors whose exponents differ
(``ChartSpec.lift``, from one power cache per factor): reduce(N F^(t - s))
== reduce(N' F^(t - s')), which on a one-factor chart lifts the lower side
only.  Like comparing numerators at equal s, this assumes g is not a zero
divisor (A is a domain).

Numerators are ``multipoly.Poly`` values: integer numerators over one
positive content denominator, canonical (the content denominator is coprime
to the numerators and no zero numerator is stored), keyed by packed
monomials (16-bit exponent fields under a total-degree field, see
``multipoly``).  The rational content lives there, separate from the
denominator's factors.  Reduction works on the integer numerators and packed
keys directly: it reads the generator's field with a shift and a mask,
lowers that field and the degree field by the exponent it removes, and
brings the powers of q_j it substitutes to one common denominator per pass.
Numerators obey the degree bound of ``multipoly`` (total degree at most
32767); arithmetic beyond it raises ValueError, and ``RingElem.__pow__``
refuses a power before its first product by ``multipoly.power_check`` on
the chart's ``power_weights``, which ``multipoly.power_weights`` builds in
the constructor.  Sums at one denominator, negations and rational multiples
of reduced numerators are reduced already and skip ``reduce``
(``RingElem._new``).

Derivation kernel.  d/dx_i of N/F^s is a sum of pieces, each a partial of N
times a multiplier M that sits over a packed denominator o, its offset: the
parameter piece dN/dx_i (M = 1, o = 0); for each generator y_j the piece
dN/dy_j * dy_j/dx_i (o = the denominator of dy_j/dx_i); and, for each factor
f_k with s_k > 0, the quotient-rule piece -s_k * N * df_k/dx_i / f_k (o =
the denominator of df_k/dx_i times f_k).  The result sits over F^(s + top),
where top is the componentwise maximum of the offsets of the pieces present
in N: a generator piece is present when the generator's field is nonzero in
some monomial of N (the packed keys ORed together), a quotient piece when
s_k > 0, and a piece whose multiplier is 0 is absent.  That is the
denominator the sum of the pieces as ring elements carries, so the element,
its numerator and s are the same.  Each chart keeps a kernel table
(``ChartSpec._kernel``), one entry per direction, set of generators present
and set of factors present, built on first use: each multiplier lifted to
F^top (M * F^(top - o), reduced), all over one common content denominator.
``RingElem._derive`` builds each piece's partial numerator, adds its product
with the lifted multiplier into one dict of packed monomials by
``multipoly.add_product`` (a quotient piece is N times -df_k/dx_i with the
factor s_k) and calls ``reduce`` once on the sum.

Derivative memo.  ``RingElem._derivs`` (empty from every constructor) keeps
each d/dx_i asked of the element; a repeated ``derive(i)`` checks i and
returns the stored object.  The chart keeps no table of them, so the memo
dies with its element; an equal, distinct element derives again, to the same
numerator and s.  ``ChartSpec.param`` keeps one element per parameter.

Sum-of-products kernel.  The Jet, jet-field, current, Leibniz and
vector-field products and the A-linear combinations sum q * a * X
(``sparse.SparseElem.combination``) sum q * a * b over triples (a, b, q),
once per output key, through ``sum_products``.  It groups the triples by
s = a.s + b.s, adds each group's products into one dict over one content
denominator, lifts each group to S, the componentwise maximum of the s of
the nonzero products, by one product with F^(S - s), and calls ``reduce``
once.  A single triple
(over half the calls) is the plain a * b * q, measured faster end to end.
Representation rule: the result sits over F^S.  Adding the products one at
a time (for a combination: scaling each X by a and adding) gives the same
numerator and s unless a partial sum cancels to exactly zero midway; it is
the same ring element in every case.

Lift rule.  Every chart lifts each group's unreduced sum to S in one
product.  Reducing each group first and adding the groups as ``RingElem``s
in ascending s multiplies fewer term pairs where a lift F^(S - s) is a
product of several factors reduced through the relations (6.62 M against
9.48 M for the smash-bracket suite on the two-generator, three-factor chart
c4 of ``tests/test_factored.py``, order 1, one sample, seed 42, counted by
``tools/workcount.py``); no benchmark workload runs such a chart, so a
second path for them is not built until one does.

Shared sweep.  ``multipoly.add_product`` (out += f * a * b on packed
numerator dicts) is the one loop that multiplies two numerators: Poly
products, each pass of ``reduce`` (one product per power of q_j), each
piece of a derivation and each product and lift of ``sum_products``.  It
checks the degree bound of its largest key before any work, so no field can
carry, also on charts without generators, where ``reduce`` returns its
input unchecked; it may refuse a result whose largest term cancels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .multipoly import (
    DEGREE_LIMIT, FIELD_BITS, FIELD_MASK, Poly, _make, add_product, mi_check,
    mono_layout, poly_div_exact, pow_by_squaring, power_check, power_weights,
)


class ChartError(Exception):
    pass


class NonMonicRelation(ChartError):
    """An algebraic relation is not of the triangular monic shape."""


class MissingInvertibleGenerator(ChartError):
    """Some y_j does not divide the denominator, so 1/y_j is unavailable."""


class ZeroDenominator(ChartError):
    pass


class ChartMismatch(ChartError):
    """Operands live on different charts."""


class NotInvertible(ChartError):
    """The element has no inverse of the form (polynomial)/g^k that the
    division search can find."""


class GenSpec(NamedTuple):
    """One algebraic generator: y^degree = rhs."""

    name: str
    degree: int
    rhs: Poly

    def __repr__(self):
        return f"GenSpec({self.name}^{self.degree} = {self.rhs})"


class ChartSpec:
    """An etale chart, checked and with its derivative tables built when it
    is constructed (``load_chart`` and the fixtures construct charts).

    params: names of the free parameters x_i.
    gens:   GenSpec list; each rhs may be given over any prefix of the full
            variable list (params + generator names) and is promoted.
    denominator: Poly over the full variable list (default 1).

    Raises NonMonicRelation, ChartError (no parameters),
    MissingInvertibleGenerator, ZeroDenominator, or ValueError when a table
    leaves the degree bound.
    """

    def __init__(self, name, params, gens=(), denominator=None):
        self.name = name
        self.params = tuple(params)
        self.nparams = len(self.params)
        self.allvars = self.params + tuple(gs.name for gs in gens)
        self.gens = tuple(
            GenSpec(gs.name, gs.degree, gs.rhs.extended(self.allvars))
            for gs in gens
        )
        self.ngens = len(self.gens)
        if denominator is None:
            denominator = Poly.one(self.allvars)
        denominator = denominator.extended(self.allvars)
        if len(set(self.allvars)) != len(self.allvars):
            raise NonMonicRelation("parameter and generator names must be distinct")
        if self.nparams == 0:
            raise ChartError("a chart needs at least one parameter")
        for j, gs in enumerate(self.gens):
            if not isinstance(gs.degree, int) or gs.degree < 2:
                raise NonMonicRelation(
                    f"generator {gs.name}: degree must be an integer >= 2"
                )
            allowed = set(range(self.nparams)) | {self.gen_index(l) for l in range(j)}
            if not gs.rhs.support_vars() <= allowed:
                raise NonMonicRelation(
                    f"generator {gs.name}: rhs may only use parameters and earlier generators"
                )
        # the relations are usable: reduce g, check that every generator
        # divides it and build the tables
        self._qpow = [{0: Poly.one(self.allvars)} for _ in self.gens]  # [j][e] -> q_j^e
        g = self.reduce(denominator)
        if g.is_zero():
            raise ZeroDenominator("denominator reduces to 0")
        for gs in self.gens:
            if poly_div_exact(g, Poly.variable(self.allvars, gs.name)) is None:
                raise MissingInvertibleGenerator(
                    f"generator {gs.name} must divide the denominator"
                )
        self.denominator = g
        # the layout of packed denominators: factor k's exponent in the field
        # at bit FIELD_BITS * k, at most DEGREE_LIMIT - 1, so the sum of two
        # fields does not carry and shows in the field's top bit (``_guard``
        # has that bit set in every field)
        self.factors, mults = self._split(g)
        self._shifts = tuple(FIELD_BITS * k for k in range(len(self.factors)))
        self._gexp = sum(m << sh for m, sh in zip(mults, self._shifts))
        self._guard = sum(DEGREE_LIMIT << sh for sh in self._shifts)
        self._smax = (DEGREE_LIMIT - 1) // max(mults)  # the largest g^s
        one = Poly.one(self.allvars)
        self._fpow = [{0: one} for _ in self.factors]  # [k][e] -> reduced f_k^e
        self._lifts = {0: one}  # packed d -> reduced F^d
        self._kernels = {}   # (i, generators, factors) -> derive kernel
        self.power_weights = power_weights(len(self.allvars), self.nparams, self.gens)
        self._build_derivative_tables()
        self._param_elems = [self.var(p) for p in self.params]

    # -- basic shape

    def gen_index(self, j):
        """Variable index of generator j inside allvars."""
        return self.nparams + j

    def __eq__(self, other):
        if not isinstance(other, ChartSpec):
            return NotImplemented
        return ((self.name, self.params, self.denominator, self.gens)
                == (other.name, other.params, other.denominator, other.gens))

    def __hash__(self):
        return hash((self.name, self.params, tuple(g.name for g in self.gens)))

    def __repr__(self):
        return f"ChartSpec({self.name!r}, params={self.params})"

    # -- construction

    def _split(self, g):
        """(factors, multiplicities) of g: each generator, then each
        parameter, with the multiplicity it divides g in the free ring, then
        the rest; (g,), (1,) when that gives fewer than two nonconstant
        factors or leaves a constant other than 1 (always below degree 2)."""
        if g.degree() < 2:
            return (g,), (1,)
        rest, factors, mults = g, [], []
        for name in self.allvars[self.nparams:] + self.params:
            v, n = Poly.variable(self.allvars, name), 0
            while (q := poly_div_exact(rest, v)) is not None:
                rest, n = q, n + 1
            if n:
                factors.append(v)
                mults.append(n)
        if rest.degree() > 0:
            factors.append(rest)
            mults.append(1)
        if len(factors) < 2 or (rest.degree() == 0 and rest != 1):
            return (g,), (1,)
        return tuple(factors), tuple(mults)

    def _build_derivative_tables(self):
        # dy_j/dx_i = D_i(q_j) / (d * y_j^(d-1)), by differentiating y_j^d = q_j,
        # with 1/y_j = (f/y_j)/f for the factor f that y_j divides (y_j
        # itself when g is split).  The constructor calls this last, so
        # derive runs on the chart being built: D_i(q_j) reads only the rows
        # of earlier generators, and the factors are derived last, at s = 0,
        # where df is not read.
        self._dy = []
        for j, gs in enumerate(self.gens):
            d, y = gs.degree, Poly.variable(self.allvars, gs.name)
            quot, sh = next((q, sh) for f, sh in zip(self.factors, self._shifts)
                            if (q := poly_div_exact(f, y)) is not None)
            inv_lead = RingElem._new(
                self, self.reduce(quot ** (d - 1) * Fraction(1, d)), (d - 1) << sh)
            q = RingElem(self, gs.rhs)
            self._dy.append([q.derive(i) * inv_lead for i in range(self.nparams)])
        self._df = [[RingElem(self, f).derive(i) for i in range(self.nparams)]
                    for f in self.factors]

    # -- normal form

    def reduce(self, poly):
        """Reduce a polynomial modulo the relations: afterwards every
        generator exponent is below its degree.  Processing generators from
        the last to the first terminates because each rhs only involves
        earlier variables.  Works on the integer numerators and packed
        monomials: a term with y_j-exponent e >= d_j loses e - e % d_j from
        both the y_j field and the degree field and is multiplied by
        q_j^t, t = e // d_j.  One pass groups its terms by t (two terms of
        one group with equal e % d_j have equal e, so the lowered keys stay
        distinct), brings the powers of q_j to one common denominator and
        makes one add_product per group.  Raises ValueError when a product
        could leave the degree bound of multipoly."""
        if not self.gens:
            return poly
        nums, den = poly.nums, poly.den
        shifts, top, _ = mono_layout(len(self.allvars))
        for j in range(self.ngens - 1, -1, -1):
            sh = shifts[self.gen_index(j)]
            d = self.gens[j].degree
            high = [(m, c) for m, c in nums.items() if (m >> sh) & FIELD_MASK >= d]
            if not high:
                continue
            step = (1 << sh) + (1 << top)
            groups = {}
            for m, c in high:
                e = (m >> sh) & FIELD_MASK
                groups.setdefault(e // d, {})[m - (e - e % d) * step] = c
            qpows = {t: self._q_power(j, t) for t in groups}
            scale = math.lcm(*(q.den for q in qpows.values()))
            out = {m: c * scale for m, c in nums.items() if (m >> sh) & FIELD_MASK < d}
            for t, part in groups.items():
                q = qpows[t]
                add_product(out, q.nums, part, scale // q.den, top)
            nums = {m: c for m, c in out.items() if c}
            den *= scale
        if nums is poly.nums:
            return poly
        return _make(self.allvars, nums, den)

    def _q_power(self, j, e):
        """q_j^e, the e-th power of generator j's relation right-hand side."""
        cache = self._qpow[j]
        return cache.get(e) or _fill(cache, e, lambda p: p * self.gens[j].rhs)

    def exponents(self, s):
        """The exponent of each factor in the packed denominator s."""
        return tuple(s >> sh & FIELD_MASK for sh in self._shifts)

    def join(self, a, b):
        """The componentwise maximum of two packed denominators: in each
        field a_k + 2^15 - b_k has its top bit set when a_k >= b_k, and no
        field borrows."""
        h = self._guard
        pick = ((((a | h) - b) & h) >> (FIELD_BITS - 1)) * FIELD_MASK
        return a & pick | b & ~pick

    def lift(self, d):
        """Reduced F^d for a packed d: one product of the cached powers of
        the factors present in d."""
        got = self._lifts.get(d)
        if got is None:
            for k, e in enumerate(self.exponents(d)):
                if e:
                    cache = self._fpow[k]
                    f = self.factors[k]
                    p = cache.get(e) or _fill(cache, e, lambda p: self.reduce(p * f))
                    got = p if got is None else self.reduce(got * p)
            self._lifts[d] = got
        return got

    def _kernel(self, i, used, s):
        """The kernel table entry of d/dx_i (see the module docstring) for
        numerators whose packed keys OR to ``used``, over the packed
        denominator s.  Returns (top, den, pieces, quots): every multiplier
        lifted to F^top and reduced, as a dict of integer numerators over
        the common content denominator den; pieces holds (field shift, step,
        numerators) for x_i and for each generator that occurs, quots
        (exponent shift, numerators of -df_k/dx_i) for each factor present
        in s.  Built on first use and keyed by (i, generators that
        occur, factors present): at most nparams * 2^ngens * 2^nfactors
        entries, none keyed by an element."""
        shifts, topbit, _ = mono_layout(len(self.allvars))
        occur = 0
        for j in range(self.ngens):
            if (used >> shifts[self.gen_index(j)]) & FIELD_MASK:
                occur |= 1 << j
        # the top bit of each nonzero field of s: s_k + 2^15 - 1 reaches it
        h = self._guard
        present = (s + h - (h >> (FIELD_BITS - 1))) & h
        key = (i, occur, present)
        got = self._kernels.get(key)
        if got is not None:
            return got
        parts = [(i, self.one(), 0)]  # (variable, multiplier, offset)
        for j in range(self.ngens):
            if occur >> j & 1 and self._dy[j][i]:
                dy = self._dy[j][i]
                parts.append((self.gen_index(j), dy, dy.s))
        quots = [(sh, -df, df.s + (1 << sh))  # (exponent shift, ...)
                 for k, sh in enumerate(self._shifts)
                 if present & DEGREE_LIMIT << sh and (df := self._df[k][i])]
        top = 0
        for _, _, o in parts + quots:
            top = self.join(top, o)
        # a lifted product can vanish only on a ring that is not a domain
        parts, quots = ([(v, p) for v, m, o in group
                         if (p := self.reduce(m.num * self.lift(top - o))).nums]
                        for group in (parts, quots))
        den = math.lcm(*(p.den for _, p in parts + quots))

        def scaled(p):
            return {mk: c * (den // p.den) for mk, c in p.nums.items()}

        got = self._kernels[key] = (
            top, den,
            tuple((shifts[v], (1 << shifts[v]) + (1 << topbit), scaled(p)) for v, p in parts),
            tuple((sh, scaled(p)) for sh, p in quots))
        return got

    # -- element constructors

    def elem(self, value, s=0):
        """RingElem from Poly / int / Fraction, over g^s."""
        if isinstance(value, (int, Fraction)):
            value = Poly.const(self.allvars, value)
        return RingElem(self, value, s)

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def var(self, name):
        """RingElem for a parameter or generator by name."""
        return RingElem(self, Poly.variable(self.allvars, name))

    def param(self, i):
        """x_i: one element per index for the chart's lifetime."""
        return self._param_elems[i]

    def gen(self, j):
        return self.var(self.gens[j].name)

    def inv_denominator(self, s=1):
        return RingElem(self, Poly.one(self.allvars), s)


class RingElem:
    """num / F^s on a chart, s the packed exponents of the factors of g (the
    module docstring); num is stored relation-reduced.  The constructor
    takes num / g^s.  ``_derivs``: None or the derivative memo, i -> d/dx_i."""

    __slots__ = ("chart", "num", "s", "_derivs")

    def __init__(self, chart, num, s=0):
        if s < 0:
            raise ValueError("denominator exponent must be >= 0")
        if s > chart._smax:
            raise ValueError(f"denominator g^{s}: a factor's exponent exceeds "
                             f"the bound {DEGREE_LIMIT - 1}")
        num = chart.reduce(num)
        self.chart = chart
        self.num = num
        self.s = s * chart._gexp if num.nums else 0
        self._derivs = None

    @classmethod
    def _new(cls, chart, num, s):
        """Trusted constructor: num / F^s for a relation-reduced num (a sum
        at one power of g, a negation, a rational multiple, the numerator of
        another element, or the caller's own ``chart.reduce``) and a packed
        s within the bounds; only resets s for zero."""
        self = object.__new__(cls)
        self.chart = chart
        self.num = num
        self.s = s if num.nums else 0
        self._derivs = None
        return self

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(
                f"elements live on different charts: {self.chart.name!r} vs {other.chart.name!r}"
            )

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.chart.elem(other)
        if isinstance(other, RingElem):
            self._check(other)
            return other
        return None

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.nums)

    # -- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.s == other.s:
            return RingElem._new(self.chart, self.num + other.num, self.s)
        # the rescaled summand is a product, so the sum needs reducing
        chart = self.chart
        s = chart.join(self.s, other.s)
        a = self.num if self.s == s else self.num * chart.lift(s - self.s)
        b = other.num if other.s == s else other.num * chart.lift(s - other.s)
        return RingElem._new(chart, chart.reduce(a + b), s)

    __radd__ = __add__

    def __neg__(self):
        return RingElem._new(self.chart, -self.num, self.s)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return RingElem._new(self.chart, self.num * other, self.s)
        if not isinstance(other, RingElem):
            return NotImplemented
        self._check(other)
        chart = self.chart
        s = self.s + other.s
        if s & chart._guard:
            raise ValueError(_EXPONENT_BOUND)
        return RingElem._new(chart, chart.reduce(self.num * other.num), s)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        chart = self.chart
        weights = chart.power_weights
        power_check(self.num, e, weights)
        for f, n in zip(chart.factors, chart.exponents(self.s)) if self.s else ():
            if n:  # the power sits over f^(e*n)
                try:
                    power_check(f, e * n, weights)
                except ValueError as err:
                    name = "g" if len(chart.factors) == 1 else f"({f})"
                    raise ValueError(f"denominator {name}^{e * n}: {err}") from None
        return pow_by_squaring(chart.one(), self, e)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.s == other.s:
            return self.num == other.num
        # lift only the factors whose exponents differ (module docstring)
        chart = self.chart
        s = chart.join(self.s, other.s)
        a = self.num if self.s == s else chart.reduce(self.num * chart.lift(s - self.s))
        b = other.num if other.s == s else chart.reduce(other.num * chart.lift(s - other.s))
        return a == b

    __hash__ = None

    # -- calculus

    def derive(self, i):
        """The extended partial derivative d/dx_i (acts on generators through
        the relation, on each factor of g through the quotient rule), kept in
        the derivative memo (module docstring).  Raises ValueError when the
        numerator of the result could leave the degree bound."""
        if not 0 <= i < self.chart.nparams:
            raise IndexError(f"direction {i} out of range")
        if not self.num.nums:
            return self
        memo = self._derivs
        if memo is None:
            memo = self._derivs = {}
        elif i in memo:
            return memo[i]
        got = memo[i] = self._derive(i)
        return got

    def _derive(self, i):
        """A fresh d/dx_i of a nonzero element (the module's derivation kernel)."""
        chart = self.chart
        nums, s = self.num.nums, self.s
        used = 0
        for m in nums:
            used |= m
        top, den, pieces, quots = chart._kernel(i, used, s)
        topbit = mono_layout(len(chart.allvars))[1]
        out = {}
        for sh, step, mult in pieces:
            part = {m - step: c * e for m, c in nums.items()
                    if (e := (m >> sh) & FIELD_MASK)}
            if part:
                add_product(out, part, mult, 1, topbit)
        for sh, mult in quots:
            add_product(out, nums, mult, s >> sh & FIELD_MASK, topbit)
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        s += top
        if s & chart._guard:
            raise ValueError(_EXPONENT_BOUND)
        return RingElem._new(
            chart, chart.reduce(_make(chart.allvars, out, self.num.den * den)), s)

    def derive_multi(self, m):
        """Iterated derivative d^m (orders commute, so any order works)."""
        mi_check(m, self.chart.nparams)
        out = self
        for i, e in enumerate(m):
            for _ in range(e):
                out = out.derive(i)
        return out

    def invert(self):
        """Multiplicative inverse, when the numerator divides a power of g.

        Searches k upward for num | g^k by exact division: first the raw
        g^k = g^(k-1) * g, then the reduced g^k, the reduced g^(k-1) times g
        and reduced, where reduce changed it (never without generators).
        Either hit is sound because division is performed in the free ring.
        Only these two powers are held, and the chart keeps neither.  The
        inverse q F^s / g^k then sits over the componentwise maximum t of
        g^k and F^s, and its numerator is divided by each factor left in its
        denominator while that factor divides it (so 1/x on a chart with
        g = x * (x - 1) is 1/x, not (x - 1)/g).  Raises NotInvertible when
        the search is exhausted."""
        chart = self.chart
        if self.is_zero():
            raise NotInvertible("0 has no inverse")
        bound = max(chart.exponents(self.s)) + self.num.degree() + 4
        g = chart.denominator
        raw = red = Poly.one(chart.allvars)
        for k in range(bound + 1):
            if k:
                nxt = raw * g
                raw, red = nxt, chart.reduce(nxt if red is raw else red * g)
            for dividend in (raw,) if red is raw else (raw, red):
                q = poly_div_exact(dividend, self.num)
                if q is not None:
                    gk = k * chart._gexp
                    t = chart.join(gk, self.s)
                    s = t - self.s
                    for f, sh in zip(chart.factors, chart._shifts):
                        while (s >> sh & FIELD_MASK and q.degree() >= f.degree()
                               and (d := poly_div_exact(q, f)) is not None):
                            q, s = d, s - (1 << sh)
                    if t != gk:
                        q = q * chart.lift(t - gk)
                    return RingElem._new(chart, chart.reduce(q), s)
        raise NotInvertible(f"cannot invert {self}")

    def over_g(self):
        """(num, S) with self == num / g^S, S the least such power: the form
        of files (``fileio``).  On a one-factor chart this is (self.num,
        self.s)."""
        chart = self.chart
        S = max(-(-n // m) for n, m in zip(chart.exponents(self.s),
                                           chart.exponents(chart._gexp)))
        if S > chart._smax:
            raise ValueError(_EXPONENT_BOUND)
        d = S * chart._gexp - self.s
        return (chart.reduce(self.num * chart.lift(d)) if d else self.num), S

    # -- display

    def __str__(self):
        if self.s == 0:
            return str(self.num)
        chart = self.chart
        dens = [f"({f})" + (f"^{n}" if n > 1 else "")
                for f, n in zip(chart.factors, chart.exponents(self.s)) if n]
        den = dens[0] if len(dens) == 1 else "(" + "*".join(dens) + ")"
        return f"({self.num})/{den}"

    def __repr__(self):
        return f"RingElem({str(self)!r} on {self.chart.name!r})"


_EXPONENT_BOUND = (f"a factor of the denominator would pass the exponent "
                   f"bound {DEGREE_LIMIT - 1}")


def sum_products(chart, triples):
    """sum q * a * b over (a, b, q) triples, q an int or Fraction: the
    sum-of-products kernel of the module docstring.  Raises ValueError when
    a product or a lift could leave the degree bound or a factor's exponent
    its bound."""
    if len(triples) == 1:
        a, b, q = triples[0]
        return a * b * q
    pairs = [(a.s + b.s, a.num, b.num, q) for a, b, q in triples
             if q and a.num.nums and b.num.nums]
    lifts = dict.fromkeys(p[0] for p in pairs)  # s -> F^(S - s)
    S = 0
    for s in lifts:
        if s & chart._guard:
            raise ValueError(_EXPONENT_BOUND)
        S = chart.join(S, s)
    for s in lifts:
        lifts[s] = chart.lift(S - s)
    # one content denominator for every product and lift
    den = math.lcm(*(pa.den * pb.den * q.denominator * lifts[s].den
                     for s, pa, pb, q in pairs))
    top = mono_layout(len(chart.allvars))[1]
    sums = {}
    for s, pa, pb, q in pairs:
        f = q.numerator * den // (pa.den * pb.den * q.denominator * lifts[s].den)
        add_product(sums.setdefault(s, {}), pa.nums, pb.nums, f, top)
    total = sums.pop(S, {})
    for s, out in sums.items():
        add_product(total, out, lifts[s].nums, 1, top)
    if 0 in total.values():
        total = {m: c for m, c in total.items() if c}
    return RingElem._new(chart, chart.reduce(_make(chart.allvars, total, den)), S)


def _fill(cache, e, step):
    """cache[e] of a power cache, a dict n -> n-th power (a Poly, so never
    falsy) that holds every n below its length, for an e it misses: the
    missing powers are filled in order by a loop, each step(the one below),
    so a first large e costs no recursion depth.  The chart's power caches
    (powers of each q_j for reduce, reduced powers of each factor of g for
    lift) keep every power they fill; a budget on time or memory must count
    them here.  ``RingElem.invert`` keeps no power of g in them."""
    while len(cache) <= e:
        cache[len(cache)] = step(cache[len(cache) - 1])
    return cache[e]

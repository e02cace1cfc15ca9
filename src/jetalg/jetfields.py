"""Jets of vector fields and their smash-product bracket.

A jet field of order k has one order-k jet per coordinate direction: the
component jets are the coefficients of d/dx_1..d/dx_N.  The decomposable
a # eta (function a tensored against the vector field eta) has component i
equal to a * jet_of(eta_i); every jet field is a sum of such decomposables
(see decompose).

The bracket combines the two commuting coordinate-field actions: writing
u_i for the component jets of u and u_i(0) for their constant coefficients,

    [u, w]_j = sum_i u_i(0) * d/dx_i(w_j's coefficients)
                     + (u_i - u_i(0)) * d/dt_i(w_j)       minus (u <-> w).

The t-derivative is only determined to order k-1, but its cofactor has
positive t-valuation, so the bracket is exact at order k.  Both halves go
into one table of products per component, the (u <-> w) half with negated
weights, so each coefficient of [u, w] is one sum of products
(charts.sum_products): no half is built as a jet field of its own, and no
subtraction lifts and adds the coefficients a second time.  On
decomposables it agrees with

    [a1 # g1, a2 # g2] = a1 g1(a2) # g2 - a2 g2(a1) # g1 + a1 a2 # [g1, g2],

which the tests implement as an independent oracle.

localization_partial_sum builds the truncated series that exhibits
(1/g) eta as a limit of jet fields:

    S_m = sum_{r=0}^{m} (1/g^{r+1}) delta(g)^r (1 # eta),

whose defect against 1 # (1/g) eta (localization_defect) has t-valuation
>= m+1 and is given in closed form by localization_remainder.  Each map
asks g for its inverse, which g keeps (the inverse memo of ``charts``), so
a caller checking many fields against one g inverts it once.
"""

from __future__ import annotations

import math

from .charts import ChartMismatch
from .jets import Jet, delta, jet_of, jet_scalar
from .multipoly import (
    mi_add, mi_binomials, mi_degree, mi_lower, mi_powers, mi_sub, mi_zero,
)
from .sparse import TupleElem
from .vfields import VectorField, field_str


class JetField(TupleElem):
    """One order-k jet per coordinate direction; linear structure from
    sparse.TupleElem."""

    __slots__ = ()

    # The base slots under their jet-field names.
    order = TupleElem.grade
    comps = TupleElem.parts
    _part = Jet

    @classmethod
    def zero(cls, chart, order):
        return cls._new(chart, order, [Jet.zero(chart, order)] * chart.nparams)

    def scale(self, a):
        """Left action of A: multiply every coefficient by a."""
        return JetField._new(self.chart, self.order, [c.scale(a) for c in self.comps])

    def scale_jet(self, j):
        """Multiply every component by an order-matched jet."""
        return JetField._new(self.chart, self.order, [j * c for c in self.comps])

    def anchor(self):
        """Evaluate at t = 0: the underlying vector field."""
        return VectorField._new(self.chart, None, [c.eval_diagonal() for c in self.comps])

    def jf_order(self):
        """Minimum t-valuation over the components; k+1 when zero."""
        return min(c.t_order() for c in self.comps)

    def bracket(self, other):
        """[u, w]: per component j, one charts.sum_products per coefficient
        over the triples of both halves of the module docstring's formula,
        the (w, u) half with negated weights.  Each coefficient of t^m only
        reads coefficients at indices of degree <= |m|, so the order-(k-1)
        ambiguity of d/dt never reaches stored data beyond order k."""
        self._check(other)
        chart, k = self.chart, self.order
        n = chart.nparams
        zero = mi_zero(n)
        out = []
        for j in range(n):
            pairs = {}  # t-monomial -> [(a, b, q)] for sum_products
            for u, w, sign in ((self, other, 1), (other, self, -1)):
                wj = w.comps[j].terms
                for i in range(n):
                    ui = u.comps[i].terms
                    u0 = ui.get(zero)
                    if u0 is not None:  # u_i(0) * d/dx_i of w_j's coefficients
                        for m, c in wj.items():
                            pairs.setdefault(m, []).append((u0, c.derive(i), sign))
                    for a, ca in ui.items():
                        if a == zero:
                            continue
                        # (t^a coefficient of u_i) * d/dt_i hitting w_j
                        for b, cb in wj.items():
                            if b[i]:
                                m = mi_lower(mi_add(a, b), i)
                                if mi_degree(m) <= k:
                                    pairs.setdefault(m, []).append((ca, cb, sign * b[i]))
            out.append(Jet._from_products(chart, k, pairs))
        return JetField._new(chart, k, out)

    def __str__(self):
        return field_str(self, "[{}]*d/d{}")


def jf_from_pair(a, v, k):
    """The decomposable a # v: component i is a * jet_of(v_i)."""
    if a.chart is not v.chart and a.chart != v.chart:
        raise ChartMismatch("scalar and field live on different charts")
    return JetField._new(v.chart, k, [jet_of(c, k).scale(a) for c in v.coeffs])


def decompose(u, params=None, basis=None):
    """Write u as a finite sum of decomposables: returns [(a, eta), ...] with
    sum jf_from_pair(a, eta, k) == u.

    Uses the expansion of each coefficient u_{p,m} t^m as
    (-1)^|m| (u_{p,m} # 1) delta(x)^m and expands the delta powers
    binomially, so eta ranges over monomial multiples of the coordinate
    fields.  `params` and `basis` default to the chart's own coordinates and
    coordinate fields; passing others re-expresses the same algebra relative
    to a different frame (the atlas module uses this)."""
    chart = u.chart
    n = chart.nparams
    if params is None:
        params = [chart.param(i) for i in range(n)]
    if basis is None:
        basis = [VectorField.coordinate(chart, i) for i in range(n)]
    xpow = mi_powers(chart.one(), params, u.order)
    out = []
    for p in range(n):
        for m, c in u.comps[p].coeffs.items():
            sm = mi_degree(m)
            for l, b in mi_binomials(m):
                sign = (-1) ** (sm + mi_degree(l))
                a = c * b * sign * xpow[mi_sub(m, l)]
                out.append((a, basis[p].scale(xpow[l])))
    return out


def localization_partial_sum(g, v, m, k):
    """S_m = sum_{r=0}^{m} (1/g^{r+1}) delta(g)^r (1 # v) at order k.

    g must be invertible on the chart.  For m >= k this equals
    1 # (1/g) v exactly: delta(g)^r has t-order >= r, so every term with
    r > k is zero at order k and the sum stops at min(m, k)."""
    if m < 0:
        raise ValueError("partial sum index must be >= 0")
    ginv, one = g.invert(), v.chart.one()
    dg = delta(g, k)
    items = [(ginv, jet_scalar(one, k), 1)]  # (1/g^{r+1}, delta(g)^r, 1)
    for _ in range(min(m, k)):
        items.append((items[-1][0] * ginv, items[-1][1] * dg, 1))
    return jf_from_pair(one, v, k).scale_jet(Jet.combination(v.chart, k, items))


def localization_defect(g, v, m, k):
    """(S_m, 1 # (1/g) v - S_m) at order k: the partial sum and its defect,
    which localization_remainder gives in closed form."""
    part = localization_partial_sum(g, v, m, k)
    return part, jf_from_pair(v.chart.one(), v.scale(g.invert()), k) - part


def localization_remainder(g, v, m, k):
    """Closed form of 1 # (1/g) v  -  S_m:

        sum_{s=0}^{m+1} (-1)^s binom(m+1, s) (1/g^s) # (g^{s-1} v)

    (the s = 0 term reads 1 # (1/g) v).  Exact at every order, and of
    t-valuation >= m+1.  The powers are running products, one per step and
    none after the last s: a_1 = 1/g, a_s = a_{s-1} (1/g) for 1/g^s, and
    b_1 = 1, b_2 = g, b_s = b_{s-1} g for g^{s-1}.  Reduced normal forms
    and canonical content are unique, so each equals the power exactly."""
    if m < 0:
        raise ValueError("partial sum index must be >= 0")
    chart = v.chart
    ginv = g.invert()
    items = []  # per component: (1/g^s, jet of g^{s-1} v_i, sign)
    for s in range(m + 2):  # a = 1/g^s, b = g^{s-1}
        if s < 2:
            a, b = (chart.one(), ginv) if s == 0 else (ginv, chart.one())
        else:
            a, b = a * ginv, g if s == 2 else b * g
        sign = (-1) ** s * math.comb(m + 1, s)
        items.append([(a, jet_of(c, k), sign) for c in v.scale(b).coeffs])
    return JetField._new(chart, k, [Jet.combination(chart, k, col) for col in zip(*items)])

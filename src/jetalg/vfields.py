"""Vector fields on a chart: derivations sum_i f_i d/dx_i with f_i in A.

The d/dx_i are the extended partials of the chart, so a vector field acts on
all of A (generators and inverted denominators included).  The coefficient
tuple determines the field; bracket and module structure are computed
coefficientwise.
"""

from __future__ import annotations

from .charts import RingElem, sum_products
from .sparse import TupleElem


class VectorField(TupleElem):
    """sum_i f_i d/dx_i: one coefficient per parameter; linear structure
    from sparse.TupleElem, grade None."""

    __slots__ = ()

    coeffs = TupleElem.parts  # the base slot under its coefficient name
    _part = RingElem

    def __init__(self, chart, coeffs):
        super().__init__(chart, None, coeffs)

    @classmethod
    def zero(cls, chart):
        return cls._new(chart, None, [chart.zero()] * chart.nparams)

    @classmethod
    def coordinate(cls, chart, i):
        """The basis field d/dx_i."""
        coeffs = [chart.zero()] * chart.nparams
        coeffs[i] = chart.one()
        return cls(chart, coeffs)

    def apply(self, f):
        """Action on a ring element: sum_i f_i * df/dx_i."""
        f._check(self)  # ChartMismatch unless f lives on this chart
        return sum_products(self.chart, [
            (c, f.derive(i), 1) for i, c in enumerate(self.coeffs) if c
        ])

    def bracket(self, other):
        """[v, w] = v w - w v, again a vector field."""
        self._check(other)
        return VectorField._new(self.chart, None, [
            self.apply(other.coeffs[j]) - other.apply(self.coeffs[j])
            for j in range(self.chart.nparams)
        ])

    def scale(self, a):
        """Left A-module action f * v (a may be RingElem, int or Fraction)."""
        return VectorField._new(self.chart, None, [a * c for c in self.coeffs])

    def __str__(self):
        return field_str(self, "({})*d/d{}")


def field_str(u, fmt):
    """Display of a field with one part per parameter x_i:
    fmt.format(part, x_i) over the nonzero parts, joined by ' + '."""
    return " + ".join(
        fmt.format(p, x) for p, x in zip(u.parts, u.chart.params) if not p.is_zero()
    ) or "0"

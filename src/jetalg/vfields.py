"""Vector fields on a chart: derivations sum_i f_i d/dx_i with f_i in A.

The d/dx_i are the extended partials of the chart, so a vector field acts on
all of A (generators and inverted denominators included).  The coefficient
tuple determines the field; bracket and module structure are computed
coefficientwise.
"""

from __future__ import annotations

from fractions import Fraction

from .charts import ChartMismatch, RingElem, sum_products


class VectorField:
    __slots__ = ("chart", "coeffs")

    def __init__(self, chart, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != chart.nparams:
            raise ValueError(
                f"need {chart.nparams} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if not isinstance(c, RingElem):
                raise TypeError("coefficients must be RingElem")
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatch("coefficient lives on a different chart")
        self.chart = chart
        self.coeffs = coeffs

    @classmethod
    def zero(cls, chart):
        return cls(chart, [chart.zero()] * chart.nparams)

    @classmethod
    def coordinate(cls, chart, i):
        """The basis field d/dx_i."""
        coeffs = [chart.zero()] * chart.nparams
        coeffs[i] = chart.one()
        return cls(chart, coeffs)

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch("vector fields live on different charts")

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f):
        """Action on a ring element: sum_i f_i * df/dx_i."""
        return sum_products(self.chart, [
            (c, f.derive(i), 1) for i, c in enumerate(self.coeffs) if not c.is_zero()
        ])

    def bracket(self, other):
        """[v, w] = v w - w v, again a vector field."""
        self._check(other)
        coeffs = [
            self.apply(other.coeffs[j]) - other.apply(self.coeffs[j])
            for j in range(self.chart.nparams)
        ]
        return VectorField(self.chart, coeffs)

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        self._check(other)
        return VectorField(
            self.chart, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return VectorField(self.chart, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def scale(self, a):
        """Left A-module action f * v (a may be RingElem, int or Fraction)."""
        if isinstance(a, (int, Fraction)):
            return VectorField(self.chart, [c * a for c in self.coeffs])
        return VectorField(self.chart, [a * c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        self._check(other)
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __str__(self):
        parts = [
            f"({c})*d/d{name}"
            for c, name in zip(self.coeffs, self.chart.params)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"VectorField({str(self)!r})"

"""Sparse free modules over a chart ring.

Jets, current elements, differential operators and D (x) U(L^(r)) are
finite sums of basis keys with chart-ring coefficients.  They share one
storage rule -- ``terms`` maps key -> RingElem and never stores a zero --
and with it the linear structure.  Since no zero is stored, equality is
plain dict equality (coefficients compare by RingElem equality).

A subclass fixes what ``grade`` means (jet order or truncation r; None for
differential operators), supplies ``_key(chart, grade, key)`` to normalise
and check one caller-given key, and adds its product and display.
"""

from __future__ import annotations

from .charts import ChartMismatch, RingElem, sum_products


def accumulate(out, key, c):
    """out[key] += c, inserting c for a new key.  A sum that cancels stays
    in ``out``; ``SparseElem._new`` drops it."""
    got = out.get(key)
    out[key] = c if got is None else got + c


class SparseElem:
    """dict key -> nonzero RingElem on a chart, at a fixed grade."""

    __slots__ = ("chart", "grade", "terms")

    def __init__(self, chart, r, terms=()):
        """Validating constructor for caller input: terms is a dict or
        key/value pairs, repeated keys sum; r is the grade (CurrentElem and
        TensorElem take this constructor under their own names)."""
        clean = {}
        for key, c in (terms.items() if isinstance(terms, dict) else terms):
            key = self._key(chart, r, key)
            if not isinstance(c, RingElem):
                raise TypeError("coefficients must be RingElem")
            if not c.is_zero():
                accumulate(clean, key, c)
        self.chart = chart
        self.grade = r
        self.terms = {k: c for k, c in clean.items() if not c.is_zero()}

    @classmethod
    def _new(cls, chart, grade, terms):
        """Trusted constructor for internal results, whose keys are valid by
        construction; only the zero coefficients are dropped."""
        self = object.__new__(cls)
        self.chart = chart
        self.grade = grade
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}
        return self

    @classmethod
    def _from_products(cls, chart, grade, pairs):
        """Trusted constructor from key -> [(a, b, q)]: each coefficient is
        the charts.sum_products of its triples."""
        return cls._new(chart, grade, {k: sum_products(chart, t) for k, t in pairs.items()})

    @classmethod
    def zero(cls, chart, grade=None):
        return cls._new(chart, grade, {})

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(f"{type(self).__name__}s live on different charts")
        if self.grade != other.grade:
            raise ValueError(f"orders differ: {self.grade} vs {other.grade}")

    def get(self, key):
        """Coefficient at a normalised key (zero when absent)."""
        got = self.terms.get(key)
        return got if got is not None else self.chart.zero()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._new(self.chart, self.grade, out)

    def __neg__(self):
        return self._new(
            self.chart, self.grade, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, a):
        """Multiply every coefficient by the scalar a (the left A-action)."""
        return self._new(
            self.chart, self.grade, {k: a * c for k, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

"""The two module bases: sparse sums of basis keys and fixed tuples of parts.

SparseElem: jets, current elements, differential operators, D (x) U(L^(r))
and L^(r) are finite sums of basis keys.  ``terms`` maps key -> coefficient
and never stores a zero, so equality is plain dict equality.  A subclass
fixes what ``grade`` means (jet order or truncation r; None for differential
operators), supplies ``_key(chart, grade, key)`` to normalise and check one
caller-given key, ``_key_order`` and ``_term_str`` for display, and adds its
product.  The hook ``_coef`` checks one caller-given coefficient: a RingElem
by default, while LElem converts with ``Fraction`` and keeps the number of
variables in the ``chart`` slot.  ``if c`` is the zero test of both
coefficient rings (``RingElem.__bool__``).  ``combination`` sums q * a * X
by one ``charts.sum_products`` per key, as the products do: no scaled X.

TupleElem: vector fields, jet fields and semidirect pairs are a fixed tuple
of ``parts`` (ring or module elements) with partwise linear structure.  A
subclass names the slots and adds its scalar action, bracket and display.
Caller input is validated through the base constructor, which reads the
subclass's ``_part`` (RingElem or Jet): one part of that type per chart
parameter, on the chart and at the grade.  SemiDirectElem, whose two parts
differ in type, checks its own.

Both bases check that two operands share chart and grade (``_check``); their
``_new`` is the trusted constructor for internal results.  Their common
parent ``_Linear`` holds the shared ``repr``: the class name, the grade when
it is not None, and ``str(self)``.
"""

from __future__ import annotations

from .charts import ChartMismatch, RingElem, sum_products


def accumulate(out, key, c):
    """out[key] += c, inserting c for a new key.  A sum that cancels stays
    in ``out``; ``SparseElem._new`` drops it."""
    got = out.get(key)
    out[key] = c if got is None else got + c


class _Linear:
    """Chart and grade slots, the operand check, subtraction and repr."""

    __slots__ = ("chart", "grade")

    def __repr__(self):
        grade = "" if self.grade is None else f"grade={self.grade}, "
        return f"{type(self).__name__}({grade}{str(self)!r})"

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(f"{type(self).__name__}s live on different charts")
        if self.grade != other.grade:
            raise ValueError(f"orders differ: {self.grade} vs {other.grade}")

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)


class SparseElem(_Linear):
    """dict key -> nonzero coefficient on a chart, at a fixed grade."""

    __slots__ = ("terms",)

    def __init__(self, chart, r, terms=()):
        """Validating constructor for caller input: terms is a dict or
        key/value pairs, repeated keys sum; r is the grade (CurrentElem and
        TensorElem take this constructor under their own names)."""
        clean = {}
        for key, c in (terms.items() if isinstance(terms, dict) else terms):
            key = self._key(chart, r, key)
            c = self._coef(c)
            if c:
                accumulate(clean, key, c)
        self.chart = chart
        self.grade = r
        self.terms = {k: c for k, c in clean.items() if c}

    @staticmethod
    def _coef(c):
        if not isinstance(c, RingElem):
            raise TypeError("coefficients must be RingElem")
        return c

    @classmethod
    def _new(cls, chart, grade, terms):
        """Trusted constructor; only the zero coefficients are dropped."""
        self = object.__new__(cls)
        self.chart = chart
        self.grade = grade
        self.terms = {k: c for k, c in terms.items() if c}
        return self

    @classmethod
    def _from_products(cls, chart, grade, pairs):
        """Trusted constructor from key -> [(a, b, q)]: each coefficient is
        the charts.sum_products of its triples."""
        return cls._new(chart, grade, {k: sum_products(chart, t) for k, t in pairs.items()})

    @classmethod
    def combination(cls, chart, grade, items):
        """sum q * a * X over (a, X, q) items, a a RingElem and q an int or
        Fraction: one sum_products per output key (module docstring)."""
        pairs = {}
        for a, X, q in items:
            for k, c in X.terms.items():
                pairs.setdefault(k, []).append((a, c, q))
        return cls._from_products(chart, grade, pairs)

    @classmethod
    def zero(cls, chart, grade=None):
        return cls._new(chart, grade, {})

    def sorted_items(self):
        """(key, coefficient) pairs in the display order of the keys,
        ``_key_order``."""
        return sorted(self.terms.items(), key=lambda t: self._key_order(t[0]))

    def __str__(self):
        return " + ".join(self._term_str(k, c) for k, c in self.sorted_items()) or "0"

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

    def scale(self, a):
        """Multiply every coefficient by the scalar a (the left action)."""
        return self._new(
            self.chart, self.grade, {k: a * c for k, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms


class TupleElem(_Linear):
    """A fixed tuple of parts on a chart, at a fixed grade; partwise linear
    structure."""

    __slots__ = ("parts",)

    def __init__(self, chart, grade, parts):
        """Validating constructor for caller input: one part per chart
        parameter, each an instance of the subclass's ``_part`` on this
        chart and, when grade is not None, at this grade."""
        parts = tuple(parts)
        if len(parts) != chart.nparams:
            raise ValueError(f"need {chart.nparams} parts, got {len(parts)}")
        for p in parts:
            if not isinstance(p, self._part):
                raise TypeError(f"parts must be {self._part.__name__}")
            if p.chart is not chart and p.chart != chart:
                raise ChartMismatch("part lives on a different chart")
            if grade is not None and p.grade != grade:
                raise ValueError(f"part grade {p.grade} differs from {grade}")
        self.chart = chart
        self.grade = grade
        self.parts = parts

    @classmethod
    def _new(cls, chart, grade, parts):
        """Trusted constructor: the parts are valid by construction."""
        self = object.__new__(cls)
        self.chart = chart
        self.grade = grade
        self.parts = tuple(parts)
        return self

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._new(
            self.chart, self.grade, [a + b for a, b in zip(self.parts, other.parts)]
        )

    def __neg__(self):
        return self._new(self.chart, self.grade, [-p for p in self.parts])

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return all(a == b for a, b in zip(self.parts, other.parts))

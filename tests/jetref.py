"""Reference jets: of a polynomial without derive, and exact coefficient forms.

For p = sum_a c_a x^a over s = 0, p(x + t) = sum_a c_a (x + t)^a, and the
binomial theorem in each variable gives its t^m coefficient as
sum_a c_a binom(a, m) x^(a - m) over the a >= m.  ``ref_jet_poly`` builds
those coefficients from the terms of the numerator, so it shares no step
with ``jets.jet_of``, which walks the derivative chain of ``derive``.  The
generator part (Newton steps for y) and the denominator part (series
inversion of g^s) are not here yet.

``ref_jet_coeffs`` and ``ref_localization_remainder`` pin exact forms
instead: each jet coefficient as d^m f times its own Fraction(1, m!), and the
remainder's closed form with every 1/g^s and g^(s-1) taken as a power.  Both
return the coefficients as (numerator dict, content denominator, s), which
reduced normal forms make unique.
"""

import math
from fractions import Fraction

from jetalg.jets import Jet, jet_of
from jetalg.multipoly import (
    Poly, mi_below, mi_binomial, mi_degree, mi_range, mi_sub,
)


def ref_jet_poly(chart, terms, k):
    """The order-k jet of the polynomial sum c_a x^a over s = 0, terms
    mapping each parameter exponent tuple a to c_a."""
    pad = (0,) * chart.ngens
    coeffs = {}  # m -> {exponent of x^(a - m) over allvars: coefficient}
    for a, c in terms.items():
        for m in mi_below(a):
            if mi_degree(m) <= k:
                row = coeffs.setdefault(m, {})
                key = mi_sub(a, m) + pad
                row[key] = row.get(key, 0) + c * mi_binomial(a, m)
    return Jet(chart, k, {m: chart.elem(Poly(chart.allvars, row))
                          for m, row in coeffs.items()})


def exact(jet):
    """{m: (numerator dict, content denominator, s)} of a jet's coefficients."""
    return {m: (c.num.nums, c.num.den, c.s) for m, c in jet.terms.items()}


def ref_jet_coeffs(f, k):
    """exact(jet_of(f, k)) from derive_multi: d^m f * Fraction(1, m!) for
    every |m| <= k with a nonzero derivative."""
    out = {}
    for m in mi_range(f.chart.nparams, k):
        c = f.derive_multi(m) * Fraction(1, math.prod(map(math.factorial, m)))
        if c:
            out[m] = (c.num.nums, c.num.den, c.s)
    return out


def ref_localization_remainder(g, v, m, k):
    """[exact(component)] of localization_remainder(g, v, m, k) in its
    power form: sum_s (-1)^s binom(m+1, s) (ginv ** s) # (g ** (s-1) v)."""
    chart, ginv = v.chart, g.invert()
    items = []
    for s in range(m + 2):
        a = chart.one() if s == 0 else ginv ** s
        w = v.scale(ginv if s == 0 else g ** (s - 1))
        sign = (-1) ** s * math.comb(m + 1, s)
        items.append([(a, jet_of(c, k), sign) for c in w.coeffs])
    return [exact(Jet.combination(chart, k, col)) for col in zip(*items)]

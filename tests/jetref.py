"""Reference jet of a polynomial in the parameters, built without derive.

For p = sum_a c_a x^a over s = 0, p(x + t) = sum_a c_a (x + t)^a, and the
binomial theorem in each variable gives its t^m coefficient as
sum_a c_a binom(a, m) x^(a - m) over the a >= m.  ``ref_jet_poly`` builds
those coefficients from the terms of the numerator, so it shares no step
with ``jets.jet_of``, which walks the derivative chain of ``derive``.  The
generator part (Newton steps for y) and the denominator part (series
inversion of g^s) are not here yet.
"""

from jetalg.jets import Jet
from jetalg.multipoly import Poly, mi_below, mi_binomial, mi_degree, mi_sub


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

"""Reference inversion: the search of ``RingElem.invert`` over powers of g
built on their own, each raw g^k as ``chart.denominator ** k`` and each
reduced one as ``chart.reduce`` of it, both tried at every k (raw first, the
same bound).  The kernel builds each power from the one below and tries the
reduced power only where reduce changed it, so the two must agree on the
least k, the numerator and s; the differential test in ``test_charts``
compares them.
"""

from jetalg.charts import NotInvertible, RingElem
from jetalg.multipoly import FIELD_MASK, poly_div_exact


def ref_invert(a):
    """The inverse of the ring element a, as ``RingElem.invert`` returns it."""
    chart = a.chart
    bound = max(chart.exponents(a.s)) + a.num.degree() + 4
    for k in range(bound + 1):
        raw = chart.denominator ** k
        for dividend in (raw, chart.reduce(raw)):
            q = poly_div_exact(dividend, a.num)
            if q is not None:
                # q F^s / g^k over t, the join of g^k and F^s, then each
                # factor left in the denominator divided out of q
                gk = k * chart._gexp
                t = chart.join(gk, a.s)
                s = t - a.s
                for f, sh in zip(chart.factors, chart._shifts):
                    while s >> sh & FIELD_MASK and (d := poly_div_exact(q, f)) is not None:
                        q, s = d, s - (1 << sh)
                if t != gk:
                    q = q * chart.lift(t - gk)
                return RingElem._new(chart, chart.reduce(q), s)
    raise NotInvertible(f"cannot invert {a}")

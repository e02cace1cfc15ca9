"""Reference extended partial derivative built from RingElem arithmetic.

The derivative of N/g^s in direction i is assembled the long way: the total
derivative of N (its parameter partial plus, for each generator, its
generator partial times dy_j/dx_i, summed as ring elements) over g^s, minus
the quotient-rule term s * N * dg/dx_i over g^(s + 1).  Every step goes
through RingElem's public arithmetic, so the differential tests can compare
it with the one-pass kernel of ``RingElem.derive``.  The chart's tables of
dy_j/dx_i and dg/dx_i that it reads are built with that kernel, so
``test_charts`` pins them against ``ref_total_derivative``.
"""

from jetalg.charts import RingElem


def ref_total_derivative(chart, poly, i):
    """d/dx_i of a polynomial in the parameters and generators."""
    out = RingElem(chart, poly.partial(i))
    for j in range(chart.ngens):
        dp = poly.partial(chart.gen_index(j))
        if not dp.is_zero():
            out = out + RingElem(chart, dp) * chart._dy[j][i]
    return out


def ref_derive(e, i):
    """d/dx_i of the ring element e."""
    chart = e.chart
    dnum = ref_total_derivative(chart, e.num, i)
    out = RingElem(chart, dnum.num, dnum.s + e.s)
    if e.s:
        dg = chart._dg[i]
        out = out - RingElem(chart, e.num * dg.num * e.s, dg.s + e.s + 1)
    return out

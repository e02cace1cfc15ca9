"""Reference extended partial derivative built from RingElem arithmetic.

The derivative of N/F^s in direction i (F^s the product of the factors f_k
of g to the powers s_k) is assembled the long way: the total derivative of
N (its parameter partial plus, for each generator, its generator partial
times dy_j/dx_i), each piece times 1/F^s, minus, for each factor with
s_k > 0, the quotient-rule term s_k * N/F^s * df_k/dx_i * 1/f_k.
The partials of N come from ``polyref.ref_partial`` (``poly_partial``), not
from the packed kernel; every other step but the two denominators 1/F^s and
1/f_k, which are built directly, goes through RingElem's public
arithmetic, and the pieces are
added one at a time by ``sumref.ref_fold``, so the differential tests can
compare it with the one-pass kernel of ``RingElem.derive``: the numerator
and s agree unless a partial sum cancels to zero midway (N = c * x^s on a
chart with g = x * (x - 1) drops x from the denominator), and the ring
element agrees always.  The chart's tables of dy_j/dx_i and df_k/dx_i that
it reads are built with that kernel, so ``test_charts`` pins them against
``ref_total_derivative``.
"""

from jetalg.charts import RingElem
from jetalg.multipoly import Poly

from polyref import ref_partial
from sumref import ref_fold


def poly_partial(poly, i):
    """The partial derivative of a Poly in variable i, by ``ref_partial`` on
    its terms, so the reference takes no partial from the packed kernel."""
    return Poly(poly.vars, ref_partial(poly.terms, i))


def _total_pieces(chart, poly, i):
    """The parameter partial of poly and, for each generator it involves,
    its generator partial times dy_j/dx_i."""
    pieces = [chart.elem(poly_partial(poly, i))]
    for j in range(chart.ngens):
        dp = poly_partial(poly, chart.gen_index(j))
        if not dp.is_zero():
            pieces.append(chart.elem(dp) * chart._dy[j][i])
    return pieces


def ref_total_derivative(chart, poly, i):
    """d/dx_i of a polynomial in the parameters and generators."""
    return ref_fold(chart, _total_pieces(chart, poly, i))[0]


def ref_derive(e, i):
    """(d/dx_i of the ring element e, cancelled), as ``ref_fold`` returns."""
    chart = e.chart
    one = chart.one().num
    inv = RingElem._new(chart, one, e.s)
    pieces = [p * inv for p in _total_pieces(chart, e.num, i)]
    for k, n in enumerate(chart.exponents(e.s)):
        if n:
            inv_f = RingElem._new(chart, one, 1 << chart._shifts[k])
            pieces.append(-(e * n * chart._df[k][i] * inv_f))
    return ref_fold(chart, pieces)

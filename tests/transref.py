"""Reference transition map: the binomial sum that ``atlas.transition_l``
collapses to one product.

X^m d/dX_p goes to

  sum_{0<=k<=m} (-1)^{|m|-|k|} binom(m,k) x^{m-k} *
      sum_q [ G(y+Y)^k * h_qp(G(y+Y))  -  x^k h_qp ] d/dY_q

term by term: the powers G(y+Y)^k are built from the y-frame jets of G,
the x^k and x^{m-k} from the overlap values G_i, and the constant jets of
x^k h_qp are subtracted before scaling.  Only h_qp(G(y+Y)) is taken from the
pair's cached composition data, so the differential tests compare the
collapse itself, not the shared jet expansion.
"""

from jetalg.atlas import frame_jet
from jetalg.jets import Jet, jet_scalar
from jetalg.liealg import CurrentElem
from jetalg.multipoly import mi_below, mi_binomial, mi_degree, mi_split, mi_sub


def ref_transition_l(tp, m, p, r):
    """The image of X^m d/dX_p across tp, truncated at r, by the binomial
    sum over k <= m."""
    ov = tp.overlap
    n = ov.nparams
    m = tuple(m)
    _products, hcomp = tp._composition_data(r)
    Gy = [frame_jet(tp.frames[1], g, r) for g in tp.G]
    comps = [Jet.zero(ov, r) for _ in range(n)]
    gy_pows = {}
    for k in mi_below(m):
        if mi_degree(k) == 0:
            gy_pows[k] = jet_scalar(ov.one(), r)
        else:
            i, prev = mi_split(k)
            gy_pows[k] = gy_pows[prev] * Gy[i]
        sign = (-1) ** (mi_degree(m) - mi_degree(k)) * mi_binomial(m, k)
        outer = ov.one()
        for i, e in enumerate(mi_sub(m, k)):
            outer = outer * tp.G[i] ** e
        xk = ov.one()
        for i, e in enumerate(k):
            xk = xk * tp.G[i] ** e
        for q in range(n):
            part = gy_pows[k] * hcomp[q][p] - jet_scalar(xk * tp.dH_dx(q, p), r)
            comps[q] = comps[q] + part.scale(outer * sign)
    return CurrentElem(ov, r, {
        (mm, q): c for q in range(n) for mm, c in comps[q].coeffs.items()
    })

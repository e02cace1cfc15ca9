"""Reference smash decomposition: the loop ``jetfields.decompose`` runs, with
a fresh power params[i] ** e for every pair instead of a table of powers.

Each coefficient u_{p,m} t^m expands as (-1)^|m| (u_{p,m} # 1) delta(x)^m,
and the delta powers expand binomially into pairs

  ((-1)^{|m|+|l|} binom(m,l) u_{p,m} x^{m-l},  x^l basis[p])   for l <= m,

in the order of the components, their coefficients and mi_below(m).  The
differential tests compare the pairs and their printed forms with
``decompose``.
"""

from jetalg.multipoly import mi_below, mi_binomial, mi_degree, mi_sub
from jetalg.vfields import VectorField


def ref_decompose(u, params=None, basis=None):
    """[(a, eta), ...] with sum jf_from_pair(a, eta, k) == u."""
    chart = u.chart
    n = chart.nparams
    if params is None:
        params = [chart.param(i) for i in range(n)]
    if basis is None:
        basis = [VectorField.coordinate(chart, i) for i in range(n)]
    out = []
    for p in range(n):
        for m, c in u.comps[p].coeffs.items():
            sm = mi_degree(m)
            for l in mi_below(m):
                sign = (-1) ** (sm + mi_degree(l))
                a = c * mi_binomial(m, l) * sign
                for i, e in enumerate(mi_sub(m, l)):
                    a = a * params[i] ** e
                coef = chart.one()
                for i, e in enumerate(l):
                    coef = coef * params[i] ** e
                out.append((a, basis[p].scale(coef)))
    return out

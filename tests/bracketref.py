"""Reference jet-field bracket: the two half actions, each a jet field of
its own, subtracted as jet fields,

    [u, w] = H(u, w) - H(w, u),
    H(u, w)_j = sum_i u_i(0) * Dx_i(w_j) + (u_i - u_i(0)) * Dt_i(w_j),

where Dx_i differentiates the coefficients and Dt_i is d/dt_i.
``JetField.bracket`` adds both halves into one sum of products per
coefficient, so the two must be equal as ring elements; the differential
test in ``test_jetfields`` compares them.  ``drop_constant_part`` leaves
the u_i(0) * Dx_i part out of a half, the mutant the verify suites must
catch.
"""

from jetalg.jetfields import JetField
from jetalg.jets import Jet
from jetalg.multipoly import mi_add, mi_degree, mi_lower, mi_zero


def half_action(u, w, drop_constant_part=False):
    """H(u, w), componentwise; without its u_i(0) * Dx_i part when
    drop_constant_part is set."""
    chart = u.chart
    k = u.order
    n = chart.nparams
    out = []
    for j in range(n):
        wj = w.comps[j]
        pairs = {}  # t-monomial -> [(a, b, q)]
        for i in range(n):
            ui = u.comps[i]
            u0 = ui.terms.get(mi_zero(n))
            if u0 is not None and not drop_constant_part:
                for m, c in wj.terms.items():
                    pairs.setdefault(m, []).append((u0, c.derive(i), 1))
            for a, ca in ui.terms.items():
                if mi_degree(a) == 0:
                    continue
                for b, cb in wj.terms.items():
                    if not b[i]:
                        continue
                    m = mi_lower(mi_add(a, b), i)
                    if mi_degree(m) <= k:
                        pairs.setdefault(m, []).append((ca, cb, b[i]))
        out.append(Jet._from_products(chart, k, pairs))
    return JetField._new(chart, k, out)


def ref_bracket(u, w):
    """[u, w] as H(u, w) - H(w, u)."""
    u._check(w)
    return half_action(u, w) - half_action(w, u)


def mutant_bracket(u, w):
    """[u, w] with the u_i(0) * Dx_i part of the second half dropped."""
    u._check(w)
    return half_action(u, w) - half_action(w, u, drop_constant_part=True)

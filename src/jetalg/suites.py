"""Verification suites: seeded, reproducible checks of the algebraic
statements the library implements, over user-supplied or built-in charts.

Every suite draws its inputs from a Sampler seeded by (seed, suite, chart,
order), so a failing record's witness plus the printed repro command
regenerates the exact failing case.  Dual-route checks (bracket vs its
decomposable formula, transition_l vs transition_via_iso) always run both
routes; they are the point of the exercise."""

from __future__ import annotations

from . import __version__
from .atlas import (
    TransitionError, cocycle_check, filtration_check,
    jacobian_quotient_check, transition_l, transition_via_iso,
    transport_current, validate_transition,
)
from .envalg import av_to_tensor, pbw_normalize, u_mul
from .jets import delta, jet_of, taylor_identity_check
from .jetfields import (
    jf_from_pair, localization_partial_sum, localization_remainder,
)
from .liealg import CurrentElem, basis_bracket, phi, psi
from .multipoly import mi_degree, mi_range
from .report import CheckRecord, Report
from .sparse import accumulate
from .sampling import Sampler, derive_seed

SUITE_IDS = (
    "taylor", "jet-hom", "smash-bracket", "iso-roundtrip", "iso-hom",
    "localization", "pbw", "av-tensor", "transition", "cocycle",
)

CHART_SUITES = SUITE_IDS[:8]
ATLAS_SUITES = SUITE_IDS[8:]


class SuiteEnv:
    def __init__(self, charts, atlas, orders, samples, seed,
                 chart_labels=None, atlas_label=None):
        self.charts = list(charts)
        self.atlas = atlas
        self.orders = list(orders)
        self.samples = samples
        self.seed = seed
        self.chart_labels = list(chart_labels or [c.name for c in self.charts])
        self.atlas_label = atlas_label or (atlas.name if atlas else None)

    def repro(self, suite):
        parts = [f"jetalg verify --suite {suite}"]
        for label in self.chart_labels:
            parts.append(f"--chart {label}")
        if self.atlas_label:
            parts.append(f"--atlas {self.atlas_label}")
        parts.append(f"--orders {','.join(str(k) for k in self.orders)}")
        parts.append(f"--samples {self.samples}")
        parts.append(f"--seed {self.seed}")
        return " ".join(parts)

    def record(self, suite, check, statement, params, ok, inputs):
        witness = None
        if not ok:
            witness = {"repro": self.repro(suite)}
            witness.update({k: str(v) for k, v in inputs.items()})
        return CheckRecord(check, statement, params, "pass" if ok else "fail", witness)


def _special_elems(chart):
    out = [chart.param(0)]
    if chart.denominator.degree() > 0:
        out.append(chart.inv_denominator())
    if chart.gens:
        out.append(chart.gen(0))
    return out


def suite_taylor(env):
    st = "truncated Taylor expansion identities in the jet algebra"
    recs = []
    for chart in env.charts:
        for k in env.orders:
            smp = Sampler(derive_seed(env.seed, "taylor", chart.name, k))
            cases = _special_elems(chart) + [
                smp.elem(chart) for _ in range(env.samples)
            ]
            for idx, f in enumerate(cases):
                ok = taylor_identity_check(f, k)
                recs.append(env.record(
                    "taylor", f"taylor/{chart.name}/k{k}/{idx}", st,
                    {"chart": chart.name, "k": k, "case": idx}, ok, {"f": f},
                ))
    return recs


def suite_jet_hom(env):
    st1 = "the jet map is a ring homomorphism"
    st2 = "delta satisfies the Leibniz rule delta(fg) = f delta(g) + delta(f) j(g)"
    recs = []
    for chart in env.charts:
        for k in env.orders:
            smp = Sampler(derive_seed(env.seed, "jet-hom", chart.name, k))
            for idx in range(env.samples):
                f = smp.elem(chart)
                g = smp.elem(chart)
                jf, jg = jet_of(f, k), jet_of(g, k)
                ok1 = (
                    jet_of(f * g, k) == jf * jg
                    and jet_of(f + g, k) == jf + jg
                    and (jf * jg).eval_diagonal() == f * g
                )
                recs.append(env.record(
                    "jet-hom", f"jet-hom/{chart.name}/k{k}/{idx}/hom", st1,
                    {"chart": chart.name, "k": k, "case": idx}, ok1,
                    {"f": f, "g": g},
                ))
                ok2 = delta(f * g, k) == delta(g, k).scale(f) + delta(f, k) * jet_of(g, k)
                recs.append(env.record(
                    "jet-hom", f"jet-hom/{chart.name}/k{k}/{idx}/leibniz", st2,
                    {"chart": chart.name, "k": k, "case": idx}, ok2,
                    {"f": f, "g": g},
                ))
    return recs


def bracket_oracle(a1, g1, a2, g2, k):
    """Three-term formula for the bracket of decomposables:
    [a1 # g1, a2 # g2] = a1 g1(a2) # g2 - a2 g2(a1) # g1 + a1 a2 # [g1, g2]."""
    return (
        jf_from_pair(a1 * g1.apply(a2), g2, k)
        - jf_from_pair(a2 * g2.apply(a1), g1, k)
        + jf_from_pair(a1 * a2, g1.bracket(g2), k)
    )


def suite_smash_bracket(env):
    st1 = "bracket of decomposables matches the three-term formula"
    st2 = "the bracket is a Lie bracket (antisymmetry, Jacobi)"
    st3 = "evaluation at t = 0 intertwines the brackets"
    recs = []
    for chart in env.charts:
        for k in env.orders:
            smp = Sampler(derive_seed(env.seed, "smash", chart.name, k))
            for idx in range(env.samples):
                a1, a2 = smp.elem(chart), smp.elem(chart)
                g1, g2 = smp.vfield(chart), smp.vfield(chart)
                u = jf_from_pair(a1, g1, k)
                w = jf_from_pair(a2, g2, k)
                ok1 = u.bracket(w) == bracket_oracle(a1, g1, a2, g2, k)
                recs.append(env.record(
                    "smash-bracket", f"smash-bracket/{chart.name}/k{k}/{idx}/oracle", st1,
                    {"chart": chart.name, "k": k, "case": idx}, ok1,
                    {"a1": a1, "g1": g1, "a2": a2, "g2": g2},
                ))
                z = smp.jetfield(chart, k)
                uw = u.bracket(w)
                jac = (
                    uw.bracket(z)
                    + w.bracket(z).bracket(u)
                    + z.bracket(u).bracket(w)
                )
                ok2 = uw == -(w.bracket(u)) and jac.is_zero()
                recs.append(env.record(
                    "smash-bracket", f"smash-bracket/{chart.name}/k{k}/{idx}/lie", st2,
                    {"chart": chart.name, "k": k, "case": idx}, ok2,
                    {"u": u, "w": w, "z": z},
                ))
                ok3 = uw.anchor() == u.anchor().bracket(w.anchor())
                recs.append(env.record(
                    "smash-bracket", f"smash-bracket/{chart.name}/k{k}/{idx}/anchor", st3,
                    {"chart": chart.name, "k": k, "case": idx}, ok3,
                    {"u": u, "w": w},
                ))
    return recs


def suite_iso_roundtrip(env):
    st = "the jet-field / semidirect-product maps are mutually inverse"
    recs = []
    for chart in env.charts:
        for k in env.orders:
            smp = Sampler(derive_seed(env.seed, "iso-roundtrip", chart.name, k))
            for idx in range(env.samples):
                u = smp.jetfield(chart, k)
                ok = psi(phi(u), k) == u
                recs.append(env.record(
                    "iso-roundtrip", f"iso-roundtrip/{chart.name}/k{k}/{idx}/jf", st,
                    {"chart": chart.name, "k": k, "case": idx}, ok, {"u": u},
                ))
                p = smp.semidirect(chart, k)
                ok = phi(psi(p, k)) == p
                recs.append(env.record(
                    "iso-roundtrip", f"iso-roundtrip/{chart.name}/k{k}/{idx}/sd", st,
                    {"chart": chart.name, "k": k, "case": idx}, ok, {"p": p},
                ))
    return recs


def suite_iso_hom(env):
    st = "the jet-field map preserves brackets into the semidirect product"
    recs = []
    for chart in env.charts:
        for k in env.orders:
            smp = Sampler(derive_seed(env.seed, "iso-hom", chart.name, k))
            for idx in range(env.samples):
                u = smp.jetfield(chart, k)
                w = smp.jetfield(chart, k)
                ok = phi(u.bracket(w)) == phi(u).bracket(phi(w))
                recs.append(env.record(
                    "iso-hom", f"iso-hom/{chart.name}/k{k}/{idx}", st,
                    {"chart": chart.name, "k": k, "case": idx}, ok,
                    {"u": u, "w": w},
                ))
    return recs


def suite_localization(env):
    st = "localization series: closed-form defect of valuation m+1"
    recs = []
    for chart in env.charts:
        g = chart.elem(chart.denominator)
        for k in env.orders:
            smp = Sampler(derive_seed(env.seed, "localization", chart.name, k))
            for idx in range(env.samples):
                v = smp.vfield(chart, max_s=0)
                m = smp.rng.randint(0, k)
                target = jf_from_pair(chart.one(), v.scale(g.invert()), k)
                part = localization_partial_sum(g, v, m, k)
                defect = target - part
                ok = (
                    defect == localization_remainder(g, v, m, k)
                    and defect.jf_order() >= m + 1
                    and (m < k or defect.is_zero())
                )
                recs.append(env.record(
                    "localization", f"localization/{chart.name}/k{k}/{idx}", st,
                    {"chart": chart.name, "k": k, "m": m, "case": idx}, ok,
                    {"v": v, "m": m},
                ))
    return recs


def suite_pbw(env):
    st1 = "straightening lands in normal form and is idempotent"
    st2 = "adjacent transposition inserts exactly the bracket"
    st3 = "the straightened product is associative"
    recs = []
    r = max(env.orders)
    dims = sorted({c.nparams for c in env.charts} | {1})
    for nvars in dims:
        smp = Sampler(derive_seed(env.seed, "pbw", nvars, r))
        for idx in range(env.samples):
            word = smp.basis_word(nvars, r, smp.rng.randint(2, 4))
            out = pbw_normalize(word, nvars, r)
            ok1 = all(pbw_normalize(w, nvars, r) == {w: 1} for w in out)
            recs.append(env.record(
                "pbw", f"pbw/n{nvars}/{idx}/normal", st1,
                {"nvars": nvars, "r": r, "case": idx}, ok1, {"word": word},
            ))
            a, b = word[0], word[1]
            diff = u_mul({(a,): 1}, {(b,): 1}, nvars, r)
            for w, c in u_mul({(b,): 1}, {(a,): 1}, nvars, r).items():
                accumulate(diff, w, -c)
            br = basis_bracket(a[0], a[1], b[0], b[1], r)
            ok2 = {w: c for w, c in diff.items() if c} == {
                (key,): c for key, c in br.items()
            }
            recs.append(env.record(
                "pbw", f"pbw/n{nvars}/{idx}/commutator", st2,
                {"nvars": nvars, "r": r, "case": idx}, ok2, {"a": a, "b": b},
            ))
            w1 = {smp.basis_word(nvars, r, 2): 1}
            w2 = {smp.basis_word(nvars, r, 2): 1}
            w3 = {smp.basis_word(nvars, r, 2): 1}
            ok3 = u_mul(u_mul(w1, w2, nvars, r), w3, nvars, r) == u_mul(
                w1, u_mul(w2, w3, nvars, r), nvars, r
            )
            recs.append(env.record(
                "pbw", f"pbw/n{nvars}/{idx}/assoc", st3,
                {"nvars": nvars, "r": r, "case": idx}, ok3,
                {"w1": w1, "w2": w2, "w3": w3},
            ))
    return recs


def suite_av_tensor(env):
    st1 = "the Leibniz relation maps to zero"
    st2 = "the factorization map is multiplicative on words"
    st3 = "vector-field commutators map to commutators"
    st4 = "the current part agrees with the jet-field reading"
    recs = []
    for chart in env.charts:
        for r in env.orders:
            smp = Sampler(derive_seed(env.seed, "av-tensor", chart.name, r))
            for idx in range(env.samples):
                eta = smp.vfield(chart)
                f = smp.nonzero_elem(chart)
                lhs = av_to_tensor([("vf", eta), ("fun", f)], r) - av_to_tensor(
                    [("fun", f), ("vf", eta)], r
                )
                ok1 = lhs == av_to_tensor([("fun", eta.apply(f))], r)
                recs.append(env.record(
                    "av-tensor", f"av-tensor/{chart.name}/r{r}/{idx}/relation", st1,
                    {"chart": chart.name, "r": r, "case": idx}, ok1,
                    {"eta": eta, "f": f},
                ))
                w1 = smp.av_word(chart, 2)
                w2 = smp.av_word(chart, 1)
                ok2 = av_to_tensor(w1 + w2, r) == av_to_tensor(w1, r) * av_to_tensor(w2, r)
                recs.append(env.record(
                    "av-tensor", f"av-tensor/{chart.name}/r{r}/{idx}/mult", st2,
                    {"chart": chart.name, "r": r, "case": idx}, ok2,
                    {"w1": [kind + ":" + str(v) for kind, v in w1],
                     "w2": [kind + ":" + str(v) for kind, v in w2]},
                ))
                mu = smp.vfield(chart)
                lhs = av_to_tensor([("vf", eta.bracket(mu))], r)
                rhs = av_to_tensor([("vf", eta), ("vf", mu)], r) - av_to_tensor(
                    [("vf", mu), ("vf", eta)], r
                )
                ok3 = lhs == rhs
                recs.append(env.record(
                    "av-tensor", f"av-tensor/{chart.name}/r{r}/{idx}/commutator", st3,
                    {"chart": chart.name, "r": r, "case": idx}, ok3,
                    {"eta": eta, "mu": mu},
                ))
                t = av_to_tensor([("vf", eta)], r)
                p = phi(jf_from_pair(chart.one(), eta, r))
                zero_mi = (0,) * chart.nparams
                ok4 = all(
                    t.coeff(zero_mi, ((m, i),)) == c
                    for (m, i), c in p.c.terms.items()
                )
                recs.append(env.record(
                    "av-tensor", f"av-tensor/{chart.name}/r{r}/{idx}/jet-reading", st4,
                    {"chart": chart.name, "r": r, "case": idx}, ok4, {"eta": eta},
                ))
    return recs


def suite_transition(env):
    if env.atlas is None:
        raise ValueError("the transition suite needs an atlas (--atlas)")
    st0 = "transition data validates (frames, jet-level inverse)"
    st1 = "coefficient formula agrees with the isomorphism route"
    st2 = "the image of X^m has only monomials of degree >= |m|"
    st3 = "degree-1 block is the product of the two Jacobians"
    st4 = "opposite transitions compose to the identity"
    recs = []
    r = max(env.orders)
    mbound = min(3, r)
    for (fr, to), tp in sorted(env.atlas.transitions.items()):
        label = f"{fr}->{to}"
        try:
            validate_transition(tp, min(3, r))
            ok = True
            err = ""
        except TransitionError as e:
            ok = False
            err = str(e)
        recs.append(env.record(
            "transition", f"transition/{label}/validate", st0,
            {"pair": label}, ok, {"error": err},
        ))
        if not ok:
            continue
        n = tp.overlap.nparams
        monos = [m for m in mi_range(n, mbound) if mi_degree(m) >= 1]
        for m in monos:
            for p in range(n):
                ce = transition_l(tp, m, p, r)
                ok1 = ce == transition_via_iso(tp, m, p, r)
                recs.append(env.record(
                    "transition", f"transition/{label}/m{list(m)}/p{p}/dual-route", st1,
                    {"pair": label, "m": list(m), "p": p, "r": r}, ok1,
                    {"result": ce},
                ))
                ok2 = filtration_check(tp, m, p, r)
                recs.append(env.record(
                    "transition", f"transition/{label}/m{list(m)}/p{p}/filtration", st2,
                    {"pair": label, "m": list(m), "p": p, "r": r}, ok2,
                    {"result": ce},
                ))
                if mi_degree(m) == 1:
                    ok3 = jacobian_quotient_check(tp, m, p, r)
                    recs.append(env.record(
                        "transition", f"transition/{label}/m{list(m)}/p{p}/jacobian", st3,
                        {"pair": label, "m": list(m), "p": p, "r": r}, ok3,
                        {"result": ce},
                    ))
        back = env.atlas.transitions.get((to, fr))
        if back is not None and back.overlap == tp.overlap:
            for m in monos:
                for p in range(n):
                    unit = CurrentElem(tp.overlap, r, {(m, p): tp.overlap.one()})
                    ok4 = transport_current(back, transition_l(tp, m, p, r), r) == unit
                    recs.append(env.record(
                        "transition", f"transition/{label}/m{list(m)}/p{p}/inverse", st4,
                        {"pair": label, "m": list(m), "p": p, "r": r}, ok4, {},
                    ))
    return recs


def suite_cocycle(env):
    if env.atlas is None:
        raise ValueError("the cocycle suite needs an atlas (--atlas)")
    st = "transitions compose as a cocycle over the common overlap"
    recs = []
    r = max(env.orders)
    mbound = min(3, r)
    names = sorted(env.atlas.charts)
    for i in names:
        for j in names:
            for l in names:
                if len({i, j, l}) != 3:
                    continue
                keys = [(i, j), (j, l), (i, l)]
                if not all(k in env.atlas.transitions for k in keys):
                    continue
                tps = [env.atlas.transitions[k] for k in keys]
                if not (tps[0].overlap == tps[1].overlap == tps[2].overlap):
                    continue
                n = tps[0].overlap.nparams
                for m in mi_range(n, mbound):
                    if mi_degree(m) < 1:
                        continue
                    for p in range(n):
                        ok = cocycle_check(env.atlas, (i, j, l), m, p, r)
                        recs.append(env.record(
                            "cocycle", f"cocycle/{i},{j},{l}/m{list(m)}/p{p}", st,
                            {"triple": [i, j, l], "m": list(m), "p": p, "r": r},
                            ok, {},
                        ))
    return recs


_SUITE_FUNCS = {
    "taylor": suite_taylor,
    "jet-hom": suite_jet_hom,
    "smash-bracket": suite_smash_bracket,
    "iso-roundtrip": suite_iso_roundtrip,
    "iso-hom": suite_iso_hom,
    "localization": suite_localization,
    "pbw": suite_pbw,
    "av-tensor": suite_av_tensor,
    "transition": suite_transition,
    "cocycle": suite_cocycle,
}


def run_verification(suite, charts, atlas, orders, samples, seed,
                     chart_labels=None, atlas_label=None):
    """Run one suite id (or 'all') and return the Report."""
    if suite == "all":
        ids = [s for s in SUITE_IDS if s in CHART_SUITES or atlas is not None]
    elif suite in _SUITE_FUNCS:
        ids = [suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_IDS)} or all"
        )
    env = SuiteEnv(charts, atlas, orders, samples, seed, chart_labels, atlas_label)
    report = Report(
        version=__version__,
        seed=seed,
        targets={
            "charts": [c.name for c in env.charts],
            "atlas": atlas.name if atlas else None,
        },
        params={"orders": env.orders, "samples": samples, "suite": suite},
    )
    for sid in ids:
        report.extend(_SUITE_FUNCS[sid](env))
    return report

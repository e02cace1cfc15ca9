"""Verification suites: seeded, reproducible checks of the algebraic
statements the library implements, over user-supplied or built-in charts.

Every suite draws its inputs from a Sampler seeded by (seed, suite, chart,
order), so a failing record's witness plus the printed repro command
regenerates the exact failing case.  Dual-route checks (bracket vs its
decomposable formula, transition_l vs transition_via_iso) always run both
routes; they are the point of the exercise.

A suite holds only its mathematics: a generator that yields one check at a
time.  `_chart_suite` runs the seven chart-sampled suites: it owns the loops
over charts and orders, the Sampler of each (chart, order), the check ids
and the params.  Every record, of those suites and of pbw, transition and
cocycle, is made by `_records` through `SuiteEnv.record`, as soon as its
check has yielded and before the next check starts.  That order is a rule,
not a detail: the benchmark times each check as the gap between two
records, so a suite that finished a whole case before recording it would
charge the case's time to its first check."""

from __future__ import annotations

from itertools import permutations

from . import __version__
from .atlas import (
    TransitionError, cocycle_check, filtration_check,
    jacobian_quotient_check, transition_l, transition_via_iso,
    transport_current, validate_transition,
)
from .envalg import av_to_tensor, pbw_normalize, u_mul
from .jets import delta, jet_of, taylor_identity_check
from .jetfields import jf_from_pair, localization_defect, localization_remainder
from .liealg import CurrentElem, basis_bracket, basis_elements, phi, psi
from .multipoly import mi_degree
from .report import Report
from .sparse import accumulate
from .sampling import Sampler, derive_seed

SUITE_IDS = (
    "taylor", "jet-hom", "smash-bracket", "iso-roundtrip", "iso-hom",
    "localization", "pbw", "av-tensor", "transition", "cocycle",
)

CHART_SUITES = SUITE_IDS[:8]


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
        rec = {"check": check, "statement": statement, "params": params,
               "status": "pass" if ok else "fail"}
        if not ok:
            rec["witness"] = {"repro": self.repro(suite),
                              **{k: str(v) for k, v in inputs.items()}}
        return rec


def _records(env, suite, items):
    """Record each (check, statement, params, ok, inputs) that items
    yields, before the generator goes on to the next check."""
    return [env.record(suite, *item) for item in items]


def _chart_suite(env, suite, seed_label, checks, var="k"):
    """Run checks(chart, k, smp, n) for every chart and order k, with smp
    seeded by (seed, seed_label, chart, k) and n samples.  It yields
    (case, tag, statement, ok, inputs, extra_params) one check at a time;
    each is recorded as suite/chart/{var}{k}/case[/tag] with the params
    chart, var, the extra params and case."""
    def items():
        for chart in env.charts:
            for k in env.orders:
                smp = Sampler(derive_seed(env.seed, seed_label, chart.name, k))
                for case, tag, st, ok, inputs, extra in checks(
                        chart, k, smp, env.samples):
                    check = f"{suite}/{chart.name}/{var}{k}/{case}"
                    yield (f"{check}/{tag}" if tag else check, st,
                           {"chart": chart.name, var: k, **extra, "case": case},
                           ok, inputs)
    return _records(env, suite, items())


def _special_elems(chart):
    out = [chart.param(0)]
    if chart.denominator.degree() > 0:
        out.append(chart.inv_denominator())
    if chart.gens:
        out.append(chart.gen(0))
    return out


def suite_taylor(env):
    st = "truncated Taylor expansion identities in the jet algebra"

    def checks(chart, k, smp, n):
        cases = _special_elems(chart) + [smp.elem(chart) for _ in range(n)]
        for idx, f in enumerate(cases):
            yield idx, None, st, taylor_identity_check(f, k), {"f": f}, {}
    return _chart_suite(env, "taylor", "taylor", checks)


def suite_jet_hom(env):
    st1 = "the jet map is a ring homomorphism"
    st2 = "delta satisfies the Leibniz rule delta(fg) = f delta(g) + delta(f) j(g)"

    def checks(chart, k, smp, n):
        for idx in range(n):
            f = smp.elem(chart)
            g = smp.elem(chart)
            jf, jg = jet_of(f, k), jet_of(g, k)
            ok = (
                jet_of(f * g, k) == jf * jg
                and jet_of(f + g, k) == jf + jg
                and (jf * jg).eval_diagonal() == f * g
            )
            yield idx, "hom", st1, ok, {"f": f, "g": g}, {}
            ok = delta(f * g, k) == delta(g, k).scale(f) + delta(f, k) * jg
            yield idx, "leibniz", st2, ok, {"f": f, "g": g}, {}
    return _chart_suite(env, "jet-hom", "jet-hom", checks)


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

    def checks(chart, k, smp, n):
        for idx in range(n):
            a1, a2 = smp.elem(chart), smp.elem(chart)
            g1, g2 = smp.vfield(chart), smp.vfield(chart)
            u = jf_from_pair(a1, g1, k)
            w = jf_from_pair(a2, g2, k)
            uw = u.bracket(w)
            yield (idx, "oracle", st1, uw == bracket_oracle(a1, g1, a2, g2, k),
                   {"a1": a1, "g1": g1, "a2": a2, "g2": g2}, {})
            z = smp.jetfield(chart, k)
            jac = (
                uw.bracket(z)
                + w.bracket(z).bracket(u)
                + z.bracket(u).bracket(w)
            )
            ok = uw == -(w.bracket(u)) and jac.is_zero()
            yield idx, "lie", st2, ok, {"u": u, "w": w, "z": z}, {}
            ok = uw.anchor() == u.anchor().bracket(w.anchor())
            yield idx, "anchor", st3, ok, {"u": u, "w": w}, {}
    return _chart_suite(env, "smash-bracket", "smash", checks)


def suite_iso_roundtrip(env):
    st = "the jet-field / semidirect-product maps are mutually inverse"

    def checks(chart, k, smp, n):
        for idx in range(n):
            u = smp.jetfield(chart, k)
            yield idx, "jf", st, psi(phi(u), k) == u, {"u": u}, {}
            p = smp.semidirect(chart, k)
            yield idx, "sd", st, phi(psi(p, k)) == p, {"p": p}, {}
    return _chart_suite(env, "iso-roundtrip", "iso-roundtrip", checks)


def suite_iso_hom(env):
    st = "the jet-field map preserves brackets into the semidirect product"

    def checks(chart, k, smp, n):
        for idx in range(n):
            u = smp.jetfield(chart, k)
            w = smp.jetfield(chart, k)
            ok = phi(u.bracket(w)) == phi(u).bracket(phi(w))
            yield idx, None, st, ok, {"u": u, "w": w}, {}
    return _chart_suite(env, "iso-hom", "iso-hom", checks)


def suite_localization(env):
    st = "localization series: closed-form defect of valuation m+1"

    def checks(chart, k, smp, n):
        g = chart.elem(chart.denominator)  # inverted once, for the n checks
        for idx in range(n):
            v = smp.vfield(chart, max_s=0)
            m = smp.rng.randint(0, k)
            defect = localization_defect(g, v, m, k)[1]
            ok = (
                defect == localization_remainder(g, v, m, k)
                and defect.jf_order() >= m + 1
                and (m < k or defect.is_zero())
            )
            yield idx, None, st, ok, {"v": v, "m": m}, {"m": m}
    return _chart_suite(env, "localization", "localization", checks)


def suite_pbw(env):
    st1 = "straightening lands in normal form and is idempotent"
    st2 = "adjacent transposition inserts exactly the bracket"
    st3 = "the straightened product is associative"
    r = max(env.orders)
    dims = sorted({c.nparams for c in env.charts} | {1})

    def checks():
        for nvars in dims:
            smp = Sampler(derive_seed(env.seed, "pbw", nvars, r))
            for idx in range(env.samples):
                check = f"pbw/n{nvars}/{idx}"
                params = {"nvars": nvars, "r": r, "case": idx}
                word = smp.basis_word(nvars, r, smp.rng.randint(2, 4))
                out = pbw_normalize(word, nvars, r)
                ok = all(pbw_normalize(w, nvars, r) == {w: 1} for w in out)
                yield f"{check}/normal", st1, params, ok, {"word": word}
                a, b = word[0], word[1]
                diff = u_mul({(a,): 1}, {(b,): 1}, r)
                for w, c in u_mul({(b,): 1}, {(a,): 1}, r).items():
                    accumulate(diff, w, -c)
                br = basis_bracket(a[0], a[1], b[0], b[1], r)
                ok = {w: c for w, c in diff.items() if c} == {
                    (key,): c for key, c in br.items()
                }
                yield f"{check}/commutator", st2, params, ok, {"a": a, "b": b}
                w1 = {smp.basis_word(nvars, r, 2): 1}
                w2 = {smp.basis_word(nvars, r, 2): 1}
                w3 = {smp.basis_word(nvars, r, 2): 1}
                ok = u_mul(u_mul(w1, w2, r), w3, r) == u_mul(w1, u_mul(w2, w3, r), r)
                yield (f"{check}/assoc", st3, params, ok,
                       {"w1": w1, "w2": w2, "w3": w3})
    return _records(env, "pbw", checks())


class _WordText(tuple):
    """A word as a witness input; its text is built only for a failing record."""

    def __str__(self):
        return str([kind + ":" + str(v) for kind, v in self])


def suite_av_tensor(env):
    st1 = "the Leibniz relation maps to zero"
    st2 = "the factorization map is multiplicative on words"
    st3 = "vector-field commutators map to commutators"
    st4 = "the current part agrees with the jet-field reading"

    def checks(chart, r, smp, n):
        for idx in range(n):
            eta = smp.vfield(chart)
            f = smp.nonzero_elem(chart)
            lhs = av_to_tensor([("vf", eta), ("fun", f)], r) - av_to_tensor(
                [("fun", f), ("vf", eta)], r
            )
            ok = lhs == av_to_tensor([("fun", eta.apply(f))], r)
            yield idx, "relation", st1, ok, {"eta": eta, "f": f}, {}
            w1 = smp.av_word(chart, 2)
            w2 = smp.av_word(chart, 1)
            # split w1 + w2 after its first letter: av_to_tensor multiplies
            # left to right, so w1 | w2 would compute the same product twice
            ok = av_to_tensor(w1 + w2, r) == av_to_tensor(w1[:1], r) * av_to_tensor(
                w1[1:] + w2, r)
            yield idx, "mult", st2, ok, {
                "w1": _WordText(w1), "w2": _WordText(w2)}, {}
            mu = smp.vfield(chart)
            lhs = av_to_tensor([("vf", eta.bracket(mu))], r)
            rhs = av_to_tensor([("vf", eta), ("vf", mu)], r) - av_to_tensor(
                [("vf", mu), ("vf", eta)], r
            )
            yield idx, "commutator", st3, lhs == rhs, {"eta": eta, "mu": mu}, {}
            t = av_to_tensor([("vf", eta)], r)
            p = phi(jf_from_pair(chart.one(), eta, r))
            zero_mi = (0,) * chart.nparams
            ok = all(
                t.coeff(zero_mi, ((m, i),)) == c
                for (m, i), c in p.c.terms.items()
            )
            yield idx, "jet-reading", st4, ok, {"eta": eta}, {}
    return _chart_suite(env, "av-tensor", "av-tensor", checks, var="r")


def suite_transition(env):
    if env.atlas is None:
        raise ValueError("the transition suite needs an atlas (--atlas)")
    st0 = "transition data validates (frames, jet-level inverse)"
    st1 = "coefficient formula agrees with the isomorphism route"
    st2 = "the image of X^m has only monomials of degree >= |m|"
    st3 = "degree-1 block is the product of the two Jacobians"
    st4 = "opposite transitions compose to the identity"
    r = max(env.orders)
    mbound = min(3, r)

    def checks():
        for (fr, to), tp in sorted(env.atlas.transitions.items()):
            label = f"{fr}->{to}"
            try:
                validate_transition(tp, min(3, r))
                ok = True
                err = ""
            except TransitionError as e:
                ok = False
                err = str(e)
            yield f"transition/{label}/validate", st0, {"pair": label}, ok, {"error": err}
            if not ok:
                continue
            basis = basis_elements(tp.overlap.nparams, mbound)
            for m, p in basis:
                check = f"transition/{label}/m{list(m)}/p{p}"
                params = {"pair": label, "m": list(m), "p": p, "r": r}
                ce = transition_l(tp, m, p, r)
                ok = ce == transition_via_iso(tp, m, p, r)
                yield f"{check}/dual-route", st1, params, ok, {"result": ce}
                yield (f"{check}/filtration", st2, params,
                       filtration_check(tp, m, p, r), {"result": ce})
                if mi_degree(m) == 1:
                    yield (f"{check}/jacobian", st3, params,
                           jacobian_quotient_check(tp, m, p, r), {"result": ce})
            back = env.atlas.transitions.get((to, fr))
            if back is not None and back.overlap == tp.overlap:
                for m, p in basis:
                    unit = CurrentElem(tp.overlap, r, {(m, p): tp.overlap.one()})
                    ok = transport_current(back, transition_l(tp, m, p, r), r) == unit
                    yield (f"transition/{label}/m{list(m)}/p{p}/inverse", st4,
                           {"pair": label, "m": list(m), "p": p, "r": r}, ok, {})
    return _records(env, "transition", checks())


def suite_cocycle(env):
    if env.atlas is None:
        raise ValueError("the cocycle suite needs an atlas (--atlas)")
    st = "transitions compose as a cocycle over the common overlap"
    r = max(env.orders)
    mbound = min(3, r)

    def checks():
        for i, j, l in permutations(sorted(env.atlas.charts), 3):
            keys = [(i, j), (j, l), (i, l)]
            if not all(k in env.atlas.transitions for k in keys):
                continue
            tps = [env.atlas.transitions[k] for k in keys]
            if not (tps[0].overlap == tps[1].overlap == tps[2].overlap):
                continue
            for m, p in basis_elements(tps[0].overlap.nparams, mbound):
                ok = cocycle_check(env.atlas, (i, j, l), m, p, r)
                yield (f"cocycle/{i},{j},{l}/m{list(m)}/p{p}", st,
                       {"triple": [i, j, l], "m": list(m), "p": p, "r": r},
                       ok, {})
    return _records(env, "cocycle", checks())


# suite id -> suite_<id> (dashes as underscores)
_SUITE_FUNCS = {sid: globals()["suite_" + sid.replace("-", "_")] for sid in SUITE_IDS}


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
        report.records.extend(_SUITE_FUNCS[sid](env))
    return report

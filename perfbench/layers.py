"""Catalog of the per-layer metrics and the spans that produce them.

Each entry names a span ``<module>.<function>``, the jetalg object it wraps,
and the statistics reported for it.  The metric names are
``<span>.<stat>``; ``BENCHMARK.json`` lists the same names.  The comment on
each group says which end-to-end metric it should move and on which
workload, so a later change can be read against the right figure.
"""

from __future__ import annotations

from fractions import Fraction

from jetalg import (
    atlas, charts, envalg, fileio, jetfields, jets, liealg, multipoly,
    sampling, suites,
)

from spans import Tracer, patch_function, patch_method

UNITS = {
    "calls": "count", "coef_mults": "count", "terms_in": "count",
    "max_s": "count", "self_s": "s", "total_s": "s", "wall_s": "s",
    "repeat_ratio": "ratio",
}

# Stats that are exact counts: two traced passes on one seed must agree.
EXACT_STATS = ("calls", "coef_mults", "terms_in", "max_s", "repeat_ratio")

CS = ("calls", "self_s")

# (span name, owner, attribute, stats).  The owner is a class for methods
# and a module for functions.
SPANS = [
    # Arithmetic kernel: wall_s and check_p90_ms on every workload, most in
    # absolute terms on verify-all; transport guards small polynomials.
    ("multipoly.Poly.mul", multipoly.Poly, "__mul__", CS + ("coef_mults",)),
    ("multipoly.Poly.add", multipoly.Poly, "__add__", CS),
    ("multipoly.Poly.init", multipoly.Poly, "__init__", CS),
    ("multipoly.poly_div_exact", multipoly, "poly_div_exact", CS),
    # Chart ring: wall_s and check_p90_ms on deep-jet; reduce is ~0 on
    # transport, whose charts have no generators.
    ("charts.ChartSpec.reduce", charts.ChartSpec, "reduce", CS + ("terms_in",)),
    ("charts.RingElem.add", charts.RingElem, "__add__", CS),
    ("charts.RingElem.mul", charts.RingElem, "__mul__", CS),
    ("charts.RingElem.eq", charts.RingElem, "__eq__", CS),
    ("charts.RingElem.invert", charts.RingElem, "invert", CS),
    ("charts.RingElem.derive", charts.RingElem, "derive",
     CS + ("repeat_ratio", "max_s")),
    # Jets: deep-jet wall_s.
    ("jets.jet_of", jets, "jet_of", CS),
    ("jets.Jet.mul", jets.Jet, "__mul__", CS),
    ("jets.delta_power", jets, "delta_power", CS),
    # Jet fields: bracket moves verify-all wall_s, localization deep-jet.
    ("jetfields.JetField.bracket", jetfields.JetField, "bracket",
     CS + ("total_s",)),
    ("jetfields.jf_from_pair", jetfields, "jf_from_pair", CS),
    ("jetfields.localization_partial_sum", jetfields,
     "localization_partial_sum", ("total_s",)),
    ("jetfields.localization_remainder", jetfields, "localization_remainder",
     ("total_s",)),
    # Semidirect isomorphism: verify-all iso suites, small.
    ("liealg.phi", liealg, "phi", CS),
    ("liealg.psi", liealg, "psi", CS),
    ("liealg.CurrentElem.bracket", liealg.CurrentElem, "bracket", CS),
    # Enveloping operators: verify-all wall_s only.
    ("envalg.pbw_normalize", envalg, "pbw_normalize", CS + ("repeat_ratio",)),
    ("envalg.TensorElem.mul", envalg.TensorElem, "__mul__", CS),
    ("envalg.av_to_tensor", envalg, "av_to_tensor", ("calls", "total_s")),
    # Atlas layer: transport wall_s and check_p90_ms.
    ("atlas.transition_l", atlas, "transition_l", CS + ("repeat_ratio",)),
    ("atlas.transition_via_iso", atlas, "transition_via_iso", CS),
    ("atlas.frame_jet", atlas, "frame_jet", CS),
    ("atlas.validate_transition", atlas, "validate_transition", ("total_s",)),
    ("atlas.cocycle_check", atlas, "cocycle_check", ("total_s",)),
    # Set-up: setup_s.
    ("fileio.loads_chart", fileio, "loads_chart", ("total_s",)),
    ("fileio.loads_atlas", fileio, "loads_atlas", ("total_s",)),
]

# Per-suite wall time inside verify-all.
SUITE_SPANS = [
    (f"suites.{sid}", sid, suites._SUITE_FUNCS[sid].__name__)
    for sid in suites.SUITE_IDS
]

# Input generation inside verify-all; every public Sampler method is one
# span name, so nested sampler calls are counted once in total_s.
SAMPLER_SPAN = "sampling.Sampler"
SAMPLER_METHODS = sorted(
    name for name, val in vars(sampling.Sampler).items()
    if callable(val) and not name.startswith("_")
)

# Derivative repeat rates per suite that the roadmap measured before any
# memo existed; the traced verify-all pass prints its own next to them.
ROADMAP_DERIVE_REPEATS = {
    "smash-bracket": 0.60, "av-tensor": 0.88, "taylor": 0.92,
    "transition": 0.82,
}


def metric_names():
    """Every per-layer metric name with its unit, in catalog order."""
    out = []
    for name, _owner, _attr, stats in SPANS:
        out.extend((f"{name}.{st}", UNITS[st]) for st in stats)
    out.extend((f"{name}.wall_s", "s") for name, _sid, _fn in SUITE_SPANS)
    out.append((f"{SAMPLER_SPAN}.total_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


class LayerTrace:
    """Installs the spans on the imported jetalg modules and reads them out."""

    def __init__(self):
        self.tracer = Tracer()
        self.suite = None
        self.derive_by_suite = {}   # suite id -> [calls, repeats]
        self._derive_last = {}      # argument key -> suite id last seen in

    def install(self):
        probes = {
            "multipoly.Poly.mul": (self._coef_mults, None),
            "charts.ChartSpec.reduce": (self._terms_in, None),
            "charts.RingElem.derive": (self._derive_key, self._max_s),
            "envalg.pbw_normalize": (self._pbw_key, None),
            "atlas.transition_l": (self._tl_key, None),
        }
        for name, owner, attr, _stats in SPANS:
            probe, post = probes.get(name, (None, None))
            self._patch(name, owner, attr, probe, post)
        for name, sid, fn_name in SUITE_SPANS:
            self._patch(name, suites, fn_name, self._enter_suite(sid), None)
        for meth in SAMPLER_METHODS:
            self._patch(SAMPLER_SPAN, sampling.Sampler, meth, None, None)

    def _patch(self, name, owner, attr, probe, post):
        if isinstance(owner, type):
            fn = owner.__dict__[attr]
            patch_method(owner, attr, self.tracer.wrap(name, fn, probe, post))
        else:
            fn = getattr(owner, attr)
            wrapper = self.tracer.wrap(name, fn, probe, post)
            if patch_function(owner, attr, wrapper) == 0:
                raise RuntimeError(f"span {name}: nothing bound to patch")

    # -- probes (run outside the span's timed interval)

    @staticmethod
    def _coef_mults(stat, args):
        a, b = args[0], args[1]
        if isinstance(b, multipoly.Poly):
            stat.add("coef_mults", len(a.terms) * len(b.terms))
        elif isinstance(b, (int, Fraction)):
            stat.add("coef_mults", len(a.terms))

    @staticmethod
    def _terms_in(stat, args):
        stat.add("terms_in", len(args[1].terms))

    def _derive_key(self, stat, args):
        elem, i = args[0], args[1]
        # Only the hash is kept: keeping the terms would hold every
        # numerator of the pass alive and swell the traced child's memory.
        key = hash((id(elem.chart), elem.s, i,
                    frozenset(elem.num.terms.items())))
        stat.note_key(key)
        if self.suite is not None:
            counts = self.derive_by_suite.setdefault(self.suite, [0, 0])
            counts[0] += 1
            if self._derive_last.get(key) == self.suite:
                counts[1] += 1
            self._derive_last[key] = self.suite

    @staticmethod
    def _max_s(stat, result):
        stat.top("max_s", result.s)

    @staticmethod
    def _pbw_key(stat, args):
        stat.note_key((tuple(args[0]), args[1], args[2]))

    @staticmethod
    def _tl_key(stat, args):
        tp, m, p, r = args
        stat.note_key((id(tp), tuple(m), p, r))

    def _enter_suite(self, sid):
        def probe(_stat, _args):
            self.suite = sid
        return probe

    # -- read-out

    def metrics(self):
        """Per-layer values by metric name (trace.overhead_s excluded: the
        caller computes it from untraced and traced passes)."""
        stats = self.tracer.stats
        out = {}
        for name, _owner, _attr, wanted in SPANS:
            st = stats[name]
            for s in wanted:
                out[f"{name}.{s}"] = _stat_value(st, s)
        for name, _sid, _fn in SUITE_SPANS:
            out[f"{name}.wall_s"] = stats[name].total_s
        out[f"{SAMPLER_SPAN}.total_s"] = stats[SAMPLER_SPAN].total_s
        return out

    def derive_repeats_by_suite(self):
        return {
            sid: (calls, reps / calls if calls else 0.0)
            for sid, (calls, reps) in self.derive_by_suite.items()
        }


def _stat_value(st, s):
    if s == "calls":
        return st.calls
    if s == "self_s":
        return st.self_s
    if s == "total_s":
        return st.total_s
    if s == "repeat_ratio":
        return st.repeats / st.calls if st.calls else 0.0
    return st.counters.get(s, 0)

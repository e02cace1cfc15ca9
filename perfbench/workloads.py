"""The benchmark's workloads: set-up, generated inputs, one measured pass and
the correctness gate.

Why these three (each stresses a different layer, and each bypasses what
another stresses):

* ``verify-all`` is ``jetalg verify --suite all`` on the CLI defaults, the
  roadmap's north-star run.  It is mixed (smash-bracket and av-tensor
  dominate) and is the only workload that reaches ``JetField.bracket`` and
  ``envalg``.  Its inputs come from ``jetalg.sampling``; at seed 42 the
  report must hash to the roadmap's regression oracle.
* ``deep-jet`` is high-order jets on the curve chart ``elliptic`` with
  denominator exponents up to 2: ``reduce`` works through the generator y,
  the exponent s of g^s grows past 14 and numerators get large.  It calls no
  bracket, ``envalg`` or atlas code.
* ``transport`` builds three projective-line atlases afresh and, at
  r = 5, runs transition validation, the dual-route transport, its
  filtration, Jacobian and inverse checks, and the cocycle identity.  Three
  atlases per pass rather than one make the latency percentiles steadier
  from seed to seed.  The charts have no
  generators (``reduce`` does nothing) and the polynomials are tiny and
  univariate, so a kernel that only pays off on large polynomials shows
  its fixed costs here.

Inputs of ``deep-jet`` and ``transport`` are drawn from ``random.Random(seed)``
by this file and built with public constructors, never through
``jetalg.sampling``, so a change to the sampler cannot change them.  The
sha256 of the drawn values (exact coefficients, not ``str()`` of jetalg
objects), taken before jetalg builds anything, is reported, so two commits
can be shown to receive identical inputs however jetalg stores them.

verify-all's inputs come from ``jetalg.sampling``, and the seed alone moves
the work of a pass by 10-30% (a few large draws in av-tensor and
smash-bracket).  Its passes therefore run at the seeds seed, seed + 1000,
seed + 2000, ... (``seed_stride``), so the medians of a run even the inputs
out; deep-jet and transport draw the same shapes at every seed and repeat
the run's seed.

Every verdict of an exact identity is timed and counted.  A check that
raises counts as failed instead of ending the pass.  jetalg functions are
called through their modules (``jets.jet_of``, not an imported name) so that
the traced run's rebinding reaches these calls.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

from jetalg import atlas, fileio, fixtures, jetfields, jets, suites
from jetalg.charts import RingElem
from jetalg.liealg import CurrentElem
from jetalg.multipoly import Poly, mi_degree, mi_range
from jetalg.vfields import VectorField

# The roadmap's regression oracle: sha256 of the JSON report of
# `jetalg verify --suite all --seed 42` on the CLI defaults (1158 passed).
VERIFY_ALL_SEED42_SHA256 = (
    "6c28334c798364fabbe27537d03476626e9ba22f50a0ebf475c45361e2fc136e"
)


# The probe kernel's time at the reference speed: about its fastest on the
# 2-vCPU Intel Xeon virtual machine the benchmark was written on.
PROBE_REF_S = 0.6e-3


def _probe_kernel():
    """Square a fixed 15-term bivariate polynomial held, as jetalg holds
    its polynomials, in a dict from exponent tuples to Fractions."""
    a = {(i, j): Fraction(i - j + 1, 1 + (i * j) % 5)
         for i in range(5) for j in range(5 - i)}
    prod = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            prod[k] = prod.get(k, 0) + c1 * c2
    return prod


def probe():
    """The machine's current speed: the fastest time of a fixed kernel,
    which uses nothing from jetalg, over two runs.  The collector is off
    while it runs, so the size of jetalg's heap cannot change it."""
    best = math.inf
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            _probe_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


class Verdicts:
    """Latency and outcome of each exact-identity verdict in one pass.

    A verdict's latency runs from the previous boundary (the previous
    verdict, or mark()) to the moment it is recorded.  Right after it a
    probe() reads the machine's speed; the probe's own time is outside
    every latency."""

    def __init__(self):
        self.latencies = []
        self.probes = []
        self.failures = []
        self._mark = time.perf_counter()

    def mark(self):
        self._mark = time.perf_counter()

    def record(self, label, ok):
        self.latencies.append(time.perf_counter() - self._mark)
        self.probes.append(probe())
        if not ok:
            self.failures.append(label)
        self._mark = time.perf_counter()

    def run(self, label, check):
        """Time check() as one verdict; an exception is a failed check."""
        self.mark()
        try:
            ok = bool(check())
        except Exception as e:  # the pass goes on; the failure is recorded
            ok = False
            label = f"{label}: raised {type(e).__name__}: {e}"
        self.record(label, ok)


def _sha256_json(values):
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _frac_src(c):
    return f"({c.numerator}/{c.denominator})" if c.denominator != 1 else f"({c})"


# ---------------------------------------------------------------------------
# verify-all

class VerifyAll:
    name = "verify-all"
    seed_stride = 1000
    charts = ("affine2", "loc_x", "elliptic")
    atlas = "p1"
    sizes = {
        # orders, samples, per-suite record counts (independent of the seed)
        "full": ((1, 2, 3), 8, {
            "taylor": 90, "jet-hom": 144, "smash-bracket": 216,
            "iso-roundtrip": 144, "iso-hom": 72, "localization": 72,
            "pbw": 48, "av-tensor": 288, "transition": 66, "cocycle": 18,
        }),
        "tiny": ((1,), 1, {
            "taylor": 9, "jet-hom": 6, "smash-bracket": 9,
            "iso-roundtrip": 6, "iso-hom": 3, "localization": 3,
            "pbw": 6, "av-tensor": 12, "transition": 30, "cocycle": 6,
        }),
    }
    expected_sha256 = {("full", 42): VERIFY_ALL_SEED42_SHA256}

    def setup(self, seed, size):
        # Fresh objects from the chart data, not the fixtures module cache:
        # every pass pays to fill the chart and transition caches, as a CLI
        # invocation does.
        return {
            "charts": [fileio.loads_chart(fixtures.STANDARD_CHARTS[c])
                       for c in self.charts],
            "atlas": fileio.loads_atlas(fixtures.STANDARD_ATLASES[self.atlas]),
        }

    def inputs(self, state, seed, size):
        return None, None  # drawn inside the suites by jetalg.sampling

    def run(self, state, inputs, seed, size, verdicts):
        orders, samples, expected = self.sizes[size]
        counts = {sid: 0 for sid in suites.SUITE_IDS}
        made = {sid: [] for sid in suites.SUITE_IDS}
        crashed = {}
        record = suites.SuiteEnv.record
        funcs = dict(suites._SUITE_FUNCS)

        def timed_record(env, suite, check, statement, params, ok, inp):
            rec = record(env, suite, check, statement, params, ok, inp)
            verdicts.record(f"{suite}/{check}", ok)
            counts[suite] += 1
            made[suite].append(rec)
            return rec

        def guarded(sid, fn):
            def run_suite(env):
                verdicts.mark()
                try:
                    return fn(env)
                except Exception as e:  # count it, keep the other suites
                    crashed[sid] = f"{type(e).__name__}: {e}"
                    verdicts.record(f"{sid}: raised {crashed[sid]}", False)
                    return made[sid]
            return run_suite

        suites.SuiteEnv.record = timed_record
        suites._SUITE_FUNCS.update({s: guarded(s, f) for s, f in funcs.items()})
        try:
            report = suites.run_verification(
                "all", state["charts"], state["atlas"], list(orders), samples,
                seed, chart_labels=list(self.charts), atlas_label=self.atlas)
        finally:
            suites.SuiteEnv.record = record
            suites._SUITE_FUNCS.update(funcs)
        # A crashed suite's unreached checks count as attempted and failed.
        missing = sum(
            max(expected[s] - counts[s], 1) - 1 for s in crashed
        )
        return {
            "digest": hashlib.sha256(report.to_json().encode()).hexdigest(),
            "suite_counts": counts,
            "crashed": crashed,
            "missing": missing,
        }

    def gate(self, seed, size, result):
        problems = []
        details = result["details"]
        _orders, _samples, expected = self.sizes[size]
        if details["suite_counts"] != expected:
            problems.append(
                f"per-suite record counts {details['suite_counts']} differ "
                f"from {expected}")
        want = self.expected_sha256.get((size, seed))
        if want is not None and details["digest"] != want:
            problems.append(
                f"report sha256 {details['digest']} is not the expected {want}")
        for sid, err in details["crashed"].items():
            problems.append(f"suite {sid} raised {err}")
        return problems


class Generated:
    """Gate of a workload whose inputs this file draws: the pass must run
    exactly the expected number of checks, so jetalg cannot shrink the work
    by building smaller structures, and at seed 42 the drawn inputs must
    hash to the recorded value."""

    seed_stride = 0

    def gate(self, seed, size, result):
        problems = []
        want = self.check_counts[size]
        if result["checks"] != want:
            problems.append(f"{result['checks']} checks, expected {want}")
        want = self.expected_input_sha256.get((size, seed))
        if want is not None and result["input_sha256"] != want:
            problems.append(f"input sha256 {result['input_sha256']} is not "
                            f"the expected {want}")
        return problems


# ---------------------------------------------------------------------------
# deep-jet

class DeepJet(Generated):
    name = "deep-jet"
    sizes = {
        # (truncation order, cases at that order)
        "full": ((1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 2), (7, 2), (8, 1)),
        "tiny": ((1, 1), (2, 1)),
    }
    # Four checks per case and three per order.
    check_counts = {"full": 104, "tiny": 14}
    expected_input_sha256 = {
        ("full", 42): "2b4ba0b12f1cd8186a11de5f0c38c2aaba09bd192076be21c02f80ae9aecd17a",
        ("tiny", 42): "7011aeafa46b01fd2a36751757863033541e36e4297196795b9187c1ef93ffcc",
    }

    def setup(self, seed, size):
        return {
            "elliptic": fileio.loads_chart(fixtures.STANDARD_CHARTS["elliptic"]),
            "loc_x": fileio.loads_chart(fixtures.STANDARD_CHARTS["loc_x"]),
        }

    # Numerator supports (exponents of x, y) in normal form, cycled over the
    # cases together with the exponent s of g^s.  The seed draws only the
    # coefficients, so every seed does the same amount of work in shape.
    supports = (((2, 1), (1, 0), (0, 0)), ((1, 1), (2, 0), (0, 1)),
                ((2, 0), (0, 1), (1, 0)))
    field_supports = (((1, 0), (0, 1)), ((2, 0), (0, 0)), ((1, 1), (0, 0)))

    @staticmethod
    def _coef(rng):
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))

    def _draw(self, rng, monos, s):
        """Numerator terms [exponents, numerator, denominator] and s."""
        terms = []
        for m in monos:
            c = self._coef(rng)
            terms.append([list(m), c.numerator, c.denominator])
        return [terms, s]

    @staticmethod
    def _elem(chart, drawn):
        terms, s = drawn
        return RingElem(chart, Poly(chart.allvars, {
            tuple(m): Fraction(n, d) for m, n, d in terms}), s)

    def inputs(self, state, seed, size):
        rng = random.Random(seed)
        ell, locx = state["elliptic"], state["loc_x"]
        drawn = []
        idx = 0
        for k, ncases in self.sizes[size]:
            for _ in range(ncases):
                drawn.append([k, idx,
                              self._draw(rng, self.supports[idx % 3], idx % 3),
                              self._draw(rng, self.supports[(idx + 1) % 3],
                                         (idx + 1) % 3),
                              self._draw(rng, self.field_supports[idx % 3], 0)])
                idx += 1
        geometric = {}
        for k, _n in self.sizes[size]:
            e, c = 1 + k % 3, self._coef(rng)
            geometric[k] = (e, c)
            drawn.append([k, e, c.numerator, c.denominator])
        sha = _sha256_json(drawn)
        cases = [
            (k, idx, self._elem(ell, f), self._elem(ell, g),
             VectorField(ell, [self._elem(ell, v)]))
            for k, idx, f, g, v in drawn[:idx]
        ]
        return {"cases": cases, "geometric": geometric,
                "ell": ell, "loc_x": locx}, sha

    def run(self, state, inp, seed, size, verdicts):
        ell, locx = inp["ell"], inp["loc_x"]
        y = ell.gen(0)
        y_square = RingElem(ell, ell.gens[0].rhs)
        gden = ell.elem(ell.denominator)
        for k, idx, f, g, v in inp["cases"]:
            tag = f"k{k}/{idx}"
            jfg = {}

            def hom():
                jfg["f"], jfg["g"] = jets.jet_of(f, k), jets.jet_of(g, k)
                return jets.jet_of(f * g, k) == jfg["f"] * jfg["g"]

            def additive():
                return jets.jet_of(f + g, k) == jfg["f"] + jfg["g"]

            def localization():
                # m = k: the partial sum is the whole series, defect zero.
                target = jetfields.jf_from_pair(
                    ell.one(), v.scale(gden.invert()), k)
                defect = target - jetfields.localization_partial_sum(
                    gden, v, k, k)
                return (
                    defect == jetfields.localization_remainder(gden, v, k, k)
                    and defect.jf_order() >= k + 1
                    and defect.is_zero()
                )

            verdicts.run(f"{tag}/hom", hom)
            verdicts.run(f"{tag}/additive", additive)
            verdicts.run(f"{tag}/taylor",
                         lambda: jets.taylor_identity_check(f, k))
            verdicts.run(f"{tag}/localization", localization)
        for k, _n in self.sizes[size]:
            e, c = inp["geometric"][k]
            verdicts.run(
                f"k{k}/y-square",
                lambda: jets.jet_of(y, k) * jets.jet_of(y, k)
                == jets.jet_of(y_square, k))
            verdicts.run(
                f"k{k}/inverse-y",
                lambda: jets.jet_of(y.invert(), k) * jets.jet_of(y, k)
                == jets.jet_scalar(ell.one(), k))
            verdicts.run(
                f"k{k}/geometric",
                lambda: jets.jet_of(RingElem(locx, Poly.const(locx.allvars, c), e), k)
                == _geometric_jet(locx, c, e, k))
        return {}


def _geometric_jet(chart, c, e, k):
    """Closed form of j(c / x^e) on loc_x (denominator x): the t^n
    coefficient is c (-1)^n binom(e+n-1, n) / x^(e+n)."""
    return jets.Jet(chart, k, {
        (n,): RingElem(
            chart,
            Poly.const(chart.allvars, c * (-1) ** n * math.comb(e + n - 1, n)),
            e + n)
        for n in range(k + 1)
    })


# ---------------------------------------------------------------------------
# transport

class Transport(Generated):
    name = "transport"
    sizes = {"full": (5, 3), "tiny": (2, 1)}  # truncation order r, atlases
    # Per atlas at r = 5: 6 validations; per transition 3 checks at each
    # degree 1..5 plus one Jacobian check; 6 triples x 5 degrees of cocycles.
    check_counts = {"full": 396, "tiny": 60}
    expected_input_sha256 = {
        ("full", 42): "96004e28770a23c96384c9d256f38c7b19a6a0c931e03a0171142a5ee41d7f18",
        ("tiny", 42): "87e4cf8cd065d816519ea3fa9d17c6153d6dd2ca407d5981091118f62f10d5f4",
    }
    shifts = (Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))
    scales = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(3))

    def atlas_data(self, rng, label):
        """Projective line in three charts, x, w = c/x and v = d/(x - a),
        with a, c, d drawn from rng.  All six directed transitions sit on
        the triple overlap and carry their coordinate changes as formulas,
        like the built-in p1 atlas (a = c = d = 1)."""
        a, c, d = (rng.choice(self.shifts), rng.choice(self.scales),
                   rng.choice(self.scales))
        A, C, D = _frac_src(a), _frac_src(c), _frac_src(d)

        def chart(name, param, den):
            return {"name": name, "params": [param], "gens": [],
                    "denominator": den}

        def tr(frm, to, G, H, xy, yx):
            return {"from": frm, "to": to, "overlap": "triple",
                    "G": [G], "H": [H],
                    "x_of_y": {"chart": xy[0], "exprs": [xy[1]]},
                    "y_of_x": {"chart": yx[0], "exprs": [yx[1]]}}

        x, w, v = "x", f"{C}/x", f"{D}/(x - {A})"
        w_of_v = ("q1", f"{C}*t/({A}*t + {D})")
        v_of_w = ("q2", f"{D}*t/({C} - {A}*t)")
        x_of_v = ("p0", f"({A}*t + {D})/t")
        v_of_x = ("pa", f"{D}/(t - {A})")
        cx = ("p0", f"{C}/t")  # x = c/w and w = c/x
        return {
            "name": label,
            "charts": [
                chart("std", "x", "1"), chart("inf", "w", "1"),
                chart("shift", "v", "1"),
                chart("triple", "x", f"x^2 - {A}*x"),
                chart("p0", "t", "t"), chart("pa", "t", f"t - {A}"),
                chart("q1", "t", f"{A}*t + {D}"),
                chart("q2", "t", f"{C} - {A}*t"),
            ],
            "transitions": [
                tr("std", "inf", x, w, cx, cx),
                tr("inf", "std", w, x, cx, cx),
                tr("inf", "shift", w, v, w_of_v, v_of_w),
                tr("shift", "inf", v, w, v_of_w, w_of_v),
                tr("std", "shift", x, v, x_of_v, v_of_x),
                tr("shift", "std", v, x, v_of_x, x_of_v),
            ],
        }

    def setup(self, seed, size):
        rng = random.Random(seed)
        _r, count = self.sizes[size]
        data = [self.atlas_data(rng, f"p1-{i}") for i in range(count)]
        return {"input_sha256": _sha256_json(data),
                "atlases": [fileio.loads_atlas(d) for d in data]}

    def inputs(self, state, seed, size):
        return state["atlases"], state["input_sha256"]

    def run(self, state, atlases, seed, size, verdicts):
        for atl in atlases:
            self.run_atlas(atl, self.sizes[size][0], verdicts)
        return {}

    def run_atlas(self, atl, r, verdicts):
        for (frm, to), tp in sorted(atl.transitions.items()):
            label = f"{atl.name}/{frm}->{to}"
            back = atl.transitions.get((to, frm))
            n = tp.overlap.nparams
            verdicts.run(f"{label}/validate",
                         lambda: atlas.validate_transition(tp, r) or True)
            for m in mi_range(n, r):
                if mi_degree(m) < 1:
                    continue
                for p in range(n):
                    tag = f"{label}/m{list(m)}/p{p}"
                    verdicts.run(
                        f"{tag}/dual-route",
                        lambda: atlas.transition_l(tp, m, p, r)
                        == atlas.transition_via_iso(tp, m, p, r))
                    verdicts.run(f"{tag}/filtration",
                                 lambda: atlas.filtration_check(tp, m, p, r))
                    if mi_degree(m) == 1:
                        verdicts.run(
                            f"{tag}/jacobian",
                            lambda: atlas.jacobian_quotient_check(tp, m, p, r))
                    unit = CurrentElem(tp.overlap, r, {(m, p): tp.overlap.one()})
                    verdicts.run(
                        f"{tag}/inverse",
                        lambda: atlas.transport_current(
                            back, atlas.transition_l(tp, m, p, r), r) == unit)
        for triple in itertools.permutations(sorted(atl.charts), 3):
            keys = [(triple[0], triple[1]), (triple[1], triple[2]),
                    (triple[0], triple[2])]
            if not all(k in atl.transitions for k in keys):
                continue
            n = atl.transitions[keys[0]].overlap.nparams
            for m in mi_range(n, r):
                if mi_degree(m) < 1:
                    continue
                for p in range(n):
                    verdicts.run(
                        f"{atl.name}/cocycle/{','.join(triple)}/m{list(m)}/p{p}",
                        lambda: atlas.cocycle_check(atl, triple, m, p, r))


WORKLOADS = {w.name: w for w in (VerifyAll(), DeepJet(), Transport())}

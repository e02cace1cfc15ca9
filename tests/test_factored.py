"""Charts whose denominator g splits into several factors.

The ``ChartSpec`` constructor splits g into its generators, its parameters
and the rest, and a ``RingElem`` keeps one exponent per factor.  On ``p1``'s
``triple`` overlap (g = x(x - 1)) and on the two-generator chart c4 below
(g = y0 * y1 * (2 - 3x - 2xz)), every chart-sampled suite must pass within a
time budget: with one exponent for all of g, each 1/y_j was lifted by the
factors it does not need, and c4's av-tensor suite took about 5 s and its
taylor suite 0.2 s where they now take about 0.1 s and 0.005 s.
"""

import time

import pytest

from jetalg import suites
from jetalg.fileio import loads_atlas, loads_chart
from jetalg.fixtures import STANDARD_ATLASES

C4 = {"name": "c4", "params": ["x", "z"],
      "gens": [{"name": "y0", "degree": 3, "rhs": "2*z^2 + x^2*z - 3"},
               {"name": "y1", "degree": 3, "rhs": "-2*x^2*z*y0 - 1"}],
      "denominator": "y0*y1*(2 - 3*x - 2*x*z)"}

# seconds per suite run; the slowest run below takes about 0.1 s
BUDGET_S = 2.0

CHART_SUITES = ["taylor", "jet-hom", "smash-bracket", "iso-roundtrip",
                "iso-hom", "localization", "av-tensor"]


def _triple():
    # loaded alone, so no other test has filled its caches
    return loads_atlas(STANDARD_ATLASES["p1"]).charts["triple"]


def _run_within_budget(suite, chart, orders):
    start = time.perf_counter()
    report = suites.run_verification(suite, [chart], None, orders, 1, 42)
    elapsed = time.perf_counter() - start
    assert report.records and report.passed(), suite
    assert elapsed < BUDGET_S, f"{suite} on {chart.name} took {elapsed:.2f} s"


def test_split_of_the_denominator():
    assert [str(f) for f in _triple().factors] == ["x", "x - 1"]
    assert [str(f) for f in loads_chart(C4).factors] == ["y0", "y1", "-2*x*z - 3*x + 2"]
    # one nonconstant factor, or a constant left over: g stays whole
    for den in ("x^2", "y", "2*x*y", "x + 1"):
        chart = loads_chart({"name": "one", "params": ["x"], "denominator": den,
                             "gens": [{"name": "y", "degree": 2, "rhs": "x"}]}
                            if "y" in den else
                            {"name": "one", "params": ["x"], "denominator": den})
        assert [str(f) for f in chart.factors] == [str(chart.denominator)]
    # a factor's multiplicity in g
    sq = loads_chart({"name": "sq", "params": ["x"], "denominator": "x^3 - x^2"})
    assert str(sq.inv_denominator()) == "(1)/((x)^2*(x - 1))"


def test_exponents_stay_within_their_fields():
    triple = _triple()
    x = triple.param(0)
    assert triple.exponents(triple.inv_denominator(32767).s) == (32767, 32767)
    with pytest.raises(ValueError):
        triple.inv_denominator(32768)
    big = x.invert() ** 20000
    assert triple.exponents(big.s) == (20000, 0)
    with pytest.raises(ValueError, match="exponent bound 32767"):
        big * big


@pytest.mark.parametrize("suite", CHART_SUITES)
def test_chart_suites_pass_on_triple(suite):
    _run_within_budget(suite, _triple(), [1, 2])


# smash-bracket (about 3 s) is left out: see CHANGES.md
@pytest.mark.parametrize("suite", ["taylor", "jet-hom", "iso-roundtrip", "iso-hom",
                                   "localization", "av-tensor"])
def test_chart_suites_pass_on_c4(suite):
    _run_within_budget(suite, loads_chart(C4), [1])


def test_x_derivatives_of_y1_are_no_larger_than_without_the_third_factor():
    # the same chart with g = y0 * y1: the factor 2 - 3x - 2xz, which no
    # generator needs, must not swell the derivatives of y1
    c4 = loads_chart(C4)
    bare = loads_chart({**C4, "name": "c4_bare", "denominator": "y0*y1"})
    a, b = c4.gen(1), bare.gen(1)
    for _ in range(4):
        a, b = a.derive(0), b.derive(0)
        assert len(a.num.nums) <= len(b.num.nums)

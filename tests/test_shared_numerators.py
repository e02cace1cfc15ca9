"""No code writes into a polynomial's numerator dict.

``Poly._scale`` by 1/d hands its operand's ``nums`` dict to ``_make``, so two
polynomials can share one dict (``multipoly._make``'s docstring).  That is
exact only while no code writes into a dict once a polynomial holds it.
This test records every numerator dict made during the default seed-42
``verify --suite all`` run, with a copy of its items, and checks afterwards
that none changed."""

from jetalg import charts, multipoly
from jetalg.fileio import loads_atlas, loads_chart
from jetalg.fixtures import STANDARD_ATLASES, STANDARD_CHARTS
from jetalg.multipoly import Poly
from jetalg.suites import run_verification


def test_no_numerator_dict_changes_once_a_polynomial_holds_it(monkeypatch):
    seen = {}  # id of a dict -> [the dict, a copy made when first seen, holders]
    make, init = multipoly._make, Poly.__init__

    def record(p):
        entry = seen.get(id(p.nums))
        if entry is None:
            seen[id(p.nums)] = [p.nums, dict(p.nums), 1]
        else:
            entry[2] += 1

    def recorded_make(*args):
        p = make(*args)
        record(p)
        return p

    def recorded_init(self, *args):
        init(self, *args)
        record(self)

    monkeypatch.setattr(multipoly, "_make", recorded_make)
    monkeypatch.setattr(charts, "_make", recorded_make)
    monkeypatch.setattr(Poly, "__init__", recorded_init)
    # fresh charts and atlas, so their caches fill during the recording
    labels = ["affine2", "loc_x", "elliptic"]
    try:
        report = run_verification(
            "all", [loads_chart(STANDARD_CHARTS[c]) for c in labels],
            loads_atlas(STANDARD_ATLASES["p1"]), [1, 2, 3], 8, 42, labels, "p1")
    finally:  # also when a written dict makes the run raise
        changed = [copy for nums, copy, _ in seen.values() if nums != copy]
        assert changed == []
    assert report.passed()
    # the run makes many polynomials, and some of them share a dict
    assert len(seen) > 10_000
    assert sum(1 for *_, holders in seen.values() if holders > 1) > 100

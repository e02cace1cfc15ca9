"""Golden value serialization: the ``value_to_data`` JSON and the ``str`` of
seeded values of all nine kinds on ``elliptic``, ``affine2`` and ``loc_x``,
byte for byte, against ``serial_golden.json``.

The values are drawn from ``Sampler`` with fixed seeds and built through the
public constructors, so the file pins the data form and the display of every
kind, key order included.  Regenerate the data only when an output is meant
to change, and say which one changed and why:

    PYTHONPATH=src python tests/test_serial_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from jetalg.envalg import DiffOp, TensorElem
from jetalg.fileio import value_from_data, value_to_data
from jetalg.fixtures import standard_chart
from jetalg.liealg import basis_key
from jetalg.multipoly import mi_range
from jetalg.sampling import Sampler, derive_seed

GOLDEN = Path(__file__).resolve().parent / "serial_golden.json"
CHARTS = ("elliptic", "affine2", "loc_x")
SAMPLES = 4
R = 2


def _diffop(smp, chart):
    idxs = mi_range(chart.nparams, 2)
    return DiffOp(chart, [
        (idxs[smp.rng.randrange(len(idxs))], smp.elem(chart)) for _ in range(3)
    ])


def _tensor(smp, chart):
    idxs = mi_range(chart.nparams, 2)
    terms = []
    for _ in range(3):
        word = smp.basis_word(chart.nparams, R, smp.rng.randint(0, 2))
        key = (idxs[smp.rng.randrange(len(idxs))], sorted(word, key=basis_key))
        terms.append((key, smp.elem(chart)))
    return TensorElem(chart, R, terms)


KINDS = {
    "elem": lambda smp, chart: smp.elem(chart, terms=3, max_s=2),
    "vfield": lambda smp, chart: smp.vfield(chart),
    "jet": lambda smp, chart: smp.jet(chart, 3, density=3),
    "jetfield": lambda smp, chart: smp.jetfield(chart, 2),
    "lelem": lambda smp, chart: smp.lelem(chart.nparams, 3, terms=3),
    "current": lambda smp, chart: smp.current(chart, R, terms=3),
    "semidirect": lambda smp, chart: smp.semidirect(chart, R),
    "diffop": _diffop,
    "tensor": _tensor,
}

CASES = [(name, kind, idx) for name in CHARTS for kind in KINDS
         for idx in range(SAMPLES)]


def value(name, kind, idx):
    chart = standard_chart(name)
    return KINDS[kind](Sampler(derive_seed("serial-golden", name, kind, idx)), chart)


def _key(name, kind, idx):
    return f"{name}/{kind}/{idx}"


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert set(_golden()) == {_key(*case) for case in CASES}


@pytest.mark.parametrize("name,kind,idx", CASES, ids=lambda p: str(p))
def test_value_data_and_str_match_golden(name, kind, idx):
    want = _golden()[_key(name, kind, idx)]
    v = value(name, kind, idx)
    data = value_to_data(v)
    assert data["kind"] == kind
    assert json.dumps(data) == want["data"]
    assert str(v) == want["str"]
    assert value_from_data(json.loads(want["data"]), standard_chart(name)) == v


def record():
    out = {}
    for case in CASES:
        v = value(*case)
        out[_key(*case)] = {"data": json.dumps(value_to_data(v)), "str": str(v)}
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

"""Built-in example charts and atlases, each read from its file in the
package's ``charts`` directory and named after it.

Three charts exercise the three ring features: the affine plane
``affine2``, the localized line ``loc_x`` and the curve chart ``elliptic``
with one algebraic generator.  The projective-line atlas ``p1`` has three
charts (w = 1/x, v = 1/(x - 1)) and all six directed transitions over the
common triple overlap, so that composites stay on one ring and cocycles can
be checked; ``p1_pair`` is the two-chart version over the pair overlap.
Each transition also carries closed coordinate-change formulas, so mutual
inverseness is checked by substitution.  The CLI accepts these names
wherever a chart/atlas file is expected.
"""

from __future__ import annotations

import functools
import json
import os

from . import fileio

CHART_DIR = os.path.join(os.path.dirname(__file__), "charts")

STANDARD_CHARTS, STANDARD_ATLASES = {}, {}
for _file in sorted(f for f in os.listdir(CHART_DIR) if f.endswith(".json")):
    with open(os.path.join(CHART_DIR, _file), encoding="utf-8") as _fh:
        _data = json.load(_fh)
    _table = STANDARD_ATLASES if "transitions" in _data else STANDARD_CHARTS
    _table[os.path.splitext(_file)[0]] = _data


@functools.cache
def standard_chart(name):
    if name not in STANDARD_CHARTS:
        raise KeyError(f"no built-in chart {name!r}")
    return fileio.loads_chart(STANDARD_CHARTS[name])


@functools.cache
def standard_atlas(name="p1"):
    if name not in STANDARD_ATLASES:
        raise KeyError(f"no built-in atlas {name!r}")
    return fileio.loads_atlas(STANDARD_ATLASES[name])

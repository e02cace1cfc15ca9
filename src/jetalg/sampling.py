"""Deterministic random generation of chart values for the check suites.

Everything flows from one `random.Random` seeded explicitly, so a (seed,
suite, chart) triple always regenerates the same inputs; the verification
reports rely on this for reproducible witnesses.  Polynomials are sparse
with small integer or rational coefficients and bounded exponents (exponents
of algebraic generators stay below their degrees, which keeps sampled
elements in normal form from the start)."""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from .charts import RingElem
from .jets import Jet
from .jetfields import JetField
from .liealg import CurrentElem, LElem, SemiDirectElem, basis_elements
from .multipoly import Poly, mi_range
from .vfields import VectorField


def derive_seed(*parts):
    """Stable child seed from arbitrary labels."""
    return zlib.crc32(":".join(str(p) for p in parts).encode())


class Sampler:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def fraction(self, lo=-3, hi=3, maxden=2):
        return Fraction(self.rng.randint(lo, hi), self.rng.randint(1, maxden))

    def poly(self, chart, max_deg=2, terms=2):
        """Sparse numerator polynomial on the chart, generator exponents
        already below their degrees."""
        caps = [max_deg] * chart.nparams + [
            min(g.degree - 1, max_deg) for g in chart.gens
        ]
        return Poly(chart.allvars, [
            (tuple(self.rng.randint(0, c) for c in caps), self.fraction())
            for _ in range(terms)
        ])

    def elem(self, chart, max_deg=2, terms=2, max_s=1):
        s = self.rng.randint(0, max_s) if chart.denominator.degree() > 0 else 0
        return RingElem(chart, self.poly(chart, max_deg, terms), s)

    def nonzero_elem(self, chart, max_deg=2, terms=2, max_s=1):
        for _ in range(50):
            e = self.elem(chart, max_deg, terms, max_s)
            if not e.is_zero():
                return e
        return chart.one()

    def vfield(self, chart, max_deg=2, terms=2, max_s=1):
        return VectorField(
            chart,
            [self.elem(chart, max_deg, terms, max_s) for _ in range(chart.nparams)],
        )

    def jet(self, chart, k, max_deg=2, terms=2, max_s=1, density=2):
        """Random jet: a few coefficients at random multi-indices."""
        idxs = mi_range(chart.nparams, k)
        coeffs = {}
        for _ in range(density):
            m = idxs[self.rng.randrange(len(idxs))]
            coeffs[m] = self.elem(chart, max_deg, terms, max_s)
        return Jet(chart, k, coeffs)

    def jetfield(self, chart, k, max_deg=2, terms=2, max_s=1, density=2):
        return JetField(
            chart, k,
            [self.jet(chart, k, max_deg, terms, max_s, density)
             for _ in range(chart.nparams)],
        )

    def lelem(self, nvars, r, terms=2):
        basis = basis_elements(nvars, r)
        return LElem(nvars, r, [
            (basis[self.rng.randrange(len(basis))], self.fraction())
            for _ in range(terms)
        ])

    def current(self, chart, r, terms=2, max_deg=2, max_s=1):
        basis = basis_elements(chart.nparams, r)
        out = {}
        for _ in range(terms):
            key = basis[self.rng.randrange(len(basis))]
            out[key] = self.elem(chart, max_deg, 2, max_s)
        return CurrentElem(chart, r, out)

    def semidirect(self, chart, r, max_deg=2, max_s=1):
        return SemiDirectElem(
            self.vfield(chart, max_deg, 2, max_s),
            self.current(chart, r, 2, max_deg, max_s),
        )

    def basis_word(self, nvars, r, length):
        basis = basis_elements(nvars, r)
        return tuple(
            basis[self.rng.randrange(len(basis))] for _ in range(length)
        )

    def av_word(self, chart, length, max_deg=2, max_s=1):
        out = []
        for _ in range(length):
            if self.rng.random() < 0.5:
                out.append(("fun", self.nonzero_elem(chart, max_deg, 2, max_s)))
            else:
                out.append(("vf", self.vfield(chart, max_deg, 2, max_s)))
        return out

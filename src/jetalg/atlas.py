"""Transition functions of the current-algebra bundle over an atlas.

A transition pair records an overlap chart (with its own native parameters),
the from-chart coordinates G_i and the to-chart coordinates H_j, all as
elements of the overlap ring.  The coordinate frames d/dx_p (from side) and
d/dy_q (to side) are vector fields on the overlap obtained by inverting the
Jacobians of G and H against the native parameters; mutual inverseness of G
and H is checked at the jet level (composing the x-frame jet of H with the
increment series of G gives H + Y exactly, order by order).

A pair may additionally carry the coordinate change as closed formulas: a
tuple x_of_y expressing each from-coordinate in the to-coordinates and a
tuple y_of_x expressing each to-coordinate in the from-coordinates, each
written over its own one-sided chart whose parameters stand for the
arguments.  Formulas are composable by direct substitution, so for them
mutual inverseness is a real identity rather than a structural fact:
validate_transition checks x_of_y(y_of_x) and y_of_x(x_of_y) against the
identity and also anchors the formulas to the overlap values G and H.

transition_l transports a basis element X^m d/dX_p of the from-side fibre to

  sum_q (G(y+Y) - x)^m * h_qp(G(y+Y)) d/dY_q,     h_qp = dH_q/dx_p,

one jet product in the Y increments per q, exact at the requested truncation
because G(y+Y) - x has positive valuation.  This is the coefficient formula
sum_{k<=m} (-1)^{|m|-|k|} binom(m,k) x^{m-k} [G(y+Y)^k h_qp(G(y+Y)) - x^k h_qp]
(x^k = prod G_i^{k_i}) summed by the binomial theorem in the commutative
truncated jet ring: its first part is (G(y+Y) - x)^m h_qp(G(y+Y)) and its
second x^m h_qp (1 - 1)^m, which is 0 for |m| >= 1.

transition_via_iso computes the same map through the jet-field model: apply
the inverse isomorphism on the from side (delta powers in the x-frame),
decompose into function # field pairs, rewrite the fields in the y-frame by
the chain rule, re-expand as y-frame jets and read off coefficients.  The two
routes are independent implementations and the test suites compare them.

transition_via_iso keeps its own cache per truncation r (TransitionPair._iso,
filled by _iso_data): the powers dx^m, |m| <= r, of the x-frame increments
dx_i = G_i - G_i(x + X), and a memo from a decomposed field eta to the
y-frame jets of eta(H_q), one per q.  The memo is keyed on the exact content
of eta's coefficients (s and the numerator ``Poly``, by its own hash and
equality), so equal keys are equal fields; decompose only yields monomial
multiples of the x-frame fields, at most n * C(n + r, r) of them per pair.
The cache shares nothing with _comp or _tl, and transition_via_iso never
calls _composition_data or transition_l: the two routes check each other, so
the only code they share stays at or below frame_jet.

Composition of transitions is A-linear in the output coefficients, so a
cocycle check over a common triple-overlap ring is the coefficientwise
composite; exactness at a fixed truncation follows from the filtration
property (the image of X^m only has monomials of degree >= |m|), which the
product above has by construction and filtration_check verifies directly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .charts import ChartMismatch, NotInvertible, sum_products
from .jets import Jet, jet_along, jet_scalar
from .jetfields import JetField, decompose
from .liealg import CurrentElem, basis_check
from .multipoly import mi_degree, mi_powers, mi_split, mi_unit
from .vfields import VectorField


class TransitionError(ValueError):
    """A refusal of an atlas, of a transition pair or of a pair it lacks."""


class JacobianNotInvertible(TransitionError):
    pass


class InverseCheckFailed(TransitionError):
    pass


class MissingTransition(TransitionError):
    pass


def mat_det(rows):
    """Determinant over the chart ring, expanded along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    terms = [a * _cofactor(rows, 0, c) for c, a in enumerate(rows[0])]
    return sum(terms[1:], terms[0])


def _cofactor(rows, i, j):
    """(-1)^(i+j) times the determinant of rows without row i and column j."""
    det = mat_det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
    return -det if (i + j) % 2 else det


def mat_inv(rows):
    """Inverse of a matrix over the chart ring, by adjugate over determinant.
    Raises JacobianNotInvertible when the determinant cannot be inverted."""
    n = len(rows)
    try:
        dinv = mat_det(rows).invert()
    except NotInvertible as e:
        raise JacobianNotInvertible(str(e)) from e
    if n == 1:
        return [[dinv]]
    return [[_cofactor(rows, j, i) * dinv for j in range(n)] for i in range(n)]


def frame_jet(frame, f, r):
    """Order-r jet of f along a commuting frame of vector fields:
    coefficient at t^m is (1/m!) D^m f."""
    if len(frame) != f.chart.nparams:
        raise ValueError("frame size must match the parameter count")
    return jet_along(f, r, lambda c, i: frame[i].apply(c))


def compose_formula(f, args):
    """Substitute elements for the parameters of a generator-free formula.

    f is a ring element read as a formula in its chart's parameters; args are
    elements, all on one chart, standing for those parameters in order.  The
    formula's denominator must become invertible after substitution.  Each
    argument has one table of its powers (mi_powers), up to its largest
    exponent in the formula, and each polynomial is one sum_products.  One
    table over every multi-index up to the formula's degree would hold
    C(n + deg, n) products (a 254 MB peak for s^40 t^40 + s at
    (x1 + 1, x2 + 1))."""
    src, n = f.chart, f.chart.nparams
    args = tuple(args)
    if len(args) != n or not args:
        raise ValueError("need one argument per formula parameter")
    target = args[0].chart
    for a in args[1:]:
        args[0]._check(a)

    exps = src.exponents(f.s)
    used = [f.num] + [fk for fk, e in zip(src.factors, exps) if e]
    one = target.one()
    powers = [  # powers[i][(e,)] = args[i]^e
        mi_powers(one, [a], max((m[i] for p in used for m in p.terms), default=0))
        for i, a in enumerate(args)
    ]

    def poly_at(p):
        if any(any(m[n:]) for m in p.terms):
            raise ValueError("formula may not involve algebraic generators")
        return sum_products(target, [
            (math.prod((powers[i][m[i:i + 1]] for i in range(1, n)),
                       start=powers[0][m[:1]]), one, c)
            for m, c in p.terms.items()
        ])

    val = poly_at(f.num)
    for fk, e in zip(src.factors, exps):
        if e:
            val = val * poly_at(fk).invert() ** e
    return val


def _subst(jet, series_products):
    """Evaluate a jet's polynomial on precomputed monomial products of
    positive-valuation series: sum_m coeff_m * series_products[m]."""
    return Jet.combination(jet.chart, jet.order, [
        (c, series_products[m], 1) for m, c in jet.terms.items()
    ])


class TransitionPair:
    """One directed transition: from-chart coordinates G and to-chart
    coordinates H on an explicit overlap chart."""

    def __init__(self, from_name, to_name, overlap, G, H, formulas=None):
        n = overlap.nparams
        G = tuple(G)
        H = tuple(H)
        if len(G) != n or len(H) != n:
            raise ValueError(
                "transition needs one G and one H entry per overlap parameter"
            )
        for e in G + H:
            if e.chart is not overlap and e.chart != overlap:
                raise ChartMismatch("G/H entries must live on the overlap chart")
        if formulas is not None:
            x_of_y, y_of_x = formulas
            x_of_y = tuple(x_of_y)
            y_of_x = tuple(y_of_x)
            if len(x_of_y) != n or len(y_of_x) != n:
                raise ValueError("formula tuples need one entry per coordinate")
            for tup in (x_of_y, y_of_x):
                if tup[0].chart.nparams != n:
                    raise ValueError(
                        "formula chart must have one parameter per coordinate"
                    )
                for e in tup[1:]:
                    tup[0]._check(e)
            formulas = (x_of_y, y_of_x)
        self.from_name = from_name
        self.to_name = to_name
        self.overlap = overlap
        self.G = G
        self.H = H
        self.formulas = formulas
        self._comp = {}      # r -> (dG_products, hcomp matrix)
        self._tl = {}        # (m, p, r) -> CurrentElem
        self._iso = {}       # r -> (dx powers, y-frame jet memo); iso route only

    # -- frames

    @functools.cached_property
    def frames(self):
        """(x-frame, y-frame), built on first use; a JacobianNotInvertible
        is raised again on the next use."""
        n = self.overlap.nparams
        frames = []
        for F in (self.G, self.H):  # the x-frame, then the y-frame
            inv = mat_inv([[F[i].derive(l) for l in range(n)] for i in range(n)])
            frames.append(tuple(
                VectorField(self.overlap, [inv[l][p] for l in range(n)])
                for p in range(n)
            ))
        return tuple(frames)

    def dH_dx(self, q, p):
        """h_qp = dH_q/dx_p."""
        return self.frames[0][p].apply(self.H[q])

    # -- shared jet data at truncation r

    def _composition_data(self, r):
        got = self._comp.get(r)
        if got is not None:
            return got
        n = self.overlap.nparams
        x_frame, y_frame = self.frames
        dG = [frame_jet(y_frame, g, r) - jet_scalar(g, r) for g in self.G]
        products = mi_powers(jet_scalar(self.overlap.one(), r), dG, r)
        hcomp = [
            [
                _subst(frame_jet(x_frame, self.dH_dx(q, p), r), products)
                for p in range(n)
            ]
            for q in range(n)
        ]
        data = (products, hcomp)
        self._comp[r] = data
        return data

    def __repr__(self):
        return f"TransitionPair({self.from_name!r} -> {self.to_name!r} on {self.overlap.name!r})"


def identity_transition(chart):
    params = tuple(chart.param(i) for i in range(chart.nparams))
    return TransitionPair(chart.name, chart.name, chart, params, params)


def validate_transition(tp, jet_order=2):
    """Frames exist, they commute, and G/H are mutually inverse at the jet
    level: substituting the increment series of G into the x-frame jet of
    H_q returns H_q + Y_q through the requested order.  When the pair
    carries coordinate formulas, both composites of the formulas must be
    the identity and the formulas must reproduce G and H on the overlap."""
    x_frame, y_frame = tp.frames
    n = tp.overlap.nparams
    zero = VectorField.zero(tp.overlap)
    for frame in (x_frame, y_frame):
        for a in range(n):
            for b in range(a + 1, n):
                if frame[a].bracket(frame[b]) != zero:
                    raise InverseCheckFailed("frame fields do not commute")
    products, _ = tp._composition_data(jet_order)
    for q in range(n):
        comp = _subst(frame_jet(x_frame, tp.H[q], jet_order), products)
        expected = jet_scalar(tp.H[q], jet_order)
        if jet_order >= 1:  # at order 0 the identity truncates to H_q = H_q
            expected = expected + Jet(
                tp.overlap, jet_order, {mi_unit(n, q): tp.overlap.one()})
        if comp != expected:
            raise InverseCheckFailed(
                f"H_{q}(G(y+Y)) does not equal H_{q} + Y_{q} at order {jet_order}"
            )
    if tp.formulas is not None:
        _validate_formulas(tp)


def _validate_formulas(tp):
    x_of_y, y_of_x = tp.formulas
    # per direction: the formulas, their inverse (whose chart holds the
    # identity's parameters), and the overlap values they map from and to
    directions = (
        ("x_of_y", x_of_y, "y_of_x", y_of_x, tp.H, "G", tp.G),
        ("y_of_x", y_of_x, "x_of_y", x_of_y, tp.G, "H", tp.H),
    )
    try:
        for name, fs, other, inverse, args, target, values in directions:
            for i, f in enumerate(fs):
                if compose_formula(f, inverse) != inverse[0].chart.param(i):
                    raise InverseCheckFailed(
                        f"{name}[{i}] composed with {other} is not the identity"
                    )
                if compose_formula(f, args) != values[i]:
                    raise InverseCheckFailed(
                        f"{name}[{i}] does not reproduce {target}_{i} on the overlap"
                    )
    except NotInvertible as e:
        raise InverseCheckFailed(
            f"formula substitution needs an unavailable inverse: {e}"
        ) from e


def transition_l(tp, m, p, r):
    """Transport X^m d/dX_p (from-side current basis) across tp: a current
    element over the overlap chart in the Y increments, truncated at r."""
    n = tp.overlap.nparams
    m, p = basis_check(n, r, (m, p))
    got = tp._tl.get((m, p, r))
    if got is not None:
        return got
    products, hcomp = tp._composition_data(r)
    out = CurrentElem(tp.overlap, r, {
        (mm, q): c
        for q in range(n)
        for mm, c in (products[m] * hcomp[q][p]).coeffs.items()
    })
    tp._tl[(m, p, r)] = out
    return out


def _iso_data(tp, r):
    """transition_via_iso's cache at truncation r: the powers dx^m for every
    |m| <= r of the x-frame increments dx_i = G_i - G_i(x + X), and the
    memo of y-frame jets (see the module docstring)."""
    got = tp._iso.get(r)
    if got is not None:
        return got
    dx = [jet_scalar(g, r) - frame_jet(tp.frames[0], g, r) for g in tp.G]
    powers = mi_powers(jet_scalar(tp.overlap.one(), r), dx, r)
    got = tp._iso[r] = (powers, {})
    return got


def transition_via_iso(tp, m, p, r):
    """The same transport computed through the jet-field isomorphism:
    inverse map on the from side (delta powers in the x-frame), smash
    decomposition, chain rule into the y-frame, re-expansion as y-frame
    jets, and coefficient read-off."""
    n = tp.overlap.nparams
    m, p = basis_check(n, r, (m, p))
    x_frame, y_frame = tp.frames
    powers, memo = _iso_data(tp, r)
    comps = [Jet.zero(tp.overlap, r) for _ in range(n)]
    comps[p] = powers[m].scale(tp.overlap.one() * Fraction((-1) ** mi_degree(m)))
    u = JetField(tp.overlap, r, comps)
    items = [[] for _ in range(n)]  # q -> (a, y-frame jet, 1)
    for a, eta in decompose(u, params=list(tp.G), basis=list(x_frame)):
        key = tuple((c.s, c.num) for c in eta.coeffs)
        jets = memo.get(key)
        if jets is None:
            jets = memo[key] = [
                Jet.zero(tp.overlap, r) if b.is_zero() else frame_jet(y_frame, b, r)
                for b in (eta.apply(h) for h in tp.H)
            ]
        for q, jet in enumerate(jets):
            items[q].append((a, jet, 1))
    terms = {}
    for q in range(n):
        for mm, c in Jet.combination(tp.overlap, r, items[q]).coeffs.items():
            if mi_degree(mm) == 0:
                raise ArithmeticError(
                    "isomorphism route produced a nonzero anchor"
                )
            terms[(mm, q)] = c
    return CurrentElem(tp.overlap, r, terms)


def transport_current(tp, ce, r):
    """Apply a transition to a whole current element, A-linearly in the
    coefficients.  ce must live on the same overlap chart."""
    if ce.chart is not tp.overlap and ce.chart != tp.overlap:
        raise ChartMismatch("current element must live on the overlap chart")
    return CurrentElem.combination(tp.overlap, r, [
        (c, transition_l(tp, m, q, r), 1) for (m, q), c in ce.terms.items()
    ])


def filtration_check(tp, m, p, r):
    """The image of X^m d/dX_p has no monomials of degree < |m|."""
    ce = transition_l(tp, m, p, r)
    return all(mi_degree(mm) >= mi_degree(m) for (mm, _q) in ce.terms)


def jacobian_quotient_check(tp, a, p, r):
    """For |a| = 1 the degree-1 block of the transition is the rank-one
    product of the two Jacobians: coefficient of Y_b d/dY_q equals
    (dG_{a}/dy_b) * (dH_q/dx_p)."""
    n = tp.overlap.nparams
    a = tuple(a)
    if mi_degree(a) != 1:
        raise ValueError("jacobian_quotient_check needs |a| = 1")
    i, _ = mi_split(a)
    ce = transition_l(tp, a, p, r)
    y_frame = tp.frames[1]
    for b in range(n):
        for q in range(n):
            got = ce.coeff(mi_unit(n, b), q)
            want = y_frame[b].apply(tp.G[i]) * tp.dH_dx(q, p)
            if got != want:
                return False
    return True


def cocycle_check(atl, triple, m, p, r):
    """transition(i->l) = transition(j->l) after transition(i->j) on the
    basis element X^m d/dX_p, all three over one common overlap chart."""
    i, j, l = triple
    t_ij = atl.transition(i, j)
    t_jl = atl.transition(j, l)
    t_il = atl.transition(i, l)
    if not (t_ij.overlap == t_jl.overlap == t_il.overlap):
        raise MissingTransition(
            "cocycle check needs all three transitions over one overlap chart"
        )
    lhs = transport_current(t_jl, transition_l(t_ij, m, p, r), r)
    rhs = transition_l(t_il, m, p, r)
    return lhs == rhs


class AtlasSpec:
    """Charts by name plus directed transitions keyed by (from, to), each
    between known charts of its overlap's dimension (checked here)."""

    def __init__(self, name, charts, transitions):
        self.name = name
        self.charts = dict(charts)
        self.transitions = {}
        for tp in transitions:
            a, b, n = tp.from_name, tp.to_name, tp.overlap.nparams
            if a not in self.charts or b not in self.charts:
                raise TransitionError(f"transition {a}->{b} references unknown charts")
            if self.charts[a].nparams != n or self.charts[b].nparams != n:
                raise TransitionError(
                    f"transition {a}->{b}: chart dimensions do not match the overlap"
                )
            self.transitions[(a, b)] = tp

    def transition(self, a, b):
        got = self.transitions.get((a, b))
        if got is None:
            raise MissingTransition(f"no transition {a} -> {b}")
        return got

    def validate(self, jet_order=2):
        for tp in self.transitions.values():
            validate_transition(tp, jet_order)

    def __repr__(self):
        return f"AtlasSpec({self.name!r}, charts={sorted(self.charts)})"

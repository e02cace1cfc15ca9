import pytest

from jetalg import atlas
from jetalg.atlas import (
    AtlasSpec, TransitionError, TransitionPair, cocycle_check, compose_formula,
    filtration_check, identity_transition, jacobian_quotient_check,
    transition_l, transition_via_iso, transport_current, validate_transition,
)
from jetalg.fileio import loads_chart
from jetalg.fixtures import standard_atlas, standard_chart
from jetalg.liealg import CurrentElem
from jetalg.multipoly import mi_degree, mi_range
from transref import ref_transition_l


def test_builtin_atlases_validate(p1, p1_pair):
    p1.validate(jet_order=3)
    p1_pair.validate(jet_order=3)


def test_transition_pair_repr(p1_pair):
    assert (repr(p1_pair.transition("std", "inf"))
            == "TransitionPair('std' -> 'inf' on 'std_inf')")


def test_identity_transition_validates(loc_x):
    validate_transition(identity_transition(loc_x), jet_order=3)


def test_non_inverse_formulas_rejected(loc_x):
    # claimed coordinate change x = y^2 with claimed inverse y = x: the
    # formula composite is x^2, not the identity, so validation fails
    line = loads_chart({"name": "line", "params": ["t"], "gens": [],
                        "denominator": "1"})
    t = line.param(0)
    x = loc_x.param(0)
    bad = TransitionPair("a", "b", loc_x, [x], [x],
                         formulas=([t ** 2], [t]))
    with pytest.raises(TransitionError,
                       match=r"x_of_y\[0\] composed with y_of_x is not the identity"):
        validate_transition(bad)


def test_formula_value_mismatch_rejected(loc_x):
    # mutually inverse formulas (both t -> 1/t) that do not reproduce the
    # stored overlap values are rejected as well
    punct = loads_chart({"name": "punct", "params": ["t"], "gens": [],
                         "denominator": "t"})
    inv_t = punct.inv_denominator()
    x = loc_x.param(0)
    bad = TransitionPair("a", "b", loc_x, [x], [x],
                         formulas=([inv_t], [inv_t]))
    with pytest.raises(TransitionError,
                       match=r"x_of_y\[0\] does not reproduce G_0 on the overlap"):
        validate_transition(bad)


def test_compose_formula_geometric():
    line = loads_chart({"name": "aline", "params": ["t"], "gens": [],
                        "denominator": "t"})
    t = line.param(0)
    inv_t = line.inv_denominator()
    assert compose_formula(inv_t, [inv_t]) == t
    assert compose_formula((t + 1) * inv_t, [inv_t]) == t + 1
    assert compose_formula(t ** 2 + 1, [t + 1]) == t ** 2 + 2 * t + 2
    # two parameters on a chart with a generator: a formula that does not
    # use the generator substitutes, one that does is refused
    curve = loads_chart({"name": "curve", "params": ["s", "t"], "gens": [
        {"name": "u", "degree": 2, "rhs": "s^3 - t + 1"}], "denominator": "u"})
    s, t, u = curve.param(0), curve.param(1), curve.gen(0)
    x1, x2 = (standard_chart("affine2").param(i) for i in range(2))
    assert (compose_formula(s ** 2 * t + 3 * t ** 2 - 1, [x1 + 1, x2])
            == (x1 + 1) ** 2 * x2 + 3 * x2 ** 2 - 1)
    for f in (u + s, curve.inv_denominator()):
        with pytest.raises(ValueError, match="algebraic generators"):
            compose_formula(f, [x1, x2])


def test_compose_formula_tables_each_argument_to_its_own_exponent(monkeypatch, affine2):
    # one power table per argument, up to its largest exponent: a table over
    # every multi-index up to the degree would hold C(n + deg, n) products
    # (325 here, and 3321 for s^40 t^40, which took 254 MB)
    sizes, real = [], atlas.mi_powers

    def counted(*args):
        table = real(*args)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(atlas, "mi_powers", counted)
    plane = loads_chart({"name": "plane", "params": ["s", "t"], "gens": [],
                         "denominator": "1"})
    s, t = plane.param(0), plane.param(1)
    x1, x2 = affine2.param(0), affine2.param(1)
    got = compose_formula(s ** 12 * t ** 12 + s, [x1 + 1, x2 + 1])
    assert got == (x1 + 1) ** 12 * (x2 + 1) ** 12 + x1 + 1
    assert sizes == [13, 13]


def test_mat_inv_is_a_two_sided_inverse_in_three_parameters():
    # A = L U with L unipotent lower and U upper with diagonal (x1, 1, 1),
    # so det A = x1 is a unit of the chart that inverts x1 and A is not
    # symmetric: a transposed cofactor gives no inverse
    chart = loads_chart({"name": "c3", "params": ["x1", "x2", "x3"],
                         "gens": [], "denominator": "x1"})
    x1, x2, x3 = (chart.param(i) for i in range(3))
    one = chart.one()
    A = [[x1, x3, one],
         [x1 * x2, x2 * x3 + 1, 2 * x2],
         [x1 * x3, x3 ** 2 + x2, x2 ** 2 + x3 + 1]]
    assert atlas.mat_det(A) == x1
    inv = atlas.mat_inv(A)
    for P, Q in ((inv, A), (A, inv)):
        for i in range(3):
            for j in range(3):
                got = sum((P[i][k] * Q[k][j] for k in range(3)), chart.zero())
                assert got == (one if i == j else chart.zero()), (i, j)


def test_degenerate_jacobian_rejected():
    plain = loads_chart({"name": "plain", "params": ["x"], "gens": [],
                         "denominator": "1"})
    x = plain.param(0)
    bad = TransitionPair("a", "b", plain, [x ** 2], [x])
    with pytest.raises(TransitionError, match=r"cannot invert 2\*x"):
        validate_transition(bad)
    # a refusal is not cached: each use of the frames raises again
    with pytest.raises(TransitionError, match=r"cannot invert 2\*x"):
        validate_transition(bad)
    with pytest.raises(TransitionError, match=r"cannot invert 2\*x"):
        bad.frames


def test_projective_pair_values(p1_pair):
    """Across x -> 1/x the fibre generator X d/dX picks up a quadratic
    term: Y + x Y^2 (that is, Y + Y^2/y in the target coordinate), and
    X^2 d/dX maps to -x^2 Y^2 = -Y^2/y^2."""
    tp = p1_pair.transition("std", "inf")
    ov = tp.overlap
    x = ov.param(0)
    for r in (2, 3, 4):
        assert transition_l(tp, (1,), 0, r) == CurrentElem(
            ov, r, {((1,), 0): ov.one(), ((2,), 0): x})
        assert transition_l(tp, (2,), 0, r) == CurrentElem(
            ov, r, {((2,), 0): -(x ** 2)})


def test_identity_transition_is_identity_on_the_fibre(loc_x):
    tp = identity_transition(loc_x)
    for r in (2, 3):
        for m in [(1,), (2,), (3,)]:
            if sum(m) > r:
                continue
            assert transition_l(tp, m, 0, r) == CurrentElem(
                loc_x, r, {(m, 0): loc_x.one()})


def test_zero_degree_monomial_rejected(p1_pair):
    tp = p1_pair.transition("std", "inf")
    with pytest.raises(ValueError):
        transition_l(tp, (0,), 0, 3)


def test_both_routes_agree(p1, p1_pair):
    for atlas in (p1_pair, p1):
        for tp in atlas.transitions.values():
            for m in [(1,), (2,), (3,)]:
                assert transition_l(tp, m, 0, 4) == transition_via_iso(tp, m, 0, 4)


def test_via_iso_on_the_pair(p1_pair):
    tp = p1_pair.transition("std", "inf")
    ov = tp.overlap
    x = ov.param(0)
    assert transition_via_iso(tp, (1,), 0, 3) == CurrentElem(
        ov, 3, {((1,), 0): ov.one(), ((2,), 0): x})


def test_opposite_transitions_invert(p1_pair):
    tp = p1_pair.transition("std", "inf")
    back = p1_pair.transition("inf", "std")
    r = 4
    for m in [(1,), (2,), (3,)]:
        unit = CurrentElem(tp.overlap, r, {(m, 0): tp.overlap.one()})
        assert transport_current(back, transition_l(tp, m, 0, r), r) == unit


def test_filtration(p1_pair):
    tp = p1_pair.transition("std", "inf")
    for m in [(1,), (2,), (3,)]:
        assert filtration_check(tp, m, 0, 4)
    # explicit reading of the m=2 value: no Y^0 or Y^1 terms
    ce = transition_l(tp, (2,), 0, 4)
    assert ce.coeff((1,), 0).is_zero()


def test_jacobian_quotient(p1_pair, loc_x):
    tp = p1_pair.transition("std", "inf")
    assert jacobian_quotient_check(tp, (1,), 0, 3)
    assert jacobian_quotient_check(identity_transition(loc_x), (1,), 0, 3)


def test_cocycle_holds_on_triple_overlap(p1):
    for triple in (("std", "inf", "shift"), ("shift", "std", "inf"),
                   ("inf", "shift", "std")):
        for m in [(1,), (2,), (3,)]:
            assert cocycle_check(p1, triple, m, 0, 4)


def test_cocycle_negative_control(p1):
    """Replacing one leg by the identity breaks the composition law."""
    ov = p1.transition("std", "inf").overlap
    x = ov.param(0)
    tampered = AtlasSpec(
        "tampered",
        p1.charts,
        [p1.transition("std", "inf"),
         TransitionPair("inf", "shift", ov, [x], [x]),
         p1.transition("std", "shift")],
    )
    assert not cocycle_check(tampered, ("std", "inf", "shift"), (1,), 0, 3)


def test_degenerate_triple_with_identities(loc_x):
    ident = identity_transition(loc_x)
    atl = AtlasSpec("only", {loc_x.name: loc_x}, [ident])
    triple = (loc_x.name, loc_x.name, loc_x.name)
    assert cocycle_check(atl, triple, (1,), 0, 3)


def test_missing_transition(p1_pair):
    with pytest.raises(TransitionError, match="no transition inf -> elsewhere"):
        p1_pair.transition("inf", "elsewhere")


def _differential_pairs():
    """(id, pair): every transition of p1 and p1_pair, the identity on
    each standard chart, and three two-parameter transitions on affine2
    with invertible Jacobians."""
    a2 = standard_chart("affine2")
    x1, x2 = a2.param(0), a2.param(1)
    shear = (x1 + x2 ** 2, x2)
    pairs = [
        ("affine2-shear", TransitionPair("a", "b", a2, (x1, x2), shear)),
        ("affine2-unshear", TransitionPair("b", "a", a2, shear, (x1, x2))),
        ("affine2-mixed", TransitionPair(
            "c", "d", a2, (x1 + x2 ** 2, x2 + 3), (2 * x1 - x2, x2))),
    ]
    for name in ("p1", "p1_pair"):
        for (a, b), tp in standard_atlas(name).transitions.items():
            pairs.append((f"{name}-{a}:{b}", tp))
    for name in ("loc_x", "affine2", "elliptic"):
        pairs.append((f"{name}-identity", identity_transition(standard_chart(name))))
    return pairs


DIFFERENTIAL_PAIRS = _differential_pairs()


@pytest.mark.parametrize("tp", [tp for _, tp in DIFFERENTIAL_PAIRS],
                         ids=[i for i, _ in DIFFERENTIAL_PAIRS])
def test_closed_form_matches_binomial_sum_and_iso_route(tp):
    """The one-product transition_l equals the binomial sum it collapses
    (transref.py) and the independent isomorphism route, on every basis
    element X^m d/dX_p with 1 <= |m| <= r <= 4."""
    validate_transition(tp, jet_order=2)
    n = tp.overlap.nparams
    for r in range(1, 5):
        for m in mi_range(n, r):
            if mi_degree(m) == 0:
                continue
            for p in range(n):
                got = transition_l(tp, m, p, r)
                assert got == ref_transition_l(tp, m, p, r), (m, p, r)
                assert got == transition_via_iso(tp, m, p, r), (m, p, r)


def _fresh(tp):
    """A copy of tp with every cache empty."""
    return TransitionPair(tp.from_name, tp.to_name, tp.overlap, tp.G, tp.H,
                          tp.formulas)


def _basis(tp, r):
    n = tp.overlap.nparams
    return [(m, p) for m in mi_range(n, r) if mi_degree(m) >= 1
            for p in range(n)]


@pytest.mark.parametrize("tp", [tp for _, tp in DIFFERENTIAL_PAIRS],
                         ids=[i for i, _ in DIFFERENTIAL_PAIRS])
def test_iso_route_never_uses_the_coefficient_route(tp, monkeypatch):
    """transition_via_iso keeps its own cache: with _composition_data and
    transition_l made to raise, a fresh pair still gives the image that
    transition_l gives, for every r <= 4."""
    want = {(m, p, r): transition_l(tp, m, p, r)
            for r in range(1, 5) for m, p in _basis(tp, r)}

    def refuse(*_args):
        raise AssertionError("the isomorphism route reached the coefficient route")

    monkeypatch.setattr(TransitionPair, "_composition_data", refuse)
    monkeypatch.setattr(atlas, "transition_l", refuse)
    fresh = _fresh(tp)
    for (m, p, r), ce in want.items():
        assert transition_via_iso(fresh, m, p, r) == ce, (m, p, r)


@pytest.mark.parametrize("tp", [tp for _, tp in DIFFERENTIAL_PAIRS],
                         ids=[i for i, _ in DIFFERENTIAL_PAIRS])
def test_iso_cache_is_order_independent(tp):
    """Each image computed on a pair whose iso cache is already warm, with m
    taken in ascending or in descending order, equals and prints exactly as
    the image computed on a pair with a cold cache."""
    for r in range(1, 5):
        basis = _basis(tp, r)
        cold = {(m, p): transition_via_iso(_fresh(tp), m, p, r) for m, p in basis}
        for order in (basis, basis[::-1]):
            warm = _fresh(tp)
            for m, p in order:
                got = transition_via_iso(warm, m, p, r)
                assert got == cold[(m, p)], (m, p, r)
                assert str(got) == str(cold[(m, p)]), (m, p, r)

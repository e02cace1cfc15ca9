"""The two module bases: sparse.SparseElem (Jet, CurrentElem, DiffOp,
TensorElem, LElem) and sparse.TupleElem (VectorField, JetField,
SemiDirectElem).  Module axioms on sampled elements, and the checks of the
public constructors that the trusted internal constructors skip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetalg.charts import ChartError, RingElem
from jetalg.envalg import DiffOp, TensorElem
from jetalg.fixtures import standard_atlas, standard_chart
from jetalg.jetfields import JetField
from jetalg.jets import Jet
from jetalg.liealg import CurrentElem, LElem, SemiDirectElem, basis_key
from jetalg.multipoly import mi_range
from jetalg.sampling import Sampler
from jetalg.sparse import SparseElem, TupleElem
from jetalg.vfields import VectorField

from sumref import ref_combination

CHARTS = {name: standard_chart(name) for name in ("elliptic", "affine2")}
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


SAMPLERS = {
    "Jet": lambda smp, chart: smp.jet(chart, R, density=3),
    "CurrentElem": lambda smp, chart: smp.current(chart, R, terms=3),
    "DiffOp": _diffop,
    "TensorElem": _tensor,
    "VectorField": lambda smp, chart: smp.vfield(chart),
    "JetField": lambda smp, chart: smp.jetfield(chart, R, density=3),
    "SemiDirectElem": lambda smp, chart: smp.semidirect(chart, R),
    "LElem": lambda smp, chart: smp.lelem(chart.nparams, 3, terms=3),
}

# The scalars each type is scaled by: chart-ring elements, rationals for
# L^(r) (SemiDirectElem has no scalar action).
RATIONAL = {"LElem"}
UNSCALED = {"SemiDirectElem"}


def _no_stored_zero(e):
    if isinstance(e, TupleElem):
        return all(_no_stored_zero(p) for p in e.parts if not isinstance(p, RingElem))
    return all(c != 0 for c in e.terms.values())


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), chart=st.sampled_from(sorted(CHARTS)))
def test_module_axioms(kind, seed, chart):
    chart = CHARTS[chart]
    smp = Sampler(seed)
    a = SAMPLERS[kind](smp, chart)
    b = SAMPLERS[kind](smp, chart)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert -(-a) == a
    assert type(a + b) is type(a - b) is type(-a) is type(a)
    with pytest.raises(TypeError):
        hash(a)
    results = [a, b, a + b, a - b, -a]
    if kind not in UNSCALED:
        s = smp.fraction() if kind in RATIONAL else smp.elem(chart)
        zero = Fraction(0) if kind in RATIONAL else chart.zero()
        assert (a + b).scale(s) == a.scale(s) + b.scale(s)
        assert a.scale(zero).is_zero()
        results += [a.scale(s), (a + b).scale(s)]
    for e in results:
        assert _no_stored_zero(e)


def test_every_linear_type_sits_on_one_base():
    for cls in (Jet, CurrentElem, DiffOp, TensorElem, LElem):
        assert issubclass(cls, SparseElem)
    for cls in (VectorField, JetField, SemiDirectElem):
        assert issubclass(cls, TupleElem)
        for name in ("__add__", "__neg__", "__sub__", "__eq__", "_check", "is_zero"):
            assert name not in vars(cls), (cls.__name__, name)


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_repr_names_the_class_and_the_grade(kind):
    x = SAMPLERS[kind](Sampler(7), CHARTS["elliptic"])
    text = repr(x)
    assert text.startswith(f"{kind}(") and repr(str(x)) in text
    assert ("grade=" in text) == (x.grade is not None)
    assert x.grade is None or f"grade={x.grade}, " in text


def test_repeated_keys_sum(elliptic):
    x = elliptic.param(0)
    j = Jet(elliptic, 1, [((1,), x), ((1,), x), ((0,), x), ((0,), -x)])
    assert j.coeffs == {(1,): 2 * x} and j.order == 1
    assert j.coeffs is j.terms


def test_public_constructors_check_key_length(loc_x):
    one = loc_x.one()
    with pytest.raises(ValueError):
        Jet(loc_x, 2, {(0, 1): one})
    with pytest.raises(ValueError):
        CurrentElem(loc_x, 2, {((1, 0), 0): one})
    with pytest.raises(ValueError):
        DiffOp(loc_x, {(1, 0): one})
    with pytest.raises(ValueError):
        TensorElem(loc_x, 2, {((1, 0), ()): one})


def test_public_constructors_check_key_range(loc_x):
    one = loc_x.one()
    with pytest.raises(ValueError):
        Jet(loc_x, 2, {(3,): one})
    with pytest.raises(ValueError):
        CurrentElem(loc_x, 2, {((0,), 0): one})
    with pytest.raises(ValueError):
        TensorElem(loc_x, 2, {((0,), (((2,), 0), ((1,), 0))): one})


def test_public_constructors_require_ring_coefficients(loc_x):
    with pytest.raises(TypeError):
        Jet(loc_x, 1, {(1,): 1})
    with pytest.raises(TypeError):
        CurrentElem(loc_x, 1, {((1,), 0): 1})
    with pytest.raises(TypeError):
        DiffOp(loc_x, {(1,): 1})
    with pytest.raises(TypeError):
        TensorElem(loc_x, 1, {((0,), ()): 1})


def test_different_modules_do_not_add(loc_x):
    j = Jet(loc_x, 1, {(0,): loc_x.one()})
    d = DiffOp(loc_x, {(0,): loc_x.one()})
    with pytest.raises(TypeError):
        j + d
    with pytest.raises(TypeError):
        d - j


# -- the tuple types and LElem keep the checks of their constructors and
# operand checks


def test_tuple_constructors_check_part_count(loc_x):
    one = loc_x.one()
    with pytest.raises(ValueError):
        VectorField(loc_x, [one, one])
    with pytest.raises(ValueError):
        JetField(loc_x, 1, [])


def test_tuple_constructors_check_part_types(loc_x):
    one = loc_x.one()
    with pytest.raises(TypeError):
        VectorField(loc_x, [1])
    with pytest.raises(TypeError):
        JetField(loc_x, 1, [one])
    with pytest.raises(TypeError):
        SemiDirectElem(one, CurrentElem.zero(loc_x, 2))
    with pytest.raises(TypeError):
        SemiDirectElem(VectorField.zero(loc_x), Jet.zero(loc_x, 2))
    with pytest.raises(TypeError):
        LElem(1, 2, {((1,), 0): one})


def test_tuple_constructors_check_chart_and_order(loc_x, elliptic):
    with pytest.raises(ChartError, match="different chart"):
        VectorField(loc_x, [elliptic.one()])
    with pytest.raises(ChartError, match="different chart"):
        JetField(loc_x, 1, [Jet.zero(elliptic, 1)])
    with pytest.raises(ValueError):
        JetField(loc_x, 2, [Jet.zero(loc_x, 1)])
    with pytest.raises(ChartError, match="different chart"):
        SemiDirectElem(VectorField.zero(loc_x), CurrentElem.zero(elliptic, 2))


def test_operands_on_different_charts_or_orders(loc_x, elliptic):
    vl, ve = VectorField.zero(loc_x), VectorField.zero(elliptic)
    j1, j2 = JetField.zero(loc_x, 1), JetField.zero(loc_x, 2)
    s2 = SemiDirectElem(vl, CurrentElem.zero(loc_x, 2))
    s3 = SemiDirectElem(vl, CurrentElem.zero(loc_x, 3))
    se = SemiDirectElem(ve, CurrentElem.zero(elliptic, 2))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a == b):
        with pytest.raises(ChartError, match="different chart"):
            op(vl, ve)
        with pytest.raises(ChartError, match="different chart"):
            op(JetField.zero(elliptic, 1), j1)
        with pytest.raises(ValueError):
            op(j1, j2)
        with pytest.raises(ValueError):
            op(s2, s3)
        with pytest.raises(ChartError, match="different chart"):
            op(s2, se)


def test_lelem_coefficient_lookup():
    a = LElem(1, 2, [(((1,), 0), "1/2"), (((2,), 0), 1), (((2,), 0), -1)])
    assert a.terms == {((1,), 0): Fraction(1, 2)}
    assert a.get(((1,), 0)) == Fraction(1, 2) and a.get(((2,), 0)) == 0


def test_lelem_truncation_data_mismatch_is_a_value_error():
    a = LElem(1, 2, {((1,), 0): 1})
    other_nvars = LElem(2, 2, {((1, 0), 0): 1})
    other_r = LElem(1, 3, {((1,), 0): 1})
    for b in (other_nvars, other_r):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x == y,
                   lambda x, y: x.bracket(y)):
            with pytest.raises(ValueError):
                op(a, b)


def test_tuple_types_do_not_mix(loc_x):
    v = VectorField.zero(loc_x)
    u = JetField.zero(loc_x, 1)
    with pytest.raises(TypeError):
        v + u
    with pytest.raises(TypeError):
        u - v
    assert (v == u) is False


# -- SparseElem.combination against the scale-then-add fold

_P1_TRIPLE = standard_atlas("p1").transition("std", "inf").overlap  # g = x^2 - x
_QS = [0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]


def _rep(e):
    """Every coefficient's exact representation: numerator and power of g."""
    return {k: (c.num.nums, c.num.den, c.s) for k, c in e.terms.items()}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["Jet/elliptic", "Jet/loc_x", "CurrentElem/p1"]),
       st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.sampled_from(_QS)), max_size=6))
def test_combination_matches_scale_then_add(kind, seed, picks):
    cls, name = kind.split("/")
    chart = _P1_TRIPLE if name == "p1" else standard_chart(name)
    smp = Sampler(seed)
    # pools of three, so picks repeat and partial sums cancel
    if cls == "Jet":
        pool = [smp.jet(chart, 2, max_s=2, density=3) for _ in range(3)]
    else:
        pool = [smp.current(chart, 2, terms=3, max_s=2) for _ in range(3)]
    scalars = [smp.elem(chart, max_s=2) for _ in range(3)]
    items = [(scalars[i], pool[j], q) for i, j, q in picks]
    got = type(pool[0]).combination(chart, 2, items)
    want, cancelled = ref_combination(type(pool[0]).zero(chart, 2), items)
    assert got == want
    if not cancelled:
        assert _rep(got) == _rep(want)


def test_combination_sits_over_the_largest_power_of_g(loc_x):
    # the two summands over x^2 cancel at every key: the fold falls back to
    # the x^1 of the last summand, combination keeps x^2
    inv = loc_x.inv_denominator()
    X = Jet(loc_x, 1, {(0,): inv, (1,): inv})
    Y = Jet(loc_x, 1, {(0,): loc_x.param(0), (1,): loc_x.one()})
    items = [(inv, X, 1), (inv, X, -1), (inv, Y, 1)]
    got = Jet.combination(loc_x, 1, items)
    want, cancelled = ref_combination(Jet.zero(loc_x, 1), items)
    assert cancelled and got == want
    assert [c.s for _, c in got.sorted_items()] == [2, 2]
    assert [c.s for _, c in want.sorted_items()] == [1, 1]

import pytest

from jetalg.charts import ChartError
from jetalg.vfields import VectorField

from conftest import make_sampler


def test_apply_examples(loc_x, elliptic):
    x = loc_x.param(0)
    v = VectorField(loc_x, [x])
    assert v.apply(x ** 2) == 2 * x ** 2
    assert v.apply(loc_x.one()).is_zero()
    d = VectorField.coordinate(elliptic, 0)
    y = elliptic.gen(0)
    xe = elliptic.param(0)
    assert d.apply(y) == (3 * xe ** 2 - elliptic.one()) * (2 * y).invert()


def test_apply_refuses_a_function_on_another_chart(affine2, elliptic):
    # d/dx2 on affine2: elliptic has one parameter, so deriving would fail
    # with an IndexError; the chart check comes first
    with pytest.raises(ChartError, match="different chart"):
        VectorField.coordinate(affine2, 1).apply(elliptic.gen(0))


def test_bracket_examples(loc_x, affine2):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    xd = VectorField(loc_x, [x])
    assert d.bracket(xd) == d
    x1, x2 = affine2.param(0), affine2.param(1)
    a = VectorField(affine2, [affine2.zero(), x1])
    b = VectorField(affine2, [x2, affine2.zero()])
    expected = VectorField(affine2, [x1, -x2])
    assert a.bracket(b) == expected


def test_bracket_on_elliptic_chart(elliptic):
    d = VectorField.coordinate(elliptic, 0)
    y = elliptic.gen(0)
    x = elliptic.param(0)
    yd = VectorField(elliptic, [y])
    dy = (3 * x ** 2 - elliptic.one()) * (2 * y).invert()
    assert d.bracket(yd) == VectorField(elliptic, [dy])


def test_bracket_is_commutator_of_actions(all_charts):
    for chart in all_charts:
        smp = make_sampler("vf-commutator", chart.name)
        for _ in range(8):
            v, w = smp.vfield(chart), smp.vfield(chart)
            f = smp.elem(chart)
            assert v.bracket(w).apply(f) == v.apply(w.apply(f)) - w.apply(v.apply(f))


def test_lie_axioms_sampled(affine2):
    smp = make_sampler("vf-lie")
    for _ in range(6):
        u, v, w = (smp.vfield(affine2) for _ in range(3))
        assert u.bracket(v) == -(v.bracket(u))
        jac = (u.bracket(v).bracket(w) + v.bracket(w).bracket(u)
               + w.bracket(u).bracket(v))
        assert jac.is_zero()


def test_coordinate_fields_commute(affine2):
    d1 = VectorField.coordinate(affine2, 0)
    d2 = VectorField.coordinate(affine2, 1)
    assert d1.bracket(d2).is_zero()


def test_module_operations(loc_x):
    x = loc_x.param(0)
    d = VectorField.coordinate(loc_x, 0)
    assert d.scale(x) + d.scale(-x) == VectorField.zero(loc_x)
    assert (d + d).apply(x) == 2 * loc_x.one()

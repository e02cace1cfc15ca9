"""The sparse-module base shared by Jet, CurrentElem, DiffOp and TensorElem:
module axioms on sampled elements, and the checks of the public
constructors that the trusted internal constructor skips."""

import pytest
from hypothesis import given, settings, strategies as st

from jetalg.envalg import DiffOp, TensorElem
from jetalg.fixtures import standard_chart
from jetalg.jets import Jet
from jetalg.liealg import CurrentElem, basis_key
from jetalg.multipoly import mi_range
from jetalg.sampling import Sampler

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
}


def _no_stored_zero(e):
    return all(not c.is_zero() for c in e.terms.values())


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), chart=st.sampled_from(sorted(CHARTS)))
def test_module_axioms(kind, seed, chart):
    chart = CHARTS[chart]
    smp = Sampler(seed)
    a = SAMPLERS[kind](smp, chart)
    b = SAMPLERS[kind](smp, chart)
    s = smp.elem(chart)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert -(-a) == a
    assert a.scale(chart.zero()).is_zero()
    for e in (a, b, a + b, a - b, -a, a.scale(s), (a + b).scale(s)):
        assert _no_stored_zero(e)


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

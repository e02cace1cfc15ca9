import pytest
from hypothesis import settings

from jetalg.fixtures import standard_atlas, standard_chart
from jetalg.sampling import Sampler, derive_seed

# the default settings, except that a failure prints its @reproduce_failure
# blob (st.randoms() arguments otherwise print only as opaque objects)
settings.register_profile("jetalg", print_blob=True)
settings.load_profile("jetalg")


@pytest.fixture(scope="session")
def affine2():
    return standard_chart("affine2")


@pytest.fixture(scope="session")
def loc_x():
    return standard_chart("loc_x")


@pytest.fixture(scope="session")
def elliptic():
    return standard_chart("elliptic")


@pytest.fixture(scope="session")
def all_charts(affine2, loc_x, elliptic):
    return [affine2, loc_x, elliptic]


@pytest.fixture(scope="session")
def p1():
    return standard_atlas("p1")


@pytest.fixture(scope="session")
def p1_pair():
    return standard_atlas("p1_pair")


def make_sampler(*parts):
    """Deterministic per-test sampler; vary parts to decorrelate tests."""
    return Sampler(derive_seed(20260817, *parts))

import numpy as np
import pytest

from hsmf import verify as V

# The six fixture measures are the acceptance suite's own.
uniform_spec = pytest.fixture(scope="session")(V.spec_uniform)
binomial_spec = pytest.fixture(scope="session")(V.spec_binomial)
cantor_spec = pytest.fixture(scope="session")(V.spec_middle_thirds)
periodic_spec = pytest.fixture(scope="session")(V.spec_periodic)
block_spec = pytest.fixture(scope="session")(V.spec_block)
switching_spec = pytest.fixture(scope="session")(V.spec_switching)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)

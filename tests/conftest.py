import numpy as np
import pytest

from zenogate.spectral import three_level_generators, three_level_projectors


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def gens():
    """Three-level rotation generators at reference angle 0."""
    return three_level_generators(0.0)


@pytest.fixture(scope="session")
def projs0():
    """(rank-2, rank-1) projectors of the three-level model at angle 0."""
    return three_level_projectors(0.0)


@pytest.fixture
def recording():
    """Wrap a time-dependent operator so a test sees the shape of every time argument it gets."""

    def wrap(fn):
        def op(t):
            op.shapes.append(np.shape(t))
            return fn(t)

        op.shapes = []
        return op

    return wrap

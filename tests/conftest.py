"""Shared fixtures: the benchmark processes and a default frequency grid;
and `per_node`, the per-node view of a rank integral's pieces."""

import numpy as np
import pytest

from gaussdim.benchmarks import (
    ar1,
    correlated_pair,
    independent_halfband_pair,
    narrowband,
    proper_complex_flat,
    white_noise,
    zero_process,
)
from gaussdim.spectral import FrequencyGrid


def per_node(ri, rows):
    """`rows`, one per piece of the rank integral `ri` (its piece matrices,
    eigenvalues or ranks), each repeated over the grid nodes its piece holds."""
    return np.repeat(rows, ri.counts, axis=0)


@pytest.fixture(scope="session")
def grid():
    return FrequencyGrid(4096)


@pytest.fixture
def white():
    return white_noise()


@pytest.fixture
def band04():
    return narrowband(0.4)


@pytest.fixture
def halfband_pair():
    return independent_halfband_pair()


@pytest.fixture
def corr_pair():
    return correlated_pair()


@pytest.fixture
def zero():
    return zero_process()


@pytest.fixture
def proper_flat():
    return proper_complex_flat()


@pytest.fixture
def ar_model():
    return ar1(0.6)

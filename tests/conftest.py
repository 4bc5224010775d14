"""Shared fixtures sized so the whole suite stays fast.

The small grid (32 modes on a box of 20) resolves the desk-scale physics
well enough for every property under test while keeping transforms cheap.
"""

import numpy as np
import pytest

from kgcharge import SpectralGrid, random_band_limited
from kgcharge.propagation import TimeGrid
from kgcharge.solver import Trajectory
from kgcharge.spectral import FieldSnapshot


@pytest.fixture(scope="session")
def small_grid():
    return SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1)


@pytest.fixture(scope="session")
def tiny_tgrid():
    return TimeGrid(horizon=0.4, nt=16)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_snapshot(grid, rng, time=0.0):
    """Random band-limited Cauchy data placed at the given time."""
    return FieldSnapshot(time, random_band_limited(grid, rng), random_band_limited(grid, rng))


def stacked_trajectory(tgrid, nodes, coupling):
    """The trajectory whose row j holds the snapshot nodes[j]."""
    return Trajectory(
        tgrid,
        nodes[0].grid,
        np.stack([snap.phi.values for snap in nodes]),
        np.stack([snap.pi.values for snap in nodes]),
        coupling,
    )


def random_test_function(grid, rng):
    """Random band-limited data in both test-function slots, at t = 0."""
    return FieldSnapshot(0.0, random_band_limited(grid, rng), random_band_limited(grid, rng))

"""The time grid, free Klein-Gordon evolution, and retarded mode kernels.

Every mode k evolves independently under the linear equation with angular
frequency omega = sqrt(m^2 + |k|^2), so evolution and the retarded kernels

    G0: f_hat(k) -> theta(t - tau) * sin((t - tau) omega) / omega * f_hat(k)
    G1: f_hat(k) -> theta(t - tau) * cos((t - tau) omega) * f_hat(k)

are plain Fourier multipliers (tests/oracles.py applies them node by node
as green_apply).  flow_multipliers is the one closed form of
the free evolution, on whatever mode layout omega is given on, for one lag
or a whole stack of node lags; callers that flow by the same lags many
times build the multipliers once: the solver per solve, the series once
per block of nodes, shared by every slice at s.  retarded_multipliers
gives its first two tables, the kernels G1 and G0, without the third,
which the series' blocks never read.  Both form cos and sin through one
helper, the only place in the package that forms them.  Nothing here
applies them: the solver and the series multiply their own tables, on
the grid's omega, which has the half-spectrum shape of every mode table.
A test function is never flowed, since the package pairs it at t = 0
only; tests/oracles.py keeps the flow of one snapshot as a reference.

Time integrals run on the uniform node set of a :class:`TimeGrid`, by one
composite trapezoid rule, which lives in the series (series._suffix_sums):
every trailing node range at once, as one reversed cumulative sum walked
in blocks of nodes from s down, whose running total is carried from block
to block.  tests/oracles.py keeps the trapezoid over one range and the
one over every trailing range in a single sum as its references.
Nothing is ever interpolated in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes tau_j = j * horizon / nt, j = 0..nt."""

    horizon: float
    nt: int

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.nt < 2:
            raise ValueError(f"nt must be at least 2, got {self.nt}")

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def nnodes(self) -> int:
        return self.nt + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.nt + 1)

    @property
    def tolerance(self) -> float:
        """How far a time may lie from a node and still be that node: rounding of the node values."""
        return 1e-9 * max(1.0, self.horizon)

    def node_index(self, t: float) -> int:
        """Index of the node equal to t, up to :attr:`tolerance`."""
        j = int(round(t / self.dt))
        if j < 0 or j > self.nt or abs(self.nodes[j] - t) > self.tolerance:
            raise ValueError(f"time {t} is not a node of {self}")
        return j


def _cos_sin(omega: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega dt) and sin(omega dt), the latter formed in place of the phases."""
    dt = np.asarray(dt)
    ph = dt.reshape(dt.shape + (1,) * omega.ndim) * omega
    c = np.cos(ph)
    return c, np.sin(ph, out=ph)


def retarded_multipliers(omega: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega dt) and sin(omega dt) / omega: the kernels G1 and G0 at lag dt.

    The first two of the :func:`flow_multipliers`, bit for bit, without the
    third; sin / omega is formed in place of sin.
    """
    c, s = _cos_sin(omega, dt)
    return c, np.divide(s, omega, out=s)


def flow_multipliers(omega: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(omega dt), sin(omega dt) / omega and -omega sin(omega dt).

    The free flow by dt as mode multipliers, for any mode layout ``omega``
    is given on.  ``dt`` is a scalar or a 1-D array of lags; an array
    broadcasts over a leading node axis, so row j holds the flow by dt[j].
    """
    c, s = _cos_sin(omega, dt)
    return c, s / omega, -omega * s


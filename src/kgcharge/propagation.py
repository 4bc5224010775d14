"""Free Klein-Gordon evolution, retarded mode kernels, and time quadrature.

Every mode k evolves independently under the linear equation with angular
frequency omega = sqrt(m^2 + |k|^2), so evolution and the retarded kernels

    G0: f_hat(k) -> theta(t - tau) * sin((t - tau) omega) / omega * f_hat(k)
    G1: f_hat(k) -> theta(t - tau) * cos((t - tau) omega) * f_hat(k)

are plain Fourier multipliers (tests/oracles.py applies them node by node
as green_apply).  flow_multipliers is the one closed form of
the free evolution; free_flow applies it to a single snapshot or a whole
stack of node lags, and callers that flow by the same lags many times build
the multipliers once: the solver per solve, the series once per block of
nodes, shared by every slice at s.  The flow acts mode by mode, so it needs
to know nothing of the tables it moves: free_evolve flows a snapshot's
tables as they are.

Time integrals throughout the package use one composite trapezoid rule on
the uniform node set of a :class:`TimeGrid`: suffix_time_integral takes
every trailing node range at once, one reversed cumulative sum into a
buffer the caller may reuse, with the end terms subtracted in place.  The
series stacks its two kernels, sin/omega and cos, so that one sum covers
both; row 0, the range [0, s], is a product's Duhamel datum.  It runs the
same sum over blocks of nodes from s down (series._suffix_sums), carrying
the running total and the end term at s from block to block, so that its
additions and their order are this function's.  tests/oracles.py keeps
the one-range time_integral as its reference.  Nothing is ever
interpolated in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import FieldSnapshot, ModeArray, SpectralGrid


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


def flow_multipliers(omega: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(omega dt), sin(omega dt) / omega and -omega sin(omega dt).

    The free flow by dt as mode multipliers, for any mode layout ``omega``
    is given on.  ``dt`` is a scalar or a 1-D array of lags; an array
    broadcasts over a leading node axis, so row j holds the flow by dt[j].
    """
    dt = np.asarray(dt)
    ph = dt.reshape(dt.shape + (1,) * omega.ndim) * omega
    c = np.cos(ph)
    s = np.sin(ph)
    return c, s / omega, -omega * s


def apply_flow(multipliers, phi: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow mode data (phi_hat, pi_hat) by the :func:`flow_multipliers` given."""
    c, s_over_w, w_s = multipliers
    return c * phi + s_over_w * pi, w_s * phi + c * pi


def free_flow(grid: SpectralGrid, phi: np.ndarray, pi: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form linear flow of mode data (phi_hat, pi_hat) by dt; see :func:`flow_multipliers`."""
    return apply_flow(flow_multipliers(grid.omega, dt), phi, pi)


def free_evolve(snap: FieldSnapshot, dt: float) -> FieldSnapshot:
    """Exact linear evolution by dt (negative dt evolves backward)."""
    grid = snap.grid
    phi, pi = free_flow(grid, snap.phi.values, snap.pi.values, dt)
    return FieldSnapshot(snap.time + dt, ModeArray(grid, phi), ModeArray(grid, pi))


def suffix_time_integral(samples: np.ndarray, tgrid: TimeGrid, upper: int, out: np.ndarray | None = None) -> np.ndarray:
    """All trailing trapezoids at once: out[j] integrates nodes j..upper.

    ``samples`` is indexed by node along its first axis and must reach node
    ``upper``; rows past it are not read.  Row j is the composite trapezoid
    over [tau_j, tau_upper], and all rows come from one reversed cumulative
    sum, into ``out``'s rows 0..upper; the trapezoid's end terms are then
    subtracted in place.  Without ``out`` the result is a new table of
    ``samples``' shape whose rows past ``upper`` are zero; an ``out`` of
    exactly upper + 1 rows spares that zero padding.  The series' blocks of
    nodes continue this sum with a carry (series._suffix_sums) and give
    its rows bit for bit.
    """
    if not 0 <= upper <= tgrid.nt:
        raise ValueError(f"upper node {upper} outside grid with nt={tgrid.nt}")
    samples = np.asarray(samples)
    if out is None:
        out = np.zeros_like(samples, dtype=samples.dtype)
    head = samples[: upper + 1]
    rows = out[: upper + 1]
    np.cumsum(head[::-1], axis=0, out=rows[::-1])
    rows -= 0.5 * head
    rows -= 0.5 * head[-1]
    rows *= tgrid.dt
    return out

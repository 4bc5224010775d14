"""Free Klein-Gordon evolution, retarded mode kernels, and time quadrature.

Every mode k evolves independently under the linear equation with angular
frequency omega = sqrt(m^2 + |k|^2), so evolution and the retarded kernels

    G0: f_hat(k) -> theta(t - tau) * sin((t - tau) omega) / omega * f_hat(k)
    G1: f_hat(k) -> theta(t - tau) * cos((t - tau) omega) * f_hat(k)

are plain Fourier multipliers.  flow_multipliers is the one closed form of
the free evolution; free_flow applies it to a single snapshot or a whole
stack of node lags, and callers that flow by the same lags many times build
the multipliers once.  Time
integrals throughout the package use a
single composite trapezoid rule on the uniform node set of a
:class:`TimeGrid`; inner integrals that start at a node use the same rule
restricted to the trailing nodes, so nothing is ever interpolated in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import FieldSnapshot, GridMismatch, ModeArray, SpectralGrid


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

    def node_index(self, t: float) -> int:
        """Index of the node equal to t, up to rounding of the node values."""
        j = int(round(t / self.dt))
        if j < 0 or j > self.nt or abs(self.nodes[j] - t) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"time {t} is not a node of {self}")
        return j


@dataclass(eq=False)
class TimeSampledField:
    """One mode array per time node, stored stacked for vector arithmetic."""

    grid: SpectralGrid
    tgrid: TimeGrid
    values: np.ndarray
    real_field: bool = True

    def __post_init__(self) -> None:
        expected = (self.tgrid.nnodes,) + self.grid.shape
        values = np.asarray(self.values, dtype=complex)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match {expected}")
        self.values = values

    def node(self, j: int) -> ModeArray:
        return ModeArray(self.grid, self.values[j], self.real_field)


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


def flowed_phi(multipliers, phi: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The phi_hat half of :func:`apply_flow`, for callers that need no pi_hat."""
    c, s_over_w, _ = multipliers
    return c * phi + s_over_w * pi


def apply_flow(multipliers, phi: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow mode data (phi_hat, pi_hat) by the :func:`flow_multipliers` given."""
    c, _, w_s = multipliers
    return flowed_phi(multipliers, phi, pi), w_s * phi + c * pi


def free_flow(grid: SpectralGrid, phi: np.ndarray, pi: np.ndarray, dt) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form linear flow of mode data (phi_hat, pi_hat) by dt; see :func:`flow_multipliers`."""
    return apply_flow(flow_multipliers(grid.omega, dt), phi, pi)


def free_evolve(snap: FieldSnapshot, dt: float) -> FieldSnapshot:
    """Exact linear evolution by dt (negative dt evolves backward)."""
    grid = snap.grid
    phi, pi = free_flow(grid, snap.phi.values, snap.pi.values, dt)
    real = snap.phi.real_field and snap.pi.real_field
    return FieldSnapshot(
        snap.time + dt,
        ModeArray(grid, phi, real),
        ModeArray(grid, pi, real),
    )


def green_apply(kind: str, t: float, tau: float, f: ModeArray) -> ModeArray:
    """Apply the retarded kernel G0 or G1 evaluated at (t, tau) to f.

    Returns the zero array for t < tau; the Heaviside factor takes the
    value 1 at t == tau.
    """
    if kind not in ("G0", "G1"):
        raise ValueError(f"kind must be 'G0' or 'G1', got {kind!r}")
    grid = f.grid
    if t < tau:
        return ModeArray(grid, np.zeros(grid.shape, dtype=complex), f.real_field)
    w = grid.omega
    if kind == "G0":
        mult = np.sin((t - tau) * w) / w
    else:
        mult = np.cos((t - tau) * w)
    return ModeArray(grid, mult * f.values, f.real_field)


def time_integral(samples, tgrid: TimeGrid, start: int = 0, stop: int | None = None):
    """Composite trapezoid of node samples over [tau_start, tau_stop].

    ``samples`` is indexed by node along its first axis; scalars per node
    give a scalar result, stacked mode arrays integrate mode-wise.  The
    degenerate range start == stop integrates to zero.
    """
    if stop is None:
        stop = tgrid.nt
    if not 0 <= start <= stop <= tgrid.nt:
        raise ValueError(f"bad node range [{start}, {stop}] for nt={tgrid.nt}")
    samples = np.asarray(samples)
    if samples.shape[0] != tgrid.nnodes:
        raise ValueError(
            f"samples first axis has length {samples.shape[0]}, expected {tgrid.nnodes}"
        )
    if start == stop:
        return samples[0] * 0.0
    window = samples[start : stop + 1]
    total = window.sum(axis=0) - 0.5 * (window[0] + window[-1])
    return total * tgrid.dt


def suffix_time_integral(samples: np.ndarray, tgrid: TimeGrid, upper: int) -> np.ndarray:
    """All trailing trapezoids at once: out[j] integrates nodes j..upper.

    Rows past ``upper`` are zero.  Equivalent to calling
    ``time_integral(samples, tgrid, j, upper)`` for every j, but in one
    reversed cumulative sum.
    """
    if not 0 <= upper <= tgrid.nt:
        raise ValueError(f"upper node {upper} outside grid with nt={tgrid.nt}")
    samples = np.asarray(samples)
    out = np.zeros_like(samples, dtype=samples.dtype)
    head = samples[: upper + 1]
    csum = np.cumsum(head[::-1], axis=0)[::-1]
    out[: upper + 1] = (csum - 0.5 * head - 0.5 * head[-1]) * tgrid.dt
    return out

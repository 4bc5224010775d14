"""Nonlinear Klein-Gordon trajectories and closed-form linear test functions.

The field equation is (box + m^2) phi + lambda phi^2 = 0.  Trajectories are
produced by Strang splitting: a half step of the nonlinear kick
pi <- pi - (dt/2) lambda phi^2 (computed dealiased), the exact free flow for
dt, and a second half kick.  The scheme is second order in dt and reduces to
the exact linear evolution when lambda = 0.  A step's closing half kick and
the next step's opening one see the same phi, so the solver squares phi once
per node: nt + 1 dealiased products for nt steps.  The per-node diagnostics
(the energies and the norm that feeds the convergence condition) square the
whole stack of node fields in one product.  The free-flow multipliers of one
step are built once per solve, and the grid builds its own Sobolev weights
once, for the per-node blow-up check.

Test functions psi solve the linear equation exactly; they are stored as
Cauchy data at t = 0 and evaluated at any time with the free flow, so
(box + m^2) psi = 0 holds to rounding at every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .propagation import TimeGrid, apply_flow, flow_multipliers, free_evolve
from .spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SpectralGrid,
    dealiased_product,
    sobolev_norm,
    sobolev_norms,
    to_modes,
)


class BlowUp(RuntimeError):
    """Raised when a trajectory norm exceeds the configured ceiling."""


class WidthTooSmall(ValueError):
    """Raised when a bump width cannot be resolved on the grid."""


@dataclass(eq=False)
class Trajectory:
    """Solution snapshots at every node of a time grid."""

    tgrid: TimeGrid
    snapshots: tuple[FieldSnapshot, ...]
    coupling: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.snapshots) != self.tgrid.nnodes:
            raise ValueError(
                f"{len(self.snapshots)} snapshots for {self.tgrid.nnodes} nodes"
            )
        first = self.snapshots[0].grid
        for snap in self.snapshots[1:]:
            if snap.grid != first:
                raise GridMismatch("trajectory snapshots live on different grids")

    @property
    def grid(self) -> SpectralGrid:
        return self.snapshots[0].grid

    def node(self, j: int) -> FieldSnapshot:
        return self.snapshots[j]

    def node_values(self) -> tuple[np.ndarray, np.ndarray]:
        """phi and pi mode tables of every node, stacked along a leading axis."""
        return (
            np.stack([snap.phi.values for snap in self.snapshots]),
            np.stack([snap.pi.values for snap in self.snapshots]),
        )

    @property
    def real_field(self) -> bool:
        """Whether every node's phi is a real field, as the stacked squares take it."""
        return all(snap.phi.real_field for snap in self.snapshots)


@dataclass(eq=False)
class TestFunction:
    """Cauchy data (psi0, psi1) at t = 0 of a linear solution."""

    # the name looks like a test case to pytest's collector; it is not one
    __test__ = False

    psi0: ModeArray
    psi1: ModeArray

    def __post_init__(self) -> None:
        if self.psi0.grid != self.psi1.grid:
            raise GridMismatch("psi0 and psi1 must share one grid")

    @property
    def grid(self) -> SpectralGrid:
        return self.psi0.grid


def solve(
    initial: FieldSnapshot,
    coupling: float,
    tgrid: TimeGrid,
    norm_ceiling: float = 1e6,
) -> Trajectory:
    """Integrate the nonlinear equation from t = 0 over the whole time grid.

    Raises BlowUp as soon as the H^q norm of phi or pi at a node exceeds
    ``norm_ceiling``, which signals leaving the perturbative regime.
    """
    if initial.time != 0.0:
        raise ValueError(f"initial snapshot must be at t=0, got t={initial.time}")
    grid = initial.grid
    dt = tgrid.dt
    kick = dt / 2.0 * coupling
    real = initial.phi.real_field and initial.pi.real_field
    phi, pi = initial.phi.values, initial.pi.values
    step = flow_multipliers(grid.omega, dt)
    if coupling != 0.0:
        phi_sq = dealiased_product(grid, phi, phi, initial.phi.real_field)
    snapshots = [initial]
    for j in range(tgrid.nt):
        if coupling != 0.0:
            pi = pi - kick * phi_sq
        phi, pi = apply_flow(step, phi, pi)
        if coupling != 0.0:
            # the next step's opening half kick reuses this square
            phi_sq = dealiased_product(grid, phi, phi, real)
            pi = pi - kick * phi_sq
        # Pin the node time to the grid value; accumulated += dt drifts in
        # the last bits and node_index lookups need exact agreement.
        current = FieldSnapshot(
            float(tgrid.nodes[j + 1]), ModeArray(grid, phi, real), ModeArray(grid, pi, real)
        )
        if max(sobolev_norm(current.phi), sobolev_norm(current.pi)) > norm_ceiling:
            raise BlowUp(
                f"norm ceiling {norm_ceiling} exceeded at t={current.time}"
            )
        snapshots.append(current)
    meta = {"scheme": "strang", "dt": dt, "norm_ceiling": norm_ceiling}
    return Trajectory(tgrid, tuple(snapshots), coupling, meta)


def evaluate_test_function(tf: TestFunction, t: float) -> FieldSnapshot:
    """Exact linear solution with data (psi0, psi1), evaluated at time t."""
    return free_evolve(FieldSnapshot(0.0, tf.psi0, tf.psi1), t)


def gaussian_field(
    grid: SpectralGrid, amplitude: float, width: float, center=0.0
) -> ModeArray:
    """Mode array of a periodized Gaussian bump a * exp(-|x-x0|^2 / (2 w^2)).

    Distances are taken modulo the box, so the bump can sit anywhere.
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    center = np.broadcast_to(np.asarray(center, dtype=float), (grid.dim,))
    samples = np.ones(grid.shape)
    for axis in range(grid.dim):
        d = grid.axis_points - center[axis]
        d = (d + grid.extent / 2.0) % grid.extent - grid.extent / 2.0
        profile = np.exp(-(d**2) / (2.0 * width**2))
        shape = [1] * grid.dim
        shape[axis] = grid.modes
        samples = samples * profile.reshape(shape)
    return to_modes(grid, amplitude * samples)


def dirac_test_function(
    grid: SpectralGrid, x0, width: float, which: str = "velocity"
) -> TestFunction:
    """Normalized Gaussian approximation of a Dirac mass at x0.

    which="velocity" puts the bump in psi1 (psi0 = 0); the conserved pairing
    then reads out phi at x0.  which="position" swaps the slots so the
    pairing reads out the time derivative of phi instead.
    """
    if which not in ("velocity", "position"):
        raise ValueError(f"which must be 'velocity' or 'position', got {which!r}")
    if width < grid.spacing:
        raise WidthTooSmall(
            f"width {width} below grid spacing {grid.spacing}; bump would be unresolved"
        )
    norm = 1.0 / (width * np.sqrt(2.0 * np.pi)) ** grid.dim
    g = gaussian_field(grid, norm, width, x0)
    zero = ModeArray(grid, np.zeros(grid.shape, dtype=complex))
    if which == "velocity":
        return TestFunction(zero, g)
    return TestFunction(g, zero)


def _accelerations(grid: SpectralGrid, phi: np.ndarray, coupling: float, real: bool) -> np.ndarray:
    """-(omega^2 phi_hat) - lambda (phi^2)_hat of one mode table or of every row of a stack."""
    return -(grid.omega**2) * phi - coupling * dealiased_product(grid, phi, phi, real)


def _energies(grid: SpectralGrid, phi: np.ndarray, pi: np.ndarray, coupling: float, real: bool) -> np.ndarray:
    """The energy of every row of stacked (phi, pi) mode tables; see :func:`energy`."""
    n = len(phi)
    quad = 0.5 * (np.abs(pi) ** 2 + (grid.mass**2 + grid.k_squared) * np.abs(phi) ** 2)
    total = np.sum(quad.reshape(n, -1), axis=1) / grid.volume
    if coupling != 0.0:
        phi_sq = dealiased_product(grid, phi, phi, real)
        # np.vdot(phi, phi^2) of every row, batched: BLAS sums it in the same order
        pairs = np.matmul(np.conj(phi).reshape(n, 1, -1), phi_sq.reshape(n, -1, 1))[:, 0, 0]
        total = total + coupling / 3.0 * (pairs / grid.volume).real
    return total


def acceleration(snap: FieldSnapshot, coupling: float) -> ModeArray:
    """Second time derivative of phi from the equation of motion.

    Mode-wise -(omega^2 phi_hat) - lambda (phi^2)_hat with the dealiased
    square, i.e. the right-hand side the discrete flow actually integrates.
    """
    real = snap.phi.real_field
    return ModeArray(snap.grid, _accelerations(snap.grid, snap.phi.values, coupling, real), real)


def energy(snap: FieldSnapshot, coupling: float) -> float:
    """Box integral of 1/2 pi^2 + 1/2 |grad phi|^2 + 1/2 m^2 phi^2 + (lambda/3) phi^3.

    The cubic term uses the dealiased square, matching the truncated
    dynamics; the continuous-time truncated flow conserves exactly this
    quantity.
    """
    phi, pi = snap.phi.values[None], snap.pi.values[None]
    return float(_energies(snap.grid, phi, pi, coupling, snap.phi.real_field)[0])


def node_energies(traj: Trajectory) -> np.ndarray:
    """:func:`energy` at every node, from one stacked square of the node fields."""
    phi, pi = traj.node_values()
    return _energies(traj.grid, phi, pi, traj.coupling, traj.real_field)


def field_energy_norm(traj: Trajectory) -> float:
    """Max over nodes of max(||phi||, ||d/dt phi||, ||d2/dt2 phi||) in H^q.

    The second derivative comes from the equation of motion, so the norm is
    computable from the recorded snapshots alone; it takes one stacked
    square of the node fields.
    """
    grid = traj.grid
    phi, pi = traj.node_values()
    accel = _accelerations(grid, phi, traj.coupling, traj.real_field)
    return float(max(sobolev_norms(grid, values).max() for values in (phi, pi, accel)))

"""Nonlinear Klein-Gordon trajectories and closed-form linear test functions.

The field equation is (box + m^2) phi + lambda phi^2 = 0.  Trajectories are
produced by Strang splitting: a half step of the nonlinear kick
pi <- pi - (dt/2) lambda phi^2 (computed dealiased), the exact free flow for
dt, and a second half kick.  The scheme is second order in dt and reduces to
the exact linear evolution when lambda = 0.  A step's closing half kick and
the next step's opening one see the same phi, so the solver squares phi once
per node: nt + 1 dealiased products for nt steps.  The free-flow multipliers
of one step are built once per solve.

The step loop runs on a stack of couplings with a leading coupling axis:
solve_couplings steps every coupling of a sweep from the same data at once,
one transform per node for the whole stack, and solve is its one-row case.
A step is a half kick, the free flow, the square, the second half kick and
one store of phi and pi into a block buffer beside the kick's phi^2.  Every
row kicks, a zero coupling by zero.  The diagnostics run once per block of
BLOCK nodes from node 0 on (nodes 0..15, 16..31, ...), so the initial data
face the ceiling like any later node: from the block's phi^2 they form the
acceleration -omega^2 phi - lambda phi^2 at every node of it, take the H^q
norms of phi, pi and it in one call, store the block's nodes in the
trajectory tables, and test the ceiling.  phi and pi drive the blow-up
check, and the running max over nodes is the trajectory's ``phi_e_norm``,
the norm that feeds the convergence condition.  A blow-up names the same
node and coupling as a check at every node would, but up to BLOCK - 1 steps
may run past it before its block ends; those steps may overflow, which only
turns the norms NaN and so crosses the ceiling too.  The node energies that
solve records square the whole stack of node fields in one product, on the
complex pair.

The loop steps in one of two mode layouts (spectral.SpectrumLayout), chosen
once per solve: the real one when the data are flagged real and every
coupling is real, since a complex coupling kicks real data off the reals.
Real fields keep the ``rfftn`` half spectrum, the last axis' j =
0..modes/2: their square goes through ``irfft``/``rfft``, their norms weigh
each kept column by its multiplicity in the full spectrum, and after the
loop every node's other half is filled by conjugation.  Complex-flagged
data keep the full spectrum and the complex pair.  Both run the same loop:
one buffer holds phi and pi of every row at a node, the free flow is one
product with the pair (phi, pi) and one with the pair swapped, and a step's
closing half kick is the next step's opening one.

A trajectory is the Cauchy data at every node as two stacked mode tables,
phi and pi, each of shape (nnodes, *grid.shape), with one real-field flag;
``Trajectory.node`` views one row as a FieldSnapshot.  The solver writes
each block of nodes into one preallocated table per field and hands each
coupling its row of the tables; node 0 is the initial data as given.

Test functions psi solve the linear equation exactly; they are stored as
Cauchy data at t = 0 and evaluated at any time with the free flow, so
(box + m^2) psi = 0 holds to rounding at every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .propagation import TimeGrid, flow_multipliers, free_evolve
from .spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SizeMismatch,
    SpectralGrid,
    SpectrumLayout,
    dealiased_product,
    gaussian_envelopes,
    to_modes,
)


# Nodes per block of the solver's diagnostics: the acceleration, the norms,
# the ceiling test and the running max run once per block, not per node,
# since on small grids their cost is per-call overhead, not arithmetic.
BLOCK = 16


class BlowUp(RuntimeError):
    """Raised when a trajectory norm exceeds the configured ceiling.

    ``coupling`` is the coupling of the trajectory that crossed it.
    """

    def __init__(self, message: str, coupling=None):
        super().__init__(message)
        self.coupling = coupling


class WidthTooSmall(ValueError):
    """Raised when a bump width cannot be resolved on the grid."""


@dataclass(eq=False)
class Trajectory:
    """The Cauchy data at every node of a time grid, as two stacked mode tables.

    ``phi`` and ``pi`` hold the complex modes of every node, shape
    ``(tgrid.nnodes, *grid.shape)``; row j is the data at ``tgrid.nodes[j]``.
    ``real_field`` flags both tables as real fields, at every node.
    """

    tgrid: TimeGrid
    grid: SpectralGrid
    phi: np.ndarray
    pi: np.ndarray
    coupling: float
    real_field: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (self.tgrid.nnodes, *self.grid.shape)
        if self.phi.shape != expected or self.pi.shape != expected:
            raise SizeMismatch(
                f"trajectory tables have shapes phi {self.phi.shape}, pi {self.pi.shape}; "
                f"{self.tgrid.nnodes} nodes on this grid need {expected}"
            )

    def node(self, j: int) -> FieldSnapshot:
        """The data at node j, as views of row j of the tables."""
        return FieldSnapshot(
            float(self.tgrid.nodes[j]),
            ModeArray(self.grid, self.phi[j], self.real_field),
            ModeArray(self.grid, self.pi[j], self.real_field),
        )


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

    The one-coupling case of :func:`solve_couplings`.  Raises BlowUp as soon
    as the H^q norm of phi or pi at a node exceeds ``norm_ceiling``, which
    signals leaving the perturbative regime.
    """
    return solve_couplings(initial, [coupling], tgrid, norm_ceiling)[0]


def solve_couplings(
    initial: FieldSnapshot,
    couplings,
    tgrid: TimeGrid,
    norm_ceiling: float = 1e6,
) -> list[Trajectory]:
    """One trajectory per coupling, all stepped together from the same data.

    Every row of the stack takes the same arithmetic as a lone solve, so each
    trajectory is bit for bit the one its coupling gives alone.  Every row
    kicks by (dt/2) lambda phi^2, a zero coupling by zero.  Each trajectory's
    ``meta["phi_e_norm"]`` is the max over nodes of the H^q norms of phi, pi
    and the acceleration -omega^2 phi - lambda phi^2, formed from the kick's
    square.  The norms are taken once per block of BLOCK nodes, block k
    holding nodes k BLOCK .. (k + 1) BLOCK - 1, and stepping stops at the end
    of the first block where any row's phi or pi norm exceeds
    ``norm_ceiling`` or is not a number, as an overflow leaves it.  The
    BlowUp names the first such node, node 0 included, the node a check at
    every node would stop at, and carries the coupling of the first row that
    crosses there.

    Every trajectory carries one real-field flag, set when the initial phi
    and pi both are real fields and every coupling is real; node 0 reports
    that flag too, and every square, the first kick's as well, is taken as
    that flag says.
    """
    if initial.time != 0.0:
        raise ValueError(f"initial snapshot must be at t=0, got t={initial.time}")
    grid = initial.grid
    dt = tgrid.dt
    couplings = list(couplings)
    rows = len(couplings)
    if not rows:
        raise ValueError("solve_couplings needs at least one coupling")
    # a complex coupling makes real data complex after the first kick
    real = initial.phi.real_field and initial.pi.real_field and bool(np.isreal(couplings).all())
    # real fields step on the rfftn half spectrum, complex ones on all of it
    layout = SpectrumLayout(grid, real)
    lead = (-1,) + (1,) * grid.dim
    kicks = np.array([dt / 2.0 * c for c in couplings]).reshape(lead)
    # one more axis, for the nodes of a block
    forcing = np.array(couplings).reshape((-1, 1) + lead[1:])
    c, s_over_w, w_s = flow_multipliers(layout.omega, dt)
    # the free flow of the pair (phi, pi) as one product with the pair and
    # one with the pair swapped: c phi + (s/w) pi and c pi + (-w s) phi
    along = np.stack([c, c])[:, None]
    across = np.stack([s_over_w, w_s])[:, None]
    neg_omega_sq = -(layout.omega**2)

    # phi and pi of every row at one node, in the kept columns: this node's
    # buffer and the next one's
    node = np.empty((2, rows) + layout.shape, dtype=complex)
    node[0], node[1] = layout.cut(initial.phi.values), layout.cut(initial.pi.values)
    ahead = np.empty_like(node)
    # phi, pi, the acceleration and the kick's square of every row at the
    # nodes of one block: block k holds nodes k BLOCK .. (k + 1) BLOCK - 1
    block = np.empty((3, rows, BLOCK) + layout.shape, dtype=complex)
    squares = np.empty((rows, BLOCK) + layout.shape, dtype=complex)
    # phi and pi of every row at every node: row r of tables[0] and of
    # tables[1] is one trajectory.  The blocks write the kept columns; node 0
    # is the initial data as given.
    tables = np.empty((2, rows, tgrid.nnodes) + grid.shape, dtype=complex)
    tables[0, :, 0], tables[1, :, 0] = initial.phi.values, initial.pi.values
    kept = layout.cut(tables)

    # node 0 is slot 0 of the first block, its square the first kick's
    block[:2, :, 0] = node
    kick = kicks * layout.square(node[0], out=squares[:, 0])
    peak = np.zeros(rows)
    # Past a crossing, up to BLOCK - 1 more steps run before the block's
    # check sees it; an overflow there turns the norms NaN, which crosses.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, tgrid.nnodes):
            i = n % BLOCK
            # a step's closing half kick is the next step's opening one
            node[1] -= kick
            np.multiply(along, node, out=ahead)
            ahead += across * node[::-1]
            node, ahead = ahead, node
            kick = kicks * layout.square(node[0], out=squares[:, i])
            node[1] -= kick
            block[:2, :, i] = node
            if i < BLOCK - 1 and n < tgrid.nt:
                continue
            # the block's nodes start..n, in its slots 0..i
            start = n - i
            nodes = block[:, :, : i + 1]
            np.multiply(neg_omega_sq, nodes[0], out=nodes[2])
            forced = squares[:, : i + 1]
            forced *= forcing
            nodes[2] -= forced
            kept[:, :, start : n + 1] = nodes[:2]
            # the norms square the block in place, after the store
            norms = layout.norms(nodes, overwrite=True)
            # "not <=" so that a NaN norm crosses the ceiling too
            crossed = ~(np.maximum(norms[0], norms[1]) <= norm_ceiling)
            if crossed.any():
                at = np.flatnonzero(crossed.any(axis=0))[0]
                first = np.flatnonzero(crossed[:, at])[0]
                time = float(tgrid.nodes[start + at])
                raise BlowUp(f"norm ceiling {norm_ceiling} exceeded at t={time}", couplings[first])
            peak = np.maximum(peak, norms.max(axis=(0, 2)))
    # freed before the fill, whose conjugation takes scratch of its own
    del block, squares
    layout.fill(tables[:, :, 1:])
    return [
        Trajectory(
            tgrid,
            grid,
            tables[0, r],
            tables[1, r],
            couplings[r],
            real,
            {"scheme": "strang", "dt": dt, "norm_ceiling": norm_ceiling, "phi_e_norm": float(peak[r])},
        )
        for r in range(rows)
    ]


def evaluate_test_function(tf: TestFunction, t: float) -> FieldSnapshot:
    """Exact linear solution with data (psi0, psi1), evaluated at time t."""
    return free_evolve(FieldSnapshot(0.0, tf.psi0, tf.psi1), t)


def gaussian_denominator(width: float) -> float:
    """2 w^2 of a Gaussian of width w; ValueError unless w > 0 and 2 w^2 is a finite float above 0."""
    try:
        denominator = 2.0 * width**2 if width > 0 else np.nan
    except OverflowError:
        denominator = np.inf
    if not 0.0 < denominator < np.inf:
        raise ValueError(f"width must be positive and 2 * width**2 a finite float above 0, got {width}")
    return denominator


def gaussian_field(grid: SpectralGrid, amplitude: float, width: float, center=0.0) -> ModeArray:
    """Mode array of a periodized Gaussian bump a * exp(-|x-x0|^2 / (2 w^2)).

    Distances are taken modulo the box, so the bump can sit anywhere.
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (1, grid.dim))
    samples = gaussian_envelopes(grid, center, [gaussian_denominator(width)])[0]
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


def node_energies(traj: Trajectory) -> np.ndarray:
    """Box integral of 1/2 pi^2 + 1/2 |grad phi|^2 + 1/2 m^2 phi^2 + (lambda/3) phi^3 at every node.

    The cubic term uses the dealiased square, matching the truncated
    dynamics; the continuous-time truncated flow conserves exactly this
    quantity.  One stacked square covers every node field.
    """
    grid, phi, pi, coupling = traj.grid, traj.phi, traj.pi, traj.coupling
    n = len(phi)
    quad = 0.5 * (np.abs(pi) ** 2 + (grid.mass**2 + grid.k_squared) * np.abs(phi) ** 2)
    total = np.sum(quad.reshape(n, -1), axis=1) / grid.volume
    if coupling != 0.0:
        phi_sq = dealiased_product(grid, phi, phi, traj.real_field)
        # np.vdot(phi, phi^2) of every row, batched: BLAS sums it in the same order
        pairs = np.matmul(np.conj(phi).reshape(n, 1, -1), phi_sq.reshape(n, -1, 1))[:, 0, 0]
        total = total + coupling / 3.0 * (pairs / grid.volume).real
    return total

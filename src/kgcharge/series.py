"""Tree-indexed perturbative reconstruction of the conserved linear charge.

For a linear test function psi and a solution phi of the nonlinear equation,
the pairing

    B(t) = <d/dt psi(t), phi(t)> - <psi(t), d/dt phi(t)>

is constant when the coupling vanishes but drifts otherwise.  This module
evaluates the power series in the coupling, indexed by planar binary trees,
that recovers B(0) from the field data on the single time slice t = s: each
tree contributes an iterated time integral of retarded kernels applied to
products of backward-evolved data, and the order-N term sums over the
Catalan-many trees with N internal vertices.

Per subtree b the evaluation carries the table

    w_leaf(tau)  = backward free evolution of (phi(s), pi(s)) to time tau
    w_b(tau)     = integral over t in [tau, s] of sin((t-tau) omega)/omega
                   times the product of the two child tables at t

so a tree amplitude is a single outer time integral of <psi(tau), product
of the root's child tables>.  Each table is bilinear in its child tables and
the kernel is linear, so the summed table of all trees of order n obeys one
recursion, W_0 = w_leaf and W_n = K[sum over i + j = n - 1 of W_i W_j].  The
series driver runs this order recursion: n tables and one transform pair per
order instead of Catalan-many tables, keeping the tables in point space so
the products of one order are summed before a single forward transform.

psi is paired once, at t = 0.  The trapezoid integral over [0, s] of
<psi(tau), F(tau)> equals, sum for sum, the bracket of psi's t = 0 data
with F's Duhamel datum (the integrals of sin(tau omega)/omega F and of
-cos(tau omega) F), which is the t = 0 field (w(0), d/dt w(0)) of F's
retarded integral w: row 0 of its two suffix sums, the one way this
module forms a t = 0 field.  For the order-n product it is the order-n
tree field (W_n(0), d/dt W_n(0)), order 0 being the slice's backward free
flow.  None of these fields depends on psi, and all orders pair with it
through one stacked bracket.  tests/oracles.py forms phi^2's field for the
charge-balance defect, and each subtree's for the sampled bound check,
the same way.

Every product in the recursion is a dealiased product of real fields, so
its mode table is zero outside the kept band and Hermitian.  The recursion
keeps its mode tables on the band's half of the real half spectrum
(spectral.band_modes / band_values), and W_0 comes from the slice's
N/2 + 1-column half spectrum.  The t = 0 fields are filled to full real
fields (SpectrumLayout.fill) before they are paired.  Only slice data
flagged real are accepted.

Each order is one pass.  Its products are summed in place in point space;
the band's sin(tau omega)/omega and cos(tau omega) are stacked as one
kernel pair, so both suffix sums of its retarded integral are one
cumulative sum into buffers that every order reuses, and their row 0 is
the order's t = 0 field.  The retarded table itself is formed only for
orders that a higher order reads, and goes back to point space through one
reused zero half spectrum.  The kernel pair and the leaf's backward-flow
multipliers depend on s alone: the recursion takes every slice at one s (a
sweep's slices share it), builds them once on the nodes up to s and runs
the slices one at a time through the same buffers.  series_couplings is
one such call, and series and readout pass one slice.

The series computes the order terms, partial sums and residuals and
nothing else.  Its convergence bounds (radius_bound, convergence_condition)
are separate functions of the slice, the window, the solver's norm and the
sampled algebra constant C_q, which each takes from its caller; transport
is the one command that reports them, and it reads C_q and the norm from
the manifest, where solve records both once per trajectory.  The paper's
other bound checks, the first-order bound and the sampled operator-norm
bound, live in tests/oracles.py beside their per-node references.

The tree series is the Taylor series in the coupling of the Strang flow
run backward from the slice to t = 0: (-coupling)^n (W_n(0), d/dt W_n(0))
is its order-n term.  transport's residual against the stored charge at
t = 0 therefore certifies the series against the discrete flow, and cannot
see the solver's time-step error.

This order recursion is the package's one evaluation of the series.  The
references it is checked against live in tests/oracles.py: the per-tree
tables memoized by Dyck word, a literal nested-loop evaluator, the
full-spectrum recursion with psi paired at every node, and two witnesses
of the Taylor identity, the Cauchy integral of the backward flow over a
circle of complex couplings and that flow stepped order by order (a jet).

All time integrals restrict their trapezoid weights to the nodes inside the
integrand's support (the step cutoffs of the retarded kernels), so results
do not change when the time grid extends past s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .propagation import TimeGrid, apply_flow, flow_multipliers, suffix_time_integral
from .solver import TestFunction, Trajectory, dirac_test_function, evaluate_test_function
from .spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SpectrumLayout,
    band_modes,
    band_values,
    half_spectrum_values,
    sobolev_norm,
)


class OrderTerm(NamedTuple):
    order: int
    tree_count: int
    order_sum: float


@dataclass(eq=False)
class ChargeReport:
    """Orders, partial sums and residuals of one series run."""

    s: float
    coupling: float
    per_order: list[OrderTerm]
    partial_sums: list[float]
    target: float | None
    residuals: list[float] | None
    meta: dict = field(default_factory=dict)


def _real(value: complex) -> float:
    """Real part of a pairing that is real up to rounding."""
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise AssertionError(f"pairing has imaginary part {value.imag}")
    return float(value.real)


def _kernel_pair(omega: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """sin(tau omega)/omega and cos(tau omega) at every node tau, stacked: shape ``(2, len(nodes), *omega.shape)``."""
    c, s_over_w, _ = flow_multipliers(omega, nodes)
    return np.stack([s_over_w, c])


def _suffix_sums(weighted: np.ndarray, tgrid: TimeGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Every trailing trapezoid of both kernel-weighted tables of a :func:`_kernel_pair` stack, into ``out``.

    The node axis is axis 1, and its last row is the upper node: one
    reversed cumulative sum covers both tables.  Without ``out`` the sums
    go to a new table.
    """
    if out is None:
        out = np.empty_like(weighted)
    suffix_time_integral(weighted.swapaxes(0, 1), tgrid, weighted.shape[1] - 1, out=out.swapaxes(0, 1))
    return out


def _retarded_table(pair: np.ndarray, sums: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows integral over t in [tau_j, tau_upper] of sin((t - tau_j) omega)/omega prod(t).

    ``sums`` holds the suffix time integrals of ``pair * prod``, stacked as
    :func:`_kernel_pair` stacks them; ``out``, of the same shape, is
    overwritten and a view of it returned.
    """
    # sin((t - tau) w) / w = sin(t w) / w cos(tau w) - cos(t w) sin(tau w) / w
    # turns the per-row kernel integrals into two shared suffix sums.
    np.multiply(pair[1], sums[0], out=out[0])
    np.multiply(pair[0], sums[1], out=out[1])
    out[0] -= out[1]
    return out[0]


def _t0_field(sums: np.ndarray) -> np.ndarray:
    """The t = 0 field (w(0), d/dt w(0)) of a retarded integral w: row 0 of its :func:`_suffix_sums`."""
    return np.stack([sums[0, 0], -sums[1, 0]])


def _brackets(psi: TestFunction, t: float, fields: np.ndarray) -> list[float]:
    """<d/dt psi(t), phi> - <psi(t), pi> for every row (phi, pi) of a ``(rows, 2, *grid.shape)`` stack.

    The rows are full-spectrum tables, and each pairing goes through :func:`_real`.
    """
    at_t = evaluate_test_function(psi, t)
    rows = len(fields)

    def pairs(f: np.ndarray, g: ModeArray) -> np.ndarray:
        # np.vdot(f_row, g) of every row, batched: BLAS sums it in the same order
        return np.matmul(np.conj(f).reshape(rows, 1, -1), g.values.reshape(-1, 1))[:, 0, 0] / psi.grid.volume

    return [_real(complex(b)) for b in pairs(fields[:, 0], at_t.pi) - pairs(fields[:, 1], at_t.phi)]


def bracket_ds(psi: TestFunction, snap: FieldSnapshot) -> float:
    """The pairing <d/dt psi(s), phi(s)> - <psi(s), d/dt phi(s)> at s = snap.time."""
    if psi.grid != snap.grid:
        raise GridMismatch("test function and snapshot live on different grids")
    return _brackets(psi, snap.time, np.stack([snap.phi.values, snap.pi.values])[None])[0]


def radius_bound(snap: FieldSnapshot, window: float, c_q: float) -> float:
    """Lower bound on the series' radius of convergence in the coupling.

    1 / (4 C_q M T (||phi(s)|| + ||pi(s)||)) with M = max(1/m, 1) and both
    norms in H^q.  ValueError when c_q is not positive or both norms are 0,
    where the bound has no finite value.
    """
    if not c_q > 0:
        raise ValueError(f"c_q must be positive, got {c_q}")
    m_factor = max(1.0 / snap.grid.mass, 1.0)
    data = sobolev_norm(snap.phi) + sobolev_norm(snap.pi)
    if data == 0.0:
        raise ValueError("the slice's H^q norms are both 0, where the radius bound has no finite value")
    return 1.0 / (4.0 * c_q * m_factor * window * data)


def convergence_condition(
    coupling: float, window: float, phi_e_norm: float, c_q: float, mass: float
) -> bool:
    """Strict sufficient condition for convergence of the whole series."""
    m_factor = max(1.0 / mass, 1.0)
    x = abs(coupling) * c_q * window * phi_e_norm
    return 8.0 * m_factor * x * (1.0 + x) < 1.0


def _order_fields(slices, tgrid: TimeGrid, max_order: int) -> np.ndarray:
    """The order-n tree fields at t = 0, (W_n(0), d/dt W_n(0)), of every slice: shape ``(len(slices), max_order + 1, 2, *grid.shape)``.

    The order-n product is the dealiased sum of W_i W_j over i + j = n - 1.
    Each W_n is kept in point space, so the sum of products needs one real
    forward transform per order, and cutting it to the band once equals
    summing the cut products.  Every table holds the rows of the nodes up
    to s only, the nodes the retarded integrals reach.

    The slices share one grid and one time s, so the kernel tables (the
    band's kernel pair and the leaf's backward-flow multipliers, on the
    nodes up to s) are built once, and the recursions run one slice at a
    time through the same buffers.  Per order, both suffix sums of the
    retarded integral come from one cumulative sum over the kernel pair;
    their row 0 is the order's t = 0 field, and the retarded table is
    formed only for orders that a higher order reads.
    """
    if not all(snap.phi.real_field and snap.pi.real_field for snap in slices):
        raise ValueError("the tree series needs real slice data: phi and pi must be flagged real fields")
    if len({snap.time for snap in slices}) != 1:
        raise ValueError("the order recursion needs every slice at one time s")
    grid, s = slices[0].grid, slices[0].time
    upper = tgrid.node_index(s)
    layout = SpectrumLayout(grid, True)
    nodes = tgrid.nodes[: upper + 1]
    c, s_over_w = flow_multipliers(layout.omega, nodes - s)[:2]
    to_zero = flow_multipliers(layout.omega, -s)
    pair = _kernel_pair(grid.band_omega, nodes)
    band = (Ellipsis,) + grid.band_index
    fields = np.zeros((len(slices), max_order + 1, 2) + grid.shape, dtype=complex)
    # what every order of every slice reuses: the kernel-weighted product,
    # its suffix sums, and a zero half spectrum
    weighted = np.empty(pair.shape, dtype=complex)
    sums = np.empty_like(weighted)
    half = np.zeros((upper + 1,) + grid.half_shape, dtype=complex)
    for snap, out in zip(slices, fields):
        phi, pi = layout.cut(snap.phi.values), layout.cut(snap.pi.values)
        # W_0 at t = 0, the slice flowed back by s, with its time derivative
        layout.cut(out[0])[...] = apply_flow(to_zero, phi, pi)
        points = [half_spectrum_values(grid, c * phi + s_over_w * pi)]
        for order in range(1, max_order + 1):
            total = points[0] * points[order - 1]
            for i in range(1, order):
                total += points[i] * points[order - 1 - i]
            if order == max_order:
                # no higher order reads the point tables
                points.clear()
            np.multiply(pair, band_modes(grid, total), out=weighted)
            del total
            out[order][band] = _t0_field(_suffix_sums(weighted, tgrid, sums))
            if order < max_order:
                points.append(band_values(grid, _retarded_table(pair, sums, weighted), half))
    layout.fill(fields)
    return fields


def _catalan(order: int) -> int:
    return math.comb(2 * order, order) // (order + 1)


def series(
    psi: TestFunction,
    snap: FieldSnapshot,
    coupling: float,
    tgrid: TimeGrid,
    max_order: int,
    target: float | None = None,
) -> ChargeReport:
    """Sum the tree series from the single slice at s, order by order.

    The order-N term is (-coupling)^N times the sum of amplitudes over the
    trees with N internal vertices: the bracket of psi with the order-N
    t = 0 field of the order recursion, which never visits the trees.
    ``target`` is the charge at t = 0 when the caller knows it (from a
    stored trajectory); residuals are reported against it.  The
    convergence bounds are separate functions (:func:`radius_bound`,
    :func:`convergence_condition`).

    The one-slice case of :func:`series_couplings`.
    """
    return series_couplings(psi, [snap], [coupling], tgrid, max_order, target)[0]


def series_couplings(
    psi: TestFunction,
    slices,
    couplings,
    tgrid: TimeGrid,
    max_order: int,
    target: float | None = None,
) -> list[ChargeReport]:
    """One :func:`series` report per coupling, each from its own slice, all slices at one time s.

    One :func:`_order_fields` call runs every slice's recursion from kernel
    tables built once, and each report is bit for bit the one
    :func:`series` gives on its slice alone.
    """
    slices, couplings = list(slices), list(couplings)
    if not slices or len(slices) != len(couplings):
        raise ValueError(f"series_couplings needs one slice per coupling, got {len(slices)} and {len(couplings)}")
    if any(snap.grid != psi.grid for snap in slices):
        raise GridMismatch("test function and snapshot live on different grids")
    fields = _order_fields(slices, tgrid, max_order)
    return [
        _report(snap.time, coupling, _brackets(psi, 0.0, orders), target)
        for snap, coupling, orders in zip(slices, couplings, fields, strict=True)
    ]


def _report(s: float, coupling: float, amplitudes: list[float], target: float | None) -> ChargeReport:
    per_order: list[OrderTerm] = []
    partial_sums: list[float] = []
    running = 0.0
    for order, amplitude in enumerate(amplitudes):
        term = (-coupling) ** order * amplitude
        running += term
        per_order.append(OrderTerm(order, _catalan(order), term))
        partial_sums.append(running)
    residuals = None if target is None else [abs(p - target) for p in partial_sums]
    return ChargeReport(s, coupling, per_order, partial_sums, target, residuals)


def readout(
    trajectory: Trajectory, s: float, x0, width: float, max_order: int
) -> tuple[float, float]:
    """Estimate phi(0, x0) and d/dt phi(0, x0) from the slice at s alone.

    Sums the order fields at t = 0 once, weighted by (-coupling)^n, and
    brackets that one estimate with the two Dirac-approximating test
    functions; the bump in the velocity slot reads out phi, the bump in the
    position slot reads out the time derivative (with the pairing's sign).
    """
    grid = trajectory.grid
    tgrid = trajectory.tgrid
    fields = _order_fields([trajectory.node(tgrid.node_index(s))], tgrid, max_order)[0]
    estimate = sum((-trajectory.coupling) ** n * w for n, w in enumerate(fields))
    probes = (dirac_test_function(grid, x0, width, which) for which in ("velocity", "position"))
    phi_est, dtphi_est = (_brackets(probe, 0.0, estimate[None])[0] for probe in probes)
    return phi_est, -dtphi_est

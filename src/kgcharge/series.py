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
the same way, from its own whole-range suffix sums.

Every product in the recursion is a dealiased product of real fields, so
its mode table is zero outside the kept band and Hermitian.  The recursion
keeps its mode tables on the band's half of the real half spectrum
(spectral.band_modes / band_values), and W_0 comes from the slice's
N/2 + 1-column half spectrum, the layout of every mode table and of the
grid's own tables: the leaf's backward flow takes ``grid.omega`` as it
is.  The t = 0 fields stay on that half spectrum, and the bracket weighs
each column by how often it occurs in the full spectrum.

The products are pointwise in time, so the recursion runs over blocks of
nodes, from s back to t = 0, and every table holds one block's rows: its
working set is set by the block, not by s.  A block has SERIES_BLOCK rows,
or fewer where its tables would pass SERIES_BLOCK_BYTES (_block_rows): a
row takes, per slice, max_order + 2 point tables, 2 half spectra and 4
band tables, and the block's kernel tables besides.  The budget binds on
2-D and 3-D grids and on none of the desk's calls, where each block also
pays a fixed cost in numpy calls.  Every table lives in one workspace,
allocated once per call and reused by every order of every block: each
order's point table, the product sum, the forward and inverse transforms'
outputs and steps (numpy's ``out=``), the band cut and the suffix sums'
halved terms, so the block loop allocates only the block's kernel tables
and each write is bit for bit the value a fresh array would hold.  Within
a block each order is one pass.  Its products are summed in place in
point space, and its band cut is weighted by the band's sin(tau
omega)/omega and cos(tau omega), the kernel pair, into one stacked table,
so both suffix sums of its retarded integral are one cumulative sum.
That sum carries its running total from block to block as the first term
of the next block's sum, and the trapezoid's end term, the row at s, from
the first block, so the sums are bit for bit those of one sum over every
node.  This carried sum (_suffix_sums) is the package's one time
quadrature.  Row 0 of the last block is the order's t = 0 field.  Nothing
reads the top order's sums but that row, so the top order carries only
its running total, one reduction per block that adds in the cumulative
sum's order, and applies row 0's trapezoid terms at the last block.  The
retarded table itself is formed only for orders that a higher order
reads, and goes back to point space through one reused zero half
spectrum, whose band is written box by box (spectral.scatter_band).
The kernel pair and the leaf's backward-flow multipliers are cos(omega
dt) and sin(omega dt)/omega (propagation.retarded_multipliers, which
forms no -omega sin table) and depend on s and the node alone: the
recursion takes every slice at one s (a sweep's slices share it), and
each block builds them on its own nodes, so they too are one block's
size.  The slices are stacked on one axis of every table, so each block
runs once for all of them.  series_couplings is one such call, and series
and readout pass one slice.  tests/oracles.py keeps the recursion over the
whole node axis, one slice at a time, as the reference the blocks are
checked against.

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
The package steps real couplings only, so the Cauchy witness steps on the
full complex spectrum that tests/oracles.py keeps for it.

All time integrals restrict their trapezoid weights to the nodes inside the
integrand's support (the step cutoffs of the retarded kernels), so results
do not change when the time grid extends past s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .propagation import TimeGrid, apply_flow, flow_multipliers, retarded_multipliers
from .solver import TestFunction, dirac_test_function, evaluate_test_function
from .spectral import (
    FieldSnapshot,
    GridMismatch,
    band_modes,
    band_values,
    half_spectrum_values,
    scatter_band,
    sobolev_norm,
)


# Nodes per block of the order recursion at most, and the bytes that one
# block's tables may take (_block_rows): every table of the recursion holds
# one block's rows, so its working set is set by the block, not by s.  The
# desk's calls keep 64 rows, as each block pays a fixed cost in numpy
# calls: one slice at order 10 takes 19 KB a row, and a sweep's four
# slices at order 3 take 42 KB.  3-D 32^3 at order 4 takes 2.8 MB a row,
# and 2 rows; 2-D 64^2 at order 6 takes 19 rows.
SERIES_BLOCK = 64
SERIES_BLOCK_BYTES = 2**23


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


def _suffix_sums(
    weighted: np.ndarray, tgrid: TimeGrid, out: np.ndarray | None, carry: list, halves: np.ndarray | None = None
) -> np.ndarray | None:
    """One block's trailing trapezoids of both kernel-weighted tables of a kernel pair, into ``out``.

    The package's one time quadrature: row j is the composite trapezoid
    over [tau_j, tau_upper], and the nodes up to the upper one are walked
    in blocks from it down.  The node axis is axis 1, and ``carry`` is the
    list that the blocks of one range share.  It is empty before the block
    that ends at the upper node, and after each block it holds the
    reversed cumulative sum through the block's bottom row and the upper
    node's row halved, the trapezoid's end term.  The running sum goes in
    as the first term of the next block's sum, so the additions happen in
    the order of one reversed cumulative sum over the whole range, and the
    sums are bit for bit the ones it gives: tests/oracles.py keeps that
    sum as the reference.

    ``out`` takes every row of the block, or, when it lacks the node axis,
    row 0 alone.  Then only the carried total is formed, by one reduction
    along the reversed node axis, which adds the rows in the cumulative
    sum's order, and row 0's trapezoid terms are applied to it alone; with
    ``out`` None the block only adds to the carry.  ``halves``, of
    ``weighted``'s shape, receives the trapezoid's halved terms of every
    row, and may be ``weighted`` itself when the caller no longer reads
    it; it is allocated when not given.
    """
    head = weighted.swapaxes(0, 1)
    if carry:
        running, half_end = carry
        top = head[-1].copy()
        head[-1] += running
    else:
        running, half_end = None, 0.5 * head[-1]
    every_row = out is not None and out.ndim == weighted.ndim
    if every_row:
        np.cumsum(head[::-1], axis=0, out=out.swapaxes(0, 1)[::-1])
        total = out[:, 0].copy()
    else:
        total = np.add.reduce(head[::-1], axis=0, out=running)
    if carry:
        head[-1] = top
    carry[:] = total, half_end
    if out is None:
        return None
    if every_row:
        out -= np.multiply(0.5, weighted, out=halves)
        out -= half_end[:, None]
    else:
        np.subtract(total, 0.5 * weighted[:, 0], out=out)
        out -= half_end
    out *= tgrid.dt
    return out


def _retarded_table(pair, sums: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows integral over t in [tau_j, tau_upper] of sin((t - tau_j) omega)/omega prod(t).

    ``pair`` holds sin(tau omega)/omega and cos(tau omega) at the rows'
    nodes, and ``sums`` the suffix time integrals of ``pair * prod``,
    stacked in that order; ``out``, of ``sums``' shape, is overwritten and
    a view of it returned.
    """
    # sin((t - tau) w) / w = sin(t w) / w cos(tau w) - cos(t w) sin(tau w) / w
    # turns the per-row kernel integrals into two shared suffix sums.
    np.multiply(pair[1], sums[0], out=out[0])
    np.multiply(pair[0], sums[1], out=out[1])
    out[0] -= out[1]
    return out[0]


def _t0_field(row: np.ndarray) -> np.ndarray:
    """The t = 0 field (w(0), d/dt w(0)) of a retarded integral w from row 0 of its :func:`_suffix_sums`."""
    return np.stack([row[0], -row[1]])


def _brackets(psi: TestFunction, t: float, fields: np.ndarray) -> list[float]:
    """<d/dt psi(t), phi> - <psi(t), pi> for every row (phi, pi) of a ``(rows, 2, *grid.half_shape)`` stack.

    The rows are half-spectrum tables of real fields.  The full sum of
    conj(f_k) g_k is its sum over the self-conjugate columns, the last
    axis' j = 0 and modes/2, plus twice the real part of its sum over the
    interior ones, whose mirrors hold the conjugate terms.  Over the
    self-conjugate columns the sum is real for real fields, and
    AssertionError is raised when its imaginary part exceeds 1e-10 (1 +
    (1/V) sum |f_k| |g_k|) over every summand of the full sum, the scale
    that their rounding takes.
    """
    at_t = evaluate_test_function(psi, t)
    rows = len(fields)
    phi, pi = fields[:, 0], fields[:, 1]

    def pairs(f: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
        # per row, the sums of conj(f) g over the self-conjugate columns and over the interior ones
        terms = np.conj(f) * g
        return [terms[..., [0, -1]].reshape(rows, -1).sum(axis=1), terms[..., 1:-1].reshape(rows, -1).sum(axis=1)]

    edge, interior = np.subtract(pairs(phi, at_t.pi.values), pairs(pi, at_t.phi.values))
    sizes = np.add(pairs(np.abs(phi), np.abs(at_t.pi.values)), pairs(np.abs(pi), np.abs(at_t.phi.values)))
    volume = psi.grid.volume
    scale = (sizes[0] + 2.0 * sizes[1]) / volume
    leaks = np.abs(edge.imag) / volume > 1e-10 * (1.0 + scale)
    if leaks.any():
        raise AssertionError(f"pairing has imaginary part {edge.imag[leaks][0] / volume}")
    return ((edge.real + 2.0 * interior.real) / volume).tolist()


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


def _workspace(*tables) -> list[np.ndarray]:
    """Uninitialised arrays of the ``(shape, dtype)`` pairs given, views into one allocation.

    The C library frees one allocation as one chunk and hands it whole to
    the next call.  Freed as separate tables, a desk sweep's workspace
    (four slices, 64 rows, 2.8 MB) went back to the system after every
    call and was faulted in again on the next: 687 minor faults per
    sweep, against none as one allocation.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in tables]
    space = np.empty(sum(sizes), dtype=np.uint8)
    ends = np.cumsum(sizes)
    return [
        space[end - size : end].view(dtype).reshape(shape)
        for (shape, dtype), size, end in zip(tables, sizes, ends, strict=True)
    ]


def _block_rows(grid, slices: int, max_order: int) -> int:
    """Rows per block of :func:`_order_fields`: SERIES_BLOCK, or fewer where SERIES_BLOCK_BYTES binds.

    A row takes, per slice, the recursion's max_order + 2 point tables, 2
    half spectra and 4 band tables, and, shared by the slices, the block's
    kernel tables: the leaf's two multipliers on the half spectrum and the
    kernel pair on the band, all real.
    """
    points, halves, bands = grid.npoints, math.prod(grid.half_shape), grid.band_omega.size
    per_slice = 8 * (max_order + 2) * points + 16 * (2 * halves + 4 * bands)
    row = slices * per_slice + 8 * 2 * (halves + bands)
    return max(1, min(SERIES_BLOCK, SERIES_BLOCK_BYTES // row))


def _order_fields(slices, tgrid: TimeGrid, max_order: int) -> np.ndarray:
    """The order-n tree fields at t = 0, (W_n(0), d/dt W_n(0)), of every slice: shape ``(len(slices), max_order + 1, 2, *grid.half_shape)``.

    The order-n product is the dealiased sum of W_i W_j over i + j = n - 1.
    Each W_n is kept in point space, so the sum of products needs one real
    forward transform per order, and cutting it to the band once equals
    summing the cut products.

    The products are pointwise in time, so the recursion runs over blocks
    of :func:`_block_rows` nodes, from s back to t = 0, and every table
    holds one block's rows.  Per order, both suffix sums of the retarded
    integral come from one cumulative sum over the kernel pair, which
    carries its running total from block to block (:func:`_suffix_sums`);
    row 0 of the last block is the order's t = 0 field, the only row of
    the top order's sums that is formed, and the retarded table is formed
    only for orders that a higher order reads.

    The slices share one grid and one time s.  Each block builds its
    kernel tables (the band's kernel pair and the leaf's backward-flow
    multipliers) on its own nodes, elementwise as one build over every
    node would.  The slices are stacked on an axis after the node axis, so
    each block runs once for all of them.
    """
    if len({snap.time for snap in slices}) != 1:
        raise ValueError("the order recursion needs every slice at one time s")
    grid, s = slices[0].grid, slices[0].time
    upper = tgrid.node_index(s)
    phi = np.stack([snap.phi.values for snap in slices])
    pi = np.stack([snap.pi.values for snap in slices])
    fields = np.zeros((len(slices), max_order + 1, 2) + grid.half_shape, dtype=complex)
    # W_0 at t = 0, the slices flowed back by s, with their time derivatives
    fields[:, 0] = np.stack(apply_flow(flow_multipliers(grid.omega, -s), phi, pi), axis=1)
    if max_order == 0:
        return fields
    # The workspace that every order of every block reuses, one allocation
    # per call.  Each table holds one block's rows on axis 1 and the slices
    # on axis 2.  Half spectra: the forward transform and a zero one that
    # the inverse transforms scatter into.  Band tables: the kernel-weighted
    # pair, which first takes the band cut, and its suffix sums.  Point
    # tables: one per order below max_order, the product sum and one
    # product.
    rows = min(_block_rows(grid, len(slices), max_order), upper + 1)
    lead = (rows, len(slices))
    half_tables, band_tables, point_tables = _workspace(
        ((2,) + lead + grid.half_shape, complex),
        ((4,) + lead + grid.band_omega.shape, complex),
        ((max_order + 2,) + lead + grid.shape, float),
    )
    half_tables[1] = 0.0
    # per order, what its sums carry from block to block (_suffix_sums), and
    # the top order's row 0
    carries = {order: [] for order in range(1, max_order + 1)}
    top_row = np.empty((2, len(slices)) + grid.band_omega.shape, dtype=complex)
    for stop in range(upper + 1, 0, -rows):
        start = max(stop - rows, 0)
        nodes = tgrid.nodes[start:stop]
        *points, total, product = point_tables[:, : stop - start]
        spectrum, half = half_tables[:, : stop - start]
        bands = band_tables[:, : stop - start]
        weighted, sums = bands[0:2], bands[2:4]
        # the block's kernel tables, with an axis of one for the slices: the
        # leaf's backward flow and the band's kernel pair, sin(tau omega)/omega
        # and cos(tau omega)
        c, s_over_w = (m[:, None] for m in retarded_multipliers(grid.omega, nodes - s))
        pair = [m[:, None] for m in retarded_multipliers(grid.band_omega, nodes)[::-1]]
        # W_0 at the block's nodes, c phi + (s/w) pi: the zero half
        # spectrum holds the second term and is zeroed again, which on 3-D
        # 32^3 spares a third half-spectrum table of 18 MB, and the inverse
        # transform's steps run in place of the sum
        leaf = np.multiply(c, phi, out=spectrum)
        leaf += np.multiply(s_over_w, pi, out=half)
        half[...] = 0.0
        half_spectrum_values(grid, leaf, points[0], leaf)
        for order in range(1, max_order + 1):
            np.multiply(points[0], points[order - 1], out=total)
            for i in range(1, order):
                total += np.multiply(points[i], points[order - 1 - i], out=product)
            # the band cut goes to weighted[1], which is then weighted in place
            cut = band_modes(grid, total, weighted[1], spectrum)
            np.multiply(pair[0], cut, out=weighted[0])
            np.multiply(pair[1], cut, out=weighted[1])
            if order == max_order:
                # only row 0 of the last block is read: the top order carries its total
                _suffix_sums(weighted, tgrid, top_row if start == 0 else None, carries[order])
                row = top_row
            else:
                # nothing reads weighted after its sums: it takes their halved terms
                _suffix_sums(weighted, tgrid, sums, carries[order], weighted)
                row = sums[:, 0]
            if start == 0:
                scatter_band(grid, _t0_field(row).swapaxes(0, 1), fields[:, order])
            if order < max_order:
                table = _retarded_table(pair, sums, weighted)
                # the forward transform's table is free again: the inverse's steps run in it
                band_values(grid, table, half, points[order], spectrum)
        # the next block's kernel tables replace these rather than join them
        del c, s_over_w, pair
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

    One :func:`_order_fields` call runs the recursion of every slice at
    once: the slices are stacked, and every block of nodes, its kernel
    tables included, runs once for all of them.  Each report is bit for
    bit the one :func:`series` gives on its slice alone.
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
    snap: FieldSnapshot, coupling: float, tgrid: TimeGrid, x0, width: float, max_order: int
) -> tuple[float, float]:
    """Estimate phi(0, x0) and d/dt phi(0, x0) from ``snap``, the slice at s alone, as :func:`series` takes it.

    Sums the order fields at t = 0 once, weighted by (-coupling)^n, and
    brackets that one estimate with the two Dirac-approximating test
    functions; the bump in the velocity slot reads out phi, the bump in the
    position slot reads out the time derivative (with the pairing's sign).
    """
    fields = _order_fields([snap], tgrid, max_order)[0]
    estimate = sum((-coupling) ** n * w for n, w in enumerate(fields))
    probes = (dirac_test_function(snap.grid, x0, width, which) for which in ("velocity", "position"))
    phi_est, dtphi_est = (_brackets(probe, 0.0, estimate[None])[0] for probe in probes)
    return phi_est, -dtphi_est

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
recursion, W_0 = w_leaf and W_n = K[sum over i + j = n - 1 of W_i W_j], and
the order-n term pairs psi with that same sum of products.  The series
driver runs this order recursion: n tables and one transform pair per order
instead of Catalan-many tables, keeping the tables in point space so the
products of one order are summed before a single forward transform.

Every product in the recursion is a dealiased product of real fields, so
its mode table is zero outside the kept band and Hermitian.  The recursion
therefore keeps its mode tables on the band's half of the real half
spectrum (spectral.band_modes / band_values), and the retarded integrals and
their suffix sums run on those columns only.  The free-flow multipliers
cos(tau omega) and sin(tau omega)/omega on the band are built once per
series or readout call and serve every order's kernel and psi's rows; the
leaf table W_0 comes from the slice's N/2 + 1-column half spectrum.  The
pairing with psi still forms the full complex sum over k of conj(prod) psi:
it pairs each band entry with psi at +k and, through the conjugate half,
at -k, and the last-axis j = 0 column, whose -k entries are already in the
band, pairs once.  Only slice data flagged real are accepted.

Two oracles stay beside it in this module: the per-tree tables
(tree_amplitude, memoized by Dyck word in an AmplitudeCache) and a literal
nested-loop evaluator (direct_amplitude) with no table shortcut, which
covers orders <= 2.  The full-spectrum form of the recursion lives in the
tests as the reference for the band form.

All time integrals restrict their trapezoid weights to the nodes inside the
integrand's support (the step cutoffs of the retarded kernels), so results
do not change when the time grid extends past s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .propagation import (
    TimeGrid,
    TimeSampledField,
    flow_multipliers,
    flowed_phi,
    free_flow,
    green_apply,
    suffix_time_integral,
    time_integral,
)
from .solver import TestFunction, Trajectory, acceleration, dirac_test_function, evaluate_test_function
from .spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SpectralGrid,
    band_modes,
    band_values,
    dealiased_product,
    estimate_algebra_constant,
    half_spectrum_values,
    pair_modes,
    random_band_limited,
    sobolev_norm,
    sobolev_norms,
)
from .trees import Tree, decompose, internal_count, leaf_count, to_dyck


class OrderTooHigh(ValueError):
    """Raised when a literal evaluator is asked for a tree it cannot afford."""


class OrderTerm(NamedTuple):
    order: int
    tree_count: int
    order_sum: float


@dataclass(eq=False)
class AmplitudeCache:
    """Subtree tables keyed by Dyck word.

    Valid only for one (snapshot at s, time grid) pair; the caller owns that
    association.  Sharing one cache across test functions is safe because
    tables never depend on psi.
    """

    tables: dict[str, TimeSampledField] = field(default_factory=dict)


@dataclass(eq=False)
class ChargeReport:
    """Orders, partial sums, and bound bookkeeping of one series run."""

    s: float
    coupling: float
    per_order: list[OrderTerm]
    partial_sums: list[float]
    target: float | None
    residuals: list[float] | None
    radius_bound: float
    condition_ok: bool
    c_q: float
    window: float
    phi_e_norm: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DeltaNormCheck:
    """Result of a sampled operator-norm bound check; truthy iff it held."""

    ok: bool
    ratio: float
    bound: float

    def __bool__(self) -> bool:
        return self.ok


def _real(value: complex) -> float:
    """Real part of a pairing that is real up to rounding."""
    if abs(value.imag) > 1e-10 * (1.0 + abs(value.real)):
        raise AssertionError(f"pairing has imaginary part {value.imag}")
    return float(value.real)


def _test_function_rows(tf: TestFunction, tgrid: TimeGrid, derivative: int = 0) -> np.ndarray:
    """psi (or d/dt psi) at every node, stacked, from the closed-form flow."""
    return free_flow(tf.grid, tf.psi0.values, tf.psi1.values, tgrid.nodes)[derivative]


def test_function_sup_norm(tf: TestFunction, tgrid: TimeGrid) -> float:
    """sup over nodes and derivative order of the H^{-q} norm of psi.

    This is the single sup-in-time dual norm all bound checks use for psi.
    """
    q = -tf.grid.sobolev_q
    return max(float(sobolev_norms(tf.grid, _test_function_rows(tf, tgrid, d), q).max()) for d in (0, 1))


def _retarded_integral(flow, tgrid: TimeGrid, prod: np.ndarray, upper: int) -> np.ndarray:
    """Rows integral over t in [tau_j, tau_upper] of sin((t - tau_j) omega)/omega prod(t).

    ``flow`` is ``flow_multipliers(omega, tgrid.nodes)`` on the layout of
    ``prod``'s mode axes.
    """
    # sin((t - tau) w) / w = sin(t w) / w cos(tau w) - cos(t w) sin(tau w) / w
    # turns the per-row kernel integrals into two shared suffix sums.
    cos, sin_over_w, _ = flow
    sin_sum = suffix_time_integral(sin_over_w * prod, tgrid, upper)
    cos_sum = suffix_time_integral(cos * prod, tgrid, upper)
    return cos * sin_sum - sin_over_w * cos_sum


def _pairing_integral(
    grid: SpectralGrid, tgrid: TimeGrid, prod: np.ndarray, psi_rows: np.ndarray, upper: int
) -> float:
    """Integral over [0, tau_upper] of <psi(tau), prod(tau)>."""
    axes = tuple(range(1, 1 + grid.dim))
    integrand = np.sum(np.conj(prod) * psi_rows, axis=axes) / grid.volume
    return _real(complex(time_integral(integrand, tgrid, 0, upper)))


def bracket_ds(psi: TestFunction, snap: FieldSnapshot) -> float:
    """The pairing <d/dt psi(s), phi(s)> - <psi(s), d/dt phi(s)> at s = snap.time."""
    if psi.grid != snap.grid:
        raise GridMismatch("test function and snapshot live on different grids")
    at_s = evaluate_test_function(psi, snap.time)
    return _real(pair_modes(at_s.pi, snap.phi) - pair_modes(at_s.phi, snap.pi))


def leaf_table(snap: FieldSnapshot, tgrid: TimeGrid) -> TimeSampledField:
    """Backward free evolution of the slice data to every node.

    Row j holds cos((s-tau_j) omega) phi_hat(s) - sin((s-tau_j) omega)/omega
    pi_hat(s), the value at tau_j of the free solution matching the data at
    s.  Rows past s are filled too; consumers that need the step cutoff
    restrict their quadrature instead.
    """
    rows, _ = free_flow(snap.grid, snap.phi.values, snap.pi.values, tgrid.nodes - snap.time)
    real = snap.phi.real_field and snap.pi.real_field
    return TimeSampledField(snap.grid, tgrid, rows, real)


def subtree_table(b: Tree, cache: AmplitudeCache, snap: FieldSnapshot, tgrid: TimeGrid) -> TimeSampledField:
    """The recursion table w_b, memoized in the cache by Dyck word."""
    key = to_dyck(b)
    hit = cache.tables.get(key)
    if hit is not None:
        return hit
    if b.is_leaf:
        table = leaf_table(snap, tgrid)
    else:
        b1, b2 = decompose(b)
        w1 = subtree_table(b1, cache, snap, tgrid)
        w2 = subtree_table(b2, cache, snap, tgrid)
        grid = snap.grid
        upper = tgrid.node_index(snap.time)
        prod = dealiased_product(grid, w1.values, w2.values, w1.real_field and w2.real_field)
        rows = _retarded_integral(flow_multipliers(grid.omega, tgrid.nodes), tgrid, prod, upper)
        table = TimeSampledField(grid, tgrid, rows, w1.real_field and w2.real_field)
    cache.tables[key] = table
    return table


def tree_amplitude(
    b: Tree,
    psi: TestFunction,
    snap: FieldSnapshot,
    tgrid: TimeGrid,
    cache: AmplitudeCache | None = None,
) -> float:
    """Amplitude of one tree: the outer integral of <psi(tau), child product>.

    The leaf tree is the bare pairing at s.  Passing no cache evaluates from
    scratch; passing one reuses and extends its subtree tables.
    """
    if psi.grid != snap.grid:
        raise GridMismatch("test function and snapshot live on different grids")
    if b.is_leaf:
        return bracket_ds(psi, snap)
    if cache is None:
        cache = AmplitudeCache()
    b1, b2 = decompose(b)
    w1 = subtree_table(b1, cache, snap, tgrid)
    w2 = subtree_table(b2, cache, snap, tgrid)
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    prod = dealiased_product(grid, w1.values, w2.values, w1.real_field and w2.real_field)
    return _pairing_integral(grid, tgrid, prod, _test_function_rows(psi, tgrid), upper)


def _mode_convolution(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference dealiased product: circular mode convolution, no transforms.

    h_hat(j) = (1/V) sum over j1 + j2 = j (mod modes) of a(j1) b(j2), then
    modes outside the kept band are zeroed.
    """
    n = grid.modes
    if grid.dim == 1:
        full = np.convolve(np.fft.fftshift(a), np.fft.fftshift(b))
        out = np.zeros(n, dtype=complex)
        # Entry p of the full convolution carries mode sum p - n; fold the
        # sums back into FFT storage order modulo n.
        np.add.at(out, (np.arange(2 * n - 1) - n) % n, full)
    else:
        out = np.zeros(grid.shape, dtype=complex)
        for j1 in np.ndindex(grid.shape):
            for j2 in np.ndindex(grid.shape):
                target = tuple((i1 + i2) % n for i1, i2 in zip(j1, j2))
                out[target] += a[j1] * b[j2]
    out /= grid.volume
    return np.where(grid.keep_mask, out, 0.0)


def _restricted_trapezoid(samples: np.ndarray, dt: float) -> complex:
    """Trapezoid over the given consecutive samples (half weights at ends)."""
    if samples.shape[0] < 2:
        return 0.0 * samples.sum()
    return (samples.sum(axis=0) - 0.5 * (samples[0] + samples[-1])) * dt


def _slot_rows(
    b: Tree,
    alphas,
    snap: FieldSnapshot,
    tgrid: TimeGrid,
    upper: int,
) -> np.ndarray:
    """Literal leg of one subtree into its parent vertex, node by node.

    For a leaf the leg is the retarded kernel at the contraction time s
    applied to phi(s) (derivative order 1) or pi(s) (order 0), built with
    one green_apply call per node.  For an internal vertex the leg nests an
    explicit per-node kernel integral over the convolved child legs.
    """
    grid = snap.grid
    rows = np.zeros((tgrid.nnodes,) + grid.shape, dtype=complex)
    if b.is_leaf:
        a = next(alphas)
        kind = "G1" if a == 1 else "G0"
        data = snap.phi if a == 1 else snap.pi
        for j in range(upper + 1):
            rows[j] = green_apply(kind, snap.time, float(tgrid.nodes[j]), data).values
        return rows
    b1, b2 = decompose(b)
    left = _slot_rows(b1, alphas, snap, tgrid, upper)
    right = _slot_rows(b2, alphas, snap, tgrid, upper)
    conv = np.zeros_like(rows)
    for i in range(upper + 1):
        conv[i] = _mode_convolution(grid, left[i], right[i])
    for j in range(upper + 1):
        lags = (tgrid.nodes[j : upper + 1] - tgrid.nodes[j]).reshape((-1,) + (1,) * grid.dim)
        kernel = np.sin(lags * grid.omega) / grid.omega
        rows[j] = _restricted_trapezoid(kernel * conv[j : upper + 1], tgrid.dt)
    return rows


def direct_amplitude(b: Tree, psi: TestFunction, snap: FieldSnapshot, tgrid: TimeGrid) -> float:
    """Literal nested evaluation of a tree amplitude, orders 0 to 2 only.

    Expands the boundary contraction over all per-leaf derivative choices
    with signs, builds every leg through green_apply, and convolves modes
    directly, with no shared tables and no transform tricks.  Cost grows as
    nt^(order+1); OrderTooHigh guards the cliff.
    """
    if internal_count(b) > 2:
        raise OrderTooHigh(f"direct evaluation supports order <= 2, got {internal_count(b)}")
    if b.is_leaf:
        return bracket_ds(psi, snap)
    if psi.grid != snap.grid:
        raise GridMismatch("test function and snapshot live on different grids")
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    b1, b2 = decompose(b)
    nleaves = leaf_count(b)
    total = 0.0
    for alpha in itertools.product((0, 1), repeat=nleaves):
        alphas = iter(alpha)
        left = _slot_rows(b1, alphas, snap, tgrid, upper)
        right = _slot_rows(b2, alphas, snap, tgrid, upper)
        samples = np.zeros(upper + 1, dtype=complex)
        for j in range(upper + 1):
            prod = _mode_convolution(grid, left[j], right[j])
            psi_j = evaluate_test_function(psi, float(tgrid.nodes[j])).phi
            samples[j] = pair_modes(ModeArray(grid, prod, False), psi_j)
        sign = (-1.0) ** (nleaves - sum(alpha))
        total += sign * _real(complex(_restricted_trapezoid(samples, tgrid.dt)))
    return total


def radius_bound(snap: FieldSnapshot, window: float, c_q: float) -> float:
    """Lower bound on the series' radius of convergence in the coupling.

    1 / (4 C_q M T (||phi(s)|| + ||pi(s)||)) with M = max(1/m, 1) and both
    norms in H^q.
    """
    if not c_q > 0:
        raise ValueError(f"c_q must be positive, got {c_q}")
    m_factor = max(1.0 / snap.grid.mass, 1.0)
    data = sobolev_norm(snap.phi) + sobolev_norm(snap.pi)
    return 1.0 / (4.0 * c_q * m_factor * window * data)


def convergence_condition(
    coupling: float, window: float, phi_e_norm: float, c_q: float, mass: float
) -> bool:
    """Strict sufficient condition for convergence of the whole series."""
    m_factor = max(1.0 / mass, 1.0)
    x = abs(coupling) * c_q * window * phi_e_norm
    return 8.0 * m_factor * x * (1.0 + x) < 1.0


def first_order_bound(
    coupling: float, s: float, mass: float, c_q: float, phi_e_norm: float, psi_norm: float
) -> float:
    """Bound on the residual after the order-1 truncation of the series."""
    lam = abs(coupling)
    return (
        lam**2
        * (
            s**2 * c_q**2 / mass * phi_e_norm**3
            + lam * s**3 * c_q**3 / (3.0 * mass**2) * phi_e_norm**4
        )
        * psi_norm
    )


def _sampled_legs(
    b: Tree,
    legs,
    grid: SpectralGrid,
    tgrid: TimeGrid,
) -> tuple[np.ndarray, int]:
    """Rows and support cutoff of one subtree with sampled leaf legs."""
    if b.is_leaf:
        t_index, order, f = next(legs)
        lag = (tgrid.nodes[t_index] - tgrid.nodes).reshape((-1,) + (1,) * grid.dim) * grid.omega
        kernel = np.sin(lag) / grid.omega if order == 0 else np.cos(lag)
        rows = kernel * f.values
        rows[t_index + 1 :] = 0.0
        return rows, t_index
    b1, b2 = decompose(b)
    left, u1 = _sampled_legs(b1, legs, grid, tgrid)
    right, u2 = _sampled_legs(b2, legs, grid, tgrid)
    upper = min(u1, u2)
    prod = dealiased_product(grid, left, right, real=True)
    return _retarded_integral(flow_multipliers(grid.omega, tgrid.nodes), tgrid, prod, upper), upper


def delta_norm_bound_check(
    b: Tree,
    psi: TestFunction,
    tgrid: TimeGrid,
    c_q: float | None = None,
    samples: int = 12,
    seed: int = 0,
) -> DeltaNormCheck:
    """Sampled check of the operator-norm growth bound (C_q M T)^order.

    The tree functional built on psi is multilinear in one field per leaf;
    we feed it random unit-norm H^q fields at random node times and both
    kernel derivative orders, and compare the largest |value| / ||psi||
    ratio against the bound.  Orders up to 3; the ratio can only grow with
    more samples.
    """
    order = internal_count(b)
    if order > 3:
        raise OrderTooHigh(f"bound check supports order <= 3, got {order}")
    grid = psi.grid
    if c_q is None:
        c_q = estimate_algebra_constant(grid)
    rng = np.random.default_rng(seed)
    psi_norm = test_function_sup_norm(psi, tgrid)
    if psi_norm == 0.0:
        raise ValueError("test function is identically zero")
    psi_rows = _test_function_rows(psi, tgrid)
    ratio = 0.0
    for _ in range(samples):
        drawn = []
        for _ in range(leaf_count(b)):
            f = random_band_limited(grid, rng)
            f.values /= sobolev_norm(f)
            drawn.append((int(rng.integers(0, tgrid.nt + 1)), int(rng.integers(0, 2)), f))
        legs = iter(drawn)
        if b.is_leaf:
            t_index, deriv, f = next(legs)
            row = _test_function_rows(psi, tgrid, deriv)[t_index]
            value = _real(complex(np.sum(row * np.conj(f.values)) / grid.volume))
        else:
            b1, b2 = decompose(b)
            left, u1 = _sampled_legs(b1, legs, grid, tgrid)
            right, u2 = _sampled_legs(b2, legs, grid, tgrid)
            upper = min(u1, u2)
            prod = dealiased_product(grid, left, right, real=True)
            value = _pairing_integral(grid, tgrid, prod, psi_rows, upper)
        ratio = max(ratio, abs(value) / psi_norm)
    m_factor = max(1.0 / grid.mass, 1.0)
    bound = (c_q * m_factor * tgrid.horizon) ** order
    return DeltaNormCheck(ratio <= bound, ratio, bound)


def p_residual(psi: TestFunction, trajectory: Trajectory, s: float) -> float:
    """Defect of the integrated charge balance along a computed trajectory.

    B(s) - B(0) + integral over [0, s] of <psi(tau), (box + m^2) phi(tau)>
    vanishes for linear psi; the equation supplies (box + m^2) phi as
    -lambda phi^2 (dealiased).  The return value is the absolute defect,
    limited by solver and quadrature error only.
    """
    tgrid = trajectory.tgrid
    j_s = tgrid.node_index(s)
    grid = trajectory.grid
    b_s = bracket_ds(psi, trajectory.node(j_s))
    b_0 = bracket_ds(psi, trajectory.node(0))
    phi, _ = trajectory.node_values()
    phi_sq = dealiased_product(grid, phi, phi, trajectory.real_field)
    integral = _pairing_integral(grid, tgrid, phi_sq, _test_function_rows(psi, tgrid), j_s)
    return abs(b_s - b_0 - trajectory.coupling * integral)


def _band_flow(snap: FieldSnapshot, tgrid: TimeGrid):
    """The band's ``flow_multipliers`` at the nodes up to s, built once per call."""
    # built over every node and then cut, so each entry is the value the
    # whole-grid table holds
    upper = tgrid.node_index(snap.time)
    return [m[: upper + 1] for m in flow_multipliers(snap.grid.band_omega, tgrid.nodes)]


def _order_products(snap: FieldSnapshot, tgrid: TimeGrid, flow, max_order: int) -> list[np.ndarray]:
    """The band layout of the dealiased sum of W_i W_j over i + j = n - 1, for n = 1..max_order.

    W_n is the summed table of all trees of order n.  Each is kept in point
    space, so the sum of products needs one real forward transform per
    order, and cutting it to the band once equals summing the cut
    products.  The n-th table is both the order-n integrand against psi and
    the source of W_n = K[product].  ``flow`` is :func:`_band_flow`; W_0,
    the backward free flow of the slice, comes from its half spectrum.
    Every table holds the rows of the nodes up to s only, the nodes the
    retarded integrals and the pairing reach.
    """
    if not (snap.phi.real_field and snap.pi.real_field):
        raise ValueError("the tree series needs real slice data: phi and pi must be flagged real fields")
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    half = (Ellipsis, slice(0, grid.half_shape[-1]))
    leaf_flow = [m[: upper + 1] for m in flow_multipliers(grid.omega[half], tgrid.nodes - snap.time)]
    points = [half_spectrum_values(grid, flowed_phi(leaf_flow, snap.phi.values[half], snap.pi.values[half]))]
    products = []
    for order in range(1, max_order + 1):
        products.append(band_modes(grid, sum(points[i] * points[order - 1 - i] for i in range(order))))
        if order < max_order:
            points.append(band_values(grid, _retarded_integral(flow, tgrid, products[-1], upper)))
    return products


def _order_amplitudes(psi: TestFunction, snap: FieldSnapshot, tgrid: TimeGrid, flow, products) -> list[float]:
    """Sum of tree amplitudes per order, order 0 first, from _order_products.

    The band holds each product's +k half.  Its -k half is the conjugate, so
    the full pairing sum over k of conj(prod) psi takes psi's rows at +k and
    at -k; the last-axis j = 0 column already holds both signs of the
    leading axes and pairs at +k only.
    """
    grid = snap.grid
    plus = grid.band_index
    minus = tuple((-index) % grid.modes for index in plus)
    psi_plus = flowed_phi(flow, psi.psi0.values[plus], psi.psi1.values[plus])
    psi_minus = flowed_phi(flow, psi.psi0.values[minus], psi.psi1.values[minus])
    psi_minus[..., 0] = 0.0
    axes = tuple(range(1, 1 + grid.dim))
    amplitudes = [bracket_ds(psi, snap)]
    for prod in products:
        # In place, the +k products keep prod's memory layout at any row
        # count, so each row sums in one order however many rows there are.
        plus_pairs = np.conj(prod)
        plus_pairs *= psi_plus
        pairs = np.sum(plus_pairs, axis=axes) + np.sum(prod * psi_minus, axis=axes)
        amplitudes.append(_real(complex(_restricted_trapezoid(pairs / grid.volume, tgrid.dt))))
    return amplitudes


def _catalan(order: int) -> int:
    return math.comb(2 * order, order) // (order + 1)


def series(
    psi: TestFunction,
    snap: FieldSnapshot,
    coupling: float,
    tgrid: TimeGrid,
    max_order: int,
    target: float | None = None,
    window: float | None = None,
    c_q: float | None = None,
    phi_e_norm: float | None = None,
) -> ChargeReport:
    """Sum the tree series from the single slice at s, order by order.

    The order-N term is (-coupling)^N times the sum of amplitudes over the
    trees with N internal vertices, computed by the order recursion without
    visiting the trees.  ``target`` is the charge at t = 0 when the caller
    knows it (from a stored trajectory); residuals are reported against it.
    ``phi_e_norm`` feeds the convergence condition; without it the
    single-slice proxy max(||phi(s)||, ||pi(s)||, ||accel(s)||) is used.
    """
    if window is None:
        window = tgrid.horizon
    if c_q is None:
        c_q = estimate_algebra_constant(snap.grid)
    if phi_e_norm is None:
        phi_e_norm = max(
            sobolev_norm(snap.phi),
            sobolev_norm(snap.pi),
            sobolev_norm(acceleration(snap, coupling)),
        )
    flow = _band_flow(snap, tgrid)
    amplitudes = _order_amplitudes(psi, snap, tgrid, flow, _order_products(snap, tgrid, flow, max_order))
    per_order: list[OrderTerm] = []
    partial_sums: list[float] = []
    running = 0.0
    for order, amplitude in enumerate(amplitudes):
        term = (-coupling) ** order * amplitude
        running += term
        per_order.append(OrderTerm(order, _catalan(order), term))
        partial_sums.append(running)
    residuals = None
    if target is not None:
        residuals = [abs(p - target) for p in partial_sums]
    return ChargeReport(
        s=snap.time,
        coupling=coupling,
        per_order=per_order,
        partial_sums=partial_sums,
        target=target,
        residuals=residuals,
        radius_bound=radius_bound(snap, window, c_q),
        condition_ok=convergence_condition(coupling, window, phi_e_norm, c_q, snap.grid.mass),
        c_q=c_q,
        window=window,
        phi_e_norm=phi_e_norm,
    )


def readout(
    trajectory: Trajectory, s: float, x0, width: float, max_order: int
) -> tuple[float, float]:
    """Estimate phi(0, x0) and d/dt phi(0, x0) from the slice at s alone.

    Sums the series against the two Dirac-approximating test functions; the
    bump in the velocity slot reads out phi, the bump in the position slot
    reads out the time derivative (with the pairing's sign).  The order
    products do not depend on psi, so both probes share one set, and one
    set of band phase tables.
    """
    grid = trajectory.grid
    tgrid = trajectory.tgrid
    snap = trajectory.node(tgrid.node_index(s))
    flow = _band_flow(snap, tgrid)
    products = _order_products(snap, tgrid, flow, max_order)
    estimates = []
    for which in ("velocity", "position"):
        tf = dirac_test_function(grid, x0, width, which)
        amplitudes = _order_amplitudes(tf, snap, tgrid, flow, products)
        estimates.append(sum((-trajectory.coupling) ** n * a for n, a in enumerate(amplitudes)))
    return estimates[0], -estimates[1]

"""Independent reference computations the package is checked against.

Everything here is written with a different algorithm than the package
uses: closed forms, explicit index folding, and brute-force enumeration
instead of shared tables, transform tricks, and cherry-subset scans.
Agreement between the two paths is then evidence, not tautology.
"""

import itertools
import math

import numpy as np

from kgcharge.propagation import free_evolve, suffix_time_integral
from kgcharge.series import _pairing_integral as pairing_integral
from kgcharge.series import _test_function_rows as test_function_rows
from kgcharge.series import bracket_ds, leaf_table
from kgcharge.solver import BlowUp
from kgcharge.spectral import (
    FieldSnapshot,
    ModeArray,
    dealiased_modes,
    grid_values,
    pair_modes,
    pointwise_product,
    random_localized_field,
    sobolev_norm,
)
from kgcharge.trees import (
    GrowSpec,
    enumerate_trees,
    graft,
    grow,
    internal_count,
    leaf,
    leaf_count,
)


def catalan(n):
    """Closed-form Catalan number C_n."""
    return math.comb(2 * n, n) // (n + 1)


def brute_force_signed_grow_sum(b, min_growth=0):
    """Signed grow sum by scanning every candidate (tree, spec) pair.

    The package enumerates cherry subsets of b; this scans all smaller
    trees a and all specs over their leaves and keeps the pairs with
    grow(spec, a) == b.  Each cherry entry adds one leaf, so a spec with
    exactly leaf_count(b) - leaf_count(a) cherry entries is required.
    """
    cherry = graft(leaf(), leaf())
    target_leaves = leaf_count(b)
    total = 0
    for order in range(internal_count(b) + 1):
        for a in enumerate_trees(order):
            n = leaf_count(a)
            need = target_leaves - n
            if need < min_growth or need > n:
                continue
            for positions in itertools.combinations(range(n), need):
                chosen = set(positions)
                entries = tuple(cherry if i in chosen else leaf() for i in range(n))
                if grow(GrowSpec(entries), a) == b:
                    total += (-1) ** internal_count(a)
    return total


def signed_mode_index(n):
    """FFT storage order as signed integers: 0, 1, ..., n/2-1, -n/2, ..., -1."""
    return np.fft.fftfreq(n, 1.0 / n).astype(int)


def folded_convolution(a, b, volume):
    """Dealiased mode product by outer product and explicit index folding.

    h(j) = (1/V) sum over j1 + j2 = j (mod n) of a(j1) b(j2), then modes
    with |j| > (n - 1) // 3 zeroed.
    """
    n = a.shape[0]
    out = np.zeros(n, dtype=complex)
    targets = np.add.outer(np.arange(n), np.arange(n)) % n
    np.add.at(out, targets.ravel(), np.outer(a, b).ravel())
    out /= volume
    out[np.abs(signed_mode_index(n)) > (n - 1) // 3] = 0.0
    return out


def free_mode_evolution(phi, pi, omega, t):
    """Closed-form linear evolution of one Fourier mode pair over time t."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    return c * phi + s / omega * pi, -omega * s * phi + c * pi


def cherry_amplitude(extent, mass, s, nodes, phi_hat, pi_hat, psi0_hat, psi1_hat):
    """Order-one amplitude from closed forms alone.

    Builds the backward-evolved leaf factor M(s, tau) = cos((s - tau) w)
    phi_hat - sin((s - tau) w) / w pi_hat at every quadrature node, squares
    it by folded convolution, pairs with the freely evolved test function,
    and applies the trapezoid rule restricted to the nodes up to s.  No
    package code is involved past the input arrays.
    """
    n = phi_hat.shape[0]
    volume = extent
    k = 2.0 * np.pi * signed_mode_index(n) / extent
    omega = np.sqrt(mass**2 + k**2)
    upper = int(round(s / (nodes[1] - nodes[0])))
    samples = np.zeros(upper + 1)
    for j in range(upper + 1):
        lag = (s - nodes[j]) * omega
        m_row = np.cos(lag) * phi_hat - np.sin(lag) / omega * pi_hat
        conv = folded_convolution(m_row, m_row, volume)
        phase = nodes[j] * omega
        psi_row = np.cos(phase) * psi0_hat + np.sin(phase) / omega * psi1_hat
        samples[j] = (np.conj(psi_row) * conv).sum().real / volume
    dt = nodes[1] - nodes[0]
    return float((samples.sum() - 0.5 * (samples[0] + samples[-1])) * dt)


# Literal per-node and per-call loops.  The package squares whole stacks of
# node fields at once and reuses one square per solver node; these are the
# loops it replaced, one dealiased product per call, kept to check it by.


def _kick(snap, coupling, half_dt):
    phi_sq = pointwise_product(snap.phi, snap.phi)
    pi = ModeArray(snap.grid, snap.pi.values - half_dt * coupling * phi_sq.values, snap.pi.real_field)
    return FieldSnapshot(snap.time, snap.phi, pi)


def strang_with_fresh_kicks(initial, coupling, tgrid, norm_ceiling=1e6):
    """Snapshots of the Strang scheme with two freshly squared half kicks per step."""
    dt = tgrid.dt
    snapshots = [initial]
    current = initial
    for j in range(tgrid.nt):
        if coupling != 0.0:
            current = _kick(current, coupling, dt / 2.0)
        current = free_evolve(current, dt)
        if coupling != 0.0:
            current = _kick(current, coupling, dt / 2.0)
        current = FieldSnapshot(float(tgrid.nodes[j + 1]), current.phi, current.pi)
        if max(sobolev_norm(current.phi), sobolev_norm(current.pi)) > norm_ceiling:
            raise BlowUp(f"norm ceiling {norm_ceiling} exceeded at t={current.time}")
        snapshots.append(current)
    return snapshots


def node_acceleration(snap, coupling):
    """-(omega^2 phi_hat) - coupling (phi^2)_hat of one node."""
    phi_sq = pointwise_product(snap.phi, snap.phi)
    values = -(snap.grid.omega**2) * snap.phi.values - coupling * phi_sq.values
    return ModeArray(snap.grid, values, snap.phi.real_field)


def per_node_field_energy_norm(traj):
    """Max over nodes of the H^q norms of phi, pi and the acceleration, node by node."""
    best = 0.0
    for snap in traj.snapshots:
        accel = node_acceleration(snap, traj.coupling)
        best = max(best, sobolev_norm(snap.phi), sobolev_norm(snap.pi), sobolev_norm(accel))
    return best


def node_energy(snap, coupling):
    """Energy of one node with its own square and an np.vdot pairing."""
    grid = snap.grid
    quad = 0.5 * (np.abs(snap.pi.values) ** 2 + (grid.mass**2 + grid.k_squared) * np.abs(snap.phi.values) ** 2)
    total = float(np.sum(quad) / grid.volume)
    if coupling != 0.0:
        phi_sq = pointwise_product(snap.phi, snap.phi)
        total += coupling / 3.0 * pair_modes(phi_sq, snap.phi).real
    return total


def per_trial_algebra_constant(grid, trials=200, seed=0):
    """1.5 times the largest product norm ratio, one drawn pair at a time."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        f = random_localized_field(grid, rng)
        g = random_localized_field(grid, rng)
        nf, ng = sobolev_norm(f), sobolev_norm(g)
        if nf == 0.0 or ng == 0.0:
            continue
        best = max(best, sobolev_norm(pointwise_product(f, g)) / (nf * ng))
    return 1.5 * best


def per_node_p_residual(psi, traj, s):
    """Charge-balance defect with one product and one free-flow call per node."""
    tgrid = traj.tgrid
    j_s = tgrid.node_index(s)

    def bracket(snap):
        at = free_evolve(FieldSnapshot(0.0, psi.psi0, psi.psi1), snap.time)
        return (pair_modes(at.pi, snap.phi) - pair_modes(at.phi, snap.pi)).real

    samples = np.zeros(tgrid.nnodes)
    for j in range(j_s + 1):
        snap = traj.node(j)
        phi_sq = pointwise_product(snap.phi, snap.phi)
        psi_j = free_evolve(FieldSnapshot(0.0, psi.psi0, psi.psi1), float(tgrid.nodes[j])).phi
        samples[j] = pair_modes(psi_j, phi_sq).real
    window = -traj.coupling * samples[: j_s + 1]
    integral = (window.sum() - 0.5 * (window[0] + window[-1])) * tgrid.dt
    return abs(bracket(traj.node(j_s)) - bracket(traj.node(0)) + integral)


# The order recursion on the full complex spectrum, as the package ran it
# before it moved to the band of the real half spectrum: every table keeps
# all N^dim complex columns, and the phase table is rebuilt for each
# retarded integral.


def _full_retarded_integral(grid, tgrid, prod, upper):
    ph = tgrid.nodes.reshape((-1,) + (1,) * grid.dim) * grid.omega
    sin_sum = suffix_time_integral(np.sin(ph) * prod, tgrid, upper)
    cos_sum = suffix_time_integral(np.cos(ph) * prod, tgrid, upper)
    return (np.cos(ph) * sin_sum - np.sin(ph) * cos_sum) / grid.omega


def _full_order_products(snap, tgrid, max_order):
    grid = snap.grid
    upper = tgrid.node_index(snap.time)
    real = snap.phi.real_field and snap.pi.real_field
    points = [grid_values(grid, leaf_table(snap, tgrid).values, real)]
    for order in range(1, max_order + 1):
        prod = dealiased_modes(grid, sum(points[i] * points[order - 1 - i] for i in range(order)))
        yield prod
        if order < max_order:
            points.append(grid_values(grid, _full_retarded_integral(grid, tgrid, prod, upper), real))


def full_spectrum_order_amplitudes(psi, snap, tgrid, max_order):
    """Sum of tree amplitudes per order, order 0 first, on the full complex spectrum."""
    upper = tgrid.node_index(snap.time)
    psi_rows = test_function_rows(psi, tgrid)
    return [bracket_ds(psi, snap)] + [
        pairing_integral(snap.grid, tgrid, prod, psi_rows, upper)
        for prod in _full_order_products(snap, tgrid, max_order)
    ]

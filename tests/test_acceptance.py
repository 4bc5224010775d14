"""Acceptance gate: ten desk-scale criteria, one test and one verdict each.

Desk scale means a box of 40 with 128 modes, unit mass, regularity index 1,
horizon and slice time 0.5 over 512 steps, and Gaussian initial data of
amplitude 0.5 and width 2.  Every expensive object is module-scoped so the
whole gate stays well inside the runtime budget.
"""

import numpy as np
import pytest

from conftest import random_snapshot, random_test_function
from kgcharge.propagation import TimeGrid
from kgcharge.cli import place_bump
from kgcharge.series import bracket, readout, series
from kgcharge.solver import (
    dirac_bump,
    gaussian_field,
    solve,
)
from kgcharge.spectral import (
    FieldSnapshot,
    SpectralGrid,
    estimate_algebra_constant,
    evaluate_at,
    random_band_limited,
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
    signed_grow_sum,
)
from oracles import test_function_sup_norm as sup_norm
from oracles import (
    cherry_amplitude,
    delta_norm_bound_check,
    direct_amplitude,
    field_energy_norm,
    first_order_bound,
    free_evolve,
    full_spectrum,
    green_apply,
    p_residual,
    pair_modes,
    tree_amplitude,
    zero_modes,
)

COUPLING = 0.2
SWEEP = (0.05, 0.1, 0.2, 0.4)


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1)


@pytest.fixture(scope="module")
def tgrid():
    return TimeGrid(horizon=0.5, nt=512)


@pytest.fixture(scope="module")
def data(grid):
    return FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), zero_modes(grid))


@pytest.fixture(scope="module")
def psi(grid):
    bump = gaussian_field(grid, 1.0, 3.0, 0.5)
    return FieldSnapshot(0.0, bump, bump)


@pytest.fixture(scope="module")
def c_q(grid):
    return estimate_algebra_constant(grid)


@pytest.fixture(scope="module")
def trajectories(data, tgrid):
    return {lam: solve(data, lam, tgrid) for lam in (0.0, *SWEEP)}


def verdict(number, name, ok, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_linear_conservation(grid, tgrid, rng):
    worst = 0.0
    for _ in range(5):
        pair_data = random_snapshot(grid, rng)
        pair_psi = random_test_function(grid, rng)
        traj = solve(pair_data, 0.0, tgrid)
        last = traj.node(-1)
        drift = abs(
            bracket(free_evolve(pair_psi, last.time), last) - bracket(pair_psi, traj.node(0))
        )
        worst = max(worst, drift)
    verdict(1, "linear conservation", worst <= 1e-10, f"max drift {worst:.3e} vs 1e-10")


def test_criterion_02_first_order_identity(psi, trajectories, tgrid):
    traj = trajectories[COUPLING]
    defect = p_residual(psi, traj, tgrid.horizon)
    last = traj.node(-1)
    scale = abs(
        bracket(free_evolve(psi, last.time), last) - bracket(psi, traj.node(0))
    )
    rel = defect / scale
    verdict(2, "first-order identity", rel <= 1e-6, f"relative defect {rel:.3e} vs 1e-6")


def test_criterion_03_oracle_equivalence(grid, psi, trajectories, tgrid):
    snap = trajectories[COUPLING].node(-1)
    worst = 0.0
    for order in (1, 2):
        for b in enumerate_trees(order):
            fast = tree_amplitude(b, psi, snap, tgrid)
            literal = direct_amplitude(b, psi, snap, tgrid)
            worst = max(worst, abs(fast - literal) / abs(literal))
    oracle = cherry_amplitude(
        grid.extent,
        grid.mass,
        snap.time,
        np.asarray(tgrid.nodes),
        *(full_spectrum(grid, f.values) for f in (snap.phi, snap.pi, psi.phi, psi.pi)),
    )
    cherry = tree_amplitude(graft(leaf(), leaf()), psi, snap, tgrid)
    closed = abs(cherry - oracle) / abs(oracle)
    ok = worst <= 1e-8 and closed <= 1e-9
    verdict(
        3,
        "oracle equivalence",
        ok,
        f"literal path {worst:.3e} vs 1e-8, closed form {closed:.3e} vs 1e-9",
    )


def test_criterion_04_series_transport(psi, trajectories, tgrid):
    residuals = {}
    targets = {}
    for lam in SWEEP:
        traj = trajectories[lam]
        target = bracket(psi, traj.node(0))
        report = series(psi, traj.node(-1), lam, tgrid, max_order=4, target=target)
        residuals[lam] = report.residuals
        targets[lam] = target
    log_l = np.log(SWEEP)
    slopes = [
        float(np.polyfit(log_l, np.log([residuals[lam][n] for lam in SWEEP]), 1)[0])
        for n in range(4)
    ]
    slopes_ok = all(abs(slope - (n + 1)) <= 0.2 for n, slope in enumerate(slopes))
    rel = residuals[0.1][-1] / abs(targets[0.1])
    verdict(
        4,
        "series transport",
        slopes_ok and rel <= 1e-6,
        f"slopes {[f'{s:.3f}' for s in slopes]} vs N+1 +- 0.2, "
        f"order-4 relative residual {rel:.3e} vs 1e-6 at coupling 0.1",
    )


def test_criterion_05_combinatorics():
    counts = [len(enumerate_trees(n)) for n in range(7)]
    counts_ok = counts == [1, 1, 2, 5, 14, 42, 132] and all(
        c <= 4**n for n, c in enumerate(counts)
    )
    signed_ok = all(
        signed_grow_sum(b) == 0
        for order in range(1, 8)
        for b in enumerate_trees(order)
    )
    cherry = graft(leaf(), leaf())
    grow_ok = True
    import itertools

    for order in range(4):
        for a in enumerate_trees(order):
            n = leaf_count(a)
            for entries in itertools.product((leaf(), cherry), repeat=n):
                spec = GrowSpec(entries)
                grown = grow(spec, a)
                grow_ok = grow_ok and leaf_count(grown) == n + spec.n_y
    ok = counts_ok and signed_ok and grow_ok
    verdict(
        5,
        "combinatorics",
        ok,
        f"counts {counts}, signed sums vanish: {signed_ok}, growth identity: {grow_ok}",
    )


def test_criterion_06_kernel_bound(grid, rng):
    violations = 0
    worst = 0.0
    for _ in range(1000):
        f = random_band_limited(grid, rng)
        t = float(rng.uniform(0.0, 1.0))
        ratio = sobolev_norm(green_apply("G0", t, 0.0, f)) / sobolev_norm(f)
        worst = max(worst, ratio)
        if ratio > 1.0 / grid.mass:
            violations += 1
    verdict(
        6,
        "kernel bound",
        violations == 0,
        f"{violations} violations in 1000 fields, largest ratio {worst:.6f} vs 1/m = 1",
    )


def test_criterion_07_norm_growth_bound(psi, tgrid, c_q):
    violations = []
    for order in range(4):
        for b in enumerate_trees(order):
            check = delta_norm_bound_check(b, psi, tgrid, c_q=c_q)
            if not check:
                violations.append((b, check))
    verdict(
        7,
        "norm-growth bound",
        not violations,
        f"{len(violations)} violations over trees of order <= 3 vs (C_q M T)^order",
    )


def test_criterion_08_bound_self_consistency(grid, psi, trajectories, tgrid, c_q):
    traj = trajectories[COUPLING]
    target = bracket(psi, traj.node(0))
    report = series(psi, traj.node(-1), COUPLING, tgrid, max_order=1, target=target)
    measured = report.residuals[-1]
    bound = first_order_bound(
        COUPLING,
        tgrid.horizon,
        grid.mass,
        c_q,
        field_energy_norm(traj),
        sup_norm(psi, tgrid),
    )
    verdict(
        8,
        "bound self-consistency",
        measured <= 1.1 * bound,
        f"order-1 residual {measured:.3e} vs 1.1 x bound {1.1 * bound:.3e}",
    )


def test_criterion_09_p_residual(data, psi, trajectories, tgrid):
    free = p_residual(psi, trajectories[0.0], tgrid.horizon)
    coarse = p_residual(psi, trajectories[COUPLING], tgrid.horizon)
    fine_traj = solve(data, COUPLING, TimeGrid(tgrid.horizon, 2 * tgrid.nt))
    fine = p_residual(psi, fine_traj, tgrid.horizon)
    levels_ok = free <= 1e-10 and coarse <= 1e-6
    # The split step applies half kicks at both ends of every step, which
    # reproduces the trapezoid weights of the balance integral exactly, so
    # both defects sit at the rounding floor.  The 4x step-halving ratio is
    # only observable above that floor.
    at_floor = coarse <= 1e-12 and fine <= 1e-12
    halving_ok = at_floor or coarse / fine == pytest.approx(4.0, rel=0.5)
    note = (
        "both defects at the rounding floor, halving ratio vacuous"
        if at_floor
        else f"halving ratio {coarse / fine:.2f}"
    )
    verdict(
        9,
        "p-residual",
        levels_ok and halving_ok,
        f"free {free:.3e} vs 1e-10, coupled {coarse:.3e} vs 1e-6, {note}",
    )


def test_criterion_10_readout(grid, trajectories, tgrid):
    x0, width = 2.0, 0.5
    traj = trajectories[COUPLING]
    estimate = readout(traj.node(tgrid.node_index(tgrid.horizon)), traj.coupling, tgrid, max_order=3)
    bump = dirac_bump(grid, x0, width)
    phi_est = bracket(place_bump(bump, "velocity"), estimate)
    dtphi_est = -bracket(place_bump(bump, "position"), estimate)
    first = traj.node(0)
    phi_true = evaluate_at(first.phi, x0)
    dtphi_true = evaluate_at(first.pi, x0)
    smoothing_phi = abs(complex(pair_modes(first.phi, bump)).real - phi_true)
    smoothing_pi = abs(complex(pair_modes(first.pi, bump)).real - dtphi_true)
    err_phi = abs(phi_est - phi_true)
    err_pi = abs(dtphi_est - dtphi_true)
    ok = err_phi <= max(1e-3, smoothing_phi) and err_pi <= max(1e-3, smoothing_pi)
    verdict(
        10,
        "readout",
        ok,
        f"phi error {err_phi:.3e} vs {max(1e-3, smoothing_phi):.3e}, "
        f"dt phi error {err_pi:.3e} vs {max(1e-3, smoothing_pi):.3e}",
    )

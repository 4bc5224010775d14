"""Tree amplitudes, the charge series, and its bound apparatus.

The per-tree table path (tests/oracles.py) is checked three ways: against
the literal nested evaluator beside it, against a closed-form oracle that
shares no code with either, and against the conservation identities the
series exists to satisfy.  The order recursion the series driver runs is
then checked against the per-tree sums, order by order, and up to order 10
against the Cauchy and jet witnesses of the reversed Strang flow.
"""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_snapshot, random_test_function, stacked_trajectory
from kgcharge.propagation import TimeGrid
from kgcharge.series import (
    bracket_ds,
    convergence_condition,
    radius_bound,
    readout,
    series,
    series_couplings,
)
from kgcharge.series import SERIES_BLOCK, SERIES_BLOCK_BYTES
from kgcharge.series import _block_rows as block_rows
from kgcharge.series import _order_fields as order_fields
from kgcharge.solver import TestFunction, evaluate_test_function, gaussian_field, solve, solve_couplings
from kgcharge.spectral import FieldSnapshot, ModeArray, SpectralGrid, random_band_limited, sobolev_norm
from kgcharge.trees import enumerate_trees, graft, leaf, leaf_count
from oracles import _test_function_rows as psi_node_rows
from oracles import test_function_sup_norm as sup_norm
from oracles import (
    AmplitudeCache,
    DeltaNormCheck,
    OrderTooHigh,
    all_rows_order_amplitudes,
    catalan,
    cauchy_order_fields,
    cauchy_order_sums,
    charges_at_zero,
    cherry_amplitude,
    delta_norm_bound_check,
    direct_amplitude,
    first_order_bound,
    from_dyck,
    free_mode_evolution,
    full_omega,
    full_spectrum,
    full_spectrum_order_amplitudes,
    jet_order_fields,
    leaf_table,
    p_residual,
    per_node_p_residual,
    per_node_sampled_value,
    sobolev_norms_at,
    tree_amplitude,
    whole_axis_order_fields,
    zero_modes,
)


@pytest.fixture(scope="module")
def grid(request):
    from kgcharge.spectral import SpectralGrid

    return SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1)


@pytest.fixture(scope="module")
def tgrid():
    return TimeGrid(horizon=0.4, nt=32)


@pytest.fixture(scope="module")
def setting(grid, tgrid):
    """One solved interacting trajectory with its test function and target."""
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), zero_modes(grid))
    psi = TestFunction(
        gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5)
    )
    coupling = 0.2
    traj = solve(data, coupling, tgrid)
    snap = traj.node(-1)
    target = bracket_ds(psi, traj.node(0))
    return traj, snap, psi, coupling, target


def test_bracket_is_conserved_without_coupling(grid, tgrid, rng):
    for _ in range(5):
        data = random_snapshot(grid, rng)
        psi = random_test_function(grid, rng)
        traj = solve(data, 0.0, tgrid)
        drift = abs(bracket_ds(psi, traj.node(-1)) - bracket_ds(psi, traj.node(0)))
        assert drift <= 1e-10


def test_leaf_and_test_function_rows_follow_the_free_flow(setting, tgrid):
    _, snap, psi, _, _ = setting
    grid = snap.grid
    omega = full_omega(grid)
    leaves = leaf_table(snap, tgrid).values
    psi_rows = [psi_node_rows(psi, tgrid, derivative) for derivative in (0, 1)]
    phi0, pi0, psi0, psi1 = (full_spectrum(grid, f.values) for f in (snap.phi, snap.pi, psi.psi0, psi.psi1))
    for j, tau in enumerate(tgrid.nodes):
        phi, _ = free_mode_evolution(phi0, pi0, omega, tau - snap.time)
        np.testing.assert_allclose(leaves[j], phi, rtol=1e-12, atol=1e-12)
        for rows, expected in zip(psi_rows, free_mode_evolution(psi0, psi1, omega, tau)):
            np.testing.assert_allclose(rows[j], expected, rtol=1e-12, atol=1e-12)


def test_leaf_amplitude_is_the_bracket(setting, tgrid):
    _, snap, psi, _, _ = setting
    assert tree_amplitude(leaf(), psi, snap, tgrid) == bracket_ds(psi, snap)


def test_a_pairing_of_a_non_hermitian_table_still_raises(small_grid, rng):
    # the tolerance on a pairing's imaginary part scales with its summands:
    # rounding stays far below it, a table that is not a real field's does not
    psi = random_test_function(small_grid, rng)
    snap = random_snapshot(small_grid, rng)
    bracket_ds(psi, snap)
    noise = rng.standard_normal(small_grid.half_shape) + 1j * rng.standard_normal(small_grid.half_shape)
    leaky = snap.phi.values + 1e-6 * np.abs(snap.phi.values).max() * noise
    with pytest.raises(AssertionError, match="pairing has imaginary part"):
        bracket_ds(psi, FieldSnapshot(0.0, ModeArray(small_grid, leaky), snap.pi))
    # a purely imaginary field pairs to a purely imaginary bracket
    with pytest.raises(AssertionError, match="pairing has imaginary part"):
        bracket_ds(psi, FieldSnapshot(0.0, ModeArray(small_grid, 1j * snap.phi.values), snap.pi))


def test_fast_path_matches_literal_evaluation(setting, tgrid):
    _, snap, psi, _, _ = setting
    for order in (1, 2):
        for b in enumerate_trees(order):
            fast = tree_amplitude(b, psi, snap, tgrid)
            literal = direct_amplitude(b, psi, snap, tgrid)
            assert fast == pytest.approx(literal, rel=1e-10)


def test_cherry_amplitude_matches_the_closed_form_oracle(setting, grid, tgrid):
    _, snap, psi, _, _ = setting
    oracle = cherry_amplitude(
        grid.extent,
        grid.mass,
        snap.time,
        np.asarray(tgrid.nodes),
        *(full_spectrum(grid, f.values) for f in (snap.phi, snap.pi, psi.psi0, psi.psi1)),
    )
    value = tree_amplitude(graft(leaf(), leaf()), psi, snap, tgrid)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_literal_evaluator_refuses_high_orders(setting, tgrid):
    _, snap, psi, _, _ = setting
    b = from_dyck("NNLNLLNLL")
    with pytest.raises(OrderTooHigh):
        direct_amplitude(b, psi, snap, tgrid)


# Evaluators and helpers that only the tests use; they live in tests/oracles.py.
TEST_ONLY_NAMES = (
    "AmplitudeCache",
    "leaf_table",
    "subtree_table",
    "tree_amplitude",
    "_mode_convolution",
    "_slot_rows",
    "direct_amplitude",
    "_restricted_trapezoid",
    "TimeSampledField",
    "green_apply",
    "pointwise_product",
    "to_grid",
    "hermitian_defect",
    "zero_modes",
    "random_localized_field",
    "pair_modes",
    "retarded_integral",
    "_retarded_integral",
    "acceleration",
    "time_integral",
    "DeltaNormCheck",
    "OrderTooHigh",
    "delta_norm_bound_check",
    "_sampled_legs",
    "first_order_bound",
    "p_residual",
    "test_function_sup_norm",
    "_test_function_rows",
    "energy",
    "FullSpectrum",
    "complex_product",
    "per_node_solve_couplings",
    "strang_with_fresh_kicks",
    "reversed_flow",
    "node_energies",
    "_real",
    "whole_axis_order_fields",
    "suffix_time_integral",
    "pair_suffix_sums",
    "kernel_pair",
    "SteppedTrajectory",
    "full_spectrum",
    "kept_half",
    "full_sum_evaluate_at",
    "free_flow",
    "grid_values",
    "dealiased_modes",
    "dealiased_product",
    "sobolev_norms",
    "SpectrumLayout",
    "full_k_squared",
    "full_omega",
    "full_band_mask",
    "full_keep_mask",
    "decompose",
    "from_dyck",
    "prune_cherries",
    "ParseError",
    "band_index",
    "rfftn_square",
)


def test_no_package_module_holds_a_test_only_evaluator():
    import importlib
    import pkgutil

    import kgcharge

    modules = [kgcharge] + [
        importlib.import_module(f"kgcharge.{info.name}") for info in pkgutil.iter_modules(kgcharge.__path__)
    ]
    assert {module.__name__ for module in modules} >= {"kgcharge.series", "kgcharge.spectral", "kgcharge.propagation"}
    for module in modules:
        held = sorted(name for name in TEST_ONLY_NAMES if name in vars(module))
        assert held == [], f"{module.__name__} holds {held}"


def test_amplitudes_ignore_grid_time_past_s(setting, grid):
    # enlarging the horizon at fixed spacing must not move any amplitude
    traj, snap, psi, coupling, _ = setting
    tg1 = TimeGrid(horizon=0.4, nt=32)
    tg2 = TimeGrid(horizon=0.8, nt=64)
    for order in (1, 2, 3):
        for b in enumerate_trees(order):
            a1 = tree_amplitude(b, psi, snap, tg1)
            a2 = tree_amplitude(b, psi, snap, tg2)
            assert a1 == pytest.approx(a2, rel=1e-12)
    r1 = series(psi, snap, coupling, tg1, max_order=3)
    r2 = series(psi, snap, coupling, tg2, max_order=3)
    for t1, t2 in zip(r1.per_order, r2.per_order):
        assert t1.order_sum == pytest.approx(t2.order_sum, rel=1e-12)


def test_cache_is_shared_and_consistent(setting, tgrid):
    _, snap, psi, _, _ = setting
    cache = AmplitudeCache()
    b = from_dyck("NNLLNLL")
    first = tree_amplitude(b, psi, snap, tgrid, cache)
    assert "NLL" in cache.tables
    again = tree_amplitude(b, psi, snap, tgrid, cache)
    fresh = tree_amplitude(b, psi, snap, tgrid)
    assert first == again
    assert first == pytest.approx(fresh, rel=1e-13)


def assert_order_sums_match_the_trees(psi, snap, coupling, tgrid, max_order):
    report = series(psi, snap, coupling, tgrid, max_order)
    cache = AmplitudeCache()
    for term in report.per_order:
        trees = enumerate_trees(term.order)
        per_tree = sum(tree_amplitude(b, psi, snap, tgrid, cache) for b in trees)
        assert term.order_sum == pytest.approx((-coupling) ** term.order * per_tree, rel=1e-12)


def test_order_recursion_matches_the_per_tree_sums(setting, tgrid):
    _, snap, psi, coupling, _ = setting
    assert_order_sums_match_the_trees(psi, snap, coupling, tgrid, max_order=5)


def test_order_recursion_matches_the_per_tree_sums_in_two_dimensions(rng):
    from kgcharge.spectral import SpectralGrid

    grid2 = SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2)
    tg = TimeGrid(horizon=0.4, nt=16)
    data = FieldSnapshot(0.0, gaussian_field(grid2, 0.5, 1.5), zero_modes(grid2))
    snap = solve(data, 0.5, tg).node(-1)
    psi = random_test_function(grid2, rng)
    assert_order_sums_match_the_trees(psi, snap, 0.5, tg, max_order=3)


# (grid, time grid, slice time s): the desk box and mode count at a smaller
# nt, a 30-mode line sliced at T/2, and a 16^2 grid
ORACLE_SETTINGS = {
    "desk": (SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1), TimeGrid(0.5, 64), 0.5),
    "1d-30": (SpectralGrid(dim=1, extent=10.0, modes=30, mass=1.0, sobolev_q=1), TimeGrid(0.4, 32), 0.2),
    "2d-16": (SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2), TimeGrid(0.4, 16), 0.4),
}


@pytest.mark.parametrize("coupling", [0.0, 0.3])
@pytest.mark.parametrize("setting_name", sorted(ORACLE_SETTINGS))
def test_band_recursion_matches_the_full_spectrum_oracle(setting_name, coupling):
    grid, tg, s = ORACLE_SETTINGS[setting_name]
    # Gaussian data fill the whole spectrum, so the leaf rows are not band
    # limited.  A bump psi keeps the pairings free of cancellation: random
    # band-limited psi on the 40-box flips an amplitude's sign at order 4.
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 1.5), gaussian_field(grid, 0.2, 2.5, 1.0))
    snap = solve(data, coupling, tg).node(tg.node_index(s))
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5))
    # a coupling of -1 makes each order's term its amplitude sum
    report = series(psi, snap, -1.0, tg, max_order=6)
    oracle = full_spectrum_order_amplitudes(psi, snap, tg, max_order=6)
    for term, want in zip(report.per_order, oracle, strict=True):
        assert term.order_sum == pytest.approx(want, rel=1e-13, abs=0.0)


# (grid, time grid): the desk grid at its own nt, a 30-mode line and a 16^2
# grid, each sliced at T/2, where half the rows lie past s
HALF_SLICE_SETTINGS = {
    "desk": (SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1), TimeGrid(0.5, 512)),
    "1d-30": (SpectralGrid(dim=1, extent=10.0, modes=30, mass=1.0, sobolev_q=1), TimeGrid(0.4, 32)),
    "2d-16": (SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2), TimeGrid(0.4, 16)),
}


@pytest.mark.parametrize("setting_name", sorted(HALF_SLICE_SETTINGS))
def test_tables_cut_at_s_match_the_tables_over_every_node_bit_for_bit(setting_name):
    grid, tg = HALF_SLICE_SETTINGS[setting_name]
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 1.5), gaussian_field(grid, 0.2, 2.5, 1.0))
    snap = solve(data, 0.3, tg).node(tg.nt // 2)
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 0.5, 2.0, 1.0))
    report = series(psi, snap, -1.0, tg, max_order=6)
    assert [term.order_sum for term in report.per_order] == all_rows_order_amplitudes(psi, snap, tg, 6)


# (grid, time grid): the desk grid at its own nt and a 16^2 grid, sliced at T
SHARED_KERNEL_SETTINGS = {
    "desk": (SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1), TimeGrid(0.5, 512)),
    "2d-16": (SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2), TimeGrid(0.4, 16)),
}
SWEEP_COUPLINGS = [0.05, 0.1, 0.2, 0.4]


@pytest.mark.parametrize("max_order", [0, 1, 4])
@pytest.mark.parametrize("setting_name", sorted(SHARED_KERNEL_SETTINGS))
def test_shared_kernels_give_every_coupling_its_lone_series(setting_name, max_order, monkeypatch):
    grid, tg = SHARED_KERNEL_SETTINGS[setting_name]
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 1.5), gaussian_field(grid, 0.2, 2.5, 1.0))
    slices = [traj.node(tg.nt) for traj in solve_couplings(data, SWEEP_COUPLINGS, tg)]
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 0.5, 2.0, 1.0))
    if max_order < 2:
        # only an order below the last reads a retarded table; up to order 1
        # none may be formed at all
        def refuse(*_):
            raise AssertionError("a retarded table was formed")

        monkeypatch.setattr(importlib.import_module("kgcharge.series"), "_retarded_table", refuse)
        with pytest.raises(AssertionError, match="retarded table"):
            series(psi, slices[0], SWEEP_COUPLINGS[0], tg, 2, target=0.3)
    shared = series_couplings(psi, slices, SWEEP_COUPLINGS, tg, max_order, target=0.3)
    for snap, coupling, got in zip(slices, SWEEP_COUPLINGS, shared, strict=True):
        want = series(psi, snap, coupling, tg, max_order, target=0.3)
        assert got.per_order == want.per_order
        assert got.partial_sums == want.partial_sums
        assert got.residuals == want.residuals
        assert len(got.per_order) == max_order + 1


def test_shared_kernels_need_every_slice_at_one_time(setting, tgrid):
    traj, snap, psi, _, _ = setting
    with pytest.raises(ValueError, match="one time s"):
        series_couplings(psi, [snap, traj.node(3)], [0.1, 0.2], tgrid, 2)
    with pytest.raises(ValueError, match="one slice per coupling"):
        series_couplings(psi, [snap], [0.1, 0.2], tgrid, 2)


# Blocks of 1 node, of 7 (which divides none of the node ranges up to T or
# T/2: 513 and 257, 33 and 17, 17 and 9), of 64 and of the desk's whole 513
SERIES_BLOCKS = [1, 7, 64, 513]
# the half-slice settings and a 16^3 grid, on which SERIES_BLOCK_BYTES gives
# 14 to 31 rows to one slice and 3 to 9 to four, so blocks of 64 and 513
# nodes take the budget's rows
BLOCKED_SETTINGS = {
    **HALF_SLICE_SETTINGS,
    "3d-16": (SpectralGrid(dim=3, extent=10.0, modes=16, mass=1.0, sobolev_q=2), TimeGrid(0.4, 32)),
}


@pytest.mark.parametrize("setting_name", sorted(BLOCKED_SETTINGS))
def test_blocked_recursion_gives_the_whole_axis_fields_bit_for_bit(setting_name, monkeypatch):
    grid, tg = BLOCKED_SETTINGS[setting_name]
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 1.5), gaussian_field(grid, 0.2, 2.5, 1.0))
    trajectories = solve_couplings(data, SWEEP_COUPLINGS, tg)
    for node in (tg.nt, tg.nt // 2):
        for count in (1, 4):
            slices = [traj.node(node) for traj in trajectories[:count]]
            for max_order in (0, 1, 4, 10):
                want = whole_axis_order_fields(slices, tg, max_order)
                for block in SERIES_BLOCKS:
                    monkeypatch.setattr(importlib.import_module("kgcharge.series"), "SERIES_BLOCK", block)
                    got = order_fields(slices, tg, max_order)
                    assert np.array_equal(got, want), (node, count, max_order, block)


def test_blocked_recursion_holds_under_a_third_of_the_whole_axis_working_set():
    # on the desk at order 6 the tracemalloc peaks are 1.7 MiB in blocks of
    # 64 nodes and 6.75 MiB with every table over all 513 nodes
    grid, tg = HALF_SLICE_SETTINGS["desk"]
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), gaussian_field(grid, 0.2, 2.5, 1.0))
    snap = solve(data, 0.2, tg).node(tg.nt)

    def peak(evaluate):
        tracemalloc.start()
        try:
            evaluate([snap], tg, 6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(order_fields) < peak(whole_axis_order_fields) / 3


def test_the_byte_budget_binds_on_3d_grids_and_leaves_the_desk_its_rows(monkeypatch):
    series_module = importlib.import_module("kgcharge.series")
    workspace, rows = series_module._workspace, []

    def recording(*tables):
        rows.append(tables[0][0][1])
        return workspace(*tables)

    monkeypatch.setattr(series_module, "_workspace", recording)
    desk, desk_tg = HALF_SLICE_SETTINGS["desk"]
    data = FieldSnapshot(0.0, gaussian_field(desk, 0.5, 2.0), gaussian_field(desk, 0.2, 2.5, 1.0))
    slices = [traj.node(desk_tg.nt) for traj in solve_couplings(data, SWEEP_COUPLINGS, desk_tg)]
    # the desk's series up to the order cap, and its sweep of four slices at order 3
    for count, max_order in [(1, 10), (4, 3)]:
        order_fields(slices[:count], desk_tg, max_order)
        assert rows[-1] == SERIES_BLOCK == 64
    assert all(block_rows(desk, 1, max_order) == SERIES_BLOCK for max_order in range(1, 11))
    cube, _ = BLOCKED_SETTINGS["3d-16"]
    assert block_rows(cube, 1, 4) < SERIES_BLOCK
    assert block_rows(SpectralGrid(dim=3, extent=20.0, modes=32, mass=1.0, sobolev_q=2), 1, 4) == 2


def test_a_3d_series_holds_under_the_byte_budget_and_its_fixed_tables(rng):
    grid, tg, max_order = SpectralGrid(dim=3, extent=10.0, modes=24, mass=1.0, sobolev_q=2), TimeGrid(0.4, 32), 4
    snap = random_snapshot(grid, rng, time=0.4)
    assert block_rows(grid, 1, max_order) < tg.nnodes
    order_fields([snap], tg, 1)
    tracemalloc.start()
    try:
        order_fields([snap], tg, max_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tables whose size does not depend on the rows: the order fields and
    # the stacked slice; band rows of both kernels for each order's carry (its
    # running total and end term), the top order's row 0 and three more that a
    # carry's update holds; and numpy's buffer for a real operand cast to complex
    half, band_row = 16 * math.prod(grid.half_shape), 2 * 16 * grid.band_omega.size
    fixed = (max_order + 1) * 2 * half + 2 * half + (2 * max_order + 4) * band_row + 16 * np.getbufsize()
    assert peak < SERIES_BLOCK_BYTES + fixed


# (grid, time grid): a 32-mode line and an 8^2 grid, each sliced at T.  By
# order 10 the ratio of successive order sums, the observed radius, is about
# 90 on the line and 100 on the square, so a circle of radius 40 lies
# between a third and a half of it: the aliased orders past the 64 points
# are negligible, and rounding of the samples, which grows as (radius of
# convergence / radius)^n, stays far below the tolerance at order 10.
WITNESS_SETTINGS = {
    "1d-32": (SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1), TimeGrid(0.4, 32)),
    "2d-8": (SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2), TimeGrid(0.4, 16)),
}
WITNESS_RADIUS = 40.0
WITNESS_POINTS = 64


@pytest.mark.parametrize("coupling", [0.0, 0.5])
@pytest.mark.parametrize("setting_name", sorted(WITNESS_SETTINGS))
def test_orders_past_the_tree_tables_match_the_cauchy_and_jet_witnesses(setting_name, coupling):
    grid, tg = WITNESS_SETTINGS[setting_name]
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), gaussian_field(grid, 0.2, 2.5, 1.0))
    snap = solve(data, coupling, tg).node(tg.nt)
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5))
    report = series(psi, snap, -1.0, tg, max_order=11)
    sums = [term.order_sum for term in report.per_order]
    # the circle lies between a third and a half of the observed radius
    assert 2.0 * WITNESS_RADIUS <= abs(sums[10] / sums[11]) <= 3.0 * WITNESS_RADIUS
    # the series' terms are (-lambda)^n times the amplitude sums, the
    # witnesses' the Taylor coefficients in lambda
    signs = (-1.0) ** np.arange(11)
    # completed, to meet the witnesses' full spectra
    fields = signs.reshape((-1,) + (1,) * (1 + grid.dim)) * full_spectrum(grid, order_fields([snap], tg, 10)[0])
    jet = jet_order_fields(snap, tg, 10)
    witnesses = {
        "cauchy": (
            cauchy_order_fields(snap, tg, WITNESS_RADIUS, WITNESS_POINTS),
            cauchy_order_sums(psi, snap, tg, WITNESS_RADIUS, WITNESS_POINTS),
        ),
        "jet": (jet, charges_at_zero(psi, jet)),
    }
    for name, (witness_fields, witness_sums) in witnesses.items():
        for n in range(11):
            gap = np.abs(witness_fields[n] - fields[n]).max()
            assert gap <= 1e-12 * np.abs(fields[n]).max(), (name, n)
            assert abs(witness_sums[n] - signs[n] * sums[n]) <= 1e-12 * abs(sums[n]), (name, n)


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
    ],
    ids=["1d-32", "2d-16"],
)
def test_the_recovered_charge_converges_at_second_order_in_dt(grid):
    # transport's residual certifies the series against the discrete flow at
    # its own dt; against the continuum, the charge recovered from one slice
    # must move like dt^2 as the time grid is refined
    s, coupling = 0.4, 2.0
    snap = FieldSnapshot(s, gaussian_field(grid, 0.5, 2.0), gaussian_field(grid, 0.2, 2.5, 1.0))
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5))
    reports = [series(psi, snap, coupling, TimeGrid(s, nt), max_order=8) for nt in (8, 16, 32)]
    charges = [report.partial_sums[-1] for report in reports]
    steps = [charges[0] - charges[1], charges[1] - charges[2]]
    # the last order's term, the size of the truncation, is far below the steps
    assert all(abs(report.per_order[-1].order_sum) <= 1e-6 * abs(steps[1]) for report in reports)
    assert steps[0] / steps[1] == pytest.approx(4.0, rel=0.01)


def test_series_reproduces_the_linear_charge(grid, tgrid, rng):
    data = random_snapshot(grid, rng)
    psi = random_test_function(grid, rng)
    traj = solve(data, 0.0, tgrid)
    target = bracket_ds(psi, traj.node(0))
    report = series(psi, traj.node(-1), 0.0, tgrid, max_order=2, target=target)
    for partial, residual in zip(report.partial_sums, report.residuals):
        assert partial == pytest.approx(target, abs=1e-10)
        assert residual <= 1e-10


def test_series_converges_order_by_order(setting, tgrid):
    _, snap, psi, coupling, target = setting
    report = series(psi, snap, coupling, tgrid, max_order=4, target=target)
    assert all(
        later < 0.5 * earlier
        for earlier, later in zip(report.residuals, report.residuals[1:])
    )
    assert report.residuals[-1] <= 1e-9 * abs(target)


def test_series_counts_trees_per_order(setting, tgrid):
    _, snap, psi, coupling, target = setting
    report = series(psi, snap, coupling, tgrid, max_order=4, target=target)
    for term in report.per_order:
        assert term.tree_count == catalan(term.order)


def test_order_terms_scale_with_the_coupling(setting, tgrid):
    # amplitudes depend on the data, not on coupling; scaling the coupling
    # from the same slice scales the order-N term by lambda^N exactly
    _, snap, psi, coupling, _ = setting
    r1 = series(psi, snap, coupling, tgrid, max_order=3)
    r2 = series(psi, snap, 2.0 * coupling, tgrid, max_order=3)
    for t1, t2 in zip(r1.per_order, r2.per_order):
        assert t2.order_sum == pytest.approx(2.0**t1.order * t1.order_sum, rel=1e-12)


def test_first_order_truncation_error_is_second_order(grid, tgrid):
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), zero_modes(grid))
    psi = TestFunction(
        gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5)
    )
    residuals = []
    for coupling in (0.1, 0.05):
        traj = solve(data, coupling, tgrid)
        target = bracket_ds(psi, traj.node(0))
        report = series(
            psi, traj.node(-1), coupling, tgrid, max_order=1, target=target
        )
        residuals.append(report.residuals[-1])
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.15)


def test_p_residual_vanishes_at_the_quadrature_level(setting, grid, tgrid, rng):
    traj, _, psi, _, _ = setting
    free = solve(random_snapshot(grid, rng), 0.0, tgrid)
    assert p_residual(psi, free, tgrid.horizon) <= 1e-12
    # the half-kick pattern of the splitting reproduces the trapezoid rule
    # exactly, so the defect stays at rounding level even when coupled
    assert p_residual(psi, traj, tgrid.horizon) <= 1e-10


@pytest.mark.parametrize("coupling", [0.0, 0.3])
@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_p_residual_matches_the_per_node_loop(dim, coupling, rng):
    from kgcharge.spectral import SpectralGrid

    if dim == 1:
        grid = SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1)
    else:
        grid = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2)
    tgrid = TimeGrid(horizon=0.4, nt=16)
    psi = random_test_function(grid, rng)
    solved = solve(random_snapshot(grid, rng), coupling, tgrid)
    # random node data is no solution, so its defect is O(1), not a cancellation
    unsolved = stacked_trajectory(tgrid, [random_snapshot(grid, rng, t) for t in tgrid.nodes], coupling)
    for traj in (solved, unsolved):
        scale = abs(bracket_ds(psi, traj.node(0)))
        for s in (0.4, 0.2):
            want = per_node_p_residual(psi, traj, s)
            assert p_residual(psi, traj, s) == pytest.approx(want, rel=1e-14, abs=1e-14 * scale)
    assert per_node_p_residual(psi, unsolved, 0.4) > 1e-3 * abs(bracket_ds(psi, unsolved.node(0)))


# (grid, time grid): a 30-mode line and a 16^2 grid, each over T = 0.5
FIRST_HALF_SETTINGS = {
    "1d-30": (SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1), TimeGrid(0.5, 64)),
    "2d-16": (SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2), TimeGrid(0.5, 32)),
}


@pytest.mark.parametrize("setting_name", sorted(FIRST_HALF_SETTINGS))
def test_p_residual_at_half_time_is_the_residual_of_the_first_half_bit_for_bit(setting_name, rng):
    grid, tg = FIRST_HALF_SETTINGS[setting_name]
    half_tg = TimeGrid(tg.horizon / 2, tg.nt // 2)
    keep = half_tg.nnodes
    assert np.array_equal(half_tg.nodes, tg.nodes[:keep])
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), zero_modes(grid))
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5))
    solved = solve(data, 0.3, tg)
    # random node data is no solution, so its defect is O(1), not a cancellation
    unsolved = stacked_trajectory(tg, [random_snapshot(grid, rng, t) for t in tg.nodes], 0.3)
    for traj in (solved, unsolved):
        first_half = stacked_trajectory(half_tg, [traj.node(j) for j in range(keep)], traj.coupling)
        assert p_residual(psi, traj, half_tg.horizon) == p_residual(psi, first_half, half_tg.horizon)


def test_radius_bound_formula(setting, grid):
    _, snap, _, _, _ = setting
    c_q = 0.5
    window = 0.4
    norms = sobolev_norm(snap.phi) + sobolev_norm(snap.pi)
    expected = 1.0 / (4.0 * c_q * max(1.0 / grid.mass, 1.0) * window * norms)
    assert radius_bound(snap, window, c_q) == pytest.approx(expected, rel=1e-12)


def test_radius_bound_refuses_a_slice_whose_norms_vanish(grid):
    zero = FieldSnapshot(0.4, zero_modes(grid), zero_modes(grid))
    with pytest.raises(ValueError, match="norms are both 0"):
        radius_bound(zero, 0.4, 0.5)
    with pytest.raises(ValueError, match="c_q must be positive"):
        radius_bound(zero, 0.4, 0.0)


def test_convergence_condition_brackets():
    assert convergence_condition(0.0, 0.5, 1.0, 0.5, 1.0)
    assert not convergence_condition(10.0, 0.5, 1.0, 0.5, 1.0)


def test_first_order_bound_shape():
    low = first_order_bound(0.1, 0.5, 1.0, 0.5, 1.0, 1.0)
    high = first_order_bound(0.2, 0.5, 1.0, 0.5, 1.0, 1.0)
    assert 0.0 < low < high
    assert high / low == pytest.approx(4.0, rel=0.05)


def test_measured_residual_obeys_the_first_order_bound(setting, grid, tgrid):
    from oracles import field_energy_norm
    from kgcharge.spectral import estimate_algebra_constant

    traj, snap, psi, coupling, target = setting
    report = series(psi, snap, coupling, tgrid, max_order=1, target=target)
    c_q = estimate_algebra_constant(grid)
    bound = first_order_bound(
        coupling,
        snap.time,
        grid.mass,
        c_q,
        field_energy_norm(traj),
        sup_norm(psi, tgrid),
    )
    assert report.residuals[-1] <= 1.1 * bound


def test_delta_norm_bound_check_holds_through_order_three(grid, tgrid):
    psi = TestFunction(
        gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5)
    )
    for order in range(4):
        for b in enumerate_trees(order):
            check = delta_norm_bound_check(b, psi, tgrid, c_q=0.9, samples=6)
            assert isinstance(check, DeltaNormCheck)
            assert check
            assert check.ratio <= check.bound


def test_delta_norm_bound_check_refuses_order_four(grid, tgrid):
    psi = TestFunction(
        gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5)
    )
    b = enumerate_trees(4)[0]
    with pytest.raises(OrderTooHigh):
        delta_norm_bound_check(b, psi, tgrid, c_q=0.9)


def test_delta_norm_bound_check_rejects_zero_psi(grid, tgrid):
    psi = TestFunction(zero_modes(grid), zero_modes(grid))
    with pytest.raises(ValueError):
        delta_norm_bound_check(leaf(), psi, tgrid, c_q=0.9)


def test_the_sampled_ratio_is_the_per_node_tree_functional(grid, tgrid):
    # the check's value, not only its bound: its draws, replayed with its
    # seed and in its order, through green_apply legs, pointwise products
    # and one pairing with psi per node
    psi = TestFunction(gaussian_field(grid, 1.0, 3.0, 0.5), gaussian_field(grid, 1.0, 3.0, 0.5))
    samples, seed = 3, 11
    for order in range(3):
        for b in enumerate_trees(order):
            check = delta_norm_bound_check(b, psi, tgrid, c_q=0.9, samples=samples, seed=seed)
            rng = np.random.default_rng(seed)
            values = []
            for _ in range(samples):
                drawn = []
                for _ in range(leaf_count(b)):
                    f = random_band_limited(grid, rng)
                    f.values /= sobolev_norm(f)
                    drawn.append((int(rng.integers(0, tgrid.nt + 1)), int(rng.integers(0, 2)), f))
                values.append(per_node_sampled_value(b, drawn, psi, tgrid))
            assert max(map(abs, values)) > 0.0
            assert check.ratio == pytest.approx(max(map(abs, values)) / sup_norm(psi, tgrid), rel=1e-12)


def test_sup_norm_dominates_the_initial_slice(grid, tgrid, rng):
    psi = random_test_function(grid, rng)
    sup = sup_norm(psi, tgrid)
    at0 = evaluate_test_function(psi, 0.0)
    assert sup >= float(sobolev_norms_at(grid, full_spectrum(grid, at0.phi.values), -grid.sobolev_q)) - 1e-12


def test_readout_recovers_the_free_field(grid):
    from kgcharge.solver import dirac_test_function
    from kgcharge.spectral import evaluate_at
    from oracles import pair_modes

    tg = TimeGrid(horizon=0.4, nt=64)
    data = FieldSnapshot(0.0, gaussian_field(grid, 0.5, 2.0), zero_modes(grid))
    traj = solve(data, 0.0, tg)
    x0, width = 3.0, 0.8
    phi_est, dtphi_est = readout(traj.node(tg.node_index(0.4)), 0.0, tg, x0, width, max_order=1)
    # at zero coupling the estimate equals the bump-smoothed field exactly
    bump = dirac_test_function(grid, x0, width).psi1
    smoothed = complex(pair_modes(data.phi, bump)).real
    assert phi_est == pytest.approx(smoothed, abs=1e-10)
    # and the smoothing itself stays close to the point value
    assert abs(smoothed - evaluate_at(data.phi, x0)) <= 2e-2
    assert abs(dtphi_est) <= 1e-8


def test_readout_equals_two_series_runs(setting, grid, tgrid):
    from kgcharge.solver import dirac_test_function

    traj, _, _, coupling, _ = setting
    x0, width, max_order = 3.0, 0.8, 3
    phi_est, dtphi_est = readout(traj.node(tgrid.node_index(tgrid.horizon)), coupling, tgrid, x0, width, max_order)
    snap = traj.node(tgrid.node_index(tgrid.horizon))
    expected = []
    for which in ("velocity", "position"):
        probe = dirac_test_function(grid, x0, width, which)
        expected.append(series(probe, snap, coupling, tgrid, max_order).partial_sums[-1])
    assert phi_est == pytest.approx(expected[0], rel=1e-12)
    assert dtphi_est == pytest.approx(-expected[1], rel=1e-12)

"""Strang-split integrator, field factories, and energy bookkeeping."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_snapshot, stacked_trajectory
from kgcharge.propagation import TimeGrid, free_evolve
from kgcharge.solver import (
    BLOCK,
    BlowUp,
    TestFunction,
    Trajectory,
    WidthTooSmall,
    dirac_test_function,
    evaluate_test_function,
    gaussian_field,
    solve,
    solve_couplings,
)
from kgcharge.spectral import (
    FieldSnapshot,
    GridMismatch,
    SizeMismatch,
    SpectralGrid,
    evaluate_at,
    sobolev_norm,
    to_modes,
)
from oracles import (
    FullSpectrum,
    acceleration,
    field_energy_norm,
    full_spectrum,
    node_energies,
    node_energy,
    per_node_field_energy_norm,
    per_node_solve_couplings,
    strang_with_fresh_kicks,
    to_grid,
    zero_modes,
)

# A 1-D grid and an 8 x 8 grid for the checks that the stacked and shared
# squares reproduce the one-product-per-call loops bit for bit.
EXACT_GRIDS = [
    SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2),
]


def gaussian_data(grid, amplitude=0.5, width=2.0):
    return FieldSnapshot(0.0, gaussian_field(grid, amplitude, width), zero_modes(grid))


def test_free_coupling_reduces_to_free_evolution(small_grid, rng):
    snap = random_snapshot(small_grid, rng)
    tg = TimeGrid(horizon=0.5, nt=20)
    traj = solve(snap, 0.0, tg)
    exact = free_evolve(snap, 0.5)
    # stepping composes 20 mode rotations, so equality holds to rounding
    np.testing.assert_allclose(traj.node(-1).phi.values, exact.phi.values, atol=1e-13)
    np.testing.assert_allclose(traj.node(-1).pi.values, exact.pi.values, atol=1e-13)


def test_trajectory_shape_and_times(small_grid):
    tg = TimeGrid(horizon=0.5, nt=8)
    traj = solve(gaussian_data(small_grid), 0.1, tg)
    assert traj.phi.shape == traj.pi.shape == (tg.nnodes, *small_grid.half_shape)
    np.testing.assert_allclose([traj.node(j).time for j in range(tg.nnodes)], tg.nodes)
    assert traj.coupling == 0.1
    assert traj.node(3).time == pytest.approx(tg.nodes[3])


def test_energy_is_conserved(small_grid):
    tg = TimeGrid(horizon=1.0, nt=256)
    for coupling, tol in ((0.0, 1e-10), (0.2, 1e-6)):
        traj = solve(gaussian_data(small_grid), coupling, tg)
        # E_0 is below 1, so the drift the solver records, relative to
        # max(1, |E_0|), is the absolute one
        assert node_energies(traj)[0] < 1.0
        assert traj.meta["energy_drift"] <= tol


def test_splitting_converges_at_second_order(small_grid):
    data = gaussian_data(small_grid)
    coupling = 0.5
    reference = solve(data, coupling, TimeGrid(1.0, 2048)).node(-1)

    def endpoint_error(nt):
        end = solve(data, coupling, TimeGrid(1.0, nt)).node(-1)
        return sobolev_norm(
            to_modes(small_grid, to_grid(end.phi) - to_grid(reference.phi))
        )

    e1, e2 = endpoint_error(32), endpoint_error(64)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize("coupling", [0.0, 0.3])
@pytest.mark.parametrize("grid", EXACT_GRIDS, ids=["1d", "2d"])
def test_solve_matches_fresh_kicks_bit_for_bit(grid, coupling, rng):
    # one square per node, shared by two half kicks, against two fresh ones
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=16)
    traj = solve(data, coupling, tg)
    literal = strang_with_fresh_kicks(data, coupling, tg)
    # node 0 is the data as given
    np.testing.assert_array_equal(traj.phi, literal.phi)
    np.testing.assert_array_equal(traj.pi, literal.pi)


@pytest.mark.parametrize("coupling", [0.0, 0.3])
@pytest.mark.parametrize("grid", EXACT_GRIDS, ids=["1d", "2d"])
def test_stacked_node_diagnostics_match_the_per_node_loops(grid, coupling, rng):
    tg = TimeGrid(horizon=0.5, nt=16)
    solved = solve(random_snapshot(grid, rng), coupling, tg)
    # random node data under a coupling large enough that the cubic term
    # dominates the energy, so the last bits of every pairing show
    loud = stacked_trajectory(tg, [random_snapshot(grid, rng, t) for t in tg.nodes], 1e3 * coupling)
    for traj in (solved, loud):
        assert field_energy_norm(traj) == per_node_field_energy_norm(traj)
        nodes = [traj.node(j) for j in range(tg.nnodes)]
        literal = [node_energy(snap, traj.coupling) for snap in nodes]
        assert node_energies(traj).tolist() == literal


# Couplings for the stacked solves: zero (no kick), a negative and a large one
STACK_COUPLINGS = [0.3, 0.0, -0.4, 20.0]
STACK_GRIDS = [
    SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2),
]


def assert_same_trajectory(got, want):
    """got's tables are want's leading columns, bit for bit.

    want may hold full spectra (a SteppedTrajectory on FullSpectrum), where got keeps the half.
    """
    assert got.coupling == want.coupling
    assert got.meta == want.meta
    assert got.tgrid.nnodes == want.tgrid.nnodes
    columns = got.phi.shape[-1]
    # bytes, so the sign of a zero counts too
    assert got.phi.tobytes() == want.phi[..., :columns].tobytes()
    assert got.pi.tobytes() == want.pi[..., :columns].tobytes()


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=["1d-32", "1d-30", "2d-8"])
def test_stacked_couplings_match_lone_solves_bit_for_bit(grid, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=16)
    stacked = solve_couplings(data, STACK_COUPLINGS, tg)
    assert len(stacked) == len(STACK_COUPLINGS)
    for coupling, traj in zip(STACK_COUPLINGS, stacked):
        assert_same_trajectory(traj, solve(data, coupling, tg))


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=["1d-32", "1d-30", "2d-8"])
def test_in_loop_norm_is_the_field_energy_norm(grid, rng):
    data = random_snapshot(grid, rng)
    for traj in solve_couplings(data, STACK_COUPLINGS, TimeGrid(horizon=0.5, nt=16)):
        assert traj.meta["phi_e_norm"] == field_energy_norm(traj)


def test_the_full_spectrum_reference_steps_a_complex_coupling_as_fresh_kicks(rng):
    # the reversed-flow identity needs lambda off the real axis, where the
    # fields are complex: the oracles step it on the full spectrum, so that
    # no transform drops an imaginary part
    grid = STACK_GRIDS[0]
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=16)
    full = FullSpectrum(grid)
    coupling = 0.3 + 0.2j
    traj = per_node_solve_couplings(data, [coupling], tg, layout=full)[0]
    literal = strang_with_fresh_kicks(data, coupling, tg, layout=full)
    assert traj.phi.tobytes() == literal.phi.tobytes()
    assert traj.pi.tobytes() == literal.pi.tobytes()
    assert np.abs(traj.phi[1:].imag).max() > 0.0
    assert traj.meta["phi_e_norm"] == field_energy_norm(traj, full)
    couplings = [0.2, coupling, 0.0]
    for c, stacked in zip(couplings, per_node_solve_couplings(data, couplings, tg, layout=full)):
        assert_same_trajectory(stacked, per_node_solve_couplings(data, [c], tg, layout=full)[0])


# The desk grid, a grid off the powers of two and a 2-D grid, for the check
# that real fields step on the half spectrum as the oracles' reference steps
# them on the full complex one
LAYOUT_GRIDS = [
    SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
]


# The layout grids and a 3-D one, for the check of the energies the
# solver's loop forms against the second pass
ENERGY_GRIDS = LAYOUT_GRIDS + [SpectralGrid(dim=3, extent=10.0, modes=8, mass=1.0, sobolev_q=2)]


# nt 4 ends inside the first block, nt 17 one node into the second
@pytest.mark.parametrize("nt", [4, 17])
@pytest.mark.parametrize("couplings", [[0.0], [0.3], [0.3, 0.0, -0.4, 1.0]], ids=["free", "lone", "stack"])
@pytest.mark.parametrize("grid", ENERGY_GRIDS, ids=["desk", "1d-30", "2d-16", "3d-8"])
def test_the_loop_energies_match_the_second_pass(grid, couplings, nt, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=nt)
    for traj in solve_couplings(data, couplings, tg):
        want = node_energies(traj)
        scale = max(1.0, abs(want[0]))
        assert abs(traj.meta["energy_drift"] - np.max(np.abs(want - want[0])) / scale) <= 1e-14 * scale
        # every node's energy, from the square the loop kicks with
        got = grid.energies(traj.phi, traj.pi, traj.coupling * grid.square(traj.phi))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def assert_close_rows(got, want, rel):
    """Every row of got within rel of want, relative to the row's largest entry."""
    for a, b in zip(got, want, strict=True):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_real_fields_on_the_half_spectrum_match_the_full_complex_path(grid, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=16)
    half = solve_couplings(data, STACK_COUPLINGS, tg)
    full = per_node_solve_couplings(data, STACK_COUPLINGS, tg, layout=FullSpectrum(grid))
    for got, want in zip(half, full, strict=True):
        phi, pi = full_spectrum(grid, got.phi), full_spectrum(grid, got.pi)
        assert_close_rows(phi, want.phi, 1e-12)
        assert_close_rows(pi, want.pi, 1e-12)
        assert got.meta["phi_e_norm"] == pytest.approx(want.meta["phi_e_norm"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_a_blow_up_names_the_same_node_and_coupling_in_both_layouts(grid):
    data = gaussian_data(grid, amplitude=2.0)
    tg = TimeGrid(1.0, 64)
    ceiling = 1.5 * sobolev_norm(data.phi)
    couplings = [0.1, 5.0, 0.2, 9.0]
    with pytest.raises(BlowUp) as half:
        solve_couplings(data, couplings, tg, norm_ceiling=ceiling)
    with pytest.raises(BlowUp) as full:
        per_node_solve_couplings(data, couplings, tg, norm_ceiling=ceiling, layout=FullSpectrum(grid))
    assert (str(half.value), half.value.coupling) == (str(full.value), full.value.coupling)
    assert half.value.coupling == 9.0


def ceiling_first_crossed_at(data, couplings, tg, node):
    """A norm ceiling that the stack's phi or pi first crosses at the given node."""
    grid = data.grid
    top = np.max(
        [np.maximum(grid.norms(t.phi), grid.norms(t.pi)) for t in solve_couplings(data, couplings, tg)],
        axis=0,
    )
    # node 0 is the initial data, which the first block tests like any node
    if node == 0:
        return 0.5 * top[0]
    below = top[:node].max()
    if node == 1:
        # one step grows each row's norms by parts in 1e4, in proportion to
        # its negative coupling: three quarters of the way up, only the
        # fastest row crosses
        assert top[1] > below
        return below + 0.75 * (top[1] - below)
    assert top[node] > 1.01 * below
    return 0.5 * (below + top[node])


# Crossings at the initial data, at node 1, at the last node of the first
# block, at the first node of the next and the one after it, and at the final
# node of a grid whose nt is not a multiple of the block
BLOCK_EDGE_NODES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 40]


@pytest.mark.parametrize("node", BLOCK_EDGE_NODES)
@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_a_blow_up_at_a_block_edge_names_the_node_of_the_per_node_loops(grid, node):
    # under a negative coupling the bump grows at every node, the fastest
    # for the largest magnitude, which sits last in the list
    data = gaussian_data(grid, amplitude=2.0)
    tg = TimeGrid(0.25, 40)
    assert tg.nt % BLOCK != 0
    couplings = [0.1, -5.0, 0.2, -9.0]
    stack_ceiling = ceiling_first_crossed_at(data, couplings, tg, node)
    lone_ceiling = ceiling_first_crossed_at(data, [-9.0], tg, node)
    with pytest.raises(BlowUp) as stacked:
        solve_couplings(data, couplings, tg, norm_ceiling=stack_ceiling)
    assert str(stacked.value).endswith(f"t={float(tg.nodes[node])}")
    with pytest.raises(BlowUp) as alone:
        solve(data, -9.0, tg, norm_ceiling=lone_ceiling)
    assert str(alone.value).endswith(f"t={float(tg.nodes[node])}")
    named = [(str(stacked.value), stacked.value.coupling, str(alone.value))]
    # the per-node loops on the solver's half spectrum and on the full one
    for layout in (grid, FullSpectrum(grid)):
        with pytest.raises(BlowUp) as per_node:
            per_node_solve_couplings(data, couplings, tg, norm_ceiling=stack_ceiling, layout=layout)
        with pytest.raises(BlowUp) as literal:
            strang_with_fresh_kicks(data, -9.0, tg, norm_ceiling=lone_ceiling, layout=layout)
        named.append((str(per_node.value), per_node.value.coupling, str(literal.value)))
    assert named[0] == named[1] == named[2]
    # at node 0 every row crosses, and the first in list order is named
    assert named[0][1] == (0.1 if node == 0 else -9.0)


@pytest.mark.parametrize("nt", [15, BLOCK, BLOCK + 1, 40])
@pytest.mark.parametrize("grid", STACK_GRIDS, ids=["1d-32", "1d-30", "2d-8"])
def test_blocks_keep_the_trajectories_and_peak_norms_of_the_per_node_loop(grid, nt, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=nt)
    stacked = solve_couplings(data, STACK_COUPLINGS, tg)
    for got, want in zip(stacked, per_node_solve_couplings(data, STACK_COUPLINGS, tg), strict=True):
        # the meta holds phi_e_norm, compared with ==
        assert_same_trajectory(got, want)


def test_a_desk_solve_takes_the_norms_once_per_block(monkeypatch):
    grid = LAYOUT_GRIDS[0]
    tg = TimeGrid(0.5, 512)
    calls = []
    norms = SpectralGrid.norms

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape)
        return norms(self, *args, **kwargs)

    monkeypatch.setattr(SpectralGrid, "norms", counted)
    solve(gaussian_data(grid), 0.2, tg)
    # one call per block of BLOCK nodes from node 0, as many as node 0 alone
    # and then one per block of BLOCK steps would take
    assert len(calls) == 1 + math.ceil(tg.nt / BLOCK) == math.ceil(tg.nnodes / BLOCK) == 33


def test_a_sweep_solve_holds_under_six_tenths_of_the_full_tables():
    # the desk sweep's four couplings: full tables of phi and pi at every
    # node would take 2 x 4 x 513 x 128 complex entries, 8.4 MB
    grid = LAYOUT_GRIDS[0]
    tg = TimeGrid(0.5, 512)
    couplings = [0.05, 0.1, 0.2, 0.4]
    full_bytes = 2 * len(couplings) * tg.nnodes * grid.npoints * np.dtype(complex).itemsize
    data = gaussian_data(grid)
    tracemalloc.start()
    try:
        trajectories = solve_couplings(data, couplings, tg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trajectories) == len(couplings)
    assert peak < 0.6 * full_bytes, (peak, full_bytes)


# The desk grid and a 16^2 grid, for the checks of a solve that returns the
# slice at one node
AT_GRIDS = [LAYOUT_GRIDS[0], LAYOUT_GRIDS[2]]


# on 40 steps: the nodes at T, at T/2 and at 0, and the nodes on both sides
# of the first block edge
@pytest.mark.parametrize("at", [40, 20, 0, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("grid", AT_GRIDS, ids=["desk", "2d-16"])
def test_the_slice_at_a_node_holds_the_rows_of_the_full_solve(grid, at, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(0.5, 40)
    full = solve_couplings(data, STACK_COUPLINGS, tg)
    slices = solve_couplings(data, STACK_COUPLINGS, tg, at=at)
    for got, want in zip(slices, full, strict=True):
        assert isinstance(got, FieldSnapshot)
        assert got.time == want.node(at).time
        # bytes, so the sign of a zero counts too
        assert got.phi.values.tobytes() == want.phi[at].tobytes()
        assert got.pi.values.tobytes() == want.pi[at].tobytes()


@pytest.mark.parametrize("at", [-1, 41])
def test_a_slice_outside_the_nodes_is_refused(at, small_grid):
    with pytest.raises(ValueError, match="at must be a node index"):
        solve_couplings(gaussian_data(small_grid), [0.2], TimeGrid(0.5, 40), at=at)


# a slice on both sides of the first block edge, and the last node, past
# every crossing but the last one, so the blow-up names a node never stored;
# crossings mid-block (nodes 1 and 40) and at the block edges
@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK, 40])
@pytest.mark.parametrize("node", BLOCK_EDGE_NODES)
@pytest.mark.parametrize("grid", AT_GRIDS, ids=["desk", "2d-16"])
def test_a_slice_blows_up_at_the_node_and_coupling_of_the_full_solve(grid, node, at):
    data = gaussian_data(grid, amplitude=2.0)
    tg = TimeGrid(0.25, 40)
    couplings = [0.1, -5.0, 0.2, -9.0]
    ceiling = ceiling_first_crossed_at(data, couplings, tg, node)
    named = []
    for node_at in (None, at):
        with pytest.raises(BlowUp) as exc:
            solve_couplings(data, couplings, tg, norm_ceiling=ceiling, at=node_at)
        named.append((str(exc.value), exc.value.coupling))
    assert named[0] == named[1]
    assert named[1][0].endswith(f"t={float(tg.nodes[node])}")


def test_a_slice_forms_no_node_energies(monkeypatch):
    def refuse(*_):
        raise AssertionError("node energies were formed")

    monkeypatch.setattr(SpectralGrid, "energies", refuse)
    grid = LAYOUT_GRIDS[0]
    tg = TimeGrid(0.5, 512)
    slices = solve_couplings(gaussian_data(grid), [0.05, 0.1, 0.2, 0.4], tg, at=256)
    assert len(slices) == 4
    with pytest.raises(AssertionError, match="node energies"):
        solve(gaussian_data(grid), 0.2, tg)


def test_a_sweep_solve_for_its_slice_holds_under_a_tenth_of_the_full_tables():
    # the desk sweep's four couplings, asking for node j_s alone: the full
    # tables would take 2 x 4 x 513 x 128 complex entries, 8.4 MB
    grid = LAYOUT_GRIDS[0]
    tg = TimeGrid(0.5, 512)
    couplings = [0.05, 0.1, 0.2, 0.4]
    full_bytes = 2 * len(couplings) * tg.nnodes * grid.npoints * np.dtype(complex).itemsize
    data = gaussian_data(grid)
    tracemalloc.start()
    try:
        slices = solve_couplings(data, couplings, tg, at=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(slices) == len(couplings)
    assert peak < 0.1 * full_bytes, (peak, full_bytes)


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_a_complex_coupling_is_refused(grid):
    # a complex coupling kicks real data off the reals, and the half
    # spectrum would drop its imaginary kicks
    data = gaussian_data(grid)
    tg = TimeGrid(0.5, 64)
    with pytest.raises(ValueError, match="real numbers"):
        solve_couplings(data, [0.2, 0.3 + 0.2j], tg)
    with pytest.raises(ValueError, match="real numbers"):
        solve(data, 0.3 + 0.2j, tg)


def test_a_stack_stops_at_the_first_node_any_coupling_crosses(small_grid):
    data = gaussian_data(small_grid, amplitude=2.0)
    tg = TimeGrid(1.0, 64)
    ceiling = 1.5 * sobolev_norm(data.phi)
    lone = {}
    for coupling in (5.0, 9.0):
        with pytest.raises(BlowUp) as exc:
            solve(data, coupling, tg, norm_ceiling=ceiling)
        assert exc.value.coupling == coupling
        lone[coupling] = str(exc.value)
    assert lone[5.0] != lone[9.0]
    # 9.0 crosses first although 5.0 comes first in the list
    with pytest.raises(BlowUp) as stacked:
        solve_couplings(data, [0.1, 5.0, 0.2, 9.0], tg, norm_ceiling=ceiling)
    assert str(stacked.value) == lone[9.0]
    assert stacked.value.coupling == 9.0
    # 9.5 crosses at 9.0's node too: the first in list order is named
    with pytest.raises(BlowUp) as tied:
        solve_couplings(data, [0.1, 9.0, 9.5], tg, norm_ceiling=ceiling)
    assert str(tied.value) == lone[9.0]
    assert tied.value.coupling == 9.0


def test_blow_up_is_reported(small_grid):
    data = gaussian_data(small_grid, amplitude=2.0)
    with pytest.raises(BlowUp):
        solve(data, 0.2, TimeGrid(1.0, 64), norm_ceiling=1.0)


def test_blow_up_names_the_node_of_the_fresh_kick_loop(small_grid):
    data = gaussian_data(small_grid, amplitude=2.0)
    tg = TimeGrid(1.0, 64)
    ceiling = 1.5 * sobolev_norm(data.phi)
    with pytest.raises(BlowUp) as literal:
        strang_with_fresh_kicks(data, 5.0, tg, norm_ceiling=ceiling)
    with pytest.raises(BlowUp) as shared:
        solve(data, 5.0, tg, norm_ceiling=ceiling)
    assert str(shared.value) == str(literal.value)
    assert "t=1.0" not in str(shared.value)


def test_energy_closed_form_single_mode(small_grid):
    # phi = a cos(k x), pi = 0: E = (m^2 + k^2) a^2 V / 4 at zero coupling
    a = 0.7
    k1 = 2.0 * np.pi / small_grid.extent
    phi = to_modes(small_grid, a * np.cos(k1 * small_grid.axis_points))
    snap = FieldSnapshot(0.0, phi, zero_modes(small_grid))
    expected = (small_grid.mass**2 + k1**2) * a**2 * small_grid.volume / 4.0
    # a trajectory whose every node holds that snapshot
    tg = TimeGrid(horizon=0.5, nt=2)
    traj = stacked_trajectory(tg, [snap] * tg.nnodes, 0.0)
    assert node_energies(traj) == pytest.approx([expected] * tg.nnodes, rel=1e-12)


def test_a_gaussian_far_below_the_spacing_is_exact_without_a_warning(small_grid):
    # 2 w^2 = 2e-320 sends d^2 / (2 w^2) to inf off the centre, and
    # exp(-inf) = 0; the suite turns a RuntimeWarning into an error
    between = gaussian_field(small_grid, 1.0, 1e-160, 0.5 * small_grid.spacing)
    assert not between.values.any()
    on_a_point = to_grid(gaussian_field(small_grid, 1.0, 1e-160, small_grid.spacing))
    np.testing.assert_allclose(on_a_point, np.eye(small_grid.modes)[1], atol=1e-12)


def test_acceleration_single_mode(small_grid):
    k1 = 4.0 * np.pi / small_grid.extent
    phi = to_modes(small_grid, np.cos(k1 * small_grid.axis_points))
    snap = FieldSnapshot(0.0, phi, zero_modes(small_grid))
    acc = acceleration(snap, 0.0)
    np.testing.assert_allclose(
        acc.values, -(small_grid.mass**2 + k1**2) * phi.values, atol=1e-10
    )


def test_acceleration_includes_the_nonlinearity(small_grid):
    snap = gaussian_data(small_grid, amplitude=1.0)
    free = acceleration(snap, 0.0)
    forced = acceleration(snap, 0.3)
    diff = to_grid(forced) - to_grid(free)
    # the forcing is -coupling phi^2 up to the dealiasing projection
    expected = -0.3 * to_grid(snap.phi) ** 2
    np.testing.assert_allclose(diff, expected, atol=1e-4)


def test_gaussian_field_peak_and_periodicity(small_grid):
    f = gaussian_field(small_grid, amplitude=1.0, width=2.0, center=5.0)
    assert evaluate_at(f, 5.0) == pytest.approx(1.0, abs=1e-6)
    assert evaluate_at(f, 7.0) == pytest.approx(np.exp(-(2.0**2) / (2.0 * 2.0**2)), abs=1e-6)
    # a bump centered at the seam wraps around smoothly
    edge = gaussian_field(small_grid, amplitude=1.0, width=2.0, center=0.0)
    assert evaluate_at(edge, small_grid.extent - 1.0) == pytest.approx(
        evaluate_at(edge, 1.0), rel=1e-10
    )


@pytest.mark.parametrize("width", [1e154, 1.4e154, 1e300, 1e-300], ids=["2w2-inf", "w2-inf", "huge", "w2-zero"])
def test_gaussian_field_refuses_a_width_whose_denominator_leaves_the_floats(small_grid, width):
    # 2 * width**2 overflows to inf (through width**2 or the doubling) or underflows to 0
    with pytest.raises(ValueError, match=r"must be positive and 2 \* width\*\*2 a finite float above 0"):
        gaussian_field(small_grid, 1.0, width)


def test_field_energy_norm_dominates_every_node(small_grid):
    tg = TimeGrid(horizon=0.5, nt=32)
    traj = solve(gaussian_data(small_grid), 0.2, tg)
    bound = field_energy_norm(traj)
    for snap in (traj.node(j) for j in range(tg.nnodes)):
        assert sobolev_norm(snap.phi) <= bound + 1e-12
        assert sobolev_norm(snap.pi) <= bound + 1e-12
        assert sobolev_norm(acceleration(snap, 0.2)) <= bound + 1e-12


def test_evaluate_test_function(small_grid, rng):
    psi = TestFunction(
        gaussian_field(small_grid, 1.0, 2.0, 3.0), gaussian_field(small_grid, 0.5, 1.5, 8.0)
    )
    at0 = evaluate_test_function(psi, 0.0)
    np.testing.assert_array_equal(at0.phi.values, psi.psi0.values)
    np.testing.assert_array_equal(at0.pi.values, psi.psi1.values)
    at_t = evaluate_test_function(psi, 0.3)
    exact = free_evolve(FieldSnapshot(0.0, psi.psi0, psi.psi1), 0.3)
    np.testing.assert_array_equal(at_t.phi.values, exact.phi.values)


def test_dirac_test_function_slots_and_mass(small_grid):
    tf_v = dirac_test_function(small_grid, 10.0, 1.0, "velocity")
    assert sobolev_norm(tf_v.psi0) == 0.0
    assert sobolev_norm(tf_v.psi1) > 0.0
    tf_p = dirac_test_function(small_grid, 10.0, 1.0, "position")
    assert sobolev_norm(tf_p.psi1) == 0.0
    # the bump integrates to one, like the Dirac mass it approximates
    total = small_grid.spacing * to_grid(tf_v.psi1).sum()
    assert total == pytest.approx(1.0, rel=1e-8)


def test_dirac_test_function_validation(small_grid):
    with pytest.raises(WidthTooSmall):
        dirac_test_function(small_grid, 10.0, 0.5 * small_grid.spacing)
    with pytest.raises(ValueError):
        dirac_test_function(small_grid, 10.0, 1.0, "sideways")


def test_grid_mismatch_is_rejected(small_grid, rng):
    other = SpectralGrid(dim=1, extent=20.0, modes=64, mass=1.0, sobolev_q=1)
    with pytest.raises(GridMismatch):
        TestFunction(gaussian_field(small_grid, 1.0, 2.0), gaussian_field(other, 1.0, 2.0))
    tg = TimeGrid(horizon=0.5, nt=4)
    traj = stacked_trajectory(tg, [random_snapshot(small_grid, rng, t) for t in tg.nodes], 0.0)
    # arrays of another grid, or of the wrong node count, do not make a trajectory
    with pytest.raises(SizeMismatch):
        Trajectory(tg, other, traj.phi, traj.pi, 0.0)
    with pytest.raises(SizeMismatch):
        Trajectory(tg, small_grid, traj.phi, traj.pi[:-1], 0.0)
    with pytest.raises(SizeMismatch):
        Trajectory(TimeGrid(horizon=0.5, nt=8), small_grid, traj.phi, traj.pi, 0.0)

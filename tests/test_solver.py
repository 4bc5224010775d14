"""Strang-split integrator, field factories, and energy bookkeeping."""

import math

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
    node_energies,
    solve,
    solve_couplings,
)
from kgcharge.spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SizeMismatch,
    SpectralGrid,
    SpectrumLayout,
    evaluate_at,
    sobolev_norm,
    to_modes,
)
from oracles import (
    acceleration,
    field_energy_norm,
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
    assert traj.phi.shape == traj.pi.shape == (tg.nnodes, *small_grid.shape)
    np.testing.assert_allclose([traj.node(j).time for j in range(tg.nnodes)], tg.nodes)
    assert traj.coupling == 0.1
    assert traj.node(3).time == pytest.approx(tg.nodes[3])


def test_energy_is_conserved(small_grid):
    tg = TimeGrid(horizon=1.0, nt=256)
    for coupling, tol in ((0.0, 1e-10), (0.2, 1e-6)):
        traj = solve(gaussian_data(small_grid), coupling, tg)
        energies = node_energies(traj)
        drift = max(abs(e - energies[0]) for e in energies)
        assert drift <= tol


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
    nodes = [traj.node(j) for j in range(tg.nnodes)]
    assert [s.time for s in nodes] == [s.time for s in literal]
    for got, want in zip(nodes, literal):
        np.testing.assert_array_equal(got.phi.values, want.phi.values)
        np.testing.assert_array_equal(got.pi.values, want.pi.values)
        assert (got.phi.real_field, got.pi.real_field) == (want.phi.real_field, want.pi.real_field)


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
    assert got.coupling == want.coupling
    assert got.meta == want.meta
    assert got.tgrid.nnodes == want.tgrid.nnodes
    for a, b in ((got.node(j), want.node(j)) for j in range(got.tgrid.nnodes)):
        assert a.time == b.time
        # bytes, so the sign of a zero counts too
        assert a.phi.values.tobytes() == b.phi.values.tobytes()
        assert a.pi.values.tobytes() == b.pi.values.tobytes()
        assert (a.phi.real_field, a.pi.real_field) == (b.phi.real_field, b.pi.real_field)


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


def test_a_complex_coupling_solves_complex_flagged_data(rng):
    # the reversed-flow identity needs lambda off the real axis; complex
    # data must then be flagged so no transform drops an imaginary part
    grid = STACK_GRIDS[0]
    real = random_snapshot(grid, rng)
    data = FieldSnapshot(0.0, ModeArray(grid, real.phi.values, False), ModeArray(grid, real.pi.values, False))
    tg = TimeGrid(horizon=0.5, nt=16)
    coupling = 0.3 + 0.2j
    traj = solve(data, coupling, tg)
    literal = strang_with_fresh_kicks(data, coupling, tg)
    for got, want in zip((traj.node(j) for j in range(tg.nnodes)), literal, strict=True):
        assert got.phi.values.tobytes() == want.phi.values.tobytes()
        assert got.pi.values.tobytes() == want.pi.values.tobytes()
        assert not got.phi.real_field
    assert traj.meta["phi_e_norm"] == field_energy_norm(traj)
    couplings = [0.2, coupling, 0.0]
    for c, stacked in zip(couplings, solve_couplings(data, couplings, tg)):
        assert_same_trajectory(stacked, solve(data, c, tg))


# The desk grid, a grid off the powers of two and a 2-D grid, for the check
# that real fields step on the half spectrum as complex ones on the full one
LAYOUT_GRIDS = [
    SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
]


def flagged_complex(data):
    grid = data.grid
    return FieldSnapshot(0.0, ModeArray(grid, data.phi.values, False), ModeArray(grid, data.pi.values, False))


def assert_close_rows(got, want, rel):
    """Every row of got within rel of want, relative to the row's largest entry."""
    for a, b in zip(got, want, strict=True):
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_real_fields_on_the_half_spectrum_match_the_full_complex_path(grid, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=16)
    half = solve_couplings(data, STACK_COUPLINGS, tg)
    full = solve_couplings(flagged_complex(data), STACK_COUPLINGS, tg)
    for got, want in zip(half, full, strict=True):
        assert got.real_field and not want.real_field
        assert_close_rows(got.phi, want.phi, 1e-12)
        assert_close_rows(got.pi, want.pi, 1e-12)
        assert got.meta["phi_e_norm"] == pytest.approx(want.meta["phi_e_norm"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_a_blow_up_names_the_same_node_and_coupling_in_both_layouts(grid):
    data = gaussian_data(grid, amplitude=2.0)
    tg = TimeGrid(1.0, 64)
    ceiling = 1.5 * sobolev_norm(data.phi)
    named = []
    for flagged in (data, flagged_complex(data)):
        with pytest.raises(BlowUp) as exc:
            solve_couplings(flagged, [0.1, 5.0, 0.2, 9.0], tg, norm_ceiling=ceiling)
        named.append((str(exc.value), exc.value.coupling))
    assert named[0] == named[1]
    assert named[0][1] == 9.0


def ceiling_first_crossed_at(data, couplings, tg, node):
    """A norm ceiling that the stack's phi or pi first crosses at the given node."""
    layout = SpectrumLayout(data.grid, True)
    top = np.max(
        [np.maximum(layout.norms(layout.cut(t.phi)), layout.norms(layout.cut(t.pi))) for t in solve_couplings(data, couplings, tg)],
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
    named = []
    for flagged in (data, flagged_complex(data)):
        with pytest.raises(BlowUp) as stacked:
            solve_couplings(flagged, couplings, tg, norm_ceiling=stack_ceiling)
        with pytest.raises(BlowUp) as per_node:
            per_node_solve_couplings(flagged, couplings, tg, norm_ceiling=stack_ceiling)
        assert (str(stacked.value), stacked.value.coupling) == (str(per_node.value), per_node.value.coupling)
        assert str(stacked.value).endswith(f"t={float(tg.nodes[node])}")
        with pytest.raises(BlowUp) as alone:
            solve(flagged, -9.0, tg, norm_ceiling=lone_ceiling)
        with pytest.raises(BlowUp) as literal:
            strang_with_fresh_kicks(flagged, -9.0, tg, norm_ceiling=lone_ceiling)
        assert str(alone.value) == str(literal.value)
        assert str(alone.value).endswith(f"t={float(tg.nodes[node])}")
        named.append((str(stacked.value), stacked.value.coupling, str(alone.value)))
    assert named[0] == named[1]
    # at node 0 every row crosses, and the first in list order is named
    assert named[0][1] == (0.1 if node == 0 else -9.0)


@pytest.mark.parametrize("nt", [15, BLOCK, BLOCK + 1, 40])
@pytest.mark.parametrize("grid", STACK_GRIDS, ids=["1d-32", "1d-30", "2d-8"])
def test_blocks_keep_the_trajectories_and_peak_norms_of_the_per_node_loop(grid, nt, rng):
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=nt)
    for flagged in (data, flagged_complex(data)):
        stacked = solve_couplings(flagged, STACK_COUPLINGS, tg)
        for got, want in zip(stacked, per_node_solve_couplings(flagged, STACK_COUPLINGS, tg), strict=True):
            # the meta holds phi_e_norm, compared with ==
            assert_same_trajectory(got, want)


def test_a_desk_solve_takes_the_norms_once_per_block(monkeypatch):
    grid = LAYOUT_GRIDS[0]
    tg = TimeGrid(0.5, 512)
    calls = []
    norms = SpectrumLayout.norms

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape)
        return norms(self, *args, **kwargs)

    monkeypatch.setattr(SpectrumLayout, "norms", counted)
    solve(gaussian_data(grid), 0.2, tg)
    # one call per block of BLOCK nodes from node 0, as many as node 0 alone
    # and then one per block of BLOCK steps would take
    assert len(calls) == 1 + math.ceil(tg.nt / BLOCK) == math.ceil(tg.nnodes / BLOCK) == 33


def test_mixed_flag_data_give_one_flag_at_every_node(small_grid, rng):
    # phi flagged real, pi not: the trajectory's one flag is not real, and
    # node 0 reports it too rather than the initial data's own flags
    real = random_snapshot(small_grid, rng)
    data = FieldSnapshot(0.0, real.phi, ModeArray(small_grid, real.pi.values, False))
    traj = solve(data, 0.3, TimeGrid(horizon=0.5, nt=16))
    assert not traj.real_field
    first = traj.node(0)
    assert not first.phi.real_field and not first.pi.real_field
    assert first.phi.values.tobytes() == data.phi.values.tobytes()


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=["1d-32", "1d-30", "2d-8"])
def test_mixed_flag_data_solve_as_the_same_values_flagged_complex(grid, rng):
    # one flag per solve: the first kick squares as every later one does
    real = random_snapshot(grid, rng)
    mixed = FieldSnapshot(0.0, real.phi, ModeArray(grid, real.pi.values, False))
    tg = TimeGrid(horizon=0.5, nt=16)
    flagged = flagged_complex(real)
    for got, want in zip(solve_couplings(mixed, STACK_COUPLINGS, tg), solve_couplings(flagged, STACK_COUPLINGS, tg)):
        assert_same_trajectory(got, want)
    assert_same_trajectory(solve(mixed, 0.3, tg), solve(flagged, 0.3, tg))


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16"])
def test_a_complex_coupling_on_real_flagged_data_solves_as_the_data_flagged_complex(grid):
    # a complex coupling kicks real data off the reals, so no half spectrum
    data = gaussian_data(grid)
    flagged = flagged_complex(data)
    tg = TimeGrid(0.5, 64)
    got = solve(data, 0.3 + 0.2j, tg)
    assert not got.real_field
    assert_same_trajectory(got, solve(flagged, 0.3 + 0.2j, tg))
    couplings = [0.2, 0.3 + 0.2j, 0.0]
    for got, want in zip(solve_couplings(data, couplings, tg), solve_couplings(flagged, couplings, tg), strict=True):
        assert_same_trajectory(got, want)


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

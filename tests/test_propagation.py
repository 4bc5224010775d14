"""Free evolution, retarded kernels, and time quadrature."""

from pathlib import Path

import numpy as np
import pytest

import kgcharge
from conftest import random_snapshot
from kgcharge.propagation import TimeGrid, flow_multipliers, free_evolve, retarded_multipliers
from kgcharge.series import _suffix_sums
from kgcharge.spectral import random_band_limited, sobolev_norm
from oracles import free_mode_evolution, green_apply, suffix_time_integral, time_integral


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.0, nt=16)
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, nt=1)


def test_time_grid_nodes():
    tg = TimeGrid(horizon=1.0, nt=4)
    np.testing.assert_allclose(tg.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert tg.dt == pytest.approx(0.25)
    assert tg.nnodes == 5


def test_node_index():
    tg = TimeGrid(horizon=1.0, nt=10)
    assert tg.node_index(0.0) == 0
    assert tg.node_index(0.3) == 3
    assert tg.node_index(1.0) == 10
    # a perturbation within rounding still resolves
    assert tg.node_index(0.3 + 1e-12) == 3
    with pytest.raises(ValueError):
        tg.node_index(0.31)
    with pytest.raises(ValueError):
        tg.node_index(-0.1)


def test_free_evolution_matches_the_closed_form(small_grid, rng):
    snap = random_snapshot(small_grid, rng)
    t = 0.37
    out = free_evolve(snap, t)
    phi, pi = free_mode_evolution(snap.phi.values, snap.pi.values, small_grid.omega, t)
    np.testing.assert_allclose(out.phi.values, phi, atol=1e-12)
    np.testing.assert_allclose(out.pi.values, pi, atol=1e-12)
    assert out.time == pytest.approx(snap.time + t)


def test_free_evolution_composes_and_inverts(small_grid, rng):
    snap = random_snapshot(small_grid, rng)
    two_steps = free_evolve(free_evolve(snap, 0.2), 0.3)
    one_step = free_evolve(snap, 0.5)
    np.testing.assert_allclose(two_steps.phi.values, one_step.phi.values, atol=1e-12)
    np.testing.assert_allclose(two_steps.pi.values, one_step.pi.values, atol=1e-12)
    back = free_evolve(one_step, -0.5)
    np.testing.assert_allclose(back.phi.values, snap.phi.values, atol=1e-12)
    np.testing.assert_allclose(back.pi.values, snap.pi.values, atol=1e-12)


def test_green_kernels_closed_form(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    t, tau = 0.9, 0.4
    g0 = green_apply("G0", t, tau, f)
    g1 = green_apply("G1", t, tau, f)
    w = small_grid.omega
    np.testing.assert_allclose(g0.values, np.sin((t - tau) * w) / w * f.values, atol=1e-12)
    np.testing.assert_allclose(g1.values, np.cos((t - tau) * w) * f.values, atol=1e-12)


def test_green_kernels_are_retarded(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    assert np.all(green_apply("G0", 0.2, 0.5, f).values == 0.0)
    assert np.all(green_apply("G1", 0.2, 0.5, f).values == 0.0)
    # the step function includes the coincidence time itself
    np.testing.assert_allclose(green_apply("G1", 0.5, 0.5, f).values, f.values)
    assert np.all(green_apply("G0", 0.5, 0.5, f).values == 0.0)


def test_green_rejects_unknown_kind(small_grid, rng):
    f = random_band_limited(small_grid, rng)
    with pytest.raises(ValueError):
        green_apply("G2", 1.0, 0.0, f)


def test_kernel_bound_on_random_fields(small_grid, rng):
    # ||G0 f|| <= (1/m) ||f|| since |sin(t w)| / w <= 1 / m
    for _ in range(200):
        f = random_band_limited(small_grid, rng)
        t = float(rng.uniform(0.0, 3.0))
        assert sobolev_norm(green_apply("G0", t, 0.0, f)) <= sobolev_norm(f) / small_grid.mass + 1e-12


def test_time_integral_is_exact_on_linear_functions():
    tg = TimeGrid(horizon=1.0, nt=16)
    values = 3.0 * tg.nodes - 1.0
    assert time_integral(values, tg) == pytest.approx(0.5, rel=1e-12)
    assert time_integral(np.ones(tg.nnodes), tg) == pytest.approx(1.0, rel=1e-12)


def test_time_integral_subranges():
    tg = TimeGrid(horizon=1.0, nt=10)
    values = 2.0 * tg.nodes
    assert time_integral(values, tg, 0, 5) == pytest.approx(0.25, rel=1e-12)
    assert time_integral(values, tg, 5, 10) == pytest.approx(0.75, rel=1e-12)
    assert time_integral(values, tg, 3, 3) == 0.0


def test_time_integral_converges_at_second_order():
    exact = (np.exp(1.0) - 1.0) / 1.0
    errors = []
    for nt in (8, 16, 32):
        tg = TimeGrid(horizon=1.0, nt=nt)
        errors.append(abs(time_integral(np.exp(tg.nodes), tg) - exact))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)


def test_time_integral_reads_the_rows_up_to_stop_only(small_grid, rng):
    tg = TimeGrid(horizon=1.0, nt=12)
    stack = rng.standard_normal((tg.nnodes,) + small_grid.shape) + 1j * rng.standard_normal(
        (tg.nnodes,) + small_grid.shape
    )
    for start, stop in ((0, 7), (3, 7), (0, 12), (5, 5)):
        cut = stack[: stop + 1].copy()
        assert np.array_equal(time_integral(cut, tg, start, stop), time_integral(stack, tg, start, stop))
        with pytest.raises(ValueError, match="too short"):
            time_integral(stack[:stop], tg, start, stop)


def test_suffix_time_integral_matches_per_row_trapezoids(small_grid, rng):
    tg = TimeGrid(horizon=1.0, nt=12)
    upper = 9
    stack = rng.standard_normal((tg.nnodes,) + small_grid.shape)
    out = suffix_time_integral(stack, tg, upper)
    for j in range(tg.nnodes):
        if j > upper:
            np.testing.assert_array_equal(out[j], 0.0)
        else:
            expected = time_integral(stack, tg, j, upper)
            np.testing.assert_allclose(out[j], expected, atol=1e-12)
    # the series' sums over a kernel pair's stack, node axis 1, walked from
    # the upper node down in blocks that carry the running sum, give the
    # whole range's rows bit for bit
    pair = rng.standard_normal((2, tg.nnodes) + small_grid.shape) + 1j * rng.standard_normal(
        (2, tg.nnodes) + small_grid.shape
    )
    whole = suffix_time_integral(pair.swapaxes(0, 1), tg, upper)[: upper + 1].swapaxes(0, 1)
    for block in (1, 5, upper + 1):
        sums = np.empty_like(whole)
        carry = []
        for stop in range(upper + 1, 0, -block):
            start = max(stop - block, 0)
            _suffix_sums(pair[:, start:stop], tg, sums[:, start:stop], carry)
        assert np.array_equal(sums, whole), block
        # row 0 alone: the blocks above node 0 only carry their total, and
        # the last one applies row 0's trapezoid terms to it
        row = np.empty_like(whole[:, 0])
        carry = []
        for stop in range(upper + 1, 0, -block):
            start = max(stop - block, 0)
            _suffix_sums(pair[:, start:stop], tg, row if start == 0 else None, carry)
        assert np.array_equal(row, whole[:, 0]), block


def test_the_retarded_multipliers_are_the_flow_multipliers_without_the_third(small_grid):
    nodes = TimeGrid(horizon=0.7, nt=9).nodes
    for lags in (nodes, nodes - 0.7, -0.35):
        c, s_over_w, _ = flow_multipliers(small_grid.omega, lags)
        got = retarded_multipliers(small_grid.omega, lags)
        assert np.array_equal(got[0], c) and np.array_equal(got[1], s_over_w)


def test_only_propagation_forms_sin_and_cos():
    for path in Path(kgcharge.__file__).parent.glob("*.py"):
        text = path.read_text()
        forms = "np.sin(" in text or "np.cos(" in text
        assert forms == (path.name == "propagation.py"), path.name

"""On-disk formats: trajectories and reports."""

import csv
import json

import numpy as np
import pytest

from conftest import random_snapshot, random_test_function
from kgcharge.propagation import TimeGrid
from kgcharge.series import bracket_ds, series
from kgcharge.solver import solve
from kgcharge.spectral import FieldSnapshot, ModeArray, SpectralGrid
from kgcharge.storage import (
    TRAJECTORY_FILE,
    format_float,
    read_trajectory,
    report_to_dict,
    write_csv,
    write_report_csv,
    write_report_json,
    write_trajectory,
)


def test_format_float_roundtrips_exactly(rng):
    for x in [0.1, -1.0 / 3.0, 1e-300, 2.0**52 + 1.0, *rng.standard_normal(50)]:
        assert float(format_float(x)) == x


def check_roundtrip(tmp_path, traj):
    """Arrays and node times come back bit for bit; a rewrite gives the same bytes."""
    write_trajectory(tmp_path / "run", traj)
    first = (tmp_path / "run" / TRAJECTORY_FILE).read_bytes()
    back = read_trajectory(tmp_path / "run")
    assert back.grid == traj.grid
    assert back.tgrid == traj.tgrid
    assert back.coupling == traj.coupling
    for ours, theirs in ((traj.node(j), back.node(j)) for j in range(traj.tgrid.nnodes)):
        np.testing.assert_array_equal(ours.phi.values, theirs.phi.values)
        np.testing.assert_array_equal(ours.pi.values, theirs.pi.values)
        assert ours.time == theirs.time
    write_trajectory(tmp_path / "run", back)
    assert (tmp_path / "run" / TRAJECTORY_FILE).read_bytes() == first


def test_trajectory_roundtrip(tmp_path, small_grid, rng):
    tg = TimeGrid(horizon=0.5, nt=8)
    check_roundtrip(tmp_path, solve(random_snapshot(small_grid, rng), 0.1, tg))


def test_trajectory_roundtrip_in_two_dimensions(tmp_path, rng):
    grid = SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2)
    tg = TimeGrid(horizon=0.5, nt=4)
    traj = solve(random_snapshot(grid, rng), 0.1, tg)
    check_roundtrip(tmp_path, traj)
    with np.load(tmp_path / "run" / TRAJECTORY_FILE) as data:
        assert data["phi"].shape == (tg.nnodes, 8, 8)
        assert data["pi"].dtype == np.complex128


@pytest.mark.parametrize(
    "grid",
    [
        SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1),
        SpectralGrid(dim=2, extent=10.0, modes=8, mass=1.0, sobolev_q=2),
    ],
    ids=["1d", "2d"],
)
def test_node_j_is_row_j_of_the_solved_and_the_read_tables(tmp_path, grid, rng):
    tg = TimeGrid(horizon=0.5, nt=8)
    solved = solve(random_snapshot(grid, rng), 0.1, tg)
    write_trajectory(tmp_path / "run", solved)
    for traj in (solved, read_trajectory(tmp_path / "run")):
        assert traj.phi.shape == traj.pi.shape == (tg.nnodes, *grid.shape)
        for j in range(tg.nnodes):
            snap = traj.node(j)
            assert snap.time == tg.nodes[j]
            assert snap.phi.values.tobytes() == traj.phi[j].tobytes()
            assert snap.pi.values.tobytes() == traj.pi[j].tobytes()
            assert np.shares_memory(snap.phi.values, traj.phi)
            assert np.shares_memory(snap.pi.values, traj.pi)
            assert snap.phi.real_field and snap.pi.real_field


def test_a_complex_trajectory_keeps_its_flag_and_coupling(tmp_path, small_grid, rng):
    real = random_snapshot(small_grid, rng)
    data = FieldSnapshot(0.0, ModeArray(small_grid, real.phi.values, False), ModeArray(small_grid, real.pi.values, False))
    traj = solve(data, 0.3 + 0.2j, TimeGrid(horizon=0.5, nt=8))
    write_trajectory(tmp_path / "run", traj)
    back = read_trajectory(tmp_path / "run")
    assert back.coupling == 0.3 + 0.2j
    assert not back.real_field
    assert not back.node(3).phi.real_field
    assert back.phi.tobytes() == traj.phi.tobytes()
    assert back.pi.tobytes() == traj.pi.tobytes()


def test_a_manifest_without_the_flag_reads_as_real(tmp_path, small_grid, rng):
    # every kgcharge before the flag was recorded stored real trajectories
    write_trajectory(tmp_path / "run", solve(random_snapshot(small_grid, rng), 0.1, TimeGrid(horizon=0.5, nt=4)))
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest.pop("real_field") is True
    manifest_path.write_text(json.dumps(manifest))
    assert read_trajectory(tmp_path / "run").real_field
    manifest["real_field"] = "no"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="real_field"):
        read_trajectory(tmp_path / "run")


def test_trajectory_rejects_arrays_that_do_not_fit_the_manifest(tmp_path, small_grid, rng):
    traj = solve(random_snapshot(small_grid, rng), 0.1, TimeGrid(horizon=0.5, nt=4))
    write_trajectory(tmp_path / "run", traj)
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["time"]["nt"] = 8
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="shapes"):
        read_trajectory(tmp_path / "run")


def test_trajectory_manifest_contents(tmp_path, small_grid, rng):
    tg = TimeGrid(horizon=0.5, nt=4)
    traj = solve(random_snapshot(small_grid, rng), 0.0, tg)
    write_trajectory(tmp_path / "run", traj, manifest_extra={"note": "hello"})
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["grid"]["modes"] == 32
    assert manifest["time"] == {"horizon": 0.5, "nt": 4}
    assert manifest["note"] == "hello"
    assert manifest["solver"]["scheme"] == "strang"


def report_fixture(small_grid, rng):
    tg = TimeGrid(horizon=0.4, nt=16)
    traj = solve(random_snapshot(small_grid, rng), 0.1, tg)
    psi = random_test_function(small_grid, rng)
    target = bracket_ds(psi, traj.node(0))
    return series(psi, traj.node(-1), 0.1, tg, max_order=2, target=target)


def test_report_json(tmp_path, small_grid, rng):
    report = report_fixture(small_grid, rng)
    path = tmp_path / "report.json"
    bounds = {"radius_bound": 0.25, "condition_ok": True, "c_q": 0.75, "window": 0.4, "phi_e_norm": 1.5}
    write_report_json(path, report, bounds)
    data = json.loads(path.read_text())
    assert data["coupling"] == report.coupling
    assert data["target"] == report.target
    assert data["partial_sums"] == report.partial_sums
    assert data["c_q"] == 0.75
    assert len(data["per_order"]) == 3
    assert report_to_dict(report, bounds) == data


def test_report_csv(tmp_path, small_grid, rng):
    report = report_fixture(small_grid, rng)
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row, term in zip(rows, report.per_order):
        assert int(row["order"]) == term.order
        assert int(row["tree_count"]) == term.tree_count
        assert float(row["order_sum"]) == term.order_sum
        assert float(row["partial_sum"]) == report.partial_sums[term.order]
        assert float(row["residual"]) == report.residuals[term.order]


def test_report_csv_without_a_target_leaves_the_residuals_blank(tmp_path, small_grid, rng):
    report = report_fixture(small_grid, rng)
    report.residuals = None
    write_report_csv(tmp_path / "report.csv", report)
    with open(tmp_path / "report.csv", newline="") as fh:
        assert [row["residual"] for row in csv.DictReader(fh)] == ["", "", ""]


def test_csv_rows_write_floats_at_17_digits_and_other_fields_as_given(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["order", "value", "note"], [(0, 0.1, ""), (1, np.float64(-2.5), "x")])
    assert path.read_bytes() == b"order,value,note\n0,1.0000000000000001e-01,\n1,-2.5000000000000000e+00,x\n"

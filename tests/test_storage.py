"""On-disk formats: trajectories and reports."""

import csv
import json

import numpy as np
import pytest

from conftest import random_snapshot, random_test_function
from kgcharge.propagation import TimeGrid
from kgcharge.series import bracket, series
from kgcharge.solver import solve, solve_couplings
from kgcharge.spectral import SpectralGrid
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
from oracles import per_node_solve_couplings


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
        assert data["phi"].shape == (tg.nnodes, 8, 5)
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
        assert traj.phi.shape == traj.pi.shape == (tg.nnodes, *grid.half_shape)
        for j in range(tg.nnodes):
            snap = traj.node(j)
            assert snap.time == tg.nodes[j]
            # row j, as a snapshot of its own, which outlives the tables
            for values, row in ((snap.phi.values, traj.phi[j]), (snap.pi.values, traj.pi[j])):
                assert values.tobytes() == row.tobytes()
                assert not np.shares_memory(values, traj.phi) and not np.shares_memory(values, traj.pi)
                kept = row.copy()
                values[...] = 7.0
                assert row.tobytes() == kept.tobytes()


# The desk grid, a grid off the powers of two, and a 2-D and a 3-D grid
LAYOUT_GRIDS = [
    SpectralGrid(dim=1, extent=40.0, modes=128, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=1, extent=20.0, modes=30, mass=1.0, sobolev_q=1),
    SpectralGrid(dim=2, extent=10.0, modes=16, mass=1.0, sobolev_q=2),
    SpectralGrid(dim=3, extent=10.0, modes=8, mass=1.0, sobolev_q=2),
]


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=["desk", "1d-30", "2d-16", "3d-8"])
def test_solved_and_read_tables_are_the_kept_columns_of_the_full_tables(tmp_path, grid, rng):
    # the per-node loop's tables, node 0 the data as given: the kept
    # columns of the full tables the solver stored before the half spectrum
    data = random_snapshot(grid, rng)
    tg = TimeGrid(horizon=0.5, nt=17)
    couplings = [0.3, 0.0, -0.4]
    stepped = per_node_solve_couplings(data, couplings, tg)
    for r, (solved, want) in enumerate(zip(solve_couplings(data, couplings, tg), stepped, strict=True)):
        write_trajectory(tmp_path / str(r), solved)
        for traj in (solved, read_trajectory(tmp_path / str(r))):
            assert traj.phi.shape == traj.pi.shape == (tg.nnodes, *grid.half_shape)
            assert traj.phi.tobytes() == want.phi.tobytes()
            assert traj.pi.tobytes() == want.pi.tobytes()


@pytest.mark.parametrize(
    "coupling",
    [{"real": 0.2, "imag": 0.1}, {"real": 0.2, "imag": 0.0}, "0.2", True, None, [0.2]],
    ids=["complex", "complex-on-the-axis", "string", "boolean", "null", "list"],
)
def test_a_manifest_whose_coupling_is_not_a_real_number_is_refused(tmp_path, small_grid, rng, coupling):
    # the complex form {"real": ..., "imag": ...} that older kgcharge wrote
    # for complex couplings reads no more
    write_trajectory(tmp_path / "run", solve(random_snapshot(small_grid, rng), 0.2, TimeGrid(horizon=0.5, nt=8)))
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["coupling"] = coupling
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="not a real number"):
        read_trajectory(tmp_path / "run")


def test_a_manifest_without_the_flag_reads_as_real(tmp_path, small_grid, rng):
    # solve writes no flag; older kgcharge flagged its real fields true,
    # and those manifests read, while any other flag is refused
    traj = solve(random_snapshot(small_grid, rng), 0.1, TimeGrid(horizon=0.5, nt=4))
    write_trajectory(tmp_path / "run", traj)
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "real_field" not in manifest
    assert read_trajectory(tmp_path / "run").phi.tobytes() == traj.phi.tobytes()
    manifest["real_field"] = True
    manifest_path.write_text(json.dumps(manifest))
    assert read_trajectory(tmp_path / "run").pi.tobytes() == traj.pi.tobytes()
    for flag in (False, "no", 1, None):
        manifest["real_field"] = flag
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


def test_a_byte_flipped_outside_the_tables_raises_value_error_or_reads_the_same_tables(tmp_path, rng):
    # the archive of a 32-point line over 17 nodes, whose flips outside the
    # array data raise zipfile's, numpy's and tokenize's errors when read
    # unguarded: a flip inside the data fails the member's CRC-32 instead
    grid = SpectralGrid(dim=1, extent=20.0, modes=32, mass=1.0, sobolev_q=1)
    traj = solve(random_snapshot(grid, rng), 0.1, TimeGrid(horizon=0.1, nt=16))
    write_trajectory(tmp_path, traj)
    archive = tmp_path / TRAJECTORY_FILE
    raw = archive.read_bytes()
    tables = set()
    for table in (traj.tgrid.nodes, traj.phi, traj.pi):
        start = raw.find(table.tobytes())
        tables.update(range(start, start + table.nbytes))
    for i in sorted(set(range(len(raw))) - tables):
        flipped = bytearray(raw)
        flipped[i] ^= 0xFF
        archive.write_bytes(bytes(flipped))
        try:
            back = read_trajectory(tmp_path)
        except ValueError:
            continue
        assert np.array_equal(back.phi, traj.phi) and np.array_equal(back.pi, traj.pi), i


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
    target = bracket(psi, traj.node(0))
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

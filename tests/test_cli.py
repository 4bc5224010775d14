"""Command-line driver: exit codes, outputs, and reproducibility."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import kgcharge
from kgcharge.cli import SCHEMA, main
from kgcharge.series import convergence_condition, radius_bound
from kgcharge.spectral import estimate_algebra_constant
from kgcharge.storage import read_manifest, read_trajectory
from oracles import catalan

SMALL = {
    "grid": {"L": 20.0, "Nx": 32, "m": 1.0, "q": 1},
    "time": {"T": 0.4, "s": 0.4, "nt": 32},
    "coupling": 0.2,
    "initial": {"type": "gaussian", "amplitude": 0.5, "width": 2.0, "center": 0.0},
    "test_function": {
        "type": "gaussian",
        "amplitude": 1.0,
        "width": 3.0,
        "center": 0.5,
        "slot": "both",
    },
    "max_order": 3,
    "seed": 0,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(SMALL))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    cfg.setdefault("out", str(tmp_path / "run"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_solved(runner, tmp_path, **overrides):
    cfg = write_config(tmp_path, **overrides)
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    return cfg


def test_help_lists_the_defaults(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert '"max_order": 4' in result.output
    assert '"Nx": 128' in result.output


def test_solve_writes_a_complete_trajectory(runner, tmp_path):
    run_solved(runner, tmp_path)
    tdir = tmp_path / "run" / "trajectory"
    with np.load(tdir / "trajectory.npz", allow_pickle=False) as data:
        nnodes = SMALL["time"]["nt"] + 1
        assert data["times"].shape == (nnodes,)
        assert data["phi"].shape == data["pi"].shape == (nnodes, SMALL["grid"]["Nx"])
    assert not list(tdir.glob("node_*.csv"))
    manifest = json.loads((tdir / "manifest.json").read_text())
    assert manifest["coupling"] == 0.2
    assert manifest["initial"] == SMALL["initial"]
    assert "energy_drift" in manifest


def test_solve_records_tiny_drift_for_the_free_field(runner, tmp_path):
    run_solved(runner, tmp_path, coupling=0.0)
    manifest = json.loads((tmp_path / "run" / "trajectory" / "manifest.json").read_text())
    assert abs(manifest["energy_drift"]) <= 1e-10


def test_invalid_regularity_index_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path, grid={"q": 0})
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "q > n/2" in result.output


def test_missing_config_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["solve", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_malformed_config_exits_2(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["solve", "--config", str(path)])
    assert result.exit_code == 2


def test_unknown_test_function_type_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path, test_function={"type": "comb"})
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "test_function.type" in result.output


@pytest.mark.parametrize(
    "changed, field",
    [
        ({"max_ordr": 7}, "max_ordr"),
        ({"grid": {"nx": 64}}, "grid.nx"),
        ({"time": {"dt": 0.01}}, "time.dt"),
        ({"initial": {"amplitud": 0.9}}, "initial.amplitud"),
        ({"test_function": {"widht": 1.0}}, "test_function.widht"),
    ],
)
def test_unknown_config_keys_exit_2(runner, tmp_path, changed, field):
    cfg = write_config(tmp_path, **changed)
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert f"'{field}': unknown key" in result.output


@pytest.mark.parametrize(
    "test_function, field",
    [
        ({"type": "gaussian", "width": "wide"}, "test_function.width"),
        ({"type": "gaussian", "amplitude": "big"}, "test_function.amplitude"),
        ({"type": "gaussian", "center": [0.0, 1.0]}, "test_function.center"),
        ({"type": "low-mode", "kmax": "many"}, "test_function.kmax"),
        ({"type": "dirac", "x0": "left", "width": 0.8}, "test_function.x0"),
        ({"type": "dirac", "x0": 3.0, "width": 0.8, "which": "both"}, "test_function.which"),
    ],
)
def test_malformed_test_function_fields_exit_2(runner, tmp_path, test_function, field):
    cfg = write_config(tmp_path, test_function=test_function)
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert field in result.output


@pytest.mark.parametrize(
    "changed, field",
    [
        ({"max_order": "x"}, "max_order"),
        ({"seed": "s"}, "seed"),
        ({"grid": {"Nx": "many"}}, "grid.Nx"),
    ],
)
def test_non_numeric_fields_are_named_by_their_key_path(runner, tmp_path, changed, field):
    cfg = write_config(tmp_path, **changed)
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert f"config field '{field}':" in result.output


@pytest.mark.parametrize(
    "command, changed, field",
    [
        ("solve", {"grid": {"Nx": 32.9}}, "grid.Nx"),
        ("solve", {"grid": {"dim": 1.5}}, "grid.dim"),
        ("solve", {"grid": {"q": 1.5}}, "grid.q"),
        ("solve", {"time": {"nt": 64.7}}, "time.nt"),
        ("solve", {"max_order": 2.6}, "max_order"),
        ("solve", {"seed": 0.5}, "seed"),
        ("solve", {"test_function": {"type": "low-mode", "kmax": 4.5}}, "test_function.kmax"),
        ("solve", {"coupling": True}, "coupling"),
        ("sweep", {"coupling": [0.1, True, 0.4]}, "coupling"),
        ("solve", {"grid": {"L": True}}, "grid.L"),
        ("solve", {"grid": {"Nx": True}}, "grid.Nx"),
        ("solve", {"time": {"T": False}}, "time.T"),
        ("solve", {"max_order": True}, "max_order"),
        ("solve", {"initial": {"amplitude": True}}, "initial.amplitude"),
        ("solve", {"test_function": {"width": True}}, "test_function.width"),
        ("solve", {"threads": True}, "threads"),
    ],
)
def test_non_integral_ints_and_booleans_exit_2(runner, tmp_path, command, changed, field):
    cfg = write_config(tmp_path, **changed)
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"config field '{field}':" in result.output


def test_integral_floats_stay_accepted_as_ints(runner, tmp_path):
    run_solved(runner, tmp_path, grid={"Nx": 32.0}, time={"nt": 32.0}, max_order=3.0, seed=0.0)
    assert (tmp_path / "run" / "trajectory" / "trajectory.npz").exists()


@pytest.mark.parametrize(
    "command, changed, options, field",
    [
        ("solve", {"grid": {"Nx": float("inf")}}, [], "grid.Nx"),
        ("solve", {"max_order": float("inf")}, [], "max_order"),
        ("solve", {"coupling": float("nan")}, [], "coupling"),
        ("sweep", {"coupling": [0.1, float("nan"), 0.4]}, [], "coupling"),
        ("solve", {"initial": {"amplitude": "1e400"}}, [], "initial.amplitude"),
        ("solve", {"initial": {"center": float("inf")}}, [], "initial.center"),
        ("transport", {"test_function": {"amplitude": float("nan")}}, [], "test_function.amplitude"),
        ("transport", {"seed": -1, "test_function": {"type": "low-mode"}}, [], "seed"),
        ("sweep", {"coupling": [0.1, 0.2, 0.4], "seed": -1, "test_function": {"type": "low-mode"}}, [], "seed"),
        # Gaussian widths whose 2 * width**2 overflows or underflows to 0
        ("solve", {"initial": {"width": 1.4e154}}, [], "initial.width"),
        ("solve", {"initial": {"width": 1e-300}}, [], "initial.width"),
        ("transport", {"test_function": {"width": 1e300}}, [], "test_function.width"),
        ("transport", {"test_function": {"width": 1e-300}}, [], "test_function.width"),
        ("readout", {"test_function": {"type": "dirac", "x0": 3.0, "width": 1e300}}, [], "test_function.width"),
    ],
)
def test_non_finite_numbers_and_negative_seeds_exit_2(runner, tmp_path, command, changed, options, field):
    cfg = write_config(tmp_path, **changed)
    result = runner.invoke(main, [command, "--config", str(cfg)] + options)
    assert result.exit_code == 2, result.output
    assert f"config field '{field}':" in result.output


@pytest.mark.parametrize(
    "grid",
    [{"m": 1e200, "Nx": 16}, {"dim": 2, "L": 1e200, "Nx": 8, "q": 2}],
    ids=["mass-squared", "volume"],
)
def test_a_grid_whose_mass_or_volume_overflows_exits_2(runner, tmp_path, grid):
    # finite numbers whose square or dim-th power is past the largest float
    cfg = write_config(tmp_path, grid=grid, time={"T": 0.1, "s": 0.1, "nt": 4})
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "config field 'grid':" in result.output
    assert "overflows" in result.output


def numeric_fields():
    """The path and type of every int and float key of the config schema."""
    fields = []
    for name, kind in SCHEMA.items():
        entries = kind.items() if isinstance(kind, dict) else [(None, kind)]
        fields += [(f"{name}.{key}" if key else name, cast) for key, cast in entries if cast in (int, float)]
    return fields


@pytest.mark.parametrize("field, cast", numeric_fields(), ids=[field for field, _ in numeric_fields()])
def test_every_numeric_key_refuses_booleans_and_non_finite_values(runner, tmp_path, field, cast):
    section, _, key = field.rpartition(".")
    for value in [True, float("nan"), float("inf")] + ([2.5] if cast is int else []):
        cfg = write_config(tmp_path, **({section: {key: value}} if section else {key: value}))
        result = runner.invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 2, (value, result.output)
        assert f"config field '{field}':" in result.output


@pytest.mark.parametrize(
    "grid, named",
    [
        ({"m": 1e-200, "Nx": 16}, "mass**2 underflows to 0"),
        ({"L": 1e-155, "Nx": 16}, "|k|**2 overflows"),
        ({"Nx": 1e19}, "exceed what numpy can address"),
        ({"dim": 30, "q": 16}, "exceed what numpy can address"),
        ({"L": 1e155}, "extent**2 overflows"),
        ({"L": 40.0, "Nx": 128, "q": 200}, "(1 + |k|**2)**q overflows"),
        # the reader casts q to an exact int, 301 digits for 1e300; the
        # messages give it to 6 digits
        ({"q": 1e300}, "(1 + |k|**2)**q overflows a float at the highest mode, got q=1.00000e+300\n"),
        ({"q": -1e300}, "sobolev_q must satisfy q > n/2, got q=-1.00000e+300 with n=1\n"),
        ({"L": 40.0, "Nx": 128, "q": 154}, "(1 + |k|**2)**q overflows a float at the highest mode, got q=154\n"),
    ],
    ids=[
        "mass-underflows", "wavenumber-overflows", "modes", "dim", "volume-squared", "sobolev-weight",
        "huge-q", "huge-negative-q", "whole-q",
    ],
)
def test_a_grid_whose_dispersion_relation_leaves_the_floats_exits_2(runner, tmp_path, grid, named):
    # finite numbers whose square inside omega is 0 or past the largest float,
    # arrays numpy cannot index, finite scales whose squares leave the floats
    # inside the mode values' norms or the Sobolev weights, and a q so large
    # that only a compact message names it
    cfg = write_config(tmp_path, grid=grid, time={"T": 0.1, "s": 0.1, "nt": 4})
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "config field 'grid':" in result.output
    assert named in result.output


@pytest.mark.parametrize(
    "changed, shape",
    [({"grid": {"Nx": 1e12}}, "(1000000000000,)"), ({"time": {"T": 0.5, "s": 0.5, "nt": 1e12}}, "(1000000000001,)")],
    ids=["modes", "nodes"],
)
def test_arrays_too_large_for_memory_exit_2(tmp_path, changed, shape):
    # Each asks numpy for 7.28 TiB at once.  The child runs under a 4 GiB
    # address-space limit, so the request fails however the host overcommits.
    cfg = write_config(tmp_path, **changed)
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))"
    result = subprocess.run(
        [sys.executable, "-c", f"{limit}; from kgcharge.cli import main; main()", "solve", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(kgcharge.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert f"out of memory (Unable to allocate 7.28 TiB for an array with shape {shape}" in result.stderr
    assert "'grid.Nx', 'grid.dim' and 'time.nt'" in result.stderr


def test_solve_takes_no_seed_and_records_none(runner, tmp_path):
    # nothing solve writes depends on the seed
    cfg = run_solved(runner, tmp_path, seed=7)
    assert "seed" not in read_manifest(tmp_path / "run" / "trajectory")
    result = runner.invoke(main, ["solve", "--config", str(cfg), "--seed", "3"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("out", [None, 5, ["run"]])
def test_an_out_that_is_not_a_string_exits_2(runner, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, out=out)
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "config field 'out':" in result.output
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "command, changed, error",
    [("solve", {}, "Not a directory"), ("sweep", {"coupling": [0.1, 0.2, 0.4]}, "File exists")],
)
def test_an_out_naming_a_file_exits_2(runner, tmp_path, command, changed, error):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    cfg = write_config(tmp_path, out=str(taken), time={"T": 0.1, "s": 0.1, "nt": 16}, **changed)
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "config field 'out': cannot write the outputs there: " in result.output
    assert error in result.output
    assert taken.read_text() == "kept\n"


def test_negative_low_mode_band_exits_2(runner, tmp_path):
    # kmax < 0 keeps no mode: psi would be zero and every residual 0.000e+00
    cfg = write_config(tmp_path, test_function={"type": "low-mode", "kmax": -3})
    for command in ("solve", "transport"):
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2
        assert "test_function.kmax" in result.output
    cfg = run_solved(runner, tmp_path, test_function={"type": "low-mode", "kmax": 0})
    assert runner.invoke(main, ["transport", "--config", str(cfg)]).exit_code == 0


def test_transport_without_a_trajectory_exits_2(runner, tmp_path):
    cfg = write_config(tmp_path)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "run solve first" in result.output


@pytest.mark.parametrize(
    "changed, field",
    [
        ({"coupling": 0.4}, "coupling"),
        ({"initial": {"amplitude": 0.9}}, "initial.amplitude"),
    ],
)
def test_transport_rejects_a_trajectory_solved_from_other_data(runner, tmp_path, changed, field):
    run_solved(runner, tmp_path)
    cfg = write_config(tmp_path, name="changed.json", **changed)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 2
    assert field in result.output


def test_transport_rejects_the_per_node_csv_layout(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    tdir = tmp_path / "run" / "trajectory"
    (tdir / "trajectory.npz").unlink()
    (tdir / "node_00000.csv").write_text("L,Nx,m,q,time\n")
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "run solve first" in result.output


def test_transport_rejects_arrays_that_do_not_fit_the_manifest(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    archive = tmp_path / "run" / "trajectory" / "trajectory.npz"
    with np.load(archive) as data:
        arrays = {name: data[name][:-1] for name in data.files}
    np.savez(archive, **arrays)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unreadable trajectory" in result.output


def drop_last_node(arrays, manifest):
    for name in arrays:
        arrays[name] = arrays[name][:-1]


def put_nan_in_phi(arrays, manifest):
    arrays["phi"][5, 3] = np.nan


def put_inf_in_pi(arrays, manifest):
    arrays["pi"][-1, 0] = np.inf


def stretch_times(arrays, manifest):
    arrays["times"] = 3 * arrays["times"]


def spell_out_times(arrays, manifest):
    arrays["times"] = arrays["times"].astype(str)


def drop_grid(arrays, manifest):
    del manifest["grid"]


def drop_time(arrays, manifest):
    del manifest["time"]


def drop_coupling(arrays, manifest):
    del manifest["coupling"]


def add_grid_key(arrays, manifest):
    manifest["grid"]["spacing"] = 0.5


@pytest.mark.parametrize(
    "spoil",
    [
        drop_last_node,
        put_nan_in_phi,
        put_inf_in_pi,
        stretch_times,
        spell_out_times,
        drop_grid,
        drop_time,
        drop_coupling,
        add_grid_key,
    ],
)
def test_transport_and_readout_reject_a_malformed_archive(runner, tmp_path, spoil):
    cfg = run_solved(runner, tmp_path)
    # readout reads the same trajectory; the test function does not shape it
    dirac = write_config(tmp_path, name="dirac.json", test_function={"type": "dirac", "x0": 3.0, "width": 0.8})
    tdir = tmp_path / "run" / "trajectory"
    with np.load(tdir / "trajectory.npz") as data:
        arrays = {name: data[name] for name in data.files}
    manifest = json.loads((tdir / "manifest.json").read_text())
    spoil(arrays, manifest)
    np.savez(tdir / "trajectory.npz", **arrays)
    (tdir / "manifest.json").write_text(json.dumps(manifest))
    for command, config in (("transport", cfg), ("readout", dirac)):
        result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert "unreadable trajectory" in result.output


def test_transport_reads_the_norm_that_solve_recorded(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    manifest_path = tmp_path / "run" / "trajectory" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    recorded = manifest["solver"]["phi_e_norm"]
    assert runner.invoke(main, ["transport", "--config", str(cfg)]).exit_code == 0
    assert json.loads((tmp_path / "run" / "report.json").read_text())["phi_e_norm"] == recorded
    # a manifest from a kgcharge that did not record the norm
    del manifest["solver"]["phi_e_norm"]
    manifest_path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "solver.phi_e_norm" in result.output
    assert "run solve again" in result.output


def forbid_the_algebra_constant(monkeypatch):
    """Make every binding of estimate_algebra_constant in kgcharge raise."""

    def refuse(*_, **__):
        raise AssertionError("estimate_algebra_constant was called")

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "kgcharge"]:
        if hasattr(module, "estimate_algebra_constant"):
            monkeypatch.setattr(module, "estimate_algebra_constant", refuse)


def test_solve_records_the_algebra_constant_of_its_grid(runner, tmp_path):
    for grid in ({"dim": 2, "Nx": 16, "q": 2}, {}):
        run_solved(runner, tmp_path, grid=grid, time={"nt": 16})
        traj = read_trajectory(tmp_path / "run" / "trajectory")
        assert traj.grid.dim == grid.get("dim", 1)
        assert read_manifest(tmp_path / "run" / "trajectory")["solver"]["c_q"] == estimate_algebra_constant(traj.grid)


def test_transport_reads_c_q_from_the_manifest(runner, tmp_path, monkeypatch):
    # C_q depends on the grid alone: solve estimates it once, transport never does
    cfg = run_solved(runner, tmp_path)
    assert runner.invoke(main, ["transport", "--config", str(cfg)]).exit_code == 0
    plain = (tmp_path / "run" / "report.json").read_bytes()
    forbid_the_algebra_constant(monkeypatch)
    (tmp_path / "run" / "report.json").unlink()
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "run" / "report.json").read_bytes() == plain


MISSING = object()


def record_in_manifest(tmp_path, key, value):
    """Put ``value`` under the stored manifest's ``solver.<key>``; MISSING deletes the key."""
    manifest_path = tmp_path / "run" / "trajectory" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if value is MISSING:
        del manifest["solver"][key]
    else:
        manifest["solver"][key] = value
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "key, value",
    [
        # a manifest from a kgcharge that estimated C_q in transport
        ("c_q", MISSING),
        ("phi_e_norm", "x"),
        ("phi_e_norm", None),
        ("phi_e_norm", float("nan")),
        ("phi_e_norm", float("inf")),
        ("phi_e_norm", -1.0),
        ("phi_e_norm", True),
        ("phi_e_norm", 10**400),
        ("c_q", "x"),
        ("c_q", None),
        ("c_q", float("nan")),
        ("c_q", float("-inf")),
        ("c_q", 0.0),
        ("c_q", -0.5),
        ("c_q", True),
        ("c_q", [0.8]),
    ],
    ids=lambda v: "missing" if v is MISSING else "huge-int" if isinstance(v, int) and v > 10**300 else None,
)
def test_transport_refuses_a_recorded_value_out_of_range(runner, tmp_path, key, value):
    cfg = run_solved(runner, tmp_path)
    record_in_manifest(tmp_path, key, value)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"{'lacks' if value is MISSING else 'gives'} solver.{key}" in result.output
    assert "run solve again" in result.output
    assert not (tmp_path / "run" / "report.json").exists()


def test_transport_accepts_a_recorded_norm_of_zero(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    record_in_manifest(tmp_path, "phi_e_norm", 0)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["phi_e_norm"] == 0.0
    assert report["condition_ok"] is True


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
@pytest.mark.parametrize("amplitude", [0.0, 1e-200])
def test_transport_refuses_initial_data_that_vanish(runner, tmp_path, amplitude, force):
    # the radius bound divides by the slice's H^q norms, which are 0 here,
    # and at 1e-200 they underflow to 0
    cfg = run_solved(runner, tmp_path, initial={"amplitude": amplitude})
    result = runner.invoke(main, ["transport", "--config", str(cfg), *force])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"config field 'initial.amplitude': at amplitude {amplitude!r}")
    assert not (tmp_path / "run" / "report.json").exists()


def test_readout_and_sweep_keep_their_answers_on_initial_data_that_vanish(runner, tmp_path):
    dirac = {"type": "dirac", "width": 0.8, "x0": 3.0}
    cfg = run_solved(runner, tmp_path, initial={"amplitude": 0.0}, test_function=dirac)
    assert runner.invoke(main, ["readout", "--config", str(cfg)]).exit_code == 0
    with open(tmp_path / "run" / "readout.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["phi_est"]) == float(row["dtphi_est"]) == 0.0
    cfg = write_config(tmp_path, name="sweep.json", initial={"amplitude": 0.0}, coupling=[0.1, 0.2, 0.4])
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 5, result.output
    assert "residual underflow" in result.output


@pytest.mark.parametrize("command", ["transport", "sweep"])
@pytest.mark.parametrize(
    "test_function, field",
    [
        # the centre 0.5 lies between the grid points 0 and 0.625
        ({"width": 0.001}, "test_function.width"),
        ({"width": 1e-160}, "test_function.width"),
        ({"amplitude": 0.0}, "test_function.amplitude"),
        ({"type": "low-mode", "amplitude": 0.0}, "test_function.amplitude"),
    ],
    ids=["narrow", "tiny", "gaussian-zero", "low-mode-zero"],
)
def test_a_test_function_that_vanishes_on_the_grid_exits_2(runner, tmp_path, command, test_function, field):
    # every residual against a zero psi reads 0 at every order
    if command == "transport":
        cfg = run_solved(runner, tmp_path, test_function=test_function)
    else:
        cfg = write_config(tmp_path, test_function=test_function, coupling=[0.1, 0.2, 0.4])
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"config field '{field}': ")
    assert not (tmp_path / "run" / ("report.json" if command == "transport" else "sweep_slopes.csv")).exists()


def test_transport_reports_the_bounds_of_its_slice(runner, tmp_path):
    cfg = run_solved(runner, tmp_path, time={"s": 0.2})
    assert runner.invoke(main, ["transport", "--config", str(cfg)]).exit_code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert set(report) == {
        "s", "coupling", "per_order", "partial_sums", "target", "residuals", "meta",
        "radius_bound", "condition_ok", "c_q", "window", "phi_e_norm",
    }
    traj = read_trajectory(tmp_path / "run" / "trajectory")
    grid, window = traj.grid, SMALL["time"]["T"]
    c_q = estimate_algebra_constant(grid)
    phi_e_norm = read_manifest(tmp_path / "run" / "trajectory")["solver"]["phi_e_norm"]
    assert report["c_q"] == c_q
    assert report["window"] == window
    assert report["phi_e_norm"] == phi_e_norm
    snap = traj.node(traj.tgrid.node_index(0.2))
    assert report["radius_bound"] == radius_bound(snap, window, c_q)
    assert report["condition_ok"] is convergence_condition(SMALL["coupling"], window, phi_e_norm, c_q, grid.mass)


def test_transport_takes_any_slice_of_the_stored_trajectory(runner, tmp_path):
    run_solved(runner, tmp_path)
    cfg = write_config(tmp_path, name="earlier.json", time={"s": 0.2}, max_order=2, seed=7)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["s"] == 0.2


def test_transport_reports_conserved_charge_at_zero_coupling(runner, tmp_path):
    cfg = run_solved(runner, tmp_path, coupling=0.0)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == SMALL["max_order"] + 1
    assert all(abs(float(row["residual"])) <= 1e-10 for row in rows)


def test_transport_residuals_shrink_with_the_order(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "report.csv", newline="") as fh:
        residuals = [abs(float(row["residual"])) for row in csv.DictReader(fh)]
    assert residuals == sorted(residuals, reverse=True)


def test_transport_affords_the_order_cap(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    result = runner.invoke(main, ["transport", "--config", str(cfg), "--max-order", "10"])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "report.csv", newline="") as fh:
        counts = [int(row["tree_count"]) for row in csv.DictReader(fh)]
    assert counts == [catalan(n) for n in range(11)]
    assert "order 10: 16796 trees" in result.output


def test_transport_respects_the_convergence_flag(runner, tmp_path):
    cfg = run_solved(runner, tmp_path, coupling=0.6)
    blocked = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert blocked.exit_code == 4
    assert "--force" in blocked.output
    forced = runner.invoke(main, ["transport", "--config", str(cfg), "--force"])
    assert forced.exit_code == 0, forced.output
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["condition_ok"] is False
    assert report["meta"]["forced"] is True


def test_transport_runs_are_reproducible(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    assert runner.invoke(main, ["transport", "--config", str(cfg)]).exit_code == 0
    first = (tmp_path / "run" / "report.csv").read_bytes()
    assert runner.invoke(main, ["transport", "--config", str(cfg)]).exit_code == 0
    assert (tmp_path / "run" / "report.csv").read_bytes() == first


def test_two_dimensional_solve_and_transport(runner, tmp_path):
    cfg = run_solved(runner, tmp_path, grid={"dim": 2, "Nx": 16, "q": 2}, time={"nt": 16})
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "report.csv", newline="") as fh:
        residuals = [abs(float(row["residual"])) for row in csv.DictReader(fh)]
    assert len(residuals) == SMALL["max_order"] + 1
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] < 1e-3 * residuals[0]


def test_an_eight_mode_grid_solves_and_transports(runner, tmp_path):
    cfg = tmp_path / "eight.json"
    cfg.write_text(json.dumps({"grid": {"L": 20, "Nx": 8}, "out": str(tmp_path / "run")}))
    assert runner.invoke(main, ["solve", "--config", str(cfg)]).exit_code == 0
    result = runner.invoke(main, ["transport", "--config", str(cfg)])
    assert result.exit_code == 0, result.output


def test_sweep_needs_three_couplings(runner, tmp_path):
    cfg = write_config(tmp_path, coupling=[0.1, 0.2])
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 5


@pytest.mark.parametrize("couplings", [[0.1, 0.1, 0.1], [0.1, -0.1, 0.1], [0.1, -0.2, 0.2, 0.1]])
def test_sweep_needs_three_distinct_coupling_magnitudes(runner, tmp_path, couplings):
    # the slopes are fitted in log|coupling|: a repeat or a sign flip adds no point
    cfg = write_config(tmp_path, coupling=couplings, max_order=1)
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 5
    assert "sweep needs at least 3 distinct coupling magnitudes, got" in result.output
    assert not (tmp_path / "run" / "sweep_slopes.csv").exists()


@pytest.mark.parametrize("couplings", [[0.0, 0.1, 0.2, -0.3], [0.1, -0.0, 0.2, 0.4]])
def test_sweep_refuses_a_zero_coupling_before_solving(runner, tmp_path, couplings):
    # log|0| has no point in the slope fit; on this 2-D grid the zero row
    # stays above the underflow rule and reached np.polyfit
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"dim": 2, "L": 10.0, "Nx": 16, "q": 2},
                "coupling": couplings,
                "max_order": 3,
                "time": {"T": 0.5, "s": 0.5, "nt": 64},
                "out": str(tmp_path / "run"),
            }
        )
    )
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 5, result.output
    assert "a coupling of 0" in result.output
    assert not (tmp_path / "run").exists()


def test_sweep_fits_slopes_one_past_the_order(runner, tmp_path):
    cfg = write_config(tmp_path, coupling=[0.1, 0.2, 0.4], max_order=2)
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "sweep_slopes.csv", newline="") as fh:
        slopes = {int(row["order"]): float(row["slope"]) for row in csv.DictReader(fh)}
    for order, slope in slopes.items():
        assert slope == pytest.approx(order + 1, abs=0.2)
    assert (tmp_path / "run" / "sweep_residuals.csv").exists()


def test_sweep_rows_are_the_transport_reports_of_lone_solves(runner, tmp_path):
    couplings = [0.1, 0.2, 0.4]
    cfg = write_config(tmp_path, coupling=couplings, max_order=2)
    assert runner.invoke(main, ["sweep", "--config", str(cfg)]).exit_code == 0
    with open(tmp_path / "run" / "sweep_residuals.csv", newline="") as fh:
        swept = [(row["residual"], row["partial_sum"]) for row in csv.DictReader(fh)]
    lone = []
    for coupling in couplings:
        one = run_solved(runner, tmp_path, name=f"lone_{coupling}.json", coupling=coupling, max_order=2)
        assert runner.invoke(main, ["transport", "--config", str(one), "--force"]).exit_code == 0
        with open(tmp_path / "run" / "report.csv", newline="") as fh:
            lone += [(row["residual"], row["partial_sum"]) for row in csv.DictReader(fh)]
    assert swept == lone


def test_sweep_never_estimates_the_algebra_constant(runner, tmp_path, monkeypatch):
    # no sweep output reads C_q, so the series must not ask for it
    written = {}
    for name in ("plain", "refused"):
        if name == "refused":
            forbid_the_algebra_constant(monkeypatch)
        out = tmp_path / name
        cfg = write_config(tmp_path, name=f"{name}.json", coupling=[0.1, 0.2, 0.4], max_order=2, out=str(out))
        result = runner.invoke(main, ["sweep", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        written[name] = [(out / f).read_bytes() for f in ("sweep_residuals.csv", "sweep_slopes.csv")]
    assert written["refused"] == written["plain"]


def test_sweep_blow_up_names_the_coupling_that_crossed_first(runner, tmp_path):
    # on the desk grid 900 crosses the ceiling at an earlier node than 400,
    # though 400 comes first in the list; the stacked solve stops there
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"coupling": [0.05, 400.0, 0.1, 900.0], "out": str(tmp_path / "run")}))
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 3
    assert "blow-up at coupling 900.0: norm ceiling 1000000.0 exceeded at t=0.240234375" in result.output
    assert not (tmp_path / "run" / "sweep_residuals.csv").exists()


@pytest.mark.parametrize(
    "command, changed, named",
    [
        ("solve", {"initial": {"amplitude": 1e200}}, "blow-up: norm ceiling"),
        ("solve", {"coupling": 1e300}, "blow-up: norm ceiling"),
        ("sweep", {"coupling": [0.1, 0.2, 1e300]}, "blow-up at coupling 1e+300"),
    ],
)
def test_an_overflowing_solve_exits_3(runner, tmp_path, command, changed, named):
    # finite inputs whose solve overflows: the norms turn NaN, which must
    # cross the ceiling, not slip under it into an all-NaN trajectory
    cfg = write_config(tmp_path, **changed)
    with np.errstate(over="ignore", invalid="ignore"):
        result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 3, result.output
    assert named in result.output
    assert not (tmp_path / "run" / "trajectory" / "trajectory.npz").exists()


@pytest.mark.parametrize(
    "command, changed, named",
    [
        ("solve", {"initial": {"amplitude": 1e7}}, "blow-up:"),
        ("solve", {"grid": {"L": 1e154}}, "blow-up:"),
        ("sweep", {"initial": {"amplitude": 1e7}, "coupling": [0.1, 0.2, 0.4]}, "blow-up at coupling 0.1:"),
    ],
    ids=["amplitude", "volume", "sweep"],
)
def test_initial_data_over_the_ceiling_exit_3_at_t_0(runner, tmp_path, command, changed, named):
    # the initial data face the ceiling like every later node, so every row
    # crosses at t = 0 and the first in list order is named
    cfg = write_config(tmp_path, **changed, time={"T": 0.1, "s": 0.1, "nt": 4})
    with np.errstate(over="ignore", invalid="ignore"):
        result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 3, result.output
    assert f"{named} norm ceiling 1000000.0 exceeded at t=0.0\n" in result.output


@pytest.mark.parametrize("command", ["transport", "sweep"])
def test_a_series_that_overflows_exits_3(runner, tmp_path, command):
    # a finite but huge test function: its modes overflow, and the sums
    # turn NaN, which must not be printed and written as a result
    changed = {"test_function": {"amplitude": 1e308}}
    if command == "sweep":
        changed["coupling"] = [0.1, 0.2, 0.4]
    cfg = write_config(tmp_path, **changed)
    with np.errstate(over="ignore", invalid="ignore"):
        if command == "transport":
            assert runner.invoke(main, ["solve", "--config", str(cfg)]).exit_code == 0
            result = runner.invoke(main, ["transport", "--config", str(cfg), "--force"])
        else:
            result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 3, result.output
    assert "non-finite series" in result.output
    assert "nan" in result.output
    assert not list((tmp_path / "run").glob("*.csv"))


def test_a_readout_that_overflows_exits_3(runner, tmp_path):
    tf = {"type": "dirac", "x0": 3.0, "width": 0.8}
    cfg = run_solved(runner, tmp_path, test_function=tf)
    # finite fields, so the archive reads, whose squares overflow
    tdir = tmp_path / "run" / "trajectory"
    with np.load(tdir / "trajectory.npz") as data:
        arrays = {name: data[name] for name in data.files}
    arrays["phi"] *= 1e200
    np.savez(tdir / "trajectory.npz", **arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        result = runner.invoke(main, ["readout", "--config", str(cfg)])
    assert result.exit_code == 3, result.output
    assert "non-finite readout" in result.output
    assert not (tmp_path / "run" / "readout.csv").exists()


def test_solving_twice_writes_the_same_archive_bytes(runner, tmp_path):
    archives = []
    for name in ("first", "second"):
        cfg = write_config(tmp_path, name=f"{name}.json", out=str(tmp_path / name))
        assert runner.invoke(main, ["solve", "--config", str(cfg)]).exit_code == 0
        archives.append((tmp_path / name / "trajectory" / "trajectory.npz").read_bytes())
    assert archives[0] == archives[1]


def test_sweep_accepts_threads_only_as_one(runner, tmp_path):
    cfg = write_config(tmp_path, coupling=[0.1, 0.2, 0.4], max_order=1, threads=1)
    assert runner.invoke(main, ["sweep", "--config", str(cfg)]).exit_code == 0
    cfg = write_config(tmp_path, coupling=[0.1, 0.2, 0.4], max_order=1, threads=2)
    result = runner.invoke(main, ["sweep", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "sweep runs on one thread" in result.output


def test_lemma_check_passes_and_counts_trees(runner, tmp_path):
    result = runner.invoke(main, ["lemma-check", "--max-leaves", "4"])
    assert result.exit_code == 0, result.output
    for beta in (2, 3, 4):
        assert f"beta={beta} trees={catalan(beta - 1)}" in result.output
    assert "FAIL" not in result.output


def test_lemma_check_vacuous_below_two_leaves(runner):
    result = runner.invoke(main, ["lemma-check", "--max-leaves", "1"])
    assert result.exit_code == 0
    assert "vacuous" in result.output


def test_lemma_check_rejects_out_of_range(runner):
    assert runner.invoke(main, ["lemma-check", "--max-leaves", "9"]).exit_code == 2
    assert runner.invoke(main, ["lemma-check", "--max-leaves", "0"]).exit_code == 2


def test_readout_requires_a_dirac_spec(runner, tmp_path):
    cfg = run_solved(runner, tmp_path)
    result = runner.invoke(main, ["readout", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "dirac" in result.output


def test_readout_rejects_points_outside_the_box(runner, tmp_path):
    cfg = write_config(
        tmp_path, test_function={"type": "dirac", "x0": 25.0, "width": 0.8}
    )
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "x0" in result.output


def test_readout_writes_estimates(runner, tmp_path):
    tf = {"type": "dirac", "x0": 3.0, "width": 0.8, "which": "velocity"}
    cfg = run_solved(runner, tmp_path, test_function=tf, coupling=0.0)
    result = runner.invoke(main, ["readout", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "readout.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["x0"]) == 3.0
    assert float(row["phi_abs_err"]) <= 2e-2
    assert float(row["dtphi_abs_err"]) <= 1e-8


def test_readout_on_a_two_dimensional_grid_uses_the_diagonal_point(runner, tmp_path):
    tf = {"type": "dirac", "x0": 3.0, "width": 1.5, "which": "velocity"}
    cfg = run_solved(
        runner,
        tmp_path,
        grid={"dim": 2, "Nx": 16, "q": 2},
        time={"nt": 16},
        test_function=tf,
        coupling=0.0,
    )
    result = runner.invoke(main, ["readout", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "run" / "readout.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["x0"]) == 3.0
    assert float(row["dtphi_abs_err"]) <= 1e-8


def test_readout_rejects_an_unresolved_bump(runner, tmp_path):
    cfg = write_config(tmp_path, test_function={"type": "dirac", "x0": 3.0, "width": 0.3})
    result = runner.invoke(main, ["solve", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "test_function.width" in result.output


def test_enumerate_streams_dyck_rows(runner):
    result = runner.invoke(main, ["enumerate", "--max-order", "4"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "order,dyck"
    counts = {}
    for line in lines[1:]:
        order, dyck = line.split(",")
        counts[int(order)] = counts.get(int(order), 0) + 1
        assert set(dyck) <= {"L", "N"}
    assert counts == {n: catalan(n) for n in range(5)}


def test_enumerate_writes_a_file_and_validates_the_cap(runner, tmp_path):
    out = tmp_path / "trees.csv"
    result = runner.invoke(main, ["enumerate", "--max-order", "2", "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text().startswith("order,dyck\n")
    assert runner.invoke(main, ["enumerate", "--max-order", "11"]).exit_code == 2


@pytest.mark.parametrize("out, error", [(".", "Is a directory"), ("", "No such file or directory")], ids=["directory", "empty"])
def test_enumerate_to_an_out_it_cannot_write_exits_2(runner, tmp_path, monkeypatch, out, error):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["enumerate", "--max-order", "2", "--out", out])
    assert result.exit_code == 2, result.output
    assert "config field '--out': cannot write the outputs there: " in result.output
    assert error in result.output
    assert list(tmp_path.iterdir()) == []

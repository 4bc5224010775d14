"""Experiment driver: config handling, commands, and reproducible outputs.

Configs are single JSON files with nested sections; defaults below.  All
quantities are in the grid's natural units.  Outputs are CSV and JSON reports
under the configured output directory, plus the trajectory archive and its
manifest that solve writes; rerunning a command with the same config and seed
produces byte-identical CSV bodies.

Exit codes: 0 success, 1 lemma-check failures, 2 config validation (a
number that is not finite, a boolean where a number belongs, a fraction in
an integer field or a negative seed among them; also a stored
trajectory missing, unreadable, or solved from a different grid, time grid,
coupling or initial data, or, for transport, a manifest without the
solver.phi_e_norm that solve records), 3 blow-up during solving, a node norm
over the ceiling or not a number (sweep names the coupling that crossed
first), or a series that is not finite: an order sum, partial sum or
residual of transport or sweep, or an estimate of readout, that overflowed
to inf or NaN, 4 convergence condition false without --force, 5 sweep
underflow or fewer than 3 distinct coupling magnitudes (the slopes are
fitted in log|coupling|, so a sign flip adds no point).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from .propagation import TimeGrid
from .series import bracket_ds
from .series import readout as readout_series
from .series import series as run_series
from .series import series_couplings
from .solver import BlowUp, TestFunction, dirac_test_function, gaussian_field, node_energies, solve_couplings
from .solver import solve as solve_pde
from .spectral import (
    ModeArray,
    SpectralGrid,
    estimate_algebra_constant,
    evaluate_at,
    random_band_limited,
)
from .storage import (
    MANIFEST_FILE,
    TRAJECTORY_FILE,
    format_float,
    read_manifest,
    read_trajectory,
    write_report_csv,
    write_report_json,
    write_trajectory,
)
from .trees import (
    DEFAULT_ENUMERATION_CAP,
    GrowSpec,
    enumerate_trees,
    graft,
    grow,
    leaf,
    leaf_count,
    signed_grow_sum,
    to_dyck,
)

DEFAULT_CONFIG = {
    "grid": {"L": 40.0, "Nx": 128, "m": 1.0, "q": 1, "dim": 1},
    "time": {"T": 0.5, "s": 0.5, "nt": 512},
    "coupling": 0.2,
    "initial": {"type": "gaussian", "amplitude": 0.5, "width": 2.0, "center": 0.0},
    "test_function": {
        "type": "gaussian",
        "amplitude": 1.0,
        "width": 3.0,
        "center": 0.5,
        "slot": "both",
    },
    "max_order": 4,
    "seed": 0,
    "out": "runs/desk",
}

# The keys each section may hold.  test_function lists the union over its
# types, so one spec can carry keys its type does not read.  sweep runs on one
# thread; a top-level "threads" is still accepted, as 1 only.
CONFIG_KEYS = {
    "": set(DEFAULT_CONFIG) | {"threads"},
    "grid": set(DEFAULT_CONFIG["grid"]),
    "time": set(DEFAULT_CONFIG["time"]),
    "initial": set(DEFAULT_CONFIG["initial"]),
    "test_function": {"type", "amplitude", "width", "center", "slot", "kmax", "x0", "which"},
}


class ConfigError(Exception):
    """Config validation failure; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def _number(raw, cast):
    """``raw`` cast by ``cast``, refusing a boolean, a float that is not finite and a fraction for an int."""
    if isinstance(raw, bool):
        raise TypeError(f"must be a number, got {raw}")
    value = cast(raw)
    if cast is float and not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value}")
    if cast is int and isinstance(raw, float) and value != raw:
        raise ValueError(f"must be an integer, got {raw}")
    return value


def _get(section: dict, section_name: str, key: str, cast, default):
    """The field cast by :func:`_number`; a ConfigError names its path if that fails."""
    try:
        return _number(section.get(key, default), cast)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{section_name}.{key}" if section_name else key, str(exc)) from exc


@dataclass
class ExperimentConfig:
    dim: int
    extent: float
    modes: int
    mass: float
    sobolev_q: int
    window: float
    s: float
    nt: int
    coupling: object
    initial: dict
    test_function: dict
    max_order: int
    seed: int
    out: str

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("<file>", "must hold a JSON object")
        for name in ("grid", "time", "initial", "test_function"):
            if name in data and not isinstance(data[name], dict):
                raise ConfigError(name, "must be an object")
        for name, known in CONFIG_KEYS.items():
            for key in data.get(name, {}) if name else data:
                if key not in known:
                    raise ConfigError(f"{name}.{key}" if name else key, "unknown key")
        threads = data.get("threads", 1)
        if threads != 1 or isinstance(threads, bool):
            raise ConfigError("threads", "sweep runs on one thread")
        grid = data.get("grid", {})
        time = data.get("time", {})
        dg, dt = DEFAULT_CONFIG["grid"], DEFAULT_CONFIG["time"]
        return cls(
            dim=_get(grid, "grid", "dim", int, dg["dim"]),
            extent=_get(grid, "grid", "L", float, dg["L"]),
            modes=_get(grid, "grid", "Nx", int, dg["Nx"]),
            mass=_get(grid, "grid", "m", float, dg["m"]),
            sobolev_q=_get(grid, "grid", "q", int, dg["q"]),
            window=_get(time, "time", "T", float, dt["T"]),
            s=_get(time, "time", "s", float, dt["s"]),
            nt=_get(time, "time", "nt", int, dt["nt"]),
            coupling=data.get("coupling", DEFAULT_CONFIG["coupling"]),
            initial={**DEFAULT_CONFIG["initial"], **data.get("initial", {})},
            test_function={**DEFAULT_CONFIG["test_function"], **data.get("test_function", {})},
            max_order=_get(data, "", "max_order", int, DEFAULT_CONFIG["max_order"]),
            seed=_get(data, "", "seed", int, DEFAULT_CONFIG["seed"]),
            out=str(data.get("out", DEFAULT_CONFIG["out"])),
        )

    def build_grid(self) -> SpectralGrid:
        try:
            return SpectralGrid(self.dim, self.extent, self.modes, self.mass, self.sobolev_q)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

    def build_tgrid(self) -> TimeGrid:
        try:
            tgrid = TimeGrid(self.window, self.nt)
        except ValueError as exc:
            raise ConfigError("time", str(exc)) from exc
        if self.s > self.window:
            raise ConfigError("time.s", f"s={self.s} exceeds the window T={self.window}")
        if not self.s > 0:
            raise ConfigError("time.s", f"s must be positive, got {self.s}")
        try:
            tgrid.node_index(self.s)
        except ValueError as exc:
            raise ConfigError("time.s", "s must coincide with a time-grid node") from exc
        return tgrid

    def coupling_list(self) -> list[float]:
        values = self.coupling if isinstance(self.coupling, (list, tuple)) else [self.coupling]
        try:
            return [_number(v, float) for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("coupling", str(exc)) from exc

    def coupling_scalar(self) -> float:
        values = self.coupling_list()
        if len(values) != 1:
            raise ConfigError("coupling", "this command needs a single coupling value")
        return values[0]

    def initial_spec(self) -> dict:
        """The initial section resolved to its type and floats, as solve records it."""
        di = DEFAULT_CONFIG["initial"]
        spec = {"type": self.initial.get("type")}
        for key in ("amplitude", "width", "center"):
            spec[key] = _get(self.initial, "initial", key, float, di[key])
        return spec

    def test_function_spec(self) -> dict:
        """The test_function section with its numeric fields cast, as the commands read it."""
        tf = self.test_function
        spec = {"type": tf["type"], "slot": tf["slot"], "which": tf.get("which", "velocity")}
        defaults = {"x0": self.extent / 2, "kmax": 8}
        for key, cast in (("amplitude", float), ("width", float), ("center", float), ("x0", float), ("kmax", int)):
            spec[key] = _get(tf, "test_function", key, cast, defaults.get(key))
        return spec

    def validate(self) -> None:
        self.build_grid()
        self.build_tgrid()
        self.coupling_list()
        initial = self.initial_spec()
        if self.seed < 0:
            raise ConfigError("seed", f"must be at least 0, got {self.seed}")
        if not 0 <= self.max_order <= DEFAULT_ENUMERATION_CAP:
            raise ConfigError(
                "max_order", f"must be between 0 and {DEFAULT_ENUMERATION_CAP}"
            )
        if initial["type"] != "gaussian":
            raise ConfigError("initial.type", "only 'gaussian' initial data is supported")
        if not initial["width"] > 0:
            raise ConfigError("initial.width", "must be positive")
        tf = self.test_function_spec()
        if tf["type"] not in ("gaussian", "low-mode", "dirac"):
            raise ConfigError("test_function.type", f"unknown type {tf['type']!r}")
        if tf["type"] == "gaussian":
            if tf["slot"] not in ("both", "position", "velocity"):
                raise ConfigError("test_function.slot", "must be both, position, or velocity")
            if not tf["width"] > 0:
                raise ConfigError("test_function.width", "must be positive")
        if tf["type"] == "low-mode" and tf["kmax"] < 0:
            raise ConfigError("test_function.kmax", f"must be at least 0, got {tf['kmax']}")
        if tf["type"] == "dirac":
            if tf["which"] not in ("velocity", "position"):
                raise ConfigError("test_function.which", "must be velocity or position")
            if not 0 <= tf["x0"] < self.extent:
                raise ConfigError("test_function.x0", f"x0={tf['x0']} outside the grid [0, {self.extent})")
            spacing = self.extent / self.modes
            if not tf["width"] >= spacing:
                raise ConfigError(
                    "test_function.width", f"width {tf['width']} is below the grid spacing {spacing}"
                )

    def build_initial(self, grid: SpectralGrid):
        from .spectral import FieldSnapshot

        initial = self.initial_spec()
        phi = gaussian_field(grid, initial["amplitude"], initial["width"], initial["center"])
        pi = ModeArray(grid, np.zeros(grid.shape, dtype=complex))
        return FieldSnapshot(0.0, phi, pi)

    def build_test_function(self, grid: SpectralGrid) -> TestFunction:
        spec = self.test_function_spec()
        kind = spec["type"]
        if kind == "gaussian":
            g = gaussian_field(grid, spec["amplitude"], spec["width"], spec["center"])
            zero = ModeArray(grid, np.zeros(grid.shape, dtype=complex))
            if spec["slot"] == "position":
                return TestFunction(g, zero)
            if spec["slot"] == "velocity":
                return TestFunction(zero, g)
            return TestFunction(g, g)
        if kind == "low-mode":
            rng = np.random.default_rng(self.seed)
            psi0 = random_band_limited(grid, rng, spec["kmax"])
            psi1 = random_band_limited(grid, rng, spec["kmax"])
            psi0.values *= spec["amplitude"]
            psi1.values *= spec["amplitude"]
            return TestFunction(psi0, psi1)
        return dirac_test_function(grid, spec["x0"], spec["width"], spec["which"])


def _load_config(path: str, max_order=None, seed=None, out=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    cfg = ExperimentConfig.from_dict(data)
    if max_order is not None:
        cfg.max_order = max_order
    if seed is not None:
        cfg.seed = seed
    if out is not None:
        cfg.out = out
    cfg.validate()
    return cfg


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _require_finite_series(report, label: str = "") -> None:
    """Exit 3 unless every order sum, partial sum and residual of the report is a finite number."""
    for term, partial, residual in zip(report.per_order, report.partial_sums, report.residuals):
        if not all(math.isfinite(v) for v in (term.order_sum, partial, residual)):
            _fail(
                3,
                f"non-finite series{label}: order {term.order} sum {term.order_sum!r}, "
                f"partial sum {partial!r}, residual {residual!r}",
            )


def _config_errors(func):
    """Map ConfigError raised inside a command to exit code 2."""

    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigError as exc:
            _fail(2, str(exc))

    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


@click.group(
    epilog="Default configuration (JSON):\n\n\b\n" + json.dumps(DEFAULT_CONFIG, indent=2)
)
def main():
    """Reconstruct the linear Klein-Gordon charge from a single time slice.

    Commands read one JSON config (see the epilog for every default) and
    write CSV/JSON outputs under the configured directory.
    """


_config_opt = click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
_out_opt = click.option("--out", default=None, help="Override the output directory.")
_max_order_opt = click.option("--max-order", type=int, default=None, help="Override max_order.")
_seed_opt = click.option("--seed", type=int, default=None, help="Override the seed.")


def _trajectory_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.out) / "trajectory"


def _read_matching_trajectory(cfg: ExperimentConfig):
    """Load the stored trajectory; exit 2 unless it was solved from this config.

    Grid, time grid, coupling and initial data shape the trajectory and must
    match; s, max_order, test_function and seed do not and stay free.
    """
    tdir = _trajectory_dir(cfg)
    if not ((tdir / MANIFEST_FILE).exists() and (tdir / TRAJECTORY_FILE).exists()):
        raise ConfigError("out", f"no {TRAJECTORY_FILE} found under {tdir}; run solve first")
    try:
        traj = read_trajectory(tdir)
    except ValueError as exc:
        message = f"unreadable trajectory under {tdir} ({exc}); run solve first"
        raise ConfigError("out", message) from exc
    if traj.grid != cfg.build_grid():
        raise ConfigError("grid", "stored trajectory was produced with a different grid")
    if traj.tgrid != cfg.build_tgrid():
        raise ConfigError("time", "stored trajectory was produced with a different time grid")
    coupling = cfg.coupling_scalar()
    if traj.coupling != coupling:
        raise ConfigError(
            "coupling",
            f"stored trajectory was solved at {traj.coupling!r}, the config gives {coupling!r}",
        )
    stored = read_manifest(tdir).get("initial", {})
    for key, value in cfg.initial_spec().items():
        if stored.get(key) != value:
            raise ConfigError(
                f"initial.{key}",
                f"stored trajectory was solved with {stored.get(key)!r}, "
                f"the config gives {value!r}",
            )
    return traj


@main.command()
@_config_opt
@_out_opt
@_seed_opt
@_config_errors
def solve(config_path, out, seed):
    """Integrate the field equation and store the trajectory."""
    cfg = _load_config(config_path, seed=seed, out=out)
    grid = cfg.build_grid()
    tgrid = cfg.build_tgrid()
    initial = cfg.build_initial(grid)
    coupling = cfg.coupling_scalar()
    try:
        traj = solve_pde(initial, coupling, tgrid)
    except BlowUp as exc:
        _fail(3, f"blow-up: {exc}")
    energies = node_energies(traj)
    drift = float(np.max(np.abs(energies - energies[0]))) / max(1.0, abs(float(energies[0])))
    write_trajectory(
        _trajectory_dir(cfg),
        traj,
        {
            "seed": cfg.seed,
            "initial": cfg.initial_spec(),
            "energy_drift": drift,
            "created": datetime.now(timezone.utc).isoformat(),
        },
    )
    click.echo(f"wrote {tgrid.nnodes} snapshots to {_trajectory_dir(cfg)} (energy drift {drift:.3e})")


@main.command()
@_config_opt
@_out_opt
@_max_order_opt
@click.option("--force", is_flag=True, help="Run even if the convergence condition fails.")
@_config_errors
def transport(config_path, out, max_order, force):
    """Sum the tree series at s and compare with the charge at t=0."""
    cfg = _load_config(config_path, max_order=max_order, out=out)
    traj = _read_matching_trajectory(cfg)
    if "phi_e_norm" not in traj.meta:
        raise ConfigError(
            "out",
            f"the manifest under {_trajectory_dir(cfg)} lacks solver.phi_e_norm "
            "(written by an earlier kgcharge); run solve again",
        )
    grid = traj.grid
    psi = cfg.build_test_function(grid)
    target = bracket_ds(psi, traj.node(0))
    snap = traj.node(traj.tgrid.node_index(cfg.s))
    report = run_series(
        psi,
        snap,
        traj.coupling,
        traj.tgrid,
        cfg.max_order,
        target=target,
        window=cfg.window,
        c_q=estimate_algebra_constant(grid),
        phi_e_norm=traj.meta["phi_e_norm"],
    )
    _require_finite_series(report)
    if not report.condition_ok:
        if not force:
            _fail(
                4,
                "convergence condition is false for this run; rerun with --force to proceed",
            )
        report.meta["forced"] = True
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(out_dir / "report.json", report)
    write_report_csv(out_dir / "report.csv", report)
    for term, residual in zip(report.per_order, report.residuals):
        click.echo(
            f"order {term.order}: {term.tree_count} trees, partial sum residual {residual:.3e}"
        )
    click.echo(f"radius bound {report.radius_bound:.6f}, condition_ok {report.condition_ok}")


@main.command()
@_config_opt
@_out_opt
@_max_order_opt
@_seed_opt
@_config_errors
def sweep(config_path, out, max_order, seed):
    """Solve and transport across a coupling list; fit residual slopes."""
    cfg = _load_config(config_path, max_order=max_order, seed=seed, out=out)
    couplings = cfg.coupling_list()
    magnitudes = len({abs(c) for c in couplings})
    if magnitudes < 3:
        _fail(5, f"sweep needs at least 3 distinct coupling magnitudes, got {magnitudes}")
    grid = cfg.build_grid()
    tgrid = cfg.build_tgrid()
    initial = cfg.build_initial(grid)
    psi = cfg.build_test_function(grid)
    c_q = estimate_algebra_constant(grid)
    j_s = tgrid.node_index(cfg.s)
    try:
        trajectories = solve_couplings(initial, couplings, tgrid)
    except BlowUp as exc:
        _fail(3, f"blow-up at coupling {exc.coupling!r}: {exc}")
    # Keep only each coupling's slice at s and its norm, so the series runs
    # with no trajectory held in memory.
    slices = [traj.node(j_s).copy() for traj in trajectories]
    phi_e_norms = [traj.meta["phi_e_norm"] for traj in trajectories]
    del trajectories
    reports = series_couplings(
        psi,
        slices,
        couplings,
        tgrid,
        cfg.max_order,
        target=bracket_ds(psi, initial),
        window=cfg.window,
        c_q=c_q,
        phi_e_norms=phi_e_norms,
    )
    for coupling, report in zip(couplings, reports):
        _require_finite_series(report, f" at coupling {coupling}")
    for coupling, report in zip(couplings, reports):
        for order, residual in enumerate(report.residuals):
            if residual < 1e-14:
                _fail(
                    5,
                    f"residual underflow at coupling {coupling}, order {order}: "
                    f"{residual:.3e} is below 1e-14, slope fit unreliable",
                )
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep_residuals.csv", "w", newline="") as fh:
        fh.write("coupling,order,residual,partial_sum\n")
        for coupling, report in zip(couplings, reports):
            for term, partial in zip(report.per_order, report.partial_sums):
                fh.write(
                    f"{format_float(coupling)},{term.order},"
                    f"{format_float(report.residuals[term.order])},{format_float(partial)}\n"
                )
    log_l = np.log(np.abs(couplings))
    with open(out_dir / "sweep_slopes.csv", "w", newline="") as fh:
        fh.write("order,slope\n")
        for order in range(cfg.max_order + 1):
            log_r = np.log([report.residuals[order] for report in reports])
            slope = np.polyfit(log_l, log_r, 1)[0]
            fh.write(f"{order},{format_float(slope)}\n")
            click.echo(f"order {order}: residual slope {slope:.3f}")


@main.command("lemma-check")
@click.option("--max-leaves", type=int, default=8, show_default=True, help="Largest leaf count checked.")
def lemma_check(max_leaves):
    """Exhaustively verify the signed-growth and leaf-count identities."""
    if not 1 <= max_leaves <= 8:
        _fail(2, "config field 'max-leaves': must be between 1 and 8")
    cherry = graft(leaf(), leaf())
    failures = 0
    for beta in range(2, max_leaves + 1):
        trees = enumerate_trees(beta - 1)
        signed_ok = all(signed_grow_sum(b) == 0 for b in trees)
        grow_ok = True
        specs_checked = 0
        for a in trees:
            n = leaf_count(a)
            if n + 1 > max_leaves:
                continue
            for entries in itertools.product((leaf(), cherry), repeat=n):
                spec = GrowSpec(entries)
                grow_ok = grow_ok and leaf_count(grow(spec, a)) == n + spec.n_y
                specs_checked += 1
        if not (signed_ok and grow_ok):
            failures += 1
        click.echo(
            f"beta={beta} trees={len(trees)} "
            f"signed_sum={'PASS' if signed_ok else 'FAIL'} "
            f"grow_identity={'PASS' if grow_ok else 'FAIL'} ({specs_checked} growths)"
        )
    if max_leaves < 2:
        click.echo("no trees with beta >= 2 in range; vacuous PASS")
    if failures:
        _fail(1, f"{failures} leaf-count class(es) failed")
    click.echo("all checks passed")


@main.command()
@_config_opt
@_out_opt
@_max_order_opt
@_config_errors
def readout(config_path, out, max_order):
    """Recover phi and its time derivative at (t=0, x0) from the slice at s."""
    cfg = _load_config(config_path, max_order=max_order, out=out)
    spec = cfg.test_function_spec()
    if spec["type"] != "dirac":
        raise ConfigError("test_function.type", "readout needs a dirac test-function spec")
    traj = _read_matching_trajectory(cfg)
    x0, width = spec["x0"], spec["width"]
    phi_est, dtphi_est = readout_series(traj, cfg.s, x0, width, cfg.max_order)
    if not (math.isfinite(phi_est) and math.isfinite(dtphi_est)):
        _fail(3, f"non-finite readout: phi estimate {phi_est!r}, d/dt phi estimate {dtphi_est!r}")
    first = traj.node(0)
    phi_true = evaluate_at(first.phi, x0)
    dtphi_true = evaluate_at(first.pi, x0)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "readout.csv", "w", newline="") as fh:
        fh.write("x0,phi_true,phi_est,dtphi_true,dtphi_est,phi_abs_err,dtphi_abs_err\n")
        fh.write(
            ",".join(
                format_float(v)
                for v in (
                    x0,
                    phi_true,
                    phi_est,
                    dtphi_true,
                    dtphi_est,
                    abs(phi_est - phi_true),
                    abs(dtphi_est - dtphi_true),
                )
            )
            + "\n"
        )
    click.echo(
        f"phi(0,{x0}) = {phi_est:.6f} (true {phi_true:.6f}), "
        f"d/dt phi(0,{x0}) = {dtphi_est:.6f} (true {dtphi_true:.6f})"
    )


@main.command("enumerate")
@click.option("--max-order", type=int, default=6, show_default=True, help="Largest order listed.")
@_out_opt
def enumerate_cmd(max_order, out):
    """List every tree up to an order as (order, dyck) CSV rows."""
    if not 0 <= max_order <= DEFAULT_ENUMERATION_CAP:
        _fail(2, f"config field 'max-order': must be between 0 and {DEFAULT_ENUMERATION_CAP}")
    lines = ["order,dyck"]
    counts = []
    for order in range(max_order + 1):
        forest = enumerate_trees(order)
        counts.append(len(forest))
        for b in forest:
            lines.append(f"{order},{to_dyck(b)}")
    body = "\n".join(lines) + "\n"
    if out is None:
        click.echo(body, nl=False)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            fh.write(body)
        click.echo(f"orders 0..{max_order}: counts {counts}; wrote {out}")


if __name__ == "__main__":
    main()

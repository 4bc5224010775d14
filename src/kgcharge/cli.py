"""Experiment driver: config handling, commands, and reproducible outputs.

Configs are single JSON files with nested sections: SCHEMA below gives every
key's type and DEFAULT_CONFIG the defaults that --help prints.  All
quantities are in the grid's natural units.  Outputs are CSV and JSON reports
under the configured output directory, plus the trajectory archive and its
manifest that solve writes; rerunning a command with the same config and seed
produces byte-identical CSV bodies.

Exit codes: 0 success, 1 lemma-check failures, 2 config validation (a
number that is not finite, a boolean where a number belongs, a fraction in
an integer field, a negative seed, an out that is not a string, and a grid
whose m**2 or L**dim overflows, whose m**2 underflows to 0 or whose
m**2 + |k|**2 overflows among them; also arrays too large for memory, with
numpy's size and the fields that set it, grid.Nx, grid.dim and time.nt;
also a Gaussian width whose 2 * width**2 is not a finite float above 0,
or a dirac width whose (width * sqrt(2 pi))**dim is not,
an out or enumerate --out that cannot be written (the OS error quoted),
for transport and sweep a test function 0 at every mode (naming
test_function.amplitude when it is 0, test_function.width otherwise),
for transport initial data whose slice at s has H^q norms of 0 (naming
initial.amplitude),
a stored trajectory missing, unreadable, or solved from a different
grid, time grid, coupling or initial data, or, for transport, a manifest
without the solver.phi_e_norm and solver.c_q that solve records, or with
a phi_e_norm that is not a finite number at least 0 or a c_q that is not a
finite number above 0), 3 blow-up during solving, a node norm over the
ceiling or not a number (sweep names the coupling that crossed first), or a
series that is not finite: an order sum, partial sum or residual of
transport or sweep, or an estimate of readout, that overflowed to inf or
NaN, 4 convergence condition false without --force, 5 sweep underflow, a
sweep coupling of 0 or fewer than 3 distinct coupling magnitudes (the
slopes are fitted in log|coupling|, so 0 has no point and a sign flip adds
none).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from .propagation import TimeGrid
from .series import bracket_ds, convergence_condition, radius_bound
from .series import readout as readout_series
from .series import series as run_series
from .series import series_couplings
from .solver import BlowUp, TestFunction, dirac_denominator, dirac_test_function, gaussian_denominator, gaussian_field
from .solver import solve_couplings
from .solver import solve as solve_pde
from .spectral import (
    FieldSnapshot,
    ModeArray,
    SpectralGrid,
    estimate_algebra_constant,
    evaluate_at,
    random_band_limited,
)
from .storage import (
    MANIFEST_FILE,
    TRAJECTORY_FILE,
    read_manifest,
    read_trajectory,
    write_csv,
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


def _couplings(raw) -> list[float]:
    """One coupling or a list of them, as a list of floats."""
    return [_number(value, float) for value in (raw if isinstance(raw, list) else [raw])]


def _directory(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError(f"must be a directory name, got {raw!r}")
    return raw


def _one_thread(raw):
    if raw != 1 or isinstance(raw, bool):
        raise ValueError("sweep runs on one thread")
    return raw


# Every key's type.  An int or float key is cast by _number, and a str key
# is checked against its choices once the grid is built; coupling, out and
# threads have readers of their own.  test_function holds the keys of all
# its types, so one spec can carry keys its type does not read.
SCHEMA = {
    "grid": {"L": float, "Nx": int, "m": float, "q": int, "dim": int},
    "time": {"T": float, "s": float, "nt": int},
    "coupling": _couplings,
    "initial": {"type": str, "amplitude": float, "width": float, "center": float},
    "test_function": {
        "type": str, "amplitude": float, "width": float, "center": float, "slot": str,
        "kmax": int, "x0": float, "which": str,  # low-mode and dirac only
    },
    "max_order": int,
    "seed": int,
    "out": _directory,
    "threads": _one_thread,
}
# DEFAULT_CONFIG with the defaults --help leaves out.  A dirac x0 has none
# here: it is the middle of the box, L / 2, once the grid is built.
_DEFAULTS = {
    **DEFAULT_CONFIG,
    "test_function": {**DEFAULT_CONFIG["test_function"], "kmax": 8, "which": "velocity"},
    "threads": 1,
}


def _read(raw, schema: dict, defaults: dict, path: str = "") -> dict:
    """The section ``raw`` with its defaults filled in and each value read by its ``schema`` type.

    A ConfigError names the first key the schema does not know or whose
    value does not read.
    """
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be an object") if path else ConfigError("<file>", "must hold a JSON object")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    section = {}
    for key, value in {**defaults, **raw}.items():
        kind, name = schema[key], f"{path}.{key}" if path else key
        if isinstance(kind, dict):
            section[key] = _read(value, kind, defaults[key], name)
        elif kind is str:
            section[key] = value
        else:
            try:
                section[key] = _number(value, kind) if kind in (int, float) else kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(name, str(exc)) from exc
    return section


@dataclass(frozen=True)
class Config:
    """A config read and checked, with its grids built: what every command reads."""

    grid: SpectralGrid
    tgrid: TimeGrid
    s: float
    couplings: list[float]
    initial: dict
    test_function: dict
    max_order: int
    seed: int
    out: str


def _load_config(path: str, **options) -> Config:
    """Read the config file; each option that is not None replaces the top-level key of its name."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8: a file that does not decode is not JSON either
        raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
    data = _read(data, SCHEMA, _DEFAULTS)
    data.update((key, value) for key, value in options.items() if value is not None)
    g, t = data["grid"], data["time"]
    try:
        grid = SpectralGrid(g["dim"], g["L"], g["Nx"], g["m"], g["q"])
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from exc
    try:
        tgrid = TimeGrid(t["T"], t["nt"])
    except ValueError as exc:
        raise ConfigError("time", str(exc)) from exc
    s = t["s"]
    if s > tgrid.horizon:
        raise ConfigError("time.s", f"s={s} exceeds the window T={tgrid.horizon}")
    if not s > 0:
        raise ConfigError("time.s", f"s must be positive, got {s}")
    try:
        tgrid.node_index(s)
    except ValueError as exc:
        raise ConfigError("time.s", "s must coincide with a time-grid node") from exc
    if data["seed"] < 0:
        raise ConfigError("seed", f"must be at least 0, got {data['seed']}")
    if not 0 <= data["max_order"] <= DEFAULT_ENUMERATION_CAP:
        raise ConfigError("max_order", f"must be between 0 and {DEFAULT_ENUMERATION_CAP}")
    initial, tf = data["initial"], data["test_function"]
    if initial["type"] != "gaussian":
        raise ConfigError("initial.type", "only 'gaussian' initial data is supported")
    tf.setdefault("x0", grid.extent / 2)
    if tf["type"] not in ("gaussian", "low-mode", "dirac"):
        raise ConfigError("test_function.type", f"unknown type {tf['type']!r}")
    for name, spec in (("initial", initial), ("test_function", tf)):
        try:
            if spec["type"] != "low-mode":
                gaussian_denominator(spec["width"])
        except ValueError as exc:
            raise ConfigError(f"{name}.width", str(exc)) from None
    if tf["type"] == "gaussian":
        if tf["slot"] not in ("both", "position", "velocity"):
            raise ConfigError("test_function.slot", "must be both, position, or velocity")
    if tf["type"] == "low-mode" and tf["kmax"] < 0:
        raise ConfigError("test_function.kmax", f"must be at least 0, got {tf['kmax']}")
    if tf["type"] == "dirac":
        if tf["which"] not in ("velocity", "position"):
            raise ConfigError("test_function.which", "must be velocity or position")
        if not 0 <= tf["x0"] < grid.extent:
            raise ConfigError("test_function.x0", f"x0={tf['x0']} outside the grid [0, {grid.extent})")
        if not tf["width"] >= grid.spacing:
            raise ConfigError(
                "test_function.width", f"width {tf['width']} is below the grid spacing {grid.spacing}"
            )
        try:
            dirac_denominator(tf["width"], grid.dim)
        except ValueError as exc:
            raise ConfigError("test_function.width", str(exc)) from None
    return Config(grid, tgrid, s, data["coupling"], initial, tf, data["max_order"], data["seed"], data["out"])


@contextmanager
def _writing_to(name: str):
    """Map an OSError raised while writing outputs to exit 2, naming the field that placed them."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(name, f"cannot write the outputs there: {exc}") from exc


def _coupling(cfg: Config) -> float:
    """The config's one coupling: every command but sweep takes a single value."""
    if len(cfg.couplings) != 1:
        raise ConfigError("coupling", "this command needs a single coupling value")
    return cfg.couplings[0]


def build_initial(cfg: Config) -> FieldSnapshot:
    grid, spec = cfg.grid, cfg.initial
    phi = gaussian_field(grid, spec["amplitude"], spec["width"], spec["center"])
    return FieldSnapshot(0.0, phi, ModeArray(grid, np.zeros(grid.half_shape, dtype=complex)))


def build_test_function(cfg: Config) -> TestFunction:
    """The config's psi; ConfigError when every mode of it is 0, where every residual would read 0."""
    grid, spec = cfg.grid, cfg.test_function
    kind = spec["type"]
    if kind == "gaussian":
        g = gaussian_field(grid, spec["amplitude"], spec["width"], spec["center"])
        zero = ModeArray(grid, np.zeros(grid.half_shape, dtype=complex))
        slots = {"position": (g, zero), "velocity": (zero, g)}
        psi = TestFunction(*slots.get(spec["slot"], (g, g)))
    elif kind == "low-mode":
        rng = np.random.default_rng(cfg.seed)
        psi0 = random_band_limited(grid, rng, spec["kmax"])
        psi1 = random_band_limited(grid, rng, spec["kmax"])
        psi0.values *= spec["amplitude"]
        psi1.values *= spec["amplitude"]
        psi = TestFunction(psi0, psi1)
    else:
        psi = dirac_test_function(grid, spec["x0"], spec["width"], spec["which"])
    if not (psi.psi0.values.any() or psi.psi1.values.any()):
        # a low-mode psi has no width; a Gaussian narrower than the spacing
        # can fall between the grid points
        if kind == "low-mode" or kind == "gaussian" and spec["amplitude"] == 0:
            message = f"amplitude {spec['amplitude']!r} makes the test function 0 at every mode"
            raise ConfigError("test_function.amplitude", message)
        raise ConfigError(
            "test_function.width",
            f"width {spec['width']!r} leaves the test function 0 at every grid point (spacing {grid.spacing})",
        )
    return psi


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
    """Map ConfigError raised inside a command, and an array too large for memory, to exit code 2."""

    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigError as exc:
            _fail(2, str(exc))
        except MemoryError as exc:
            _fail(2, f"out of memory ({exc}); config fields 'grid.Nx', 'grid.dim' and 'time.nt' set the array sizes")

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


def _trajectory_dir(cfg: Config) -> Path:
    return Path(cfg.out) / "trajectory"


def _read_matching_trajectory(cfg: Config) -> tuple[FieldSnapshot, FieldSnapshot, dict]:
    """Copies of node 0 and of the slice at s of the stored trajectory, and its meta; exit 2 unless it matches.

    Grid, time grid, coupling and initial data shape the trajectory and must
    match; s, max_order, test_function and seed do not and stay free.  The
    archive's tables are freed on return, before a series takes its
    workspace, which can then reuse their memory.
    """
    tdir = _trajectory_dir(cfg)
    if not ((tdir / MANIFEST_FILE).exists() and (tdir / TRAJECTORY_FILE).exists()):
        raise ConfigError("out", f"no {TRAJECTORY_FILE} found under {tdir}; run solve first")
    try:
        traj = read_trajectory(tdir)
    except ValueError as exc:
        message = f"unreadable trajectory under {tdir} ({exc}); run solve first"
        raise ConfigError("out", message) from exc
    if traj.grid != cfg.grid:
        raise ConfigError("grid", "stored trajectory was produced with a different grid")
    if traj.tgrid != cfg.tgrid:
        raise ConfigError("time", "stored trajectory was produced with a different time grid")
    coupling = _coupling(cfg)
    if traj.coupling != coupling:
        raise ConfigError(
            "coupling",
            f"stored trajectory was solved at {traj.coupling!r}, the config gives {coupling!r}",
        )
    stored = read_manifest(tdir).get("initial", {})
    for key, value in cfg.initial.items():
        if stored.get(key) != value:
            raise ConfigError(
                f"initial.{key}",
                f"stored trajectory was solved with {stored.get(key)!r}, "
                f"the config gives {value!r}",
            )
    return traj.node(0), traj.node(cfg.tgrid.node_index(cfg.s)), traj.meta


def _recorded_bound_inputs(cfg: Config, meta: dict) -> tuple[float, float]:
    """The ``phi_e_norm`` and ``c_q`` that solve recorded; exit 2 unless both are there and in range.

    Each must be a finite number, phi_e_norm at least 0 and c_q above 0; a
    boolean is no number, as in the config.
    """
    where = f"the manifest under {_trajectory_dir(cfg)}"
    recorded = []
    for key, zero_ok in (("phi_e_norm", True), ("c_q", False)):
        if key not in meta:
            raise ConfigError("out", f"{where} lacks solver.{key} (written by an earlier kgcharge); run solve again")
        value = meta[key]
        try:
            number = _number(value, float) if isinstance(value, (int, float)) else math.nan
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if not (number > 0 or zero_ok and number == 0):
            least = "at least" if zero_ok else "above"
            message = f"{where} gives solver.{key} {value!r}, not a finite number {least} 0; run solve again"
            raise ConfigError("out", message)
        recorded.append(number)
    return recorded[0], recorded[1]


@main.command()
@_config_opt
@_out_opt
@_config_errors
def solve(config_path, out):
    """Integrate the field equation and store the trajectory."""
    cfg = _load_config(config_path, out=out)
    initial = build_initial(cfg)
    coupling = _coupling(cfg)
    # C_q depends on the grid alone: estimated once here and recorded for
    # every transport of the trajectory.  Estimated before the solve: placed
    # after it, the same work made the benchmark's desk session (solve,
    # transport, readout) read about 4% slower.
    c_q = estimate_algebra_constant(cfg.grid)
    try:
        traj = solve_pde(initial, coupling, cfg.tgrid)
    except BlowUp as exc:
        _fail(3, f"blow-up: {exc}")
    # recorded at the manifest's top level, not among the solver's keys
    drift = traj.meta.pop("energy_drift")
    manifest = {"initial": cfg.initial, "energy_drift": drift, "created": datetime.now(timezone.utc).isoformat()}
    traj.meta["c_q"] = c_q
    with _writing_to("out"):
        write_trajectory(_trajectory_dir(cfg), traj, manifest)
    click.echo(f"wrote {cfg.tgrid.nnodes} snapshots to {_trajectory_dir(cfg)} (energy drift {drift:.3e})")


@main.command()
@_config_opt
@_out_opt
@_max_order_opt
@click.option("--force", is_flag=True, help="Run even if the convergence condition fails.")
@_config_errors
def transport(config_path, out, max_order, force):
    """Sum the tree series at s and compare with the charge at t=0."""
    cfg = _load_config(config_path, max_order=max_order, out=out)
    first, snap, meta = _read_matching_trajectory(cfg)
    phi_e_norm, c_q = _recorded_bound_inputs(cfg, meta)
    psi = build_test_function(cfg)
    target = bracket_ds(psi, first)
    coupling, window = _coupling(cfg), cfg.tgrid.horizon
    try:
        radius = radius_bound(snap, window, c_q)
    except ValueError as exc:
        # c_q is above 0 here, so the slice's data vanish, or underflow
        message = f"at amplitude {cfg.initial['amplitude']!r} the data vanish at s: {exc}"
        raise ConfigError("initial.amplitude", message) from None
    bounds = {
        "radius_bound": radius,
        "condition_ok": convergence_condition(coupling, window, phi_e_norm, c_q, cfg.grid.mass),
        "c_q": c_q,
        "window": window,
        "phi_e_norm": phi_e_norm,
    }
    report = run_series(psi, snap, coupling, cfg.tgrid, cfg.max_order, target=target)
    _require_finite_series(report)
    if not bounds["condition_ok"]:
        if not force:
            _fail(
                4,
                "convergence condition is false for this run; rerun with --force to proceed",
            )
        report.meta["forced"] = True
    out_dir = Path(cfg.out)
    with _writing_to("out"):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report_json(out_dir / "report.json", report, bounds)
        write_report_csv(out_dir / "report.csv", report)
    for term, residual in zip(report.per_order, report.residuals):
        click.echo(
            f"order {term.order}: {term.tree_count} trees, partial sum residual {residual:.3e}"
        )
    click.echo(f"radius bound {bounds['radius_bound']:.6f}, condition_ok {bounds['condition_ok']}")


@main.command()
@_config_opt
@_out_opt
@_max_order_opt
@_config_errors
def sweep(config_path, out, max_order):
    """Solve and transport across a coupling list; fit residual slopes."""
    cfg = _load_config(config_path, max_order=max_order, out=out)
    couplings = cfg.couplings
    if 0.0 in couplings:
        _fail(5, "sweep fits its slopes in log|coupling|, where a coupling of 0 has no point; remove it")
    magnitudes = len({abs(c) for c in couplings})
    if magnitudes < 3:
        _fail(5, f"sweep needs at least 3 distinct coupling magnitudes, got {magnitudes}")
    initial = build_initial(cfg)
    psi = build_test_function(cfg)
    # the solve stores each coupling's slice at s alone, and still steps
    # and checks every node up to T
    try:
        slices = solve_couplings(initial, couplings, cfg.tgrid, at=cfg.tgrid.node_index(cfg.s))
    except BlowUp as exc:
        _fail(3, f"blow-up at coupling {exc.coupling!r}: {exc}")
    reports = series_couplings(psi, slices, couplings, cfg.tgrid, cfg.max_order, target=bracket_ds(psi, initial))
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
    log_l = np.log(np.abs(couplings))
    slopes = [
        np.polyfit(log_l, np.log([report.residuals[order] for report in reports]), 1)[0]
        for order in range(cfg.max_order + 1)
    ]
    out_dir = Path(cfg.out)
    with _writing_to("out"):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(
            out_dir / "sweep_residuals.csv",
            ["coupling", "order", "residual", "partial_sum"],
            [
                (coupling, term.order, report.residuals[term.order], partial)
                for coupling, report in zip(couplings, reports)
                for term, partial in zip(report.per_order, report.partial_sums)
            ],
        )
        write_csv(out_dir / "sweep_slopes.csv", ["order", "slope"], enumerate(slopes))
    for order, slope in enumerate(slopes):
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
    spec = cfg.test_function
    if spec["type"] != "dirac":
        raise ConfigError("test_function.type", "readout needs a dirac test-function spec")
    first, snap, _ = _read_matching_trajectory(cfg)
    x0, width = spec["x0"], spec["width"]
    phi_est, dtphi_est = readout_series(snap, _coupling(cfg), cfg.tgrid, x0, width, cfg.max_order)
    if not (math.isfinite(phi_est) and math.isfinite(dtphi_est)):
        _fail(3, f"non-finite readout: phi estimate {phi_est!r}, d/dt phi estimate {dtphi_est!r}")
    phi_true = evaluate_at(first.phi, x0)
    dtphi_true = evaluate_at(first.pi, x0)
    out_dir = Path(cfg.out)
    with _writing_to("out"):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(
            out_dir / "readout.csv",
            ["x0", "phi_true", "phi_est", "dtphi_true", "dtphi_est", "phi_abs_err", "dtphi_abs_err"],
            [(x0, phi_true, phi_est, dtphi_true, dtphi_est, abs(phi_est - phi_true), abs(dtphi_est - dtphi_true))],
        )
    click.echo(
        f"phi(0,{x0}) = {phi_est:.6f} (true {phi_true:.6f}), "
        f"d/dt phi(0,{x0}) = {dtphi_est:.6f} (true {dtphi_true:.6f})"
    )


@main.command("enumerate")
@click.option("--max-order", type=int, default=6, show_default=True, help="Largest order listed.")
@_out_opt
@_config_errors
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
        with _writing_to("--out"):
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            with open(out, "w", newline="") as fh:
                fh.write(body)
        click.echo(f"orders 0..{max_order}: counts {counts}; wrote {out}")


if __name__ == "__main__":
    main()

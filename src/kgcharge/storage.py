"""On-disk formats: trajectory directory, report JSON/CSV.

A trajectory directory holds two files.  ``trajectory.npz`` is an
uncompressed ``np.savez`` archive of three arrays: ``times`` (float64, the
time grid's nodes) and the trajectory's ``phi`` and ``pi`` tables
(complex128, shape ``(nnodes, *grid.half_shape)``, the half spectrum the
solver steps in), written and read as they are, so every grid dimension
uses one format and the values round-trip bit for bit.  ``manifest.json``
describes the run: grid, time grid, the real coupling, the trajectory's
``meta`` under ``solver`` (the CLI's solve adds the sampled algebra
constant ``c_q`` beside the solver's ``phi_e_norm``) and whatever the
caller adds.  The archive's zip entries carry a fixed timestamp, so
writing the same trajectory again produces the same bytes.  Reading checks
the archive against its manifest and raises ValueError on:

- a manifest or archive that cannot be read: a directory, or an archive
  that is empty, truncated or corrupted (a bad CRC-32 among them);
- a manifest that is not an object, or whose grid or time grid is not an
  object with exactly the keys written here, with an integer (not a
  boolean) for every integer field and a finite real number for every
  other;
- a coupling that is missing or not a finite real number, and a
  ``solver`` or ``initial`` section that is not an object;
- arrays of the wrong shape or dtype, among them the full-spectrum tables
  of an older kgcharge, ``times`` that are not the manifest's nodes, or
  non-finite field values.

Every trajectory is a real field: a manifest of an older kgcharge that
flags its fields real still reads, and one that flags them otherwise
raises ValueError.

A report JSON holds the series report's fields and the convergence bounds
its caller computed beside the series (transport gives ``radius_bound``,
``condition_ok``, ``c_q``, ``window`` and ``phi_e_norm``, the last three
read from the trajectory).  Every CSV, the report's and the CLI's sweep
and readout tables, is written by ``write_csv`` and is deterministic:
comma separated, a header row, floats at 17 significant digits with a "."
decimal point regardless of locale.  Wall-clock information lives only in
trajectory manifests, never in CSV bodies, so reruns with the same inputs
produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import sys
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .propagation import TimeGrid
from .solver import Trajectory
from .spectral import SpectralGrid

TRAJECTORY_FILE = "trajectory.npz"
MANIFEST_FILE = "manifest.json"


def format_float(x: float) -> str:
    return f"{x:.16e}"


def write_trajectory(directory, traj: Trajectory, manifest_extra: dict | None = None) -> None:
    """One array archive of every node plus a JSON manifest describing the run."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez(directory / TRAJECTORY_FILE, times=traj.tgrid.nodes, phi=traj.phi, pi=traj.pi)
    grid = traj.grid
    manifest = {
        "grid": {
            "dim": grid.dim,
            "extent": grid.extent,
            "modes": grid.modes,
            "mass": grid.mass,
            "sobolev_q": grid.sobolev_q,
        },
        "time": {"horizon": traj.tgrid.horizon, "nt": traj.tgrid.nt},
        "coupling": traj.coupling,
        "solver": dict(traj.meta),
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(directory / MANIFEST_FILE, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(directory) -> dict:
    with open(Path(directory) / MANIFEST_FILE) as fh:
        return json.load(fh)


# The keys of the manifest's grid and time sections, each with its kind
_GRID_FIELDS = {"dim": int, "extent": float, "modes": int, "mass": float, "sobolev_q": int}
_TIME_FIELDS = {"horizon": float, "nt": int}


def _is_number(value, kind) -> bool:
    """An int for an int field; for a float field an int or a float within the finite floats.  A boolean is neither."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        return False
    return kind is int or abs(value) <= sys.float_info.max


def _numbers(manifest: dict, name: str, fields: dict) -> dict:
    """The manifest's section ``name``; ValueError unless it holds exactly ``fields``, each a number of its kind."""
    section = manifest.get(name)
    if not isinstance(section, dict) or set(section) != set(fields):
        raise ValueError(f"{MANIFEST_FILE} gives {name} {section!r}, not an object with the keys {sorted(fields)}")
    for key, kind in fields.items():
        if not _is_number(section[key], kind):
            kind_name = "an integer" if kind is int else "a real number"
            raise ValueError(f"{MANIFEST_FILE} gives {name}.{key} {section[key]!r}, not {kind_name}")
    return section


def read_trajectory(directory) -> Trajectory:
    """Rebuild a trajectory; raises ValueError unless the archive is the one its manifest describes."""
    directory = Path(directory)
    try:
        manifest = read_manifest(directory)
    except OSError as exc:
        raise ValueError(f"{MANIFEST_FILE} cannot be read ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{MANIFEST_FILE} holds {type(manifest).__name__}, not an object")
    grid_spec, time_spec = _numbers(manifest, "grid", _GRID_FIELDS), _numbers(manifest, "time", _TIME_FIELDS)
    coupling = manifest.get("coupling")
    if not _is_number(coupling, float):
        raise ValueError(f"{MANIFEST_FILE} gives coupling {coupling!r}, not a real number")
    for name in ("solver", "initial"):
        if not isinstance(manifest.get(name, {}), dict):
            raise ValueError(f"{MANIFEST_FILE} gives {name} {manifest[name]!r}, not an object")
    try:
        grid = SpectralGrid(**grid_spec)
        tgrid = TimeGrid(time_spec["horizon"], time_spec["nt"])
    except OverflowError as exc:
        # an int field so large that the grid's float arithmetic overflows
        raise ValueError(f"{MANIFEST_FILE} gives a grid out of the floats' range ({exc})") from exc
    if manifest.get("real_field", True) is not True:
        raise ValueError(f"{MANIFEST_FILE} gives real_field {manifest['real_field']!r}; kgcharge stores real fields only")
    try:
        with np.load(directory / TRAJECTORY_FILE, allow_pickle=False) as data:
            missing = {"times", "phi", "pi"} - set(data.files)
            if missing:
                raise ValueError(f"{TRAJECTORY_FILE} lacks the arrays {sorted(missing)}")
            times, phi, pi = data["times"], data["phi"], data["pi"]
    except (OSError, EOFError, zipfile.BadZipFile, NotImplementedError, tokenize.TokenError) as exc:
        # a directory, or an empty, truncated or corrupted archive: a byte flipped anywhere raises one of these
        raise ValueError(f"{TRAJECTORY_FILE} cannot be read ({type(exc).__name__}: {exc})") from exc
    if (times.dtype, phi.dtype, pi.dtype) != (np.float64, np.complex128, np.complex128):
        raise ValueError(
            f"{TRAJECTORY_FILE} arrays have dtypes times {times.dtype}, phi {phi.dtype}, pi {pi.dtype}; "
            "the format needs float64 and complex128"
        )
    # raises SizeMismatch, a ValueError, unless phi and pi fit the manifest
    traj = Trajectory(tgrid, grid, phi, pi, coupling, manifest.get("solver", {}))
    if times.shape != tgrid.nodes.shape or not np.all(np.abs(times - tgrid.nodes) <= tgrid.tolerance):
        raise ValueError(f"{TRAJECTORY_FILE} times are not the nodes of {tgrid}")
    if not (np.isfinite(phi).all() and np.isfinite(pi).all()):
        raise ValueError(f"{TRAJECTORY_FILE} holds non-finite field values")
    return traj


def report_to_dict(report, bounds: dict) -> dict:
    """The series report's fields, with the convergence ``bounds`` a caller computed beside it."""
    return {
        "s": report.s,
        "coupling": report.coupling,
        "per_order": [list(term) for term in report.per_order],
        "partial_sums": report.partial_sums,
        "target": report.target,
        "residuals": report.residuals,
        "meta": report.meta,
        **bounds,
    }


def write_report_json(path, report, bounds: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report, bounds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """``header``, then ``rows``, as CSV lines, every float written by :func:`format_float`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(v) if isinstance(v, float) else v for v in row] for row in rows)


def write_report_csv(path, report) -> None:
    residuals = [""] * len(report.per_order) if report.residuals is None else report.residuals
    write_csv(
        path,
        ["order", "tree_count", "order_sum", "partial_sum", "residual"],
        [
            (term.order, term.tree_count, term.order_sum, partial, residual)
            for term, partial, residual in zip(report.per_order, report.partial_sums, residuals)
        ],
    )

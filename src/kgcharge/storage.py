"""On-disk formats: trajectory directory, report JSON/CSV.

A trajectory directory holds two files.  ``trajectory.npz`` is an
uncompressed ``np.savez`` archive of three arrays: ``times`` (float64, the
time grid's nodes) and the trajectory's ``phi`` and ``pi`` tables
(complex128, shape ``(nnodes, *grid.shape)``), written and read as they
are, so every grid dimension uses one format and the values round-trip bit
for bit.  ``manifest.json`` describes the run: grid, time grid, the real
coupling, the trajectory's ``meta`` under ``solver`` (the CLI's solve adds
the sampled algebra constant ``c_q`` beside the solver's ``phi_e_norm``)
and whatever the caller adds.  The archive's zip entries carry a fixed
timestamp, so writing the same trajectory again produces the same bytes.
Reading checks the archive against its manifest: a manifest without a
well-formed grid, time grid or coupling, a coupling that is not a real
number, arrays of the wrong shape or dtype, ``times`` that are not the
manifest's nodes, or non-finite field values raise ValueError.  Every
trajectory is a real field: a manifest of an older kgcharge that flags its
fields real still reads, and one that flags them otherwise raises
ValueError.

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


def read_trajectory(directory) -> Trajectory:
    """Rebuild a trajectory; raises ValueError unless the archive is the one its manifest describes."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    try:
        grid = SpectralGrid(**manifest["grid"])
        tgrid = TimeGrid(manifest["time"]["horizon"], manifest["time"]["nt"])
        coupling = manifest["coupling"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{MANIFEST_FILE} gives no grid, time grid and coupling ({exc!r})") from exc
    if not isinstance(coupling, (int, float)) or isinstance(coupling, bool):
        raise ValueError(f"{MANIFEST_FILE} gives coupling {coupling!r}, not a real number")
    if manifest.get("real_field", True) is not True:
        raise ValueError(f"{MANIFEST_FILE} gives real_field {manifest['real_field']!r}; kgcharge stores real fields only")
    with np.load(directory / TRAJECTORY_FILE, allow_pickle=False) as data:
        missing = {"times", "phi", "pi"} - set(data.files)
        if missing:
            raise ValueError(f"{TRAJECTORY_FILE} lacks the arrays {sorted(missing)}")
        times, phi, pi = data["times"], data["phi"], data["pi"]
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

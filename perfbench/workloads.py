"""The benchmark's workloads: inputs made from a seed, one op each, output checks.

Every workload drives the ``kgcharge`` click group in-process, one command
after another, on the desk configuration (1-D, L 40, 128 modes, m 1, q 1,
T = s = 0.5, nt 512, coupling 0.2, Gaussian initial data of amplitude 0.5 and
width 2).  The seed moves only the Gaussian test-function center and the
readout point x0, so the work in one op does not depend on it, and every
check below holds for any seed.

Why these three (each stresses a different layer):

- desk-session: ``solve`` -> ``transport`` -> ``readout``, the README's
  typical session.  Trajectory CSV I/O (``storage``) is most of the op: 513
  files are written and read back twice.  ``readout`` also exercises two
  test functions sharing one table set in ``series``.
- deep-series: ``transport --max-order 6`` on a trajectory that set-up
  solved once.  Catalan growth makes ``series`` most of the op; no solve.
- coupling-sweep: ``sweep`` over four couplings at order 3, one thread.  No
  trajectory I/O; the solver and the dealiased product dominate.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import sys
import time
from pathlib import Path

import numpy as np

CATALAN = (1, 1, 2, 5, 14, 42, 132)
READOUT_WIDTH = 0.8
SWEEP_COUPLINGS = [0.05, 0.1, 0.2, 0.4]

DESK = {
    "grid": {"L": 40.0, "Nx": 128, "m": 1.0, "q": 1, "dim": 1},
    "time": {"T": 0.5, "s": 0.5, "nt": 512},
    "coupling": 0.2,
    "initial": {"type": "gaussian", "amplitude": 0.5, "width": 2.0, "center": 0.0},
    "max_order": 4,
    "seed": 0,
    "threads": 1,
}


def seeded_inputs(seed: int) -> dict:
    """The only inputs that depend on the seed."""
    rng = random.Random(seed)
    return {"center": rng.uniform(-1.0, 1.0), "x0": rng.uniform(1.0, 5.0)}


def _periodic_gaussian(points: np.ndarray, extent: float, center: float, width: float) -> np.ndarray:
    d = (points - center + extent / 2.0) % extent - extent / 2.0
    return np.exp(-(d**2) / (2.0 * width**2))


def smoothed_references(x0: float) -> tuple[float, float]:
    """<phi(0), bump> and <pi(0), bump> for the desk initial data.

    Computed on the grid with numpy alone, independent of the package: the
    grid sum of two band-limited real fields equals their Plancherel
    pairing.  The initial velocity is zero.
    """
    grid, init = DESK["grid"], DESK["initial"]
    extent, modes = grid["L"], grid["Nx"]
    points = np.arange(modes) * (extent / modes)
    phi0 = init["amplitude"] * _periodic_gaussian(points, extent, init["center"], init["width"])
    bump = _periodic_gaussian(points, extent, x0, READOUT_WIDTH) / (
        READOUT_WIDTH * math.sqrt(2.0 * math.pi)
    )
    return float(np.sum(phi0 * bump) * (extent / modes)), 0.0


def check_transport(report_path: Path, max_order: int, rel_limit: float) -> list[str]:
    """Catalan tree counts, residuals decreasing to the rounding floor, final residual."""
    report = json.loads(report_path.read_text())
    counts = [term[1] for term in report["per_order"]]
    residuals = report["residuals"]
    target = abs(report["target"])
    problems = []
    if counts != list(CATALAN[: max_order + 1]):
        problems.append(f"tree counts {counts}")
    floor = 1e-12 * target
    for n in range(max_order):
        if residuals[n] > floor and not residuals[n + 1] < residuals[n]:
            problems.append(f"residual rose from order {n} to {n + 1}: {residuals[n]:.3e} -> {residuals[n + 1]:.3e}")
    if not residuals[max_order] <= rel_limit * target:
        problems.append(f"order-{max_order} relative residual {residuals[max_order] / target:.3e} > {rel_limit:g}")
    return problems


def check_readout(readout_path: Path, references: tuple[float, float]) -> list[str]:
    with open(readout_path, newline="") as fh:
        row = next(csv.DictReader(fh))
    problems = []
    for column, ref in zip(("phi_est", "dtphi_est"), references):
        err = abs(float(row[column]) - ref)
        if not err <= 1e-9:
            problems.append(f"readout {column} is {err:.3e} from the smoothed reference")
    return problems


def check_slopes(slopes_path: Path) -> list[str]:
    with open(slopes_path, newline="") as fh:
        slopes = [float(row["slope"]) for row in csv.DictReader(fh)]
    if len(slopes) != 4:
        return [f"{len(slopes)} sweep slopes, expected 4"]
    return [
        f"order-{n} slope {slope:.3f} not within 0.2 of {n + 1}"
        for n, slope in enumerate(slopes)
        if not abs(slope - (n + 1)) <= 0.2
    ]


class Workload:
    """One workload in one directory: set-up, the timed op, and its checks."""

    name = ""
    # Files an op writes whose bytes must match the run's first op.
    compared = ()

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.inputs = seeded_inputs(seed)
        self.workdir = workdir
        self.out = workdir / "out"
        self.src = src
        self.first_outputs = None

    def _write_config(self, filename: str, **overrides) -> str:
        config = {
            **DESK,
            "test_function": {
                "type": "gaussian",
                "amplitude": 1.0,
                "width": 3.0,
                "center": self.inputs["center"],
                "slot": "both",
            },
            "out": str(self.out),
            **overrides,
        }
        path = self.workdir / filename
        path.write_text(json.dumps(config, indent=2))
        return str(path)

    def prepare(self) -> None:
        """Everything before the first op: import the CLI, write inputs, prerequisites."""
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        from click.testing import CliRunner

        import kgcharge.cli

        self.cli = kgcharge.cli
        self.runner = CliRunner()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.commands = self.write_inputs()
        for args in self.prerequisites():
            problem = self.invoke(args)
            if problem:
                raise RuntimeError(f"set-up failed: {problem}")

    def write_inputs(self) -> list[list[str]]:
        raise NotImplementedError

    def prerequisites(self) -> list[list[str]]:
        return []

    def check(self) -> list[str]:
        raise NotImplementedError

    def invoke(self, args: list[str]) -> str | None:
        result = self.runner.invoke(self.cli.main, args)
        if result.exit_code == 0:
            return None
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            return f"'{args[0]}' raised {result.exception!r}"
        return f"'{args[0]}' exited {result.exit_code}: {result.output.strip()[-300:]}"

    def run_op(self) -> tuple[float, list[str]]:
        """Run the op's commands back to back; return its wall time and its problems."""
        start = time.perf_counter()
        problem = None
        for args in self.commands:
            problem = self.invoke(args)
            if problem:
                break
        elapsed = time.perf_counter() - start
        if problem:
            return elapsed, [problem]
        try:
            problems = self.check()
        except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            problems = [f"unreadable output: {exc!r}"]
        problems += self._compare_outputs()
        return elapsed, problems

    def _compare_outputs(self) -> list[str]:
        outputs = {}
        for name in self.compared:
            path = self.out / name
            outputs[name] = path.read_bytes() if path.exists() else None
        if self.first_outputs is None:
            self.first_outputs = outputs
            return []
        return [f"{name} differs from the first op" for name in self.compared if outputs[name] != self.first_outputs[name]]


class DeskSession(Workload):
    name = "desk-session"
    compared = ("report.csv", "readout.csv")

    def write_inputs(self):
        desk = self._write_config("desk.json")
        dirac = self._write_config(
            "dirac.json",
            test_function={"type": "dirac", "x0": self.inputs["x0"], "width": READOUT_WIDTH},
        )
        self.references = smoothed_references(self.inputs["x0"])
        return [["solve", "--config", desk], ["transport", "--config", desk], ["readout", "--config", dirac]]

    def check(self):
        return check_transport(self.out / "report.json", 4, 1e-9) + check_readout(
            self.out / "readout.csv", self.references
        )


class DeepSeries(Workload):
    name = "deep-series"
    compared = ("report.csv",)

    def write_inputs(self):
        self.desk = self._write_config("desk.json")
        return [["transport", "--config", self.desk, "--max-order", "6"]]

    def prerequisites(self):
        return [["solve", "--config", self.desk]]

    def check(self):
        return check_transport(self.out / "report.json", 6, 1e-12)


class CouplingSweep(Workload):
    name = "coupling-sweep"
    compared = ("sweep_residuals.csv", "sweep_slopes.csv")

    def write_inputs(self):
        sweep = self._write_config("sweep.json", coupling=SWEEP_COUPLINGS, max_order=3, threads=1)
        return [["sweep", "--config", sweep]]

    def check(self):
        return check_slopes(self.out / "sweep_slopes.csv")


WORKLOADS = {cls.name: cls for cls in (DeskSession, DeepSeries, CouplingSweep)}

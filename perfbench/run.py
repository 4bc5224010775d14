#!/usr/bin/env python3
"""kgcharge benchmark: closed loop, one client, the CLI driven in-process.

One run of one workload:

    python3 perfbench/run.py --workload desk-session --seed 1 --seconds 35 --trace 0

measures set-up in fresh interpreters, then runs ops back to back for
``--seconds`` and prints, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics of the traced ones.  Every workload and both
modes, with every metric printed by name and unit:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Times are reported at a reference machine speed.  On a 2-core virtual
machine whose cores are shared with other tenants, raw op times drifted by
20-30% between 30-second windows.  So a fixed calibration kernel, which
touches no kgcharge code, is timed between consecutive ops (and around each
set-up probe), and each time is scaled by CAL_REFERENCE_S over the mean of
the two kernel times around it.  The raw medians are printed alongside.

Any failed output check makes the exit code nonzero.  Run from the root of a
source checkout; the package is imported from ``src``.
"""

import os

# Pin native thread pools before anything imports numpy; set-up probes inherit them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
MIN_TIMED_OPS = TAIL_BEYOND + 1
# Extra time a slow machine may take to reach MIN_TIMED_OPS.
OVERRUN_LIMIT_S = 90.0
PROBE_TIMEOUT_S = 60.0
# Times are scaled to the speed at which calibration_s() takes this long.
CAL_REFERENCE_S = 0.02
_CAL_MODES = np.random.default_rng(0).standard_normal((64, 128)) + 0j
_CAL_FLOATS = np.random.default_rng(1).standard_normal(6000).tolist()

END_TO_END_UNITS = {"op_s.median": "s", "op_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def calibration_s() -> float:
    """Wall time of a fixed kernel: FFT products and 17-digit float formatting,
    the two kinds of work the ops spend their time on."""
    start = time.perf_counter()
    for _ in range(100):
        np.fft.fft(np.fft.ifft(_CAL_MODES, axis=1) ** 2, axis=1)
    ",".join(f"{v:.16e}" for v in _CAL_FLOATS)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, samples beyond)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def measure_setup(name: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it is ready for the first op.

    Returns the scaled samples and the raw ones.
    """
    samples, raw = [], []
    cal = calibration_s()
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--probe-setup", name, "--seed", str(seed), "--workdir", str(probe_dir)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code}")
        shutil.rmtree(probe_dir, ignore_errors=True)
        previous, cal = cal, calibration_s()
        raw.append(ready - start)
        samples.append(raw[-1] * 2.0 * CAL_REFERENCE_S / (previous + cal))
    return samples, raw


def probe_setup(name: str, seed: int, workdir: Path) -> None:
    WORKLOADS[name](seed, workdir, SRC).prepare()
    print("ready", flush=True)


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "kgcharge" / "cli.py").is_file():
        print(f"no kgcharge source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        setup = measure_setup(name, seed, workdir)
        workload = WORKLOADS[name](seed, workdir / "run", SRC)
        workload.prepare()
        return measure(workload, seconds, trace, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(workload, seconds: float, trace: bool, setup: tuple[list[float], list[float]]) -> int:
    tracer = Tracer() if trace else None
    untraced, traced, raw_untraced, layer_samples, problems = [], [], [], [], []
    attempted = failed = 0
    cal = calibration_s()
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        enough = attempted >= (MIN_TIMED_OPS if not trace else 2)
        if now >= seconds + OVERRUN_LIMIT_S or (now >= seconds and enough):
            break
        tracing = trace and attempted % 2 == 1
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            elapsed, op_problems = workload.run_op()
        finally:
            if tracing:
                tracer.uninstall()
        previous, cal = cal, calibration_s()
        scale = 2.0 * CAL_REFERENCE_S / (previous + cal)
        attempted += 1
        if op_problems:
            failed += 1
            problems.extend(f"op {attempted}: {p}" for p in op_problems)
            continue
        if tracing:
            traced.append(elapsed * scale)
            layer_samples.append(tracer.op_metrics(scale))
        else:
            untraced.append(elapsed * scale)
            raw_untraced.append(elapsed)

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "inputs": workload.inputs,
        "env": environment(),
        "failed_ratio": failed / attempted,
    }
    if trace:
        units = per_layer_units()
        values = {m: statistics.median(s[m] for s in layer_samples) if layer_samples else 0.0 for m in units if not m.startswith("trace.")}
        values["trace.op_s.median"] = statistics.median(traced) if traced else 0.0
        values["trace.overhead"] = values["trace.op_s.median"] / statistics.median(untraced) if traced and untraced else 0.0
        info.update(traced_ops=len(traced), untraced_ops=len(untraced))
        info["notes"] = {"storage.trajectory_bytes": "computed from the sizes of the trajectory files each storage call touched"}
    else:
        units = END_TO_END_UNITS
        op_tail, percentile, beyond = tail(untraced) if untraced else (0.0, 0.0, 0)
        values = {
            "op_s.median": statistics.median(untraced) if untraced else 0.0,
            "op_s.tail": op_tail,
            "setup_s": statistics.median(setup[0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update(
            timed_ops=len(untraced),
            tail_percentile=round(percentile, 2),
            tail_samples_beyond=beyond,
            raw_op_s_median=statistics.median(raw_untraced) if raw_untraced else 0.0,
            raw_setup_s_median=statistics.median(setup[1]),
        )
    print(json.dumps(info, sort_keys=True))
    for metric, unit in units.items():
        print(f"{workload.name} {metric} = {values[metric]:.6g} {unit}")
    correct = failed == 0 and bool(untraced) and (bool(traced) or not trace)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, in child processes; nonzero if any check failed."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                results[trace] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                results[trace] = None
            if proc.returncode != 0 or results[trace] is None or not results[trace]["correct"]:
                status = 1
            print(f"== {name} trace={trace} exit {proc.returncode}")
            print("\n".join(line for line in lines[:-1]))
        if results[0] and results[1]:
            e2e = {m: v["value"] for m, v in results[0]["metrics"].items()}
            layer = {m: v["value"] for m, v in results[1]["metrics"].items()}
            op = layer["trace.op_s.median"]
            storage = layer["storage.write_trajectory.s"] + layer["storage.read_trajectory.s"]
            solver = layer["solver.solve.s"] + layer["solver.field_energy_norm.s"]
            print(
                f"{name} shares of the traced op median {op:.4g} s: series.series {layer['series.series.s'] / op:.2f}, "
                f"storage {storage / op:.2f}, solve + field_energy_norm {solver / op:.2f}; "
                f"op_s.median {e2e['op_s.median']:.4g} s; failed_ratio {results[0]['failed'] / results[0]['attempted']:.3g}"
            )
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--probe-setup", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.probe_setup, args.seed, args.workdir)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

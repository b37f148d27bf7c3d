"""Benchmark of oscidec's compare, oracle and master-eq pipelines.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chain_compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, untraced and traced
    python3 perfbench/run.py --quick              # every workload at the smallest size
    python3 perfbench/run.py --selftest           # each checker rejects a perturbed output

Each workload runs in a fresh process (worker.py) with the BLAS pool pinned
to one thread.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  This file imports neither
NumPy nor oscidec.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"scenarios_per_s": "1/s", "scenario_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**metric_units(), "trace.overhead_s": "s"}
SETUP_PROBES = 4          # extra timed starts; with the worker's own, 5 samples
DEADLINE_S = 170.0        # a run ends within this, set-up and checks included
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
RUNS_DIR = ".perfbench_runs"


class BenchError(RuntimeError):
    pass


def _start_worker(root: Path, run_dir: Path, workload: str, seed: int,
                  seconds: float, trace: int, quick: bool, setup_only: bool,
                  deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its 'ready' line; returns (process, set-up
    seconds from spawn to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--run-dir", str(run_dir), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(1.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"{workload} worker did not become ready")
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _wait(proc: subprocess.Popen, deadline: float, what: str) -> None:
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"{what} exceeded the run deadline") from None
    finally:
        proc.stdout.close()
    if rc != 0:
        raise BenchError(f"{what} exited with {rc}")


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int, quick: bool = False) -> dict:
    """One measured run of one workload; returns the raw worker result plus
    the set-up samples."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = root / RUNS_DIR / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup = _start_worker(root, run_dir, workload, seed, 0, 0,
                                        quick, True, deadline)
            _wait(proc, deadline, "set-up probe")
            setups.append(setup)
        proc, setup = _start_worker(root, run_dir, workload, seed, seconds,
                                    trace, quick, False, deadline)
        setups.append(setup)
        _wait(proc, deadline, f"{workload} worker")
        result = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (root / RUNS_DIR).rmdir()
        except OSError:
            pass
    result["setup_s"] = setups
    return result


def summarize(result: dict, workload: str, trace: int) -> dict:
    """The result object (correct, attempted, failed, metrics) of one run."""
    times = result["scenario_s"]
    traced = result["traced"]
    if trace:
        layers = result["layers"]
        values = {name: statistics.median(row[name] for row in layers)
                  if layers else 0.0 for name in metric_units()}
        # Traced and untraced rounds alternate; pairing each traced scenario
        # with the same position one round earlier cancels slow drift in
        # machine speed.
        step = WORKLOADS[workload].round_size
        values["trace.overhead_s"] = statistics.median(
            times[j] - times[j - step] for j in range(step, len(times))
            if traced[j] and not traced[j - step])
        units = PER_LAYER_UNITS
    else:
        values = {"scenarios_per_s": len(times) / result["elapsed_s"],
                  "scenario_s": statistics.median(times),
                  "setup_s": statistics.median(result["setup_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END_UNITS
    return {"correct": result["check_failed"] == 0,
            "attempted": len(times),
            "failed": result["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def _report(result: dict) -> None:
    print("machine " + json.dumps(result["machine"]))
    times = sorted(result["scenario_s"])
    print("scenario_s samples " + " ".join(f"{t:.4f}" for t in times))
    if result["absent"]:
        print("absent from oscidec: " + ", ".join(result["absent"]))
    for failure in result["failures"]:
        print("FAILED " + failure)


def _print_table(workload: str, summary: dict) -> None:
    for name, m in summary["metrics"].items():
        print(f"  {workload:<18} {name:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload at its smallest size, both trace modes")
    ap.add_argument("--selftest", action="store_true",
                    help="feed each checker a perturbed output")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oscidec" / "cli.py").is_file():
        print(f"perfbench: no oscidec source tree under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.selftest:
        from selftest import selftest
        return selftest(root)
    if args.workload is None and not args.quick:
        ap.error("--workload, --quick or --selftest is required")

    if args.quick or args.workload == "all":
        seconds = min(args.seconds, 1.0) if args.quick else args.seconds
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(root, name, args.seed, seconds, trace,
                                      args.quick)
                _report(result)
                summary = summarize(result, name, trace)
                _print_table(name, summary)
                combined["correct"] &= summary["correct"]
                combined["attempted"] += summary["attempted"]
                combined["failed"] += summary["failed"]
                combined["metrics"].update(
                    {f"{name}.{k}": v for k, v in summary["metrics"].items()})
        print(json.dumps(combined))
        return 0 if combined["correct"] and not combined["failed"] else 1

    result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    _report(result)
    summary = summarize(result, args.workload, args.trace)
    _print_table(args.workload, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)

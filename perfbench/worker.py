"""One workload process: generate the scenario configs, run them through
`oscidec.cli.main(argv)` in-process for the requested seconds, check every
output, and write the raw measurements as JSON.

Started by run.py with the BLAS pool pinned to one thread through the
environment.  With --setup-only it stops once the first scenario is ready;
run.py times such starts to measure set-up.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, config_text, scenario_pool  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree; read, not run."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    import oscidec
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    backend = getattr(oscidec, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "oscidec_backend": backend() if callable(backend) else None,
        "commit": _git_commit(root),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import oscidec
    import oscidec.cli
    if not Path(oscidec.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"oscidec imported from {oscidec.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2

    run_dir = Path(args.run_dir)
    workload = WORKLOADS[args.workload]
    pool = scenario_pool(workload.name, args.seed, args.quick)
    cfg_dir = run_dir / ("setup-%d" % os.getpid() if args.setup_only else "configs")
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for i, params in enumerate(pool):
        path = cfg_dir / f"{i}.cfg"
        path.write_text(config_text(params))
        configs.append(str(path))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    threads = blas_threads()
    if threads not in (None, 1):
        print(f"BLAS runs {threads} threads; the benchmark needs 1", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    out_root = run_dir / "out"
    records = []        # (pool index, out dir, seconds, rc, traced, stderr)
    layers = []
    k = 0
    t_start = time.perf_counter()
    n_round = 0
    while True:
        traced = tracer is not None and n_round % 2 == 1
        if traced:
            tracer.install()
        for _ in range(workload.round_size):
            i = k % len(pool)
            out = out_root / str(k)
            argv = [workload.command, "--config", configs[i], "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    if traced:
                        tracer.reset()
                        rc = tracer.span("cli", oscidec.cli.main)(argv)
                    else:
                        rc = oscidec.cli.main(argv)
                except Exception as exc:  # a crash is a failed scenario
                    rc = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            if traced and rc == 0:
                layers.append(tracer.scenario_metrics(str(out)))
            records.append((i, str(out), dt, rc, traced, err.getvalue()[-500:]))
            k += 1
        if traced:
            tracer.uninstall()
        n_round += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and (tracer is None or n_round >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside the timed region.
    from checks import CHECKS, CheckFailed, reference_for
    refs = {}
    failures = []
    check_failed = 0
    for i, out, dt, rc, traced, err in records:
        if rc != 0:
            failures.append(f"scenario {out}: exit {rc}: {err.strip()}")
            continue
        if i not in refs:
            refs[i] = reference_for(workload.name, pool[i])
        try:
            CHECKS[workload.name](pool[i], Path(out), refs[i])
        except CheckFailed as exc:
            failures.append(f"scenario {out}: check failed: {exc}")
            check_failed += 1

    result = {
        "scenario_s": [r[2] for r in records],
        "traced": [r[4] for r in records],
        "failed": len(failures),
        "check_failed": check_failed,
        "failures": failures[:20],
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "absent": tracer.absent if tracer is not None else [],
        "machine": machine_record(root, args.seed),
    }
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

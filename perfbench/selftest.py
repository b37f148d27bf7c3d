"""Self-test of the output checks: each checker must accept a clean CLI
output and reject every deliberately perturbed copy of it.

    python3 perfbench/run.py --selftest

Runs one quick-size scenario per workload through oscidec.cli.main, then
edits single cells of the resulting CSV files.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

from checks import CHECKS, CheckFailed, chain_probe_rows
from workloads import WORKLOADS, config_text, scenario_pool


def _rows(path: Path) -> tuple[list[str], list[int]]:
    """The file's lines and the line numbers of its data rows."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    return lines, data


def _edit(path: Path, row: int, col: int, fn) -> None:
    """Replace one cell of data row `row` (0 = first row after the header)."""
    lines, data = _rows(path)
    cells = lines[data[row]].split(",")
    cells[col] = fn(cells[col])
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_row(path: Path, row: int) -> None:
    lines, data = _rows(path)
    del lines[data[row]]
    path.write_text("\n".join(lines) + "\n")


def _cell(path: Path, row: int, col: int) -> str:
    lines, data = _rows(path)
    return lines[data[row]].split(",")[col]


def _scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def _shift(delta: float):
    return lambda cell: repr(float(cell) + delta)


def _set(value: str):
    return lambda cell: value


def _perturbations(workload: str, params: dict) -> list[tuple[str, object]]:
    if workload == "chain_compare":
        n = int(params["run.t_steps"])
        p = chain_probe_rows(n)[1]
        deco = "decoherence_both.csv"
        return [
            ("S+E Gamma x (1 + 1e-7) at a probe time",
             lambda d: _edit(d / deco, p, 2, _scale(1 + 1e-7))),
            ("CM+R Gamma x (1 - 1e-7) at a probe time",
             lambda d: _edit(d / deco, n + p, 2, _scale(1 - 1e-7))),
            ("Gamma row missing", lambda d: _drop_row(d / deco, n - 1)),
            ("tau_open + 1e-9", lambda d: _edit(d / "comparison.csv", 0, 1,
                                                _shift(1e-9))),
            ("frame_residual 1e-8", lambda d: _edit(d / "comparison.csv", 6, 1,
                                                    _set("1e-08"))),
        ]
    if workload == "oracle_crosscheck":
        f = "crosscheck.csv"
        n = int(params["run.t_steps"])

        def single_trusted(d: Path) -> None:
            for r in range(1, n):
                _edit(d / f, r, 1, _set("false"))
                _edit(d / f, r, 2, _set("0.5"))
        return [
            ("dev_mean 2e-6 on a trusted row", lambda d: _edit(d / f, 1, 3, _set("2e-06"))),
            ("dev_cov 2e-5 on a trusted row", lambda d: _edit(d / f, 1, 4, _set("2e-05"))),
            ("dev_overlap 2e-6 on a trusted row",
             lambda d: _edit(d / f, 1, 6, _set("2e-06"))),
            ("trusted row with leakage above the gate",
             lambda d: _edit(d / f, 1, 2, _set("2e-06"))),
            ("a single trusted time", single_trusted),
        ]
    if workload == "master_dephasing":
        f = "visibility.csv"
        return [
            ("visibility + 1e-7 at one time", lambda d: _edit(d / f, 5, 1, _shift(1e-7))),
            ("visibility of the wrong time",
             lambda d: _edit(d / f, 5, 1, lambda c: _cell(d / f, 6, 1))),
            ("time column shifted", lambda d: _edit(d / f, 3, 0, _shift(1e-3))),
        ]
    raise KeyError(workload)


def selftest(root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    import oscidec.cli

    work = root / ".perfbench_runs" / f"selftest-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems = []
    try:
        for name, workload in WORKLOADS.items():
            params = scenario_pool(name, 0, quick=True)[1]
            cfg = work / f"{name}.cfg"
            cfg.write_text(config_text(params))
            clean = work / name
            with contextlib.redirect_stdout(io.StringIO()):
                rc = oscidec.cli.main([workload.command, "--config", str(cfg),
                                       "--out", str(clean)])
            if rc != 0:
                problems.append(f"{name}: CLI exited {rc}")
                continue
            check = CHECKS[name]
            try:
                check(params, clean)
                print(f"ok    {name}: clean output accepted")
            except CheckFailed as exc:
                problems.append(f"{name}: clean output rejected: {exc}")
            for label, perturb in _perturbations(name, params):
                bad = work / f"{name}-bad"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(clean, bad)
                perturb(bad)
                try:
                    check(params, bad)
                except CheckFailed as exc:
                    print(f"ok    {name}: rejected {label} ({exc})")
                else:
                    problems.append(f"{name}: accepted {label}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for p in problems:
        print(f"FAIL  {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0

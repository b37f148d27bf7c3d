"""Deterministic CSV/manifest emission.

Every output file opens with a `# manifest_sha256=<hash>` comment tying it to
the exact resolved configuration; floats are written with `repr` so reruns of
the same scenario are byte-identical.
"""
from __future__ import annotations

import hashlib
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .config import ScenarioConfig, manifest_text
from .fock import CrosscheckReport
from .metrics import DecoherenceReport, ParallelComparison


def write_manifest(cfg: ScenarioConfig, out_dir: Path) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = manifest_text(cfg)
    (out_dir / "manifest.txt").write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _cell(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _column(values: Iterable[Any]) -> list[str]:
    """One column's cells as `_cell` writes them: a float array's in one
    pass of repr over .tolist(), anything else cell by cell."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(repr, values.tolist()))
        values = values.tolist()
    return list(map(_cell, values))


def _rows(columns: Iterable[Iterable[Any]]) -> Iterator[str]:
    """CSV rows of equal-length columns, each column formatted whole."""
    return map(",".join, zip(*map(_column, columns)))


def _write_lines(path: Path, header: Sequence[str], rows: Iterable[str],
                 manifest_hash: str) -> None:
    lines = [f"# manifest_sha256={manifest_hash}", ",".join(header), *rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
              manifest_hash: str) -> None:
    _write_lines(path, header, _rows(zip(*rows)), manifest_hash)


def write_matrix(path: Path, matrix: np.ndarray, manifest_hash: str) -> None:
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = [f"c{j}" for j in range(a.shape[1])]
    write_csv(path, header, a.tolist(), manifest_hash)


def decoherence_columns(report: DecoherenceReport) -> list[Any]:
    """decomposition, t, log_overlap, lambda and saturated, one per column."""
    return [[report.decomposition] * len(report.t_grid), report.t_grid,
            report.gamma, report.lambda_fit, report.saturated]


def write_decoherence(path: Path, reports: Sequence[DecoherenceReport],
                      manifest_hash: str) -> None:
    header = ["decomposition", "t", "log_overlap", "lambda", "saturated"]
    rows = chain.from_iterable(_rows(decoherence_columns(r)) for r in reports)
    _write_lines(path, header, rows, manifest_hash)


def write_comparison(path: Path, cmp: ParallelComparison,
                     manifest_hash: str) -> None:
    header = ["quantity", "value"]
    rows = [
        ["tau_open", _cell(cmp.report_s.tau_dec)],
        ["tau_cm", _cell(cmp.report_cm.tau_dec)],
        ["lambda_open_end", _cell(float(cmp.report_s.lambda_fit[-1]))],
        ["lambda_cm_end", _cell(float(cmp.report_cm.lambda_fit[-1]))],
        ["tau_ratio", _cell(cmp.tau_ratio)],
        ["ratio_flag", cmp.ratio_flag],
        ["frame_residual", _cell(cmp.frame_residual)],
        ["positivity_ok", _cell(cmp.positivity_ok)],
        ["fingerprint_open", cmp.report_s.fingerprint],
        ["fingerprint_cm", cmp.report_cm.fingerprint],
    ]
    write_csv(path, header, rows, manifest_hash)


def write_crosscheck(path: Path, report: CrosscheckReport,
                     manifest_hash: str) -> None:
    header = ["t", "trusted", "leakage", "dev_mean", "dev_cov", "dev_purity",
              "dev_overlap"]
    rows = []
    for row in report.rows:
        rows.append([float(row.t), bool(row.trusted), float(row.leakage),
                     float(row.dev_mean), float(row.dev_cov),
                     float(row.dev_purity), float(row.dev_overlap)])
    write_csv(path, header, rows, manifest_hash)


def write_moments(path: Path, t_grid: Sequence[float],
                  means: Sequence[np.ndarray], purities: Sequence[float],
                  energies: Sequence[float], labels: Sequence[str],
                  manifest_hash: str) -> None:
    header = ["t"] + [f"mean_{l}" for l in labels] + ["purity", "energy"]
    rows = []
    for i, t in enumerate(t_grid):
        rows.append([float(t)] + [float(v) for v in means[i]]
                    + [float(purities[i]), float(energies[i])])
    write_csv(path, header, rows, manifest_hash)

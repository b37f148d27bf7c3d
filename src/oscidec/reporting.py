"""Deterministic CSV/manifest emission.

Every output file opens with a `# manifest_sha256=<hash>` comment tying it to
the exact resolved configuration; floats are written with `repr` so reruns of
the same scenario are byte-identical.
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Iterable, Sequence

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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
              manifest_hash: str) -> None:
    lines = [f"# manifest_sha256={manifest_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_matrix(path: Path, matrix: np.ndarray, manifest_hash: str) -> None:
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = [f"c{j}" for j in range(a.shape[1])]
    write_csv(path, header, a.tolist(), manifest_hash)


def decoherence_rows(report: DecoherenceReport) -> list[list[Any]]:
    rows = []
    for i, t in enumerate(report.t_grid):
        rows.append([report.decomposition, float(t), float(report.gamma[i]),
                     float(report.lambda_fit[i]), bool(report.saturated[i])])
    return rows


def write_decoherence(path: Path, reports: Sequence[DecoherenceReport],
                      manifest_hash: str) -> None:
    header = ["decomposition", "t", "log_overlap", "lambda", "saturated"]
    rows: list[list[Any]] = []
    for r in reports:
        rows.extend(decoherence_rows(r))
    write_csv(path, header, rows, manifest_hash)


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

"""Deterministic CSV/manifest emission.

Every output file opens with a `# manifest_sha256=<hash>` comment tying it to
the exact resolved configuration; floats are written with `repr` so reruns of
the same scenario are byte-identical.  One formatter, `_cell`, writes every
value: the manifest's and each CSV cell.
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .config import ScenarioConfig
from .fock import CrosscheckReport
from .metrics import DecoherenceReport, ParallelComparison


def _cell(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ",".join(map(_cell, value))
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


def manifest_text(cfg: ScenarioConfig) -> str:
    """The resolved config, one sorted `key = value` line per set key."""
    return "".join(f"{k} = {_cell(v)}\n" for k, v in sorted(cfg.values.items())
                   if v is not None)


def write_manifest(cfg: ScenarioConfig, out_dir: Path) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = manifest_text(cfg)
    (out_dir / "manifest.txt").write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def write_csv(path: Path, header: Sequence[str],
              columns: Iterable[Iterable[Any]], manifest_hash: str) -> None:
    """Equal-length columns under the manifest comment and the header, each
    column formatted whole."""
    rows = map(",".join, zip(*map(_column, columns)))
    lines = [f"# manifest_sha256={manifest_hash}", ",".join(header), *rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_matrix(path: Path, matrix: np.ndarray, manifest_hash: str) -> None:
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = [f"c{j}" for j in range(a.shape[1])]
    write_csv(path, header, a.T, manifest_hash)


def write_decoherence(path: Path, reports: Sequence[DecoherenceReport],
                      manifest_hash: str) -> None:
    """The reports one after another, one row per grid time."""
    header = ["decomposition", "t", "log_overlap", "lambda", "saturated"]
    names = [r.decomposition for r in reports for _ in r.t_grid]
    columns = [np.concatenate([getattr(r, f) for r in reports])
               for f in ("t_grid", "gamma", "lambda_fit", "saturated")]
    write_csv(path, header, [names, *columns], manifest_hash)


def write_comparison(path: Path, cmp: ParallelComparison,
                     manifest_hash: str) -> None:
    values = {
        "tau_open": cmp.report_s.tau_dec,
        "tau_cm": cmp.report_cm.tau_dec,
        "lambda_open_end": cmp.report_s.lambda_fit[-1],
        "lambda_cm_end": cmp.report_cm.lambda_fit[-1],
        "tau_ratio": cmp.tau_ratio,
        "ratio_flag": cmp.ratio_flag,
        "frame_residual": cmp.frame_residual,
        "positivity_ok": cmp.positivity_ok,
        "fingerprint_open": cmp.report_s.fingerprint,
        "fingerprint_cm": cmp.report_cm.fingerprint,
    }
    write_csv(path, ["quantity", "value"], [values, values.values()],
              manifest_hash)


def write_crosscheck(path: Path, report: CrosscheckReport,
                     manifest_hash: str) -> None:
    # the header names CrosscheckRow's fields
    header = ["t", "trusted", "leakage", "dev_mean", "dev_cov", "dev_purity",
              "dev_overlap"]
    columns = [[getattr(row, h) for row in report.rows] for h in header]
    write_csv(path, header, columns, manifest_hash)


def write_moments(path: Path, t_grid: Sequence[float],
                  means: Sequence[np.ndarray], purities: Sequence[float],
                  energies: Sequence[float], labels: Sequence[str],
                  manifest_hash: str) -> None:
    header = ["t"] + [f"mean_{l}" for l in labels] + ["purity", "energy"]
    columns = [t_grid, *np.asarray(means, dtype=float).T, purities, energies]
    write_csv(path, header, columns, manifest_hash)

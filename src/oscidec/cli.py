"""Command line entry point.

Subcommands mirror the library pipeline: build a model, inspect coordinate
transforms, evolve moments, run decoherence branches, compare the two
decompositions of one run, cross-check against the dense solver, and evolve
the position-coupling master equation.

Exit codes: 0 success, 1 invalid config/arguments, 2 numerical-trust failure.
A trust failure names its gate on stderr: oracle leakage (dense-solver leakage
above gate at every grid time), confinement positivity (the chain's potential
is not confining and the override is off), uncertainty relation (an evolved
covariance violates it, or its purity reads det(2 sigma) < 1), master trace
drift (an evolved density matrix is not finite or its trace left 1) or master
leakage (an evolved density matrix holds the oracle's leakage bound or more in
the top two Fock levels).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, parse_config
from .decomposition import (cm_relative_transform, many_mode_constants,
                            normal_mode_transform, transform_hamiltonian,
                            two_mode_constants, verify_constants)
from .dynamics import energy, evolve_branches_from, evolve_grid
from .fock import _LEAK_TRUST, coherent_vector, gaussian_crosscheck
from .master import coherence_profile, evolve_master
from .metrics import build_report, open_mode_base, parallel_compare
from .phase_space import (CoherentAmplitude, GaussianState, TrustGateError,
                          purity, thermal_state)
from .reporting import (write_comparison, write_crosscheck, write_csv,
                        write_decoherence, write_manifest, write_matrix,
                        write_moments)


def _load(args: argparse.Namespace) -> tuple[ScenarioConfig, Path, str]:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    out_dir = Path(args.out)
    digest = write_manifest(cfg, out_dir)
    return cfg, out_dir, digest


def _amplitudes(cfg: ScenarioConfig, mode: str,
                prefix: str = "") -> tuple[CoherentAmplitude, CoherentAmplitude]:
    a = CoherentAmplitude(mode, cfg[f"state.{prefix}alpha_x"],
                          cfg[f"state.{prefix}alpha_p"])
    b = CoherentAmplitude(mode, cfg[f"state.{prefix}beta_x"],
                          cfg[f"state.{prefix}beta_p"])
    return a, b


def _scales(cfg: ScenarioConfig) -> tuple[list[float], list[float]]:
    """(masses, reference freqs) per mode for state construction."""
    if cfg["model.kind"] == "two_mode":
        p = cfg.two_mode()
        return [p.m_s, p.m_e], [1.0, p.omega]
    bath = cfg.bath()
    pot = cfg.potential()
    w_s = pot.omega_s if pot.variant == "harmonic" else cfg["run.open_freq_ref"]
    return [pot.m_s, *bath.masses], [w_s, *bath.freqs]


def _cmd_build(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    ham = cfg.hamiltonian()
    write_matrix(out / "hamiltonian.csv", ham.h, digest)
    print(f"model.kind={cfg['model.kind']} modes={ham.layout.n_modes}")
    print(f"wrote {out / 'hamiltonian.csv'}")
    return 0


def _cmd_transform(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    ham = cfg.hamiltonian()
    masses, _ = _scales(cfg)
    tr = cm_relative_transform(np.asarray(masses), source=ham.layout)
    ham_cm = transform_hamiltonian(ham, tr)
    write_matrix(out / "transform_cm.csv", tr.A, digest)
    write_matrix(out / "hamiltonian_cm.csv", ham_cm.h, digest)
    if cfg["model.kind"] == "two_mode":
        consts = two_mode_constants(cfg.two_mode())
    else:
        consts = many_mode_constants(cfg.potential(), cfg.bath())
    residuals = dict(sorted(verify_constants(ham_cm, consts).items()))
    write_csv(out / "constants_residuals.csv", ["constant", "residual"],
              [residuals, residuals.values()], digest)
    worst = max(residuals.values()) if residuals else 0.0
    print(f"constants residual max={worst:.3e} "
          f"positivity_ok={consts.positivity_ok}")
    if cfg["model.kind"] == "caldeira_leggett":
        env_labels = ham_cm.layout.mode_labels[1:]
        nm, ham_modes = normal_mode_transform(ham_cm, env_labels)
        write_matrix(out / "transform_modes.csv", nm.A, digest)
        write_matrix(out / "hamiltonian_modes.csv", ham_modes.h, digest)
        n = ham_modes.layout.n_modes
        freqs = np.sqrt(np.diag(ham_modes.h)[1:n] * 2)
        print(f"relative-mode frequencies head={freqs[:3].round(6).tolist()}")
    print(f"wrote transforms to {out}")
    return 0


def _cmd_evolve(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    ham = cfg.hamiltonian()
    masses, freqs = _scales(cfg)
    alpha, _ = _amplitudes(cfg, "S")
    therm = thermal_state(ham.layout, masses, freqs, cfg["state.temperature"])
    # a displacement keeps sigma and its check; at T = 0 sigma is the vacuum's
    mean = np.zeros(ham.layout.dim)
    mean[ham.layout.z_indices([alpha.mode])] = alpha.x0, alpha.p0
    state = GaussianState._prechecked(ham.layout, mean, therm.cov,
                                      therm._deficit)
    t_grid = cfg.t_grid()
    means, purities, energies = [], [], []
    for st in evolve_grid(state, ham, t_grid):
        means.append(st.mean)
        purities.append(purity(st))
        energies.append(energy(st, ham))
    labels = ([f"x_{l}" for l in ham.layout.mode_labels]
              + [f"p_{l}" for l in ham.layout.mode_labels])
    write_moments(out / "moments.csv", t_grid, means, purities, energies,
                  labels, digest)
    drift = max(abs(e - energies[0]) for e in energies)
    print(f"energy drift={drift:.3e} purity(t0)={purities[0]:.6f}")
    print(f"wrote {out / 'moments.csv'}")
    return 0


def _cmd_decohere(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    ham = cfg.hamiltonian()
    masses, freqs = _scales(cfg)
    alpha, beta = _amplitudes(cfg, "S")
    base = open_mode_base(ham, masses, freqs, cfg["state.temperature"])
    branches = evolve_branches_from(base, alpha, beta, ham,
                                    np.asarray(cfg.t_grid()))
    report = build_report("S+E", branches, (masses[0], freqs[0]), ham)
    write_decoherence(out / "decoherence.csv", [report], digest)
    print(f"tau={report.tau_dec!r} lambda(t_end)={float(report.lambda_fit[-1])!r}")
    print(f"wrote {out / 'decoherence.csv'}")
    return 0


def _cmd_compare(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    if cfg["model.kind"] != "caldeira_leggett":
        raise ConfigError(["compare requires model.kind = caldeira_leggett"])
    pair_s = _amplitudes(cfg, "S")
    pair_cm = _amplitudes(cfg, "CM", prefix="cm_")
    t_grid = np.asarray(cfg.t_grid())
    cmp = parallel_compare(
        cfg.potential(), cfg.bath(), pair_s, pair_cm,
        temperature=cfg["state.temperature"], t_grid=t_grid,
        open_freq_ref=cfg["run.open_freq_ref"],
        allow_positivity_violation=cfg["run.allow_positivity_violation"])
    write_decoherence(out / "decoherence_both.csv",
                      [cmp.report_s, cmp.report_cm], digest)
    write_comparison(out / "comparison.csv", cmp, digest)
    print(f"tau_open={cmp.report_s.tau_dec!r} tau_cm={cmp.report_cm.tau_dec!r}"
          f" ratio={cmp.tau_ratio!r} [{cmp.ratio_flag}]")
    print(f"frame residual={cmp.frame_residual:.3e}")
    print(f"wrote {out / 'comparison.csv'}")
    return 0


def _cmd_oracle(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    if cfg["model.kind"] != "two_mode":
        raise ConfigError(["oracle requires model.kind = two_mode"])
    p = cfg.two_mode()
    t_grid = np.asarray(cfg.t_grid())
    d = cfg["oracle.dim"]
    report = gaussian_crosscheck(p, cfg["oracle.x0"], t_grid, dims=(d, d),
                                 negativity_time=cfg["oracle.negativity_time"])
    write_crosscheck(out / "crosscheck.csv", report, digest)
    print(f"trusted horizon={report.trusted_horizon!r} "
          f"worst dev mean={report.max_dev_mean:.3e} "
          f"cov={report.max_dev_cov:.3e} overlap={report.max_dev_overlap:.3e}")
    print(f"negativity dense={report.negativity_oracle!r} "
          f"gaussian={report.negativity_gauss!r} "
          f"sign_agrees={report.negativity_sign_agrees} "
          f"projection_norm={report.negativity_projection_norm!r}")
    print(f"wrote {out / 'crosscheck.csv'}")
    if not any(row.trusted for row in report.rows):
        raise TrustGateError("oracle leakage", "no trusted times: truncation "
                             "leakage above gate everywhere")
    return 0


def _cmd_master(cfg: ScenarioConfig, out: Path, digest: str) -> int:
    scen = cfg.master()
    t_grid = cfg.master_t_grid()
    x0 = cfg["master.x0"]
    a = coherent_vector(scen.dim, scen.mass, scen.basis_freq, x0)
    b = coherent_vector(scen.dim, scen.mass, scen.basis_freq, -x0)
    psi = a + b
    psi = psi / np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    result = evolve_master(rho0, scen, t_grid)
    # the truncated generator conserves the trace, so only the population
    # reaching the top of the basis shows the truncation
    if result.max_leakage >= _LEAK_TRUST:
        raise TrustGateError(
            "master leakage",
            f"top-two-level population {result.max_leakage:.3e} is not below "
            f"the bound {_LEAK_TRUST}; raise master.dim")
    half = 2.5 * x0 + 2.0
    xs = np.linspace(-half, half, 121)
    vis = coherence_profile(result, xs, (x0 - 0.8, x0 + 0.8),
                            (-x0 - 0.8, -x0 + 0.8), scen.mass,
                            scen.basis_freq)
    write_csv(out / "visibility.csv", ["t", "visibility"], [t_grid, vis],
              digest)
    print(f"trace drift={result.max_trace_drift:.3e}")
    print(f"wrote {out / 'visibility.csv'}")
    return 0


# subcommand -> (handler, help); every handler takes (cfg, out_dir, digest)
_COMMANDS = {
    "build": (_cmd_build,
              "assemble the model and dump its Hamiltonian matrix"),
    "transform": (_cmd_transform,
                  "emit CM/relative and normal-mode transforms"),
    "evolve": (_cmd_evolve,
               "propagate first/second moments on the time grid"),
    "decohere": (_cmd_decohere,
                 "branch overlap decay in the original coordinates"),
    "compare": (_cmd_compare,
                "run both decompositions and compare timescales"),
    "oracle": (_cmd_oracle,
               "cross-check against the dense number-basis solver"),
    "master-eq": (_cmd_master,
                  "evolve the position-coupling master equation"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscidec",
        description="Coupled-oscillator decoherence across coordinate "
                    "decompositions.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="scenario file")
        sp.add_argument("--out", default="out", help="output directory")
    return parser


# built once per process; parse_args leaves it unchanged
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is reserved for trust gates
        if exc.code:
            return 1
        raise
    try:
        cfg, out_dir, digest = _load(args)
    except FileNotFoundError as exc:
        print(f"config not found: {exc.filename}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command][0](cfg, out_dir, digest)
    except TrustGateError as exc:
        print(f"trust gate {exc.gate!r}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Decoherence metrics per decomposition: the decoherence function Gamma(t),
fitted Lambda(t), decoherence times, and the parallel S-vs-CM comparison.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import (cm_relative_transform, many_mode_constants,
                            normal_mode_transform, transform_hamiltonian)
from .dynamics import BranchTrajectory, evolve_branches_from
from .models import BathParams, SystemPotential, build_caldeira_leggett
from .phase_space import (CoherentAmplitude, FloatArray, GaussianState,
                          PhaseSpaceLayout, QuadraticHamiltonian,
                          TrustGateError, coherent_state, layout,
                          product_state, thermal_state)

# ln of the overlap floor: astronomically negative Gamma is clamped, flagged
_GAMMA_FLOOR = float(np.log(1e-300))
_TAU_THRESHOLD = -1.0  # overlap fallen to 1/e


class MetricsError(ValueError):
    """Invalid decoherence-metric request."""


class PositivityGateError(MetricsError, TrustGateError):
    """The chain's transformed potential is not confining."""


@dataclass(frozen=True)
class DecoherenceReport:
    """Gamma/Lambda samples and the decoherence time for one decomposition."""

    decomposition: str
    t_grid: FloatArray
    gamma: FloatArray
    lambda_fit: FloatArray
    tau_dec: float | None
    saturated: np.ndarray
    fingerprint: str


def model_fingerprint(H: QuadraticHamiltonian) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(H.h).tobytes()).hexdigest()[:12]
    return f"{H.tag or 'quadratic'}/{H.n_modes}m/{digest}"


def decoherence_function(traj: BranchTrajectory) -> FloatArray:
    """Gamma(t) = ln overlap of the two branches' environment marginals, the
    environment being every mode but the open one.

    Branch covariances are identical by construction, so the overlap exponent
    is the pure quadratic form -1/4 d_E^T sigma_EE^-1 d_E, which scales
    exactly with the squared amplitude separation.  sigma_EE^-1 is the Schur
    complement of the open-mode block in sigma^-1, so Gamma is -1/4 (W_00 -
    W_0s W_ss^-1 W_s0) on the trajectory's Gram matrices W: one batched
    2x2 solve covers the grid.
    """
    W = traj.gram
    w_s0 = W[:, 1:, :1]
    x = np.linalg.solve(W[:, 1:, 1:], w_s0)
    schur = W[:, 0, 0] - (w_s0 * x).sum(axis=(1, 2))
    return np.maximum(-0.25 * schur, _GAMMA_FLOOR)


def saturation_flags(gamma: FloatArray) -> np.ndarray:
    return gamma <= _GAMMA_FLOOR


def amplitude_distance_sq(alpha: CoherentAmplitude, beta: CoherentAmplitude,
                          open_scale: tuple[float, float]) -> float:
    """|alpha - beta|^2 in vacuum-scaled coordinates (x sqrt(mw), p/sqrt(mw))."""
    m, w = open_scale
    dx = alpha.x0 - beta.x0
    dp = alpha.p0 - beta.p0
    return m * w * dx * dx + dp * dp / (m * w)


def fit_lambda(gamma: FloatArray, alpha: CoherentAmplitude,
               beta: CoherentAmplitude,
               open_scale: tuple[float, float]) -> FloatArray:
    """Lambda(t) = -2 Gamma(t) / |alpha - beta|^2."""
    d2 = amplitude_distance_sq(alpha, beta, open_scale)
    if d2 == 0.0:
        raise MetricsError("Lambda undefined for alpha = beta")
    return -2.0 * gamma / d2


def decoherence_time(t_grid: Sequence[float], gamma: FloatArray) -> float | None:
    """First crossing of Gamma <= -1 (1/e overlap), linearly interpolated;
    None when the threshold is not reached on the grid."""
    t = np.asarray(t_grid, float)
    for i in range(1, len(t)):
        if gamma[i] <= _TAU_THRESHOLD:
            g0, g1 = gamma[i - 1], gamma[i]
            if g1 == g0:
                return float(t[i])
            frac = (_TAU_THRESHOLD - g0) / (g1 - g0)
            return float(t[i - 1] + frac * (t[i] - t[i - 1]))
    return None


def build_report(decomposition: str, traj: BranchTrajectory,
                 open_scale: tuple[float, float],
                 H: QuadraticHamiltonian) -> DecoherenceReport:
    gamma = decoherence_function(traj)
    alpha, beta = traj.alpha, traj.beta
    lam = fit_lambda(gamma, alpha, beta, open_scale) \
        if (alpha.x0, alpha.p0) != (beta.x0, beta.p0) else np.zeros_like(gamma)
    return DecoherenceReport(decomposition, traj.t, gamma, lam,
                             decoherence_time(traj.t, gamma),
                             saturation_flags(gamma), model_fingerprint(H))


@dataclass(frozen=True)
class ParallelComparison:
    """Both decompositions' reports plus the decoherence-time ratio summary."""

    report_s: DecoherenceReport
    report_cm: DecoherenceReport
    tau_ratio: float | None
    ratio_flag: str          # "within" | "outside" | "undefined"
    frame_residual: float
    positivity_ok: bool


def _ratio_summary(tau_s: float | None, tau_cm: float | None) -> tuple[float | None, str]:
    if tau_s is None or tau_cm is None or tau_cm == 0:
        return None, "undefined"
    r = tau_s / tau_cm
    return r, "within" if 0.1 <= r <= 10.0 else "outside"


def open_mode_base(H: QuadraticHamiltonian, masses: Sequence[float],
                   freqs: Sequence[float], temperature: float) -> GaussianState:
    """The S+E start state: H's first mode in the vacuum of (masses[0],
    freqs[0]) times the Gibbs state at `temperature` of the other modes."""
    open_mode, *env_labels = H.layout.mode_labels
    env = thermal_state(PhaseSpaceLayout(tuple(env_labels)), masses[1:],
                        freqs[1:], temperature)
    return product_state(H.layout, open_mode,
                         coherent_state(layout(open_mode), masses[:1],
                                        freqs[:1]), env)


def parallel_compare(pot: SystemPotential, bath: BathParams,
                     pair_s: tuple[CoherentAmplitude, CoherentAmplitude],
                     pair_cm: tuple[CoherentAmplitude, CoherentAmplitude],
                     temperature: float, t_grid: Sequence[float],
                     open_freq_ref: float = 1.0,
                     allow_positivity_violation: bool = False) -> ParallelComparison:
    """Run the S+E and CM+R decoherence pipelines off the same global unitary.

    The S+E pipeline evolves directly under the chain Hamiltonian; the CM+R
    pipeline evolves the same global initial state under the transformed
    Hamiltonian, through the frame S of the CM/relative transform followed
    by environment normal-mode linearization.
    Each pipeline displaces its own open mode by its own amplitude pair (the
    amplitude freedom is part of the comparison's definition).
    """
    H = build_caldeira_leggett(pot, bath)
    lay = H.layout
    n = lay.n_modes
    w_s = pot.omega_s if pot.variant == "harmonic" else open_freq_ref

    consts = many_mode_constants(pot, bath)
    if not consts.positivity_ok and not allow_positivity_violation:
        raise PositivityGateError(
            "confinement positivity",
            "transformed constants violate confinement positivity; "
            "pass allow_positivity_violation=True to proceed")

    masses = np.concatenate([[pot.m_s], bath.masses])
    base = open_mode_base(H, masses, [w_s, *bath.freqs], temperature)

    T1 = cm_relative_transform(masses, source=lay)
    H1 = transform_hamiltonian(H, T1)
    T2, H2 = normal_mode_transform(H1, T1.target.mode_labels[1:])
    S_tot = T2.S @ T1.S
    omega_cm = float(np.sqrt(consts.m_omega_cm_sq / consts.total_mass)) \
        if consts.m_omega_cm_sq > 0 else open_freq_ref

    probes = _residual_probe_times(t_grid)
    report_s, M1 = _pipeline("S+E", base, pair_s, H, t_grid, (pot.m_s, w_s),
                             probes)
    report_cm, M2 = _pipeline("CM+R", base, pair_cm, H2, t_grid,
                              (consts.total_mass, omega_cm), probes, S_tot)

    # the propagators of the two passes must agree up to the frame change;
    # S_tot is symplectic, so its inverse is -J S_tot^T J, a block transpose
    S_inv = np.block([[S_tot[n:, n:].T, -S_tot[:n, n:].T],
                      [-S_tot[n:, :n].T, S_tot[:n, :n].T]])
    residual = max((float(np.abs(M2[t] - S_tot @ M1[t] @ S_inv).max())
                    for t in probes), default=0.0)

    ratio, flag = _ratio_summary(report_s.tau_dec, report_cm.tau_dec)
    return ParallelComparison(report_s, report_cm, ratio, flag, residual,
                              consts.positivity_ok)


def _pipeline(decomposition: str, base: GaussianState,
              pair: tuple[CoherentAmplitude, CoherentAmplitude],
              H: QuadraticHamiltonian, t_grid: Sequence[float],
              open_scale: tuple[float, float], probes: Sequence[float],
              frame: FloatArray | None = None
              ) -> tuple[DecoherenceReport, dict[float, FloatArray]]:
    """One decomposition's report and its propagators at the probe times.

    The trajectory is freed on return, before the next pipeline evolves.
    """
    traj = evolve_branches_from(base, pair[0], pair[1], H, t_grid, probes,
                                frame)
    return (build_report(decomposition, traj, open_scale, H),
            traj.propagators)


def _residual_probe_times(t_grid: Sequence[float]) -> list[float]:
    """Nonzero probe times spanning the grid: endpoints plus midpoint."""
    ts = sorted(float(t) for t in t_grid if t > 0)
    if not ts:
        return []
    probes = {ts[0], ts[len(ts) // 2], ts[-1]}
    return sorted(probes)

"""Exact closed-system Gaussian evolution: stepped trajectories over a time
grid, and branch-pair evolution for coherent-superposition initial states.

Every evolved state comes from one stepped pass, `_stepped_trajectory`, the
only place the symplectic map M(t) = exp(t J h) is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg import expm

from .phase_space import (CoherentAmplitude, FloatArray, GaussianState,
                          PhaseSpaceLayout, QuadraticHamiltonian,
                          TrustGateError, coherent_state, layout,
                          product_state, symplectic_form)

# Symplecticity budget holds for t * ||h|| up to this; beyond it the
# exponential conditioning is no longer certified and the scenario is rejected.
_T_NORM_CAP = 1e3
# Smallest eigenvalue of sigma + iJ/2 an evolved covariance may have: the
# tolerance GaussianState applies to its input.
_UNCERTAINTY_TOL = 1e-10
# Grid steps equal to within this many ulps of max|t| share one step
# propagator, so the rounding of t_max * i / (n - 1) does not split them.
_SAME_STEP_ULPS = 4


class DynamicsError(ValueError):
    """Invalid propagation request."""


class DynamicsTrustError(DynamicsError, TrustGateError):
    """Propagation outside the certified regime, or an evolved state that
    fails the uncertainty relation."""


def _certify_time(t: float, h_norm: float) -> None:
    """Refuse a non-finite time, or one beyond the certified cap."""
    if not np.isfinite(t):
        raise DynamicsError("time must be finite")
    reach = abs(t) * h_norm
    if reach > _T_NORM_CAP:
        raise DynamicsTrustError(
            "certified-time cap",
            f"t*||h|| = {reach:.3e} exceeds the certified cap {_T_NORM_CAP:.0e}")


def _uncertainty_deficit(cov0: FloatArray, half_iJ: np.ndarray) -> float:
    """eps0 = max(0, -lambda_min(sigma0 + iJ/2)): how far the initial state
    falls short of the uncertainty relation, taken once per pass."""
    return max(0.0, -float(np.linalg.eigvalsh(cov0 + half_iJ).min()))


def _uncertainty_floor(M: FloatArray, cov: FloatArray, eps0: float) -> float:
    """A lower bound on lambda_min(sigma + iJ/2) for cov = M sigma0 M^T,
    without an eigendecomposition.

    sigma + iJ/2 = M (sigma0 + iJ/2) M^T + (i/2)(J - M J M^T).  The congruence
    keeps the first term >= -eps0 ||M||_2^2, and by Weyl's inequality the
    second shifts no eigenvalue by more than its spectral norm, at most
    1/2 ||M J M^T - J||_F.  Those two terms hold for the exact product; the
    last, 2n u ||sigma||_F with u the machine epsilon, pads for the rounding
    of the stored cov and of eigvalsh, the check the bound stands in for.
    Without it the bound clears a covariance of the free two-mode model that
    eigvalsh refuses (-8.1e-11 against -1.9e-10 at t = 31.3, vacuum state).
    """
    n = M.shape[0] // 2
    defect = np.hstack([-M[:, n:], M[:, :n]]) @ M.T    # M J M^T; MJ swaps columns
    k = np.arange(n)
    defect[k, k + n] -= 1.0
    defect[k + n, k] += 1.0
    return -(eps0 * float(np.vdot(M, M)) + 0.5 * np.linalg.norm(defect)
             + 2 * n * np.finfo(float).eps * np.linalg.norm(cov))


def _evolved_cov(M: FloatArray, cov0: FloatArray, t: float,
                 half_iJ: np.ndarray, eps0: float) -> FloatArray:
    """M sigma0 M^T, after the one check an evolved covariance gets:
    sigma + iJ/2 >= 0, with half_iJ = iJ/2.

    The covariance passes at once when `_uncertainty_floor` clears the
    tolerance, given eps0 = `_uncertainty_deficit(cov0, half_iJ)`; otherwise
    eigvalsh decides.  A failure is a loss of numerical trust in the
    propagation, not bad input.  A covariance that overflowed fails too:
    eigvalsh of a non-finite matrix may return NaN, finite garbage or raise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cov = M @ cov0 @ M.T
    cov = 0.5 * (cov + cov.T)
    min_eig = np.nan
    if np.isfinite(cov).all():
        if _uncertainty_floor(M, cov, eps0) >= -_UNCERTAINTY_TOL:
            return cov
        min_eig = float(np.linalg.eigvalsh(cov + half_iJ).min())
    if not min_eig >= -_UNCERTAINTY_TOL:
        raise DynamicsTrustError(
            "uncertainty relation",
            f"evolved state at t = {t!r}: covariance violates the uncertainty "
            f"relation (min eig {min_eig:.3e})")
    return cov


def _stepped_trajectory(H: QuadraticHamiltonian, cov0: FloatArray,
                        t_grid: Sequence[float]
                        ) -> Iterator[tuple[float, FloatArray, FloatArray]]:
    """(t, M(t), checked M sigma0 M^T) at each grid time, in grid order.

    M(t_0) = exp(t_0 A) and M(t_k) = E(t_k - t_{k-1}) M(t_{k-1}) with A = J h,
    so a grid costs one matrix exponential per distinct step: one in all on
    a uniform grid.  Each time passes the certified-time cap before its
    propagator is formed and the uncertainty relation after, through the
    symplectic-defect bound of `_uncertainty_floor` wherever it clears.
    """
    ts = np.asarray(t_grid, dtype=float)
    if not np.isfinite(ts).all():
        raise DynamicsError("time must be finite")
    ts = ts.tolist()
    h_norm = np.linalg.norm(H.h, 2)
    A = symplectic_form(H.n_modes) @ H.h
    half_iJ = 0.5j * symplectic_form(H.n_modes)
    eps0 = _uncertainty_deficit(cov0, half_iJ)
    same_step = _SAME_STEP_ULPS * np.spacing(max(map(abs, ts), default=0.0))
    M = E = step = t_prev = None
    for t in ts:
        _certify_time(t, h_norm)
        if M is None:
            M = expm(t * A)
        else:
            dt = t - t_prev
            if step is None or abs(dt - step) > same_step:
                step, E = dt, expm(dt * A)
            M = E @ M
        t_prev = t
        yield t, M, _evolved_cov(M, cov0, t, half_iJ, eps0)


def symplectic_residual(M: FloatArray) -> float:
    """max |M^T J M - J|, the canonical-structure defect of a propagator."""
    n = M.shape[0] // 2
    J = symplectic_form(n)
    return float(np.abs(M.T @ J @ M - J).max())


def evolve_grid(state: GaussianState, H: QuadraticHamiltonian,
                t_grid: Sequence[float]) -> Iterator[GaussianState]:
    """The evolved state at each grid time, in order, from one stepped pass."""
    if state.layout != H.layout:
        raise DynamicsError("state layout does not match propagator")
    return (GaussianState._prechecked(state.layout, M @ state.mean, cov)
            for _, M, cov in _stepped_trajectory(H, state.cov, t_grid))


def energy(state: GaussianState, H: QuadraticHamiltonian) -> float:
    """<H> = 1/2 m^T h m + 1/2 tr(h sigma) + linear . m (conserved quantity)."""
    return float(0.5 * state.mean @ H.h @ state.mean
                 + 0.5 * np.trace(H.h @ state.cov)
                 + H.linear @ state.mean)


@dataclass(frozen=True)
class BranchTrajectory:
    """Two branches evolved by one propagator per time from displaced copies
    of one base state, stacked over the time grid.

    The branches share one covariance by linearity.  Only its block on the
    environment, every mode but the displaced one, is kept: that and the two
    means are all Gamma reads.
    """

    t: FloatArray                  # (T,)
    layout: PhaseSpaceLayout
    mean_a: FloatArray             # (T, 2n)
    mean_b: FloatArray             # (T, 2n)
    env: PhaseSpaceLayout
    env_cov: FloatArray            # (T, 2n - 2, 2n - 2)
    alpha: CoherentAmplitude
    beta: CoherentAmplitude
    # M(t) at the requested probe times, from the same pass
    propagators: dict[float, FloatArray]


def evolve_branches_from(base: GaussianState, alpha: CoherentAmplitude,
                         beta: CoherentAmplitude, H: QuadraticHamiltonian,
                         t_grid: Sequence[float],
                         probe_times: Sequence[float] = ()) -> BranchTrajectory:
    """Displace the base state by alpha / beta on the open mode, then evolve
    both branches over the grid in one stepped pass.

    Both branches share one covariance M sigma0 M^T, checked once per time.
    The propagators at `probe_times`, which must be grid times, are kept.
    """
    if alpha.mode != beta.mode:
        raise DynamicsError("branch amplitudes must target the same mode")
    if base.layout != H.layout:
        raise DynamicsError("state layout does not match propagator")
    lay = base.layout
    ts = np.array(t_grid, dtype=float)
    probes = {float(p) for p in probe_times}
    missing = probes.difference(ts.tolist())
    if missing:
        raise DynamicsError(f"probe times {sorted(missing)} are not grid times")
    k = lay.index(alpha.mode)
    m_a, m_b = base.mean.copy(), base.mean.copy()
    for m, amp in ((m_a, alpha), (m_b, beta)):
        m[k] += amp.x0
        m[k + lay.n_modes] += amp.p0
    env = PhaseSpaceLayout(tuple(lb for lb in lay.mode_labels if lb != alpha.mode))
    idx = lay.z_indices(env.mode_labels)
    env_flat = idx[:, None] * lay.dim + idx      # cov.take(env_flat): env block
    mean_a = np.empty((len(ts), lay.dim))
    mean_b = np.empty((len(ts), lay.dim))
    env_cov = np.empty((len(ts), env.dim, env.dim))
    kept = {}
    for i, (t, M, cov) in enumerate(_stepped_trajectory(H, base.cov, ts)):
        mean_a[i] = M @ m_a
        mean_b[i] = M @ m_b
        env_cov[i] = cov.take(env_flat)
        if t in probes:
            kept[t] = M
    return BranchTrajectory(ts, lay, mean_a, mean_b, env, env_cov, alpha, beta,
                            kept)


def evolve_branches(alpha: CoherentAmplitude, beta: CoherentAmplitude,
                    env: GaussianState, H: QuadraticHamiltonian,
                    t_grid: Sequence[float],
                    open_scale: tuple[float, float]) -> BranchTrajectory:
    """Product-state convenience: vacuum open mode (at open_scale) times env."""
    lay = H.layout
    if alpha.mode not in lay.mode_labels:
        raise DynamicsError(f"open mode {alpha.mode!r} not in layout")
    env_labels = tuple(lb for lb in lay.mode_labels if lb != alpha.mode)
    if env.layout.mode_labels != env_labels:
        raise DynamicsError("environment state must cover all non-open modes")
    open_vacuum = coherent_state(layout(alpha.mode), [open_scale[0]],
                                 [open_scale[1]])
    base = product_state(lay, alpha.mode, open_vacuum, env)
    return evolve_branches_from(base, alpha, beta, H, t_grid)

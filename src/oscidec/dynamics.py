"""Exact closed-system Gaussian evolution: symplectic propagators and
branch-pair evolution for coherent-superposition initial states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .phase_space import (CoherentAmplitude, FloatArray, GaussianState,
                          PhaseSpaceError, PhaseSpaceLayout,
                          QuadraticHamiltonian, TrustGateError, coherent_state,
                          layout, product_state, symplectic_form)

# Symplecticity budget holds for t * ||h|| up to this; beyond it the
# exponential conditioning is no longer certified and the scenario is rejected.
_T_NORM_CAP = 1e3


class DynamicsError(ValueError):
    """Invalid propagation request."""


class DynamicsTrustError(DynamicsError, TrustGateError):
    """Propagation outside the certified regime, or an evolved state that
    fails the uncertainty relation."""


def _certified_generator(H: QuadraticHamiltonian,
                         times: Sequence[float]) -> FloatArray:
    """J h, once every time is checked finite and inside the certified cap."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise DynamicsError("time must be finite")
    reach = float(np.abs(times).max(initial=0.0)) * np.linalg.norm(H.h, 2)
    if reach > _T_NORM_CAP:
        raise DynamicsTrustError(
            "certified-time cap",
            f"t*||h|| = {reach:.3e} exceeds the certified cap {_T_NORM_CAP:.0e}")
    return symplectic_form(H.n_modes) @ H.h


def _evolved_state(lay: PhaseSpaceLayout, mean: FloatArray, cov: FloatArray,
                   t: float) -> GaussianState:
    """The one check an evolved covariance gets; a failure here is a loss of
    numerical trust in the propagation, not bad input."""
    try:
        return GaussianState(lay, mean, cov)
    except PhaseSpaceError as exc:
        raise DynamicsTrustError(
            "uncertainty relation", f"evolved state at t = {t!r}: {exc}") from exc


@dataclass(frozen=True)
class SymplecticPropagator:
    """M(t) = exp(t J h); means map as M m, covariances as M sigma M^T."""

    H: QuadraticHamiltonian
    t: float
    M: FloatArray

    def apply(self, state: GaussianState) -> GaussianState:
        if state.layout != self.H.layout:
            raise DynamicsError("state layout does not match propagator")
        return _evolved_state(state.layout, self.M @ state.mean,
                              self.M @ state.cov @ self.M.T, self.t)


def propagator(H: QuadraticHamiltonian, t: float) -> SymplecticPropagator:
    """Matrix exponential via scaling-and-squaring (no ODE stepping)."""
    return SymplecticPropagator(H, t, expm(t * _certified_generator(H, [t])))


def symplectic_residual(M: FloatArray) -> float:
    """max |M^T J M - J|, the canonical-structure defect of a propagator."""
    n = M.shape[0] // 2
    J = symplectic_form(n)
    return float(np.abs(M.T @ J @ M - J).max())


def evolve(state: GaussianState, H: QuadraticHamiltonian, t: float) -> GaussianState:
    return propagator(H, t).apply(state)


def energy(state: GaussianState, H: QuadraticHamiltonian) -> float:
    """<H> = 1/2 m^T h m + 1/2 tr(h sigma) + linear . m (conserved quantity)."""
    return float(0.5 * state.mean @ H.h @ state.mean
                 + 0.5 * np.trace(H.h @ state.cov)
                 + H.linear @ state.mean)


@dataclass(frozen=True)
class BranchPair:
    """Two branches evolved by the same propagator from displaced copies of
    one base state; their covariances are identical by linearity."""

    t: float
    branch_a: GaussianState
    branch_b: GaussianState
    alpha: CoherentAmplitude
    beta: CoherentAmplitude


def _displace(state: GaussianState, amp: CoherentAmplitude) -> GaussianState:
    k = state.layout.index(amp.mode)
    mean = state.mean.copy()
    mean[k] += amp.x0
    mean[k + state.layout.n_modes] += amp.p0
    return GaussianState._prechecked(state.layout, mean, state.cov)


def evolve_branches_from(base: GaussianState, alpha: CoherentAmplitude,
                         beta: CoherentAmplitude, H: QuadraticHamiltonian,
                         t_grid: Sequence[float]) -> list[BranchPair]:
    """Displace the base state by alpha / beta on the open mode, then evolve
    both branches with the shared propagator at each grid time.

    Both branches share one covariance M sigma0 M^T, checked once per time
    on branch a; branch b carries the same array.
    """
    if alpha.mode != beta.mode:
        raise DynamicsError("branch amplitudes must target the same mode")
    if base.layout != H.layout:
        raise DynamicsError("state layout does not match propagator")
    A = _certified_generator(H, t_grid)
    a0 = _displace(base, alpha)
    b0 = _displace(base, beta)
    out = []
    for t in t_grid:
        t = float(t)
        M = expm(t * A)
        sa = _evolved_state(base.layout, M @ a0.mean, M @ base.cov @ M.T, t)
        sb = GaussianState._prechecked(base.layout, M @ b0.mean, sa.cov)
        out.append(BranchPair(t, sa, sb, alpha, beta))
    return out


def evolve_branches(alpha: CoherentAmplitude, beta: CoherentAmplitude,
                    env: GaussianState, H: QuadraticHamiltonian,
                    t_grid: Sequence[float],
                    open_scale: tuple[float, float]) -> list[BranchPair]:
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

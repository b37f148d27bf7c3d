"""Dephasing master equation drho/dt = -i[H, rho] - Lambda [x, [x, rho]],
integrated with a fixed-step RK4 scheme in a truncated oscillator basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from numpy.typing import NDArray

from ._kernels import backend as kernel_backend
from ._kernels import rk4_steps
from .fock import ComplexArray, _hermite_functions, _ladder, validate_density
from .phase_space import FloatArray, TrustGateError

_TRACE_RETRY = 1e-6   # drift triggering a halve-step retry
_TRACE_KEEP = 1e-8    # conservation demanded of the accepted run
_MAX_HALVINGS = 6
_EIG_FLOOR = -1e-6


class MasterEqError(ValueError):
    """Invalid dephasing scenario."""


class MasterEqTrustError(MasterEqError, TrustGateError):
    """The integration did not conserve the trace at any allowed step."""


@dataclass(frozen=True)
class MasterEqScenario:
    """One-mode dephasing scenario.

    variant "none" switches the Hamiltonian off entirely (the pure-dephasing
    analytic case); "free" keeps only the kinetic term; "harmonic" adds the
    oscillator potential.  The Fock basis is scaled by (mass, basis_freq).
    """

    variant: Literal["none", "free", "harmonic"]
    lam: float
    dim: int
    dt: float
    mass: float = 1.0
    omega: float = 1.0
    basis_freq: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in ("none", "free", "harmonic"):
            raise MasterEqError(f"unknown Hamiltonian variant {self.variant!r}")
        if self.lam < 0:
            raise MasterEqError("dephasing rate must be non-negative")
        if self.dim < 2:
            raise MasterEqError("basis cutoff must be at least 2")
        if self.dt <= 0:
            raise MasterEqError("integration step must be positive")
        if self.mass <= 0 or self.basis_freq <= 0:
            raise MasterEqError("basis scaling must be positive")
        if self.variant == "harmonic" and self.omega <= 0:
            raise MasterEqError("harmonic variant needs omega > 0")


def scenario_operators(scn: MasterEqScenario) -> tuple[ComplexArray, ComplexArray]:
    """(x, H) matrices in the scenario's oscillator basis."""
    a = _ladder(scn.dim)
    s = scn.mass * scn.basis_freq
    x = ((a + a.T) / np.sqrt(2 * s)).astype(complex)
    p = (1j * np.sqrt(s / 2) * (a.T - a)).astype(complex)
    if scn.variant == "none":
        H = np.zeros((scn.dim, scn.dim), dtype=complex)
    elif scn.variant == "free":
        H = p @ p / (2 * scn.mass)
    else:
        H = p @ p / (2 * scn.mass) + scn.mass * scn.omega ** 2 / 2 * (x @ x)
    return x, 0.5 * (H + H.conj().T)


@dataclass(frozen=True)
class MasterEvolution:
    t_grid: FloatArray
    states: tuple[ComplexArray, ...]
    dt_used: float
    halvings: int
    max_trace_drift: float
    min_eigenvalue: float

    @property
    def positivity_ok(self) -> bool:
        return self.min_eigenvalue >= _EIG_FLOOR


def _steps_for(t_grid: FloatArray, dt: float) -> list[int]:
    steps = []
    for t in t_grid:
        k = t / dt
        kr = round(k)
        if abs(k - kr) > 1e-9 * max(1.0, abs(k)):
            raise MasterEqError(
                f"grid time {t} is not an integer multiple of the step {dt}")
        steps.append(int(kr))
    if steps != sorted(steps) or any(s < 0 for s in steps):
        raise MasterEqError("grid times must be non-negative and ascending")
    return steps


def evolve_master(rho0: ComplexArray, scn: MasterEqScenario,
                  t_grid: Sequence[float]) -> MasterEvolution:
    """Integrate the scenario, sampling at the grid times.

    Trace drift beyond 1e-6 restarts the whole integration with a halved step
    (at most 6 halvings); the accepted run must conserve the trace to 1e-8.
    """
    validate_density(rho0)
    t_grid = np.asarray(t_grid, float)
    x, H = scenario_operators(scn)
    K = 1j * H + scn.lam * (x @ x)
    Kd = K.conj().T
    dt = scn.dt
    for halving in range(_MAX_HALVINGS + 1):
        steps = _steps_for(t_grid, dt)
        states = []
        rho = np.ascontiguousarray(rho0, dtype=complex)
        drift = 0.0
        prev = 0
        ok = True
        for n_target in steps:
            rho = rk4_steps(rho, K, Kd, x, 2 * scn.lam, dt, n_target - prev)
            prev = n_target
            # NaN/inf must count as failure: comparisons with NaN are False
            if not np.all(np.isfinite(rho.view(float))):
                ok = False
                break
            drift = max(drift, abs(float(np.trace(rho).real) - 1.0))
            if drift > _TRACE_RETRY:
                ok = False       # run is exploding; abandon it early
                break
            states.append(rho)
        if ok and drift <= _TRACE_KEEP:
            min_eig = min(float(np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min())
                          for r in states)
            return MasterEvolution(t_grid, tuple(states), dt, halving, drift,
                                   min_eig)
        dt = dt / 2
    raise MasterEqTrustError(
        "master trace drift",
        f"trace drift persisted above {_TRACE_KEEP} after {_MAX_HALVINGS} halvings")


def position_kernel(rho: ComplexArray, xs: FloatArray, mass: float,
                    basis_freq: float) -> ComplexArray:
    """rho(x, x') on the given grid from the Fock-basis density matrix."""
    s = np.sqrt(mass * basis_freq)
    phi = np.sqrt(s) * _hermite_functions(s * np.asarray(xs, float), rho.shape[0])
    return phi.T @ rho @ phi


def coherence_profile(result: MasterEvolution, xs: FloatArray,
                      patch_a: tuple[float, float], patch_b: tuple[float, float],
                      mass: float, basis_freq: float) -> FloatArray:
    """Visibility(t) = |off-diagonal patch mass| / sqrt(diag_A * diag_B)."""
    xs = np.asarray(xs, float)
    in_a = (xs >= patch_a[0]) & (xs <= patch_a[1])
    in_b = (xs >= patch_b[0]) & (xs <= patch_b[1])
    if not in_a.any() or not in_b.any():
        raise MasterEqError("patches select no grid points")
    out = np.empty(len(result.states))
    for i, rho in enumerate(result.states):
        R = position_kernel(rho, xs, mass, basis_freq)
        off = abs(R[np.ix_(in_a, in_b)].sum())
        da = float(R[np.ix_(in_a, in_a)].sum().real)
        db = float(R[np.ix_(in_b, in_b)].sum().real)
        if da <= 0 or db <= 0:
            raise MasterEqError("vanishing diagonal patch weight")
        out[i] = off / np.sqrt(da * db)
    return out


def backend_name() -> str:
    return kernel_backend

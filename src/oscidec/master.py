"""Dephasing master equation drho/dt = -i[H, rho] - Lambda [x, [x, rho]],
solved exactly in a truncated oscillator basis by the action of the sparse
Lindblad superoperator's exponential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from .fock import ComplexArray, _hermite_functions, _ladder, validate_density
from .phase_space import FloatArray, TrustGateError

if TYPE_CHECKING:
    from scipy.sparse import csr_array

_TRACE_KEEP = 1e-8    # conservation demanded of every sampled state
# Condition (3.13) of Al-Mohy & Higham for one vector, l = 2 and m_max = 55
# holds up to a 1-norm of 352 * 9.9 / 55 = 63.36; this leaves rounding room.
_STEP_NORM = 60.0
_EIG_FLOOR = -1e-6


class MasterEqError(ValueError):
    """Invalid dephasing scenario."""


class MasterEqTrustError(MasterEqError, TrustGateError):
    """The solve did not conserve the trace, or produced a non-finite state."""


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
    max_trace_drift: float
    min_eigenvalue: float

    @property
    def halvings(self) -> int:
        """Always 0: the exact solve has no step to halve.  Kept for callers
        that read it from earlier versions."""
        return 0

    @property
    def positivity_ok(self) -> bool:
        return self.min_eigenvalue >= _EIG_FLOOR


def _superoperator(scn: MasterEqScenario) -> csr_array:
    """The generator as a CSR matrix on row-major vec rho.

    With vec(A rho B) = (A kron B^T) vec rho, drho/dt = -(K rho + rho K^+)
    + 2 Lambda x rho x becomes L = -(K kron I + I kron conj(K))
    + 2 Lambda x kron x^T, with K = iH + Lambda x^2.
    """
    import scipy.sparse as sp

    x, H = scenario_operators(scn)
    K = sp.csr_array(1j * H + scn.lam * (x @ x))
    xs = sp.csr_array(x)
    eye = sp.identity(scn.dim, dtype=complex, format="csr")
    return (2 * scn.lam * sp.kron(xs, xs.T, format="csr")
            - sp.kron(K, eye, format="csr")
            - sp.kron(eye, K.conj(), format="csr"))


def _propagate(L: csr_array, v0: ComplexArray,
               t_grid: FloatArray) -> ComplexArray:
    """exp(t L) v0 at every grid time, one row per time.

    Each interval, the first from t = 0, is cut into the fewest equal steps
    whose ||h(L - mu I)||_1 stays within _STEP_NORM, and each step is one
    expm_multiply call (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488,
    2011).  Within that bound expm_multiply picks its Taylor degree from the
    exact 1-norm; past it, it estimates ||L^p||_1 from random vectors drawn
    from NumPy's global RNG, which costs about as much as the solve, varies
    from one run to the next and moves the caller's random stream.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    n = L.shape[0]
    mu = L.trace() / n
    norm = float(abs(L - mu * sp.identity(n, format="csr")).sum(axis=0).max())
    out = np.empty((len(t_grid), v0.size), dtype=complex)
    v, prev = v0, 0.0
    for k, t in enumerate(t_grid):
        steps = math.ceil((t - prev) * norm / _STEP_NORM)
        for _ in range(steps):
            v = expm_multiply((t - prev) / steps * L, v)
        out[k] = v
        prev = t
    return out


def evolve_master(rho0: ComplexArray, scn: MasterEqScenario,
                  t_grid: Sequence[float]) -> MasterEvolution:
    """Exact solve of the truncated equation, sampled at the grid times.

    The truncated generator conserves the trace, so the trace-drift gate
    (1e-8, and every state finite) measures only solver error.
    """
    validate_density(rho0)
    t_grid = np.asarray(t_grid, float)
    if not (t_grid.size and np.isfinite(t_grid).all() and t_grid[0] >= 0
            and (np.diff(t_grid) >= 0).all()):
        raise MasterEqError("grid times must be a non-empty run of finite, "
                            "non-negative, ascending times")
    d = scn.dim
    vecs = _propagate(_superoperator(scn), np.asarray(rho0, complex).ravel(),
                      t_grid)
    if not np.isfinite(vecs).all():
        raise MasterEqTrustError("master trace drift",
                                 "an evolved density matrix is not finite")
    drift = float(np.abs(vecs[:, :: d + 1].sum(axis=1) - 1.0).max())
    if drift > _TRACE_KEEP:
        raise MasterEqTrustError(
            "master trace drift",
            f"trace drift {drift:.3e} exceeds the bound {_TRACE_KEEP}")
    states = vecs.reshape(-1, d, d)
    herm = 0.5 * (states + states.conj().transpose(0, 2, 1))
    min_eig = float(np.linalg.eigvalsh(herm).min())
    return MasterEvolution(t_grid, tuple(states), drift, min_eig)


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

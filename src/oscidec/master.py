"""Dephasing master equation drho/dt = -i[H, rho] - Lambda [x, [x, rho]],
solved exactly in a truncated oscillator basis.

With the Hamiltonian off (variant "none") the flow is diagonal in the
eigenbasis of the truncated x and is evaluated in closed form, at a cost that
does not depend on Lambda.  With a Hamiltonian ("free", "harmonic") the
sparse Lindblad superoperator's exponential acts on vec rho, one Fock-parity
sector at a time, with one expm_multiply call per norm-bounded chunk of the
time grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

import numpy as np

from .fock import (ComplexArray, _mode_wavefunctions, _quadratures,
                   validate_density)
from .phase_space import FloatArray, TrustGateError

if TYPE_CHECKING:
    from scipy.sparse import csr_array

_TRACE_KEEP = 1e-8    # conservation demanded of every sampled state
# Grid steps equal to within this many ulps of max|t| share one chunk, so the
# rounding of t_max * i / (n - 1) does not split them.
_SAME_STEP_ULPS = 4
# Condition (3.13) of Al-Mohy & Higham for one vector, l = 2 and m_max = 55
# holds up to a 1-norm of 352 * 9.9 / 55 = 63.36; this leaves rounding room.
_STEP_NORM = 60.0


class MasterEqError(ValueError):
    """Invalid dephasing scenario."""


class MasterEqTrustError(MasterEqError, TrustGateError):
    """The solve did not conserve the trace, or produced a non-finite state."""


@dataclass(frozen=True)
class MasterEqScenario:
    """One-mode dephasing scenario.

    variant "none" switches the Hamiltonian off entirely (the pure-dephasing
    case, solved in closed form in the eigenbasis of x); "free" keeps only
    the kinetic term; "harmonic" adds the oscillator potential.  The Fock
    basis is scaled by (mass, basis_freq).
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
        if not self.lam >= 0:
            raise MasterEqError("dephasing rate lam must be non-negative")
        if self.dim < 2:
            raise MasterEqError("basis cutoff must be at least 2")
        if not (self.mass > 0 and self.basis_freq > 0):
            raise MasterEqError("basis scaling mass and basis_freq must be positive")
        if self.variant == "harmonic" and not self.omega > 0:
            raise MasterEqError("harmonic variant needs omega > 0")


def scenario_operators(scn: MasterEqScenario) -> tuple[ComplexArray, ComplexArray]:
    """(x, H) matrices in the scenario's oscillator basis."""
    x, p = _quadratures(scn.dim, scn.mass, scn.basis_freq)
    x = x.astype(complex)
    if scn.variant == "none":
        H = np.zeros((scn.dim, scn.dim), dtype=complex)
    elif scn.variant == "free":
        H = p @ p / (2 * scn.mass)
    else:
        H = p @ p / (2 * scn.mass) + scn.mass * scn.omega ** 2 / 2 * (x @ x)
    return x, 0.5 * (H + H.conj().T)


@dataclass(frozen=True)
class MasterEvolution:
    """The sampled solve: states[k] is rho at grid time k, shape (T, d, d)."""

    states: ComplexArray
    max_trace_drift: float

    @property
    def max_leakage(self) -> float:
        """Largest population in the top two Fock levels of any sampled rho,
        read from its diagonal.  The truncated generator conserves the trace,
        so this, not the trace drift, shows population pushed out of the
        basis."""
        pops = np.diagonal(self.states, axis1=-2, axis2=-1)[:, -2:].real
        return float(pops.sum(axis=1).max())

    @property
    def halvings(self) -> int:
        """Always 0: the exact solve has no step to halve.  Kept for callers
        that read it from earlier versions."""
        return 0


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

    L acts on row-major vec rho of a d x d matrix.  H and K = iH + Lambda x^2
    keep Fock parity and x kron x^T flips both indices, so L never couples an
    entry (m, n) with m + n even to one with m + n odd.  Each parity sector
    is propagated on its own sub-generator; a sector whose initial entries
    are all zero stays exactly zero and is skipped.  A cat of two opposite
    coherent states has no odd components, so it fills only the even sector.
    """
    n = L.shape[0]
    row, col = np.divmod(np.arange(n), math.isqrt(n))
    odd = (row + col) % 2 == 1
    out = np.zeros((len(t_grid), n), dtype=complex)
    for sector in (np.flatnonzero(~odd), np.flatnonzero(odd)):
        if v0[sector].any():
            out[:, sector] = _propagate_sector(L[sector][:, sector],
                                               v0[sector], t_grid)
    return out


def _propagate_sector(L: csr_array, v: ComplexArray,
                      t_grid: FloatArray) -> ComplexArray:
    """exp(t L) v at every grid time, one expm_multiply call per chunk.

    A chunk is a run of consecutive grid intervals of equal length (within
    _SAME_STEP_ULPS), the first from t = 0, whose span s keeps
    ||s(L - mu I)||_1 within _STEP_NORM; one interval call samples all of it
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011, algorithm 5.2).
    A longer interval is cut into the fewest equal steps within the bound,
    one call each.  Within the bound condition (3.13) holds for the chunk
    and for each of its sub-intervals, so expm_multiply picks its Taylor
    degree from the exact 1-norm; past it, it estimates ||L^p||_1 from
    random vectors drawn from NumPy's global RNG, which costs about as much
    as the solve, varies from one run to the next and moves the caller's
    random stream.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    n = L.shape[0]
    mu = L.trace() / n
    norm = float(abs(L - mu * sp.identity(n, format="csr")).sum(axis=0).max())
    same = _SAME_STEP_ULPS * np.spacing(t_grid[-1])
    out = np.empty((len(t_grid), n), dtype=complex)
    k, prev = 0, 0.0
    while k < len(t_grid):
        h = t_grid[k] - prev
        if h == 0:
            out[k] = v
            k += 1
            continue
        j = k + 1
        while (j < len(t_grid) and abs(t_grid[j] - t_grid[j - 1] - h) <= same
               and (t_grid[j] - prev) * norm <= _STEP_NORM):
            j += 1
        # more than one step only for a lone interval past the bound
        steps = max(1, math.ceil(h * norm / _STEP_NORM))
        for _ in range(steps):
            xs = expm_multiply(L, v, start=0.0,
                               stop=(t_grid[j - 1] - prev) / steps,
                               num=j - k + 1, endpoint=True)
            v = xs[-1]
        out[k:j] = xs[1:]
        k, prev = j, t_grid[j - 1]
    return out


def _dephase(rho0: ComplexArray, scn: MasterEqScenario,
             t_grid: FloatArray) -> ComplexArray:
    """Exact H = 0 flow at every grid time, shape (T, d, d).

    With the truncated x = U diag(xi) U^T, each element of U^T rho U decays
    by exp(-Lambda t (xi_i - xi_j)^2).  Adding only the expm1 change to rho0
    returns rho(0) = rho0 exactly.
    """
    x, _ = _quadratures(scn.dim, scn.mass, scn.basis_freq)
    xi, U = np.linalg.eigh(x)
    tilde = U.T @ rho0 @ U
    gap2 = (xi[:, None] - xi[None, :]) ** 2
    decay = np.expm1(-scn.lam * t_grid[:, None, None] * gap2)
    return rho0 + U @ (tilde * decay) @ U.T


def evolve_master(rho0: ComplexArray, scn: MasterEqScenario,
                  t_grid: Sequence[float]) -> MasterEvolution:
    """Exact solve of the truncated equation, sampled at the grid times.

    Variant "none" takes the closed form of `_dephase`; the others apply
    the superoperator exponential with `_propagate`.  The truncated
    generator conserves the trace, so the trace-drift gate (1e-8, and every
    state finite) measures only solver error; truncation shows in
    `max_leakage` instead, which the caller judges.  Positivity needs no
    check: the truncated generator is of Lindblad form, so its exact flow
    keeps rho positive.
    """
    if np.shape(rho0) != (scn.dim, scn.dim):
        raise MasterEqError(f"initial state has shape {np.shape(rho0)}, the "
                            f"basis needs ({scn.dim}, {scn.dim})")
    validate_density(rho0)
    t_grid = np.asarray(t_grid, float)
    if not (t_grid.size and np.isfinite(t_grid).all() and t_grid[0] >= 0
            and (np.diff(t_grid) >= 0).all()):
        raise MasterEqError("grid times must be a non-empty run of finite, "
                            "non-negative, ascending times")
    d = scn.dim
    rho0 = np.asarray(rho0, complex)
    if scn.variant == "none":
        states = _dephase(rho0, scn, t_grid)
    else:
        states = _propagate(_superoperator(scn), rho0.ravel(),
                            t_grid).reshape(-1, d, d)
    if not np.isfinite(states).all():
        raise MasterEqTrustError("master trace drift",
                                 "an evolved density matrix is not finite")
    diag = states.reshape(len(t_grid), d * d)[:, :: d + 1]
    drift = float(np.abs(diag.sum(axis=1) - 1.0).max())
    if drift > _TRACE_KEEP:
        raise MasterEqTrustError(
            "master trace drift",
            f"trace drift {drift:.3e} exceeds the bound {_TRACE_KEEP}")
    return MasterEvolution(states, drift)


def position_kernel(rho: ComplexArray, xs: FloatArray, mass: float,
                    basis_freq: float) -> ComplexArray:
    """rho(x, x') on the given grid from the Fock-basis density matrix."""
    phi = _mode_wavefunctions(np.asarray(xs, float), rho.shape[0], mass,
                              basis_freq)
    return phi.T @ rho @ phi


def coherence_profile(result: MasterEvolution, xs: FloatArray,
                      patch_a: tuple[float, float], patch_b: tuple[float, float],
                      mass: float, basis_freq: float) -> FloatArray:
    """Visibility(t) = |off-diagonal patch mass| / sqrt(diag_A * diag_B).

    A patch sum of the position kernel R = phi^T rho phi is a bilinear form:
    summing R over A x B is a^T rho b with a = phi 1_A and b = phi 1_B, so
    one product [a b]^T rho(t) [a b] gives all three sums at every time.
    """
    xs = np.asarray(xs, float)
    in_a = (xs >= patch_a[0]) & (xs <= patch_a[1])
    in_b = (xs >= patch_b[0]) & (xs <= patch_b[1])
    if not in_a.any() or not in_b.any():
        raise MasterEqError("patches select no grid points")
    phi = _mode_wavefunctions(xs, result.states.shape[-1], mass, basis_freq)
    ab = np.stack([phi[:, in_a].sum(axis=1), phi[:, in_b].sum(axis=1)])
    gram = ab @ result.states @ ab.T
    da, db = gram[:, 0, 0].real, gram[:, 1, 1].real
    if (da <= 0).any() or (db <= 0).any():
        raise MasterEqError("vanishing diagonal patch weight")
    return np.abs(gram[:, 0, 1]) / np.sqrt(da * db)

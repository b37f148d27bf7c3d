"""Dephasing master equation drho/dt = -i[H, rho] - Lambda [x, [x, rho]],
solved exactly in a truncated oscillator basis.

With the Hamiltonian off (variant "none") the flow is diagonal in the
eigenbasis of the truncated x and is evaluated in closed form, at a cost that
does not depend on Lambda.  With a Hamiltonian ("free", "harmonic") the
Lindblad generator is assembled as a sparse matrix on each Fock-parity sector
of vec rho that the initial state occupies, and each grid interval is stepped
with truncated Taylor sums.
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
# A Taylor sum of at most 55 terms reaches double precision on a step tau
# with tau ||A||_1 <= theta_55 = 9.9 (Al-Mohy & Higham, table 3.1).
_TAYLOR_TERMS = 55
_THETA = 9.9
_UNIT = 2.0 ** -53
# ||F||_inf as read exceeds the summed bound by at most the rounding of 56
# additions, about 56 ulps; this slack covers that many times over.
_BOUND_SLACK = 1 + 1e-12


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


def _sector_generator(scn: MasterEqScenario, sector: np.ndarray) -> csr_array:
    """The generator L as a CSR matrix on the given entries of row-major
    vec rho, which must be one Fock-parity sector.

    drho/dt = -(K rho + rho K^+) + 2 Lambda x rho x with K = iH + Lambda x^2,
    whose bands sit at offsets 0 and +-2, and x's at +-1.  So entry (m, n)
    reads (m + o, n) through -K[m, m + o], (m, n + o) through
    -conj(K[n, n + o]) (o = +-2), (m + a, n + b) through
    2 Lambda x[m, m + a] x[n, n + b] (a, b = +-1) and itself through
    -(K[m, m] + conj(K[n, n])); each keeps the parity of m + n.
    """
    import scipy.sparse as sp

    d = scn.dim
    x, H = scenario_operators(scn)
    K = 1j * H + scn.lam * (x @ x)
    m, n = np.divmod(sector, d)
    pos = np.empty(d * d, dtype=np.intp)    # flat index -> sector position
    pos[sector] = np.arange(sector.size)
    own = np.arange(sector.size)
    rows, cols, vals = [own], [own], [-(K[m, m] + K[n, n].conj())]
    for dm, dn in ((-2, 0), (2, 0), (0, -2), (0, 2),
                   (-1, -1), (-1, 1), (1, -1), (1, 1)):
        ok = (m + dm >= 0) & (m + dm < d) & (n + dn >= 0) & (n + dn < d)
        i, j = m[ok], n[ok]
        if dn == 0:
            vals.append(-K[i, i + dm])
        elif dm == 0:
            vals.append(-K[j, j + dn].conj())
        else:
            vals.append(2 * scn.lam * x[i, i + dm] * x[j, j + dn])
        rows.append(own[ok])
        cols.append(pos[(i + dm) * d + j + dn])
    return sp.csr_array((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(sector.size, sector.size))


def _sector_flow(rho0: ComplexArray, scn: MasterEqScenario,
                 t_grid: FloatArray) -> ComplexArray:
    """Exact flow of a variant with a Hamiltonian at every grid time, shape
    (T, d, d).

    H and K = iH + Lambda x^2 keep Fock parity and x rho x flips both
    indices, so L never couples an entry (m, n) with m + n even to one with
    m + n odd.  Each parity sector is stepped on its own generator; a sector
    whose initial entries are all zero stays exactly zero and is skipped.  A
    cat of two opposite coherent states has no odd components, so it fills
    only the even sector.
    """
    d = scn.dim
    v0 = rho0.ravel()
    m, n = np.divmod(np.arange(d * d), d)
    out = np.zeros((len(t_grid), d * d), dtype=complex)
    for parity in (0, 1):
        sector = np.flatnonzero((m + n) % 2 == parity)
        if v0[sector].any():
            out[:, sector] = _taylor_flow(_sector_generator(scn, sector),
                                          v0[sector], t_grid)
    return out.reshape(-1, d, d)


def _taylor_flow(L: csr_array, v: ComplexArray,
                 t_grid: FloatArray) -> ComplexArray:
    """exp(t L) v at every grid time, one row per time, stepped interval by
    interval.

    This is algorithm 3.2 of Al-Mohy & Higham (SIAM J. Sci. Comput. 33:488,
    2011), the Taylor scheme SciPy's sparse exponential runs for one time, on
    A = L - mu I with mu = tr L / n: an interval h takes
    s = ceil(h ||A||_1 / theta_55) equal sub-steps of a Taylor sum of at
    most 55 terms, each scaled by exp(h mu / s).  The exact 1-norm is read
    once, so no norm is ever estimated from random vectors.
    """
    import scipy.sparse as sp

    n = L.shape[0]
    mu = L.trace() / n
    A = L - mu * sp.identity(n, format="csr")
    norm = float(abs(A).sum(axis=0).max())
    out = np.empty((len(t_grid), n), dtype=complex)
    prev = 0.0
    for k, t in enumerate(t_grid):
        h = t - prev
        if h:
            s = max(1, math.ceil(h * norm / _THETA))
            eta = np.exp(h * mu / s)
            for _ in range(s):
                v = eta * _taylor_sum(A, v, h / s)
        out[k] = v
        prev = t
    return out


def _taylor_sum(A: csr_array, v: ComplexArray, tau: float) -> ComplexArray:
    """sum_j (tau A)^j v / j! for j up to _TAYLOR_TERMS, cut by SciPy's test:
    stop once two consecutive terms b_j together fall within u ||F||_inf of
    the partial sum F.

    ||F||_inf is read only when its upper bound ||v||_inf + sum ||b_j||_inf
    (times _BOUND_SLACK, which covers the rounding of both sides) lets the
    test pass, so the sum stops where the exact test alone would stop it.
    """
    F = v.copy()
    b = v
    c1 = bound = np.abs(v).max()
    for j in range(1, _TAYLOR_TERMS + 1):
        b = A @ b
        b *= tau / j
        c2 = np.abs(b).max()
        F += b
        bound += c2
        if (c1 + c2 <= _UNIT * _BOUND_SLACK * bound
                and c1 + c2 <= _UNIT * np.abs(F).max()):
            break
        c1 = c2
    return F


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

    Variant "none" takes the closed form of `_dephase`; the others step
    each occupied parity sector with `_sector_flow`.  The truncated
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
    solve = _dephase if scn.variant == "none" else _sector_flow
    states = solve(np.asarray(rho0, complex), scn, t_grid)
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

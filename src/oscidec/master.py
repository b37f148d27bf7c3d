"""Dephasing master equation drho/dt = -i[H, rho] - Lambda [x, [x, rho]],
solved exactly in a truncated oscillator basis.

With the Hamiltonian off (variant "none") the flow is diagonal in the
eigenbasis of the truncated x and is evaluated in closed form, at a cost that
does not depend on Lambda; a real initial state, as every cat of real x0 is,
is evolved in real arithmetic.  With a Hamiltonian ("free", "harmonic") the
Lindblad generator is assembled as a sparse matrix on each Fock-parity sector
of vec rho that the initial state occupies, and each grid interval is stepped
with truncated Taylor sums.  The Taylor steps run on L - mu I with
mu = tr L / n only when that shift lowers the number of sub-steps over the
grid, and on L itself otherwise.

What depends only on the basis is built once and kept, read-only, for the
last basis asked for: x, p @ p and x @ x of each (cutoff, mass, basis
frequency), the eigendecomposition of x, and each parity sector's CSR
layout (its entries, the band reads and the CSR indices), so a solve on a
kept basis fills in only the generator's values.
"""
from __future__ import annotations

import functools
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
        if not all(math.isfinite(v) for v in (self.lam, self.mass, self.omega,
                                              self.basis_freq)):
            raise MasterEqError("lam, mass, omega and basis_freq must be finite")
        if not self.lam >= 0:
            raise MasterEqError("dephasing rate lam must be non-negative")
        if self.dim < 2:
            raise MasterEqError("basis cutoff must be at least 2")
        if not (self.mass > 0 and self.basis_freq > 0):
            raise MasterEqError("basis scaling mass and basis_freq must be positive")
        if self.variant == "harmonic" and not self.omega > 0:
            raise MasterEqError("harmonic variant needs omega > 0")


@functools.lru_cache(maxsize=1)
def _basis_operators(dim: int, mass: float, basis_freq: float
                     ) -> tuple[ComplexArray, ComplexArray, ComplexArray]:
    """(x, p @ p, x @ x) of the last basis asked for, complex and read-only."""
    x, p = _quadratures(dim, mass, basis_freq)
    x = x.astype(complex)
    ops = (x, p @ p, x @ x)
    for a in ops:
        a.flags.writeable = False
    return ops


def scenario_operators(scn: MasterEqScenario) -> tuple[ComplexArray, ComplexArray]:
    """(x, H) matrices in the scenario's oscillator basis, both new arrays."""
    x, pp, xx = _basis_operators(scn.dim, scn.mass, scn.basis_freq)
    if scn.variant == "none":
        H = np.zeros((scn.dim, scn.dim), dtype=complex)
    elif scn.variant == "free":
        H = pp / (2 * scn.mass)
    else:
        H = pp / (2 * scn.mass) + scn.mass * scn.omega ** 2 / 2 * xx
    return x.copy(), 0.5 * (H + H.conj().T)


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


# the (row, column) offsets of L's bands beside its diagonal, in the order
# their values are assembled: two bands of K acting from the left, two of
# K^+ acting from the right, then the four of x rho x
_BANDS = ((-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1))


@functools.lru_cache(maxsize=1)
def _parity_sectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the entries of row-major vec rho with m + n even, and
    with m + n odd, at basis size d; read-only."""
    m, n = np.divmod(np.arange(d * d), d)
    sectors = tuple(np.flatnonzero((m + n) % 2 == parity) for parity in (0, 1))
    for a in sectors:
        a.flags.writeable = False
    return sectors


@dataclass(frozen=True)
class _SectorLayout:
    """Where the values of L on one parity sector are read and where they
    go.  Each read is a flat index into a d x d matrix, in assembly order:
    K[m, m] and K[n, n] of every sector entry (m, n) (own_m, own_n), then
    K[m, m + o] (k_left) and K[n, n + o] (k_right) of the K bands, then
    x[m, m + a] and x[n, n + b] (x_m, x_n) of the x bands.  order[k] is the
    assembly position of CSR entry k."""

    own_m: np.ndarray
    own_n: np.ndarray
    k_left: np.ndarray
    k_right: np.ndarray
    x_m: np.ndarray
    x_n: np.ndarray
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


@functools.lru_cache(maxsize=2)
def _sector_layout(d: int, parity: int) -> _SectorLayout:
    """The read-only layout of one parity sector of the last basis size asked
    for (both of its sectors are kept).  The CSR order is found once by
    converting position labels in place of values, so values filled in that
    order give the matrix that converting the values themselves would."""
    import scipy.sparse as sp

    sector = _parity_sectors(d)[parity]
    m, n = np.divmod(sector, d)
    pos = np.empty(d * d, dtype=np.intp)    # flat index -> sector position
    pos[sector] = np.arange(sector.size)
    own = np.arange(sector.size)
    rows, cols, reads = [own], [own], []
    for dm, dn in _BANDS:
        ok = (m + dm >= 0) & (m + dm < d) & (n + dn >= 0) & (n + dn < d)
        i, j = m[ok], n[ok]
        rows.append(own[ok])
        cols.append(pos[(i + dm) * d + j + dn])
        reads.append((i * d + i + dm, j * d + j + dn))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    labels = sp.csr_array((np.arange(rows.size), (rows, cols)),
                          shape=(sector.size, sector.size))
    layout = _SectorLayout(
        m * (d + 1), n * (d + 1),
        np.concatenate([i for i, _ in reads[:2]]),
        np.concatenate([j for _, j in reads[2:4]]),
        np.concatenate([i for i, _ in reads[4:]]),
        np.concatenate([j for _, j in reads[4:]]),
        labels.data, labels.indices, labels.indptr)
    for a in vars(layout).values():
        a.flags.writeable = False
    return layout


def _sector_generator(scn: MasterEqScenario, parity: int) -> csr_array:
    """The generator L as a CSR matrix on one Fock-parity sector of row-major
    vec rho (parity 0: the entries with m + n even).

    drho/dt = -(K rho + rho K^+) + 2 Lambda x rho x with K = iH + Lambda x^2,
    whose bands sit at offsets 0 and +-2, and x's at +-1.  So entry (m, n)
    reads (m + o, n) through -K[m, m + o], (m, n + o) through
    -conj(K[n, n + o]) (o = +-2), (m + a, n + b) through
    2 Lambda x[m, m + a] x[n, n + b] (a, b = +-1) and itself through
    -(K[m, m] + conj(K[n, n])); each keeps the parity of m + n.  Only the
    values are formed here; the kept `_sector_layout` says where they go.
    """
    import scipy.sparse as sp

    layout = _sector_layout(scn.dim, parity)
    x, _, xx = _basis_operators(scn.dim, scn.mass, scn.basis_freq)
    K = (1j * scenario_operators(scn)[1] + scn.lam * xx).ravel()
    x = x.ravel()
    vals = np.concatenate([-(K[layout.own_m] + K[layout.own_n].conj()),
                           -K[layout.k_left], -K[layout.k_right].conj(),
                           2 * scn.lam * x[layout.x_m] * x[layout.x_n]])
    size = layout.own_m.size
    return sp.csr_array((vals[layout.order], layout.indices, layout.indptr),
                        shape=(size, size))


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
    out = np.zeros((len(t_grid), d * d), dtype=complex)
    for parity, sector in enumerate(_parity_sectors(d)):
        if v0[sector].any():
            out[:, sector] = _taylor_flow(_sector_generator(scn, parity),
                                          v0[sector], t_grid)
    return out.reshape(-1, d, d)


def _substeps(t_grid: FloatArray, norm: float) -> list[int]:
    """Equal Taylor sub-steps s = ceil(h norm / theta_55) of each grid
    interval h, at least one, and none for an empty interval."""
    steps, prev = [], 0.0
    for t in t_grid:
        h = t - prev
        steps.append(max(1, math.ceil(h * norm / _THETA)) if h else 0)
        prev = t
    return steps


def _column_norm(data: np.ndarray, indices: np.ndarray, n: int) -> float:
    """||A||_1 of the CSR matrix with these values and column indices: each
    column sum of |A| is accumulated entry by entry in CSR order, as
    abs(A).sum(axis=0) accumulates it."""
    return float(np.bincount(indices, np.abs(data), minlength=n).max())


def _taylor_flow(L: csr_array, v: ComplexArray,
                 t_grid: FloatArray) -> ComplexArray:
    """exp(t L) v at every grid time, one row per time, stepped interval by
    interval.

    This is algorithm 3.2 of Al-Mohy & Higham (SIAM J. Sci. Comput. 33:488,
    2011), the Taylor scheme SciPy's sparse exponential runs for one time,
    on A = L - mu I: an interval h takes s = ceil(h ||A||_1 / theta_55) equal
    sub-steps of a Taylor sum of at most 55 terms, each scaled by
    exp(h mu / s).  The shift mu = tr L / n serves only to lower the
    sub-steps, so it is taken only when it lowers their total over the grid
    (ties keep mu = 0 and need no scaling).  Every step satisfies
    tau ||A||_1 <= theta_55 either way.  The exact 1-norms are read from L's
    CSR arrays, so no norm is ever estimated from random vectors.  L must
    store every diagonal entry, as `_sector_generator` does.
    """
    import scipy.sparse as sp

    n = L.shape[0]
    diag = np.flatnonzero(L.indices == np.repeat(np.arange(n),
                                                 np.diff(L.indptr)))
    mu = L.data[diag].sum() / n
    shifted = L.data.copy()
    shifted[diag] -= mu
    steps = _substeps(t_grid, _column_norm(L.data, L.indices, n))
    shifted_steps = _substeps(t_grid, _column_norm(shifted, L.indices, n))
    shift = sum(shifted_steps) < sum(steps)
    if shift:
        L = sp.csr_array((shifted, L.indices, L.indptr), shape=L.shape)
        steps = shifted_steps
    out = np.empty((len(t_grid), n), dtype=complex)
    prev = 0.0
    for k, (t, s) in enumerate(zip(t_grid, steps)):
        h = t - prev
        for _ in range(s):
            v = _taylor_sum(L, v, h / s)
            if shift:
                v = np.exp(h * mu / s) * v
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


@functools.lru_cache(maxsize=1)
def _position_eigh(dim: int, mass: float,
                   basis_freq: float) -> tuple[FloatArray, FloatArray]:
    """(xi, U) with x = U diag(xi) U^T, the truncated x of the last basis
    asked for; read-only."""
    x, _ = _quadratures(dim, mass, basis_freq)
    pair = np.linalg.eigh(x)
    for a in pair:
        a.flags.writeable = False
    return tuple(pair)


def _dephase(rho0: ComplexArray, scn: MasterEqScenario,
             t_grid: FloatArray) -> ComplexArray:
    """Exact H = 0 flow at every grid time, shape (T, d, d).

    With the truncated x = U diag(xi) U^T, each element of U^T rho U decays
    by exp(-Lambda t (xi_i - xi_j)^2).  Adding only the expm1 change to rho0
    returns rho(0) = rho0 exactly.  U and the decay are real, so the changes
    to Re rho and to Im rho are each formed in real arithmetic, the latter
    only when Im rho0 is not all zero.
    """
    xi, U = _position_eigh(scn.dim, scn.mass, scn.basis_freq)
    gap2 = (xi[:, None] - xi[None, :]) ** 2
    decay = np.expm1(-scn.lam * t_grid[:, None, None] * gap2)

    def change(part: FloatArray) -> FloatArray:
        return U @ ((U.T @ part @ U) * decay) @ U.T

    states = rho0 + change(rho0.real)
    if rho0.imag.any():
        states.imag += change(rho0.imag)
    return states


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

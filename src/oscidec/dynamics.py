"""Exact closed-system Gaussian evolution: stepped trajectories over a time
grid, and branch-pair evolution for coherent-superposition initial states.

Every evolved state comes from one gated stepped pass,
`_certified_trajectory`: `_stepped_trajectory` is the only place the
symplectic map M(t) = exp(t J h) is formed, in closed form (`_propagator`),
and `_check_uncertainty` the only check an evolved covariance gets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .decomposition import _normal_modes
from .phase_space import (CoherentAmplitude, FloatArray, GaussianState,
                          QuadraticHamiltonian, TrustGateError,
                          _UNCERTAINTY_TOL, _uncertainty_min_eig,
                          coherent_state, layout, product_state,
                          symplectic_form)

# Grid steps equal to within this many ulps of max|t| share one step
# propagator, so the rounding of t_max * i / (n - 1) does not split them.
_SAME_STEP_ULPS = 4
_EPS = np.finfo(float).eps


class DynamicsError(ValueError):
    """Invalid propagation request."""


class DynamicsTrustError(DynamicsError, TrustGateError):
    """An evolved state that fails the uncertainty relation."""


def _uncertainty_floor(M: FloatArray, J: FloatArray, eps0: float,
                       sigma_scale: float) -> float:
    """A lower bound on lambda_min(sigma + iJ/2) for sigma = M sigma0 M^T,
    without an eigendecomposition or sigma itself.

    sigma + iJ/2 = M (sigma0 + iJ/2) M^T + (i/2)(J - M J M^T).  The congruence
    keeps the first term >= -eps0 ||M||_2^2, and by Weyl's inequality the
    second shifts no eigenvalue by more than its spectral norm, at most
    1/2 ||M J M^T - J||_F, where M J M^T = G - G^T with G = M_x M_p^T (MJ
    swaps M's column halves).  Those two terms hold for the exact product;
    the last, 2n u s with u the machine epsilon and s >= ||sigma||_F, pads for
    the rounding of sigma and of eigvalsh, the check the bound stands in for.
    Without it the bound clears a covariance of the free two-mode model that
    eigvalsh refuses (-9.3e-11 against -1.1e-10 at t = 29.3, vacuum state).
    A non-finite M or s gives -inf or NaN, which clears nothing.
    """
    n = M.shape[0] // 2
    G = M[:, :n] @ M[:, n:].T
    defect = G - G.T
    defect -= J
    return -(eps0 * float(np.vdot(M, M))
             + 0.5 * np.sqrt(np.vdot(defect, defect))
             + 2 * n * _EPS * sigma_scale)


def _evolved_cov(M: FloatArray, cov0: FloatArray) -> FloatArray:
    """The symmetrised M sigma0 M^T, unchecked; it may overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = M @ cov0 @ M.T
        return 0.5 * (cov + cov.T)


def _check_uncertainty(M: FloatArray, cov0: FloatArray, t: float,
                       J: FloatArray, eps0: float) -> None:
    """Refuse sigma = M sigma0 M^T unless sigma + iJ/2 >= 0.

    Three reads, each only where the one before fails to clear the
    tolerance: `_uncertainty_floor` with s = tr sigma, the sum of the
    entries of (M sigma0) * M, which needs no sigma; then, with sigma built,
    the same bound with s = ||sigma||_F <= tr sigma; then eigvalsh, which
    decides.  A failure is a loss of numerical trust in the propagation, not
    bad input.  A covariance that overflowed fails too: its eigenvalue is
    NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.vdot(M @ cov0, M)
        if _uncertainty_floor(M, J, eps0, trace) >= -_UNCERTAINTY_TOL:
            return
        cov = _evolved_cov(M, cov0)
        if _uncertainty_floor(M, J, eps0,
                              np.linalg.norm(cov)) >= -_UNCERTAINTY_TOL:
            return
    min_eig = _uncertainty_min_eig(cov)
    if not min_eig >= -_UNCERTAINTY_TOL:
        raise DynamicsTrustError(
            "uncertainty relation",
            f"evolved state at t = {t!r}: covariance violates the uncertainty "
            f"relation (min eig {min_eig:.3e})")


def _propagator(modes: tuple[FloatArray, ...], t: float) -> FloatArray:
    """M(t) = exp(t J h), exact, from modes = (B, B^-1, lam), B = T^1/2 U of
    `_normal_modes`: x = B q, p = B^-T pi decouple H into (pi^2 + lam q^2)/2.

    Each mode maps (q, pi) to (c q + s pi, -lam s q + c pi), so M(t) - I is
    [[B (c-1) B^-1, B s B^T], [-B^-T (lam s) B^-1, B^-T (c-1) B^T]], with
    c - 1 = -2 sin^2(w t/2) and s = sin(w t)/w for a complex w = sqrt(lam):
    rotation, shear (s = t) or growth as lam > 0, = 0 or < 0.  No entry is a
    difference of nearby numbers, and M(0) = I exactly."""
    B, Bi, lam = modes
    w = np.sqrt(lam.astype(complex))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.where(w == 0, t, np.sin(w * t) / w).real
        cm1 = (-2 * np.sin(0.5 * w * t) ** 2).real
        return np.eye(2 * len(lam)) + np.block(
            [[(B * cm1) @ Bi, (B * s) @ B.T],
             [-(Bi.T * (lam * s)) @ Bi, (Bi.T * cm1) @ B.T]])


def _stepped_trajectory(H: QuadraticHamiltonian, t_grid: Sequence[float]
                        ) -> Iterator[tuple[float, FloatArray]]:
    """(t, M(t)) at each grid time, in grid order, unchecked for the
    uncertainty relation: `_certified_trajectory` checks it.

    M(t_0) and each distinct step E come from `_propagator`, and
    M(t_k) = E M(t_{k-1}): one matrix product per time.
    """
    ts = np.asarray(t_grid, dtype=float)
    if not np.isfinite(ts).all():
        raise DynamicsError("time must be finite")
    ts = ts.tolist()
    n = H.n_modes
    lam, U, Th, Thi = _normal_modes(H.h[:n, :n], H.h[n:, n:])
    modes = (Th @ U, U.T @ Thi, lam)
    same_step = _SAME_STEP_ULPS * np.spacing(max(map(abs, ts), default=0.0))
    M = E = step = t_prev = None
    for t in ts:
        if M is None:
            M = _propagator(modes, t)
        else:
            dt = t - t_prev
            if step is None or abs(dt - step) > same_step:
                step, E = dt, _propagator(modes, dt)
            M = E @ M
        t_prev = t
        yield t, M


def _certified_trajectory(cov0: FloatArray, H: QuadraticHamiltonian,
                          t_grid: Sequence[float]
                          ) -> Iterator[tuple[float, FloatArray]]:
    """(t, M(t)) from one stepped pass, each M yielded once M sigma0 M^T
    passed `_check_uncertainty`."""
    J = symplectic_form(H.n_modes)
    eps0 = max(0.0, -_uncertainty_min_eig(cov0))   # initial deficit
    for t, M in _stepped_trajectory(H, t_grid):
        _check_uncertainty(M, cov0, t, J, eps0)
        yield t, M


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
    return (GaussianState._prechecked(state.layout, M @ state.mean,
                                      _evolved_cov(M, state.cov))
            for _, M in _certified_trajectory(state.cov, H, t_grid))


def energy(state: GaussianState, H: QuadraticHamiltonian) -> float:
    """<H> = 1/2 m^T h m + 1/2 tr(h sigma) (conserved quantity)."""
    return float(0.5 * state.mean @ H.h @ state.mean
                 + 0.5 * np.trace(H.h @ state.cov))


@dataclass(frozen=True)
class BranchTrajectory:
    """Two branches evolved by one propagator per time from copies of one
    base state displaced by alpha and beta on the open mode, reduced over
    the time grid to what Gamma reads.

    The branches share one covariance sigma = M sigma0 M^T by linearity, and
    their means differ by d = M delta, delta = alpha - beta in phase space.
    Gamma reads d and sigma on the environment, every mode but the open one
    (index k), through the pullback Y = M^-1 [d_hat, e_x, e_p]: d_hat is d
    with its open-mode entries zeroed, e_x and e_p the open mode's unit
    vectors.  Its sigma0^-1 Gram matrix W = Y^T sigma0^-1 Y equals
    [d_hat, e_x, e_p]^T sigma^-1 [d_hat, e_x, e_p], and its Schur complement
    on the open-mode block is d_E^T sigma_EE^-1 d_E.
    """

    t: FloatArray                  # (T,)
    gram: FloatArray               # (T, 3, 3): W, ordered (d_hat, e_x, e_p)
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

    Per time the pass certifies the shared covariance, then reads only rows
    k and k + n of M(t), the open mode's x(t) and p(t) in the initial
    coordinates, and the same rows of M(t) delta.  M^-1 = -J M^T J maps e_x
    and e_p back to J times those rows, and d_hat to delta minus their
    combination by those entries of M delta, so no inverse, solve or
    environment block is formed: beyond the propagator and its check a time
    costs O(n^2), and the pass keeps its 3x3 Gram matrix.  The propagators
    at `probe_times`, which must be grid times, are kept.
    """
    if alpha.mode != beta.mode:
        raise DynamicsError("branch amplitudes must target the same mode")
    if base.layout != H.layout:
        raise DynamicsError("state layout does not match propagator")
    lay = base.layout
    n = lay.n_modes
    ts = np.array(t_grid, dtype=float)
    probes = {float(p) for p in probe_times}
    missing = probes.difference(ts.tolist())
    if missing:
        raise DynamicsError(f"probe times {sorted(missing)} are not grid times")
    k = lay.index(alpha.mode)
    delta = np.zeros(lay.dim)
    delta[k] = alpha.x0 - beta.x0
    delta[k + n] = alpha.p0 - beta.p0
    J = symplectic_form(n)
    try:
        L = np.linalg.cholesky(base.cov)
    except np.linalg.LinAlgError:
        raise DynamicsError("branch base covariance is not positive "
                            "definite") from None
    whiten = np.linalg.inv(L).T        # y @ whiten = (L^-1 y^T)^T
    # rows of Y^T are coef @ (rows @ J^T), plus delta on the first:
    # d_hat -> delta + c_p J r_x - c_x J r_p, e_x -> J r_p, e_p -> -J r_x
    coef = np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    gram = np.empty((len(ts), 3, 3))
    kept = {}
    for i, (t, M) in enumerate(_certified_trajectory(base.cov, H, ts)):
        rows = M[k::n]                 # r_x, r_p: rows k and k + n
        c_x, c_p = rows @ delta
        coef[0] = c_p, -c_x
        y = coef @ (rows @ J.T)
        y[0] += delta
        z = y @ whiten
        gram[i] = z @ z.T
        if t in probes:
            kept[t] = M
    return BranchTrajectory(ts, gram, alpha, beta, kept)


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

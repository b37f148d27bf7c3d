"""Exact closed-system Gaussian evolution over a time grid, and branch-pair
evolution for coherent-superposition initial states.

A pass decomposes H into normal modes once and forms the symplectic map
M(t) = exp(t J h) in closed form.  Both passes walk the grid in chunks of at
most `_CHUNK` times through `_certified_chunks`, which certifies each time
with a bound built once per pass (`_Certificate`).  `evolve_grid` forms all
of M(t) and sigma(t) per chunk, the branch pass only the two rows of M(t)
that Gamma reads; at a time the bound does not clear, each checks its own
N(t) = M(t) S and sigma(t) with `_check_uncertainty`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .decomposition import _normal_modes
from .phase_space import (CoherentAmplitude, FloatArray, GaussianState,
                          QuadraticHamiltonian, TrustGateError,
                          _UNCERTAINTY_TOL, _uncertainty_min_eig,
                          symplectic_form)

# Times per batched closed-form evaluation: bounds a pass's working arrays.
_CHUNK = 64
_EPS = np.finfo(float).eps


class DynamicsError(ValueError):
    """Invalid propagation request."""


class DynamicsTrustError(DynamicsError, TrustGateError):
    """An evolved state that fails the uncertainty relation."""


def _symplectic_defect(X: FloatArray, J: FloatArray) -> float:
    """||X J X^T - J||_F, with X J X^T = G - G^T for G = X_x X_p^T (XJ swaps
    X's column halves)."""
    n = X.shape[1] // 2
    G = X[:, :n] @ X[:, n:].T
    defect = G - G.T
    defect -= J
    return float(np.sqrt(np.vdot(defect, defect)))


def _uncertainty_floor(M: FloatArray, J: FloatArray, eps0: float,
                       sigma_scale: float) -> float:
    """A lower bound on lambda_min(sigma + iJ/2) for sigma = M sigma0 M^T,
    without an eigendecomposition or sigma itself.

    sigma + iJ/2 = M (sigma0 + iJ/2) M^T + (i/2)(J - M J M^T).  The congruence
    keeps the first term >= -eps0 ||M||_2^2, and by Weyl's inequality the
    second shifts no eigenvalue by more than its spectral norm, at most
    1/2 ||M J M^T - J||_F.  Those two terms hold for the exact product; the
    last, 2n u s with u the machine epsilon and s >= ||sigma||_F, pads for
    the rounding of sigma and of eigvalsh, the check the bound stands in for.
    Without it the bound clears a covariance of the free two-mode model that
    eigvalsh refuses (-9.3e-11 against -1.1e-10 at t = 29.3, vacuum state).
    A non-finite M or s gives -inf or NaN, which clears nothing.
    """
    n = M.shape[0] // 2
    return -(eps0 * float(np.vdot(M, M)) + 0.5 * _symplectic_defect(M, J)
             + 2 * n * _EPS * sigma_scale)


def _evolved_cov(M: FloatArray, cov0: FloatArray) -> FloatArray:
    """The symmetrised M sigma0 M^T, one M or a stack; it may overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = M @ cov0 @ M.swapaxes(-1, -2)
        return 0.5 * (cov + cov.swapaxes(-1, -2))


def _check_uncertainty(N: FloatArray, cov: FloatArray, t: float,
                       eps0: float) -> None:
    """Refuse sigma = N sigma0 N^T, given with N, unless sigma + iJ/2 >= 0.

    Two reads: `_uncertainty_floor` with s = ||sigma||_F, then, only where
    that fails to clear the tolerance, eigvalsh, which decides.  A failure
    is a loss of numerical trust in the propagation, not bad input.  A
    covariance that overflowed fails too: its eigenvalue is NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if _uncertainty_floor(N, symplectic_form(len(N) // 2), eps0,
                              np.linalg.norm(cov)) >= -_UNCERTAINTY_TOL:
            return
    min_eig = _uncertainty_min_eig(cov)
    if not min_eig >= -_UNCERTAINTY_TOL:
        raise DynamicsTrustError(
            "uncertainty relation",
            f"evolved state at t = {t!r}: covariance violates the uncertainty "
            f"relation (min eig {min_eig:.3e})")


def _finite_times(t_grid: Sequence[float]) -> FloatArray:
    ts = np.array(t_grid, dtype=float)
    if not np.isfinite(ts).all():
        raise DynamicsError("time must be finite")
    return ts


def _normal_mode_factors(H: QuadraticHamiltonian
                         ) -> tuple[FloatArray, FloatArray, FloatArray]:
    """(B, B^-1, lam), B = T^1/2 U of `_normal_modes`: x = B q, p = B^-T pi
    decouple H into (pi^2 + lam q^2)/2."""
    n = H.n_modes
    lam, U, Th, Thi = _normal_modes(H.h[:n, :n], H.h[n:, n:])
    return Th @ U, U.T @ Thi, lam


def _modal_weights(lam: FloatArray, ts: FloatArray
                   ) -> tuple[FloatArray, FloatArray]:
    """(c - 1, s), each (T, n): mode j maps (q, pi) to (c q + s pi,
    -lam s q + c pi) in time t, with c - 1 = -2 sin^2(w t/2) and
    s = sin(w t)/w for a complex w = sqrt(lam): rotation, shear (s = t) or
    growth as lam > 0, = 0 or < 0.  Neither is a difference of nearby
    numbers, and both are exactly 0 at t = 0."""
    w = np.sqrt(lam.astype(complex))
    wt = np.multiply.outer(ts, w)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.where(w == 0, ts[:, None], np.sin(wt) / w).real
        cm1 = (-2 * np.sin(0.5 * wt) ** 2).real
    return cm1, s


def _propagators(modes: tuple[FloatArray, ...], cm1: FloatArray,
                 s: FloatArray) -> FloatArray:
    """M(t) = exp(t J h) at each time of the modal weights (c - 1, s) of
    `_modal_weights`, (T, 2n, 2n), exact, from modes = (B, B^-1, lam) of
    `_normal_mode_factors`.

    M(t) - I = P (R(t) - I) Q with P = blockdiag(B, B^-T), Q = P^-1 =
    blockdiag(B^-1, B^T) and R(t) the per-mode maps of `_modal_weights`:
    [[B (c-1) B^-1, B s B^T], [-B^-T (lam s) B^-1, B^-T (c-1) B^T]], so
    M(0) = I exactly."""
    B, Bi, lam = modes
    n = len(lam)
    M = np.empty((len(cm1), 2 * n, 2 * n))
    with np.errstate(invalid="ignore", over="ignore"):
        M[:, :n, :n] = (B * cm1[:, None, :]) @ Bi
        M[:, :n, n:] = (B * s[:, None, :]) @ B.T
        M[:, n:, :n] = -(Bi.T * (lam * s)[:, None, :]) @ Bi
        M[:, n:, n:] = (Bi.T * cm1[:, None, :]) @ B.T
    diag = np.arange(2 * n)
    M[:, diag, diag] += 1.0
    return M


@dataclass(frozen=True)
class _Certificate:
    """A lower bound on lambda_min(sigma(t) + iJ/2) for sigma(t) =
    N(t) sigma0 N(t)^T, N(t) = M(t) S, built once per pass and read per time
    in O(n^2) from the modal weights alone.

    With P, Q and R(t) as in `_propagators`, the closed form is
    N = P R Q' + E, where Q' = Q S and E = (I - P Q) S is the constant
    rounding defect of Q = P^-1.  As in `_uncertainty_floor`, lambda_min is
    at least -(eps0 ||N||_2^2 + 1/2 ||N J N^T - J||_2), and
      ||N||_2 <= ||P|| rho ||Q'|| + ||E|| =: nu,
      N J N^T - J = (P J P^T - J) + P (R J R^T - J) P^T
                    + P R (Q' J Q'^T - J) R^T P^T + (the terms in E),
    where rho(t) = max_j ||R_j(t)||_2 and R_j J R_j^T = det(R_j) J, so the
    middle term has norm at most ||P||^2 max_j |det R_j(t) - 1|.  So
      2 * defect <= ||PJP^T - J|| + ||P||^2 (max_j |det R_j - 1|
                    + rho^2 ||Q'JQ'^T - J||) + 2 ||P|| rho ||Q'|| ||E||
                    + ||E||^2.
    Every term holds for the exact product of the computed factors; the
    rounding of det R_j - 1 in floating point is added to it, 4u times the
    sum of its terms' magnitudes (Higham 2002, section 3.1).  The pad
    2n u tr sigma(t) covers the rounding of forming N and sigma, as in
    `_uncertainty_floor`, and tr sigma(t) = tr(R K R^T G), K = Q' sigma0
    Q'^T, G = P^T P, is a quadratic form v^T Z v in the modal vector
    v = (c, s, lam s): R's entries are those weights.

    `build` reads n x n blocks.  D = I - B B^-1 gives P J P^T - J = [[0, -D],
    [D^T, 0]] and I - P Q = blockdiag(D, D^T); with S_x, S_p the frame's
    first and last n rows, Q' = [B^-1 S_x; B^T S_p] and E = [D S_x; D^T S_p]
    (no frame: ||E||_F = ||PJP^T - J||_F).  G = blockdiag(B^T B, B^-1 B^-T)
    =: blockdiag(G_x, G_p), so with * entrywise, Z = [[K_xx*G_x + K_pp*G_p,
    K_xp*G_x, -K_px*G_p], [K_px*G_x, K_pp*G_x, 0], [-K_xp*G_p, 0, K_xx*G_p]].
    """

    lam: FloatArray
    eps0: float
    norm_p: float          # ||P||_2
    norm_q: float          # ||Q'||_F >= ||Q'||_2
    defect_p: float        # ||P J P^T - J||_F
    defect_q: float        # ||Q' J Q'^T - J||_F
    err: float             # ||E||_F
    trace_form: FloatArray  # Z, (3n, 3n)

    @classmethod
    def build(cls, modes: tuple[FloatArray, ...], cov0: FloatArray,
              frame: FloatArray | None, eps0: float) -> "_Certificate":
        B, Bi, lam = modes
        n = len(lam)
        zero = np.zeros((n, n))
        D = np.eye(n) - B @ Bi
        defect_p = float(np.sqrt(2) * np.linalg.norm(D))
        if frame is None:
            Q, err = np.block([[Bi, zero], [zero, B.T]]), defect_p
        else:
            S_x, S_p = frame[:n], frame[n:]
            Q = np.concatenate([Bi @ S_x, B.T @ S_p])
            err = float(np.linalg.norm(np.concatenate([D @ S_x, D.T @ S_p])))
        K = Q @ cov0 @ Q.T
        Kxx, Kxp, Kpx, Kpp = K[:n, :n], K[:n, n:], K[n:, :n], K[n:, n:]
        Gx, Gp = B.T @ B, Bi @ Bi.T
        Z = np.block([[Kxx * Gx + Kpp * Gp, Kxp * Gx, -Kpx * Gp],
                      [Kpx * Gx, Kpp * Gx, zero],
                      [-Kxp * Gp, zero, Kxx * Gp]])
        return cls(lam, eps0, max(np.linalg.norm(B, 2), np.linalg.norm(Bi, 2)),
                   float(np.linalg.norm(Q)), defect_p,
                   _symplectic_defect(Q, symplectic_form(n)), err, Z)

    def floor(self, cm1: FloatArray, s: FloatArray) -> FloatArray:
        """The bound at each time of (c - 1, s) from `_modal_weights`; -inf
        or NaN, which clears nothing, where the weights overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            c = 1.0 + cm1
            ls = self.lam * s
            det_m1 = 2 * cm1 + cm1 * cm1 + ls * s          # det R_j - 1
            det_err = (np.abs(det_m1)
                       + 4 * _EPS * (2 * np.abs(cm1) + cm1 * cm1
                                     + np.abs(ls * s))).max(axis=1)
            frob = 2 * c * c + s * s + ls * ls              # ||R_j||_F^2
            det = 1.0 + det_m1
            rho2 = 0.5 * (frob + np.sqrt(np.maximum(frob * frob
                                                    - 4 * det * det, 0.0)))
            rho2 = (1 + 4 * _EPS) * rho2.max(axis=1)
            rho = np.sqrt(rho2)
            pq = self.norm_p * rho * self.norm_q
            defect = (self.defect_p
                      + self.norm_p ** 2 * (det_err + rho2 * self.defect_q)
                      + (2 * pq + self.err) * self.err)
            v = np.concatenate([c, s, ls], axis=1)
            trace = ((v @ self.trace_form) * v).sum(axis=1)
            return -(self.eps0 * (pq + self.err) ** 2 + 0.5 * defect
                     + 2 * len(self.lam) * _EPS * trace)


def _certified_chunks(modes: tuple[FloatArray, ...], state: GaussianState,
                      ts: FloatArray, frame: FloatArray | None = None
                      ) -> Iterator[tuple[slice, FloatArray, FloatArray,
                                          FloatArray]]:
    """(chunk, c - 1, s, uncleared) per chunk of at most `_CHUNK` times of
    ts: its slice, its modal weights and the mask of the times that the
    pass's `_Certificate`, for state.cov through `frame`, does not clear.
    The pass checks each of those with `_check_uncertainty` before use."""
    cert = _Certificate.build(modes, state.cov, frame, state._deficit)
    for lo in range(0, len(ts), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        cm1, s = _modal_weights(modes[2], ts[chunk])
        yield chunk, cm1, s, ~(cert.floor(cm1, s) >= -_UNCERTAINTY_TOL)


def symplectic_residual(M: FloatArray) -> float:
    """max |M^T J M - J|, the canonical-structure defect of a propagator."""
    n = M.shape[0] // 2
    J = symplectic_form(n)
    return float(np.abs(M.T @ J @ M - J).max())


def evolve_grid(state: GaussianState, H: QuadraticHamiltonian,
                t_grid: Sequence[float]) -> Iterator[GaussianState]:
    """The evolved state at each grid time, in order, from one pass, each
    yielded once certified; a chunk's means and covariances are stacks."""
    if state.layout != H.layout:
        raise DynamicsError("state layout does not match propagator")
    return _grid_states(state, H, t_grid)


def _grid_states(state: GaussianState, H: QuadraticHamiltonian,
                 t_grid: Sequence[float]) -> Iterator[GaussianState]:
    ts = _finite_times(t_grid)
    modes = _normal_mode_factors(H)
    for chunk, cm1, s, uncleared in _certified_chunks(modes, state, ts):
        M = _propagators(modes, cm1, s)
        with np.errstate(over="ignore", invalid="ignore"):
            means, covs = M @ state.mean, _evolved_cov(M, state.cov)
        for i, t in enumerate(ts[chunk].tolist()):
            if uncleared[i]:
                _check_uncertainty(M[i], covs[i], t, state._deficit)
            yield GaussianState._prechecked(state.layout, means[i], covs[i])


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
    vectors.  Its sigma0^-1 Gram matrix W = Y^T sigma0^-1 Y, sigma0 the base
    covariance in H's coordinates, equals
    [d_hat, e_x, e_p]^T sigma^-1 [d_hat, e_x, e_p], and its Schur complement
    on the open-mode block is d_E^T sigma_EE^-1 d_E.
    """

    t: FloatArray                  # (T,)
    gram: FloatArray               # (T, 3, 3): W, ordered (d_hat, e_x, e_p)
    alpha: CoherentAmplitude
    beta: CoherentAmplitude
    # M(t) at the requested probe times, on the grid or not
    propagators: dict[float, FloatArray]


def evolve_branches_from(base: GaussianState, alpha: CoherentAmplitude,
                         beta: CoherentAmplitude, H: QuadraticHamiltonian,
                         t_grid: Sequence[float],
                         probe_times: Sequence[float] = (),
                         frame: FloatArray | None = None) -> BranchTrajectory:
    """Displace the base state by alpha / beta on the open mode, then evolve
    both branches over the grid in one pass.

    With a `frame` S, a symplectic map from the base's coordinates to H's,
    the pass evolves the base through N(t) = M(t) S: it is the state
    S sigma0 S^T of H's coordinates, never formed, and the displacements
    act in H's coordinates.  Per chunk of times the pass forms only rows k
    and k + n of M(t), the open mode's x(t) and p(t) in H's initial
    coordinates, as products of the modal weights with B and B^-1, and the
    same rows of M(t) delta.  M^-1 = -J M^T J maps e_x and e_p back to J
    times those rows, and d_hat to delta minus their combination by those
    entries of M delta, so no inverse, solve or environment block is formed;
    the whitening by (S L)^-1, L L^T = sigma0, is one constant matrix.
    `_certified_chunks` certifies each time; one it does not clear has its
    full N(t) and sigma(t) formed and checked by `_check_uncertainty`.  The
    propagators M(t) at `probe_times`, any finite times, are kept.
    """
    if alpha.mode != beta.mode:
        raise DynamicsError("branch amplitudes must target the same mode")
    lay = H.layout
    if frame is None:
        if base.layout != lay:
            raise DynamicsError("state layout does not match propagator")
    else:
        frame = np.asarray(frame, dtype=float)
        if base.layout.dim != lay.dim or frame.shape != (lay.dim, lay.dim):
            raise DynamicsError("frame must map the state's coordinates to "
                                "the propagator's")
    n = lay.n_modes
    ts = _finite_times(t_grid)
    probes = sorted(set(_finite_times(probe_times).tolist()))
    k = lay.index(alpha.mode)
    delta = np.zeros(lay.dim)
    delta[k] = alpha.x0 - beta.x0
    delta[k + n] = alpha.p0 - beta.p0
    try:
        L = np.linalg.cholesky(base.cov)
    except np.linalg.LinAlgError:
        raise DynamicsError("branch base covariance is not positive "
                            "definite") from None
    whiten = np.linalg.inv(L if frame is None else frame @ L).T
    modes = _normal_mode_factors(H)
    gram = np.empty((len(ts), 3, 3))
    for chunk, cm1, s, uncleared in _certified_chunks(modes, base, ts, frame):
        for t in ts[chunk][uncleared].tolist():
            N = _propagators(modes, *_modal_weights(modes[2],
                                                    np.array([t])))[0]
            with np.errstate(over="ignore", invalid="ignore"):
                N = N if frame is None else N @ frame
            _check_uncertainty(N, _evolved_cov(N, base.cov), t, base._deficit)
        gram[chunk] = _branch_gram(modes, k, delta, whiten, cm1, s)
    kept = dict(zip(probes, _propagators(
        modes, *_modal_weights(modes[2], np.array(probes)))))
    return BranchTrajectory(ts, gram, alpha, beta, kept)


def _branch_gram(modes: tuple[FloatArray, ...], k: int, delta: FloatArray,
                 whiten: FloatArray, cm1: FloatArray, s: FloatArray
                 ) -> FloatArray:
    """W at each time of the modal weights (c - 1, s): rows k and k + n of
    M(t) - I are [B_k (c-1) B^-1, B_k s B^T] and [-B^-T_k (lam s) B^-1,
    B^-T_k (c-1) B^T], B_k the k-th row."""
    B, Bi, lam = modes
    n = len(lam)
    T = len(cm1)
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.empty((2, T, 2 * n))        # r_x, r_p
        rows[:, :, :n] = (np.concatenate([cm1 * B[k], -(lam * s) * Bi[:, k]])
                          @ Bi).reshape(2, T, n)
        rows[:, :, n:] = (np.concatenate([s * B[k], cm1 * Bi[:, k]])
                          @ B.T).reshape(2, T, n)
        rows[0, :, k] += 1.0
        rows[1, :, k + n] += 1.0
        c_x, c_p = (rows @ delta)[:, :, None]
        jr = np.concatenate([rows[..., n:], -rows[..., :n]], axis=-1)  # J r
        # d_hat -> delta + c_p J r_x - c_x J r_p, e_x -> J r_p, e_p -> -J r_x
        y = np.stack([c_p * jr[0] - c_x * jr[1] + delta, jr[1], -jr[0]],
                     axis=1)
        z = (y.reshape(3 * T, 2 * n) @ whiten).reshape(T, 3, 2 * n)
        return np.einsum("tid,tjd->tij", z, z)

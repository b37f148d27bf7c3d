"""Linear canonical transformations between global structures.

Restricted to position point-transformations x' = A x with induced symplectic
action S = blockdiag(A, A^-T).  A is inverted once, when the transform is
built; S^-1 = blockdiag(A^-1, A^T) is read from those blocks, never from a
2n x 2n inverse.  Includes the center-of-mass/relative (Jacobi) transform,
Hamiltonian/state congruence transforms, normal-mode linearization of the
environment block, and analytic formulas for the transformed constants used
as independent cross-checks: the chain's read the inverse Jacobi weights in
closed form, independent of the transform's numerical inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import (BathParams, SystemPotential, TwoModeParams,
                     caldeira_leggett_matrix)
from .phase_space import (FloatArray, GaussianState, PhaseSpaceLayout,
                          QuadraticHamiltonian)


class TransformError(ValueError):
    """Invalid or ill-conditioned coordinate transform."""


@dataclass(frozen=True)
class LinearCoordinateTransform:
    """Invertible position transform x' = A x and its symplectic action."""

    source: PhaseSpaceLayout
    target: PhaseSpaceLayout
    A: FloatArray
    # symplectic action blockdiag(A, A^-T) on (x, p), built once from A
    S: FloatArray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.source.n_modes
        if self.target.n_modes != n:
            raise TransformError("degree-of-freedom count must be conserved")
        A = np.asarray(self.A, float)
        if A.shape != (n, n):
            raise TransformError("A must be n x n on positions")
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > 1e12:
            raise TransformError(f"A is singular or ill-conditioned (cond {cond:.3e})")
        Ai = np.linalg.inv(A)
        # S^T J S - J = [[0, R^T], [-R, 0]] with R = A^-1 A - I
        if np.abs(Ai @ A - np.eye(n)).max() > 1e-10:
            raise TransformError("induced action is not symplectic")
        S = np.zeros((2 * n, 2 * n))
        S[:n, :n] = A
        S[n:, n:] = Ai.T
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S", S)


def cm_relative_transform(masses, source: PhaseSpaceLayout | None = None
                          ) -> LinearCoordinateTransform:
    """Center of mass plus Jacobi relative coordinates, labelled CM, R1, ...

    Row 0: X_CM = sum m_k x_k / M.  Row a >= 1: rho_a = CM(x_0..x_{a-1}) - x_a,
    so the inverse's first column is all ones (every particle rides the CM
    with weight 1) and the transformed kinetic energy is exactly diagonal.
    """
    m = np.asarray(masses, float)
    n = len(m)
    if n < 2:
        raise TransformError("need at least two modes for a CM split")
    if not (m > 0).all():
        raise TransformError("masses must be positive")
    A = np.zeros((n, n))
    A[0] = m / m.sum()
    for a in range(1, n):
        A[a, :a] = m[:a] / m[:a].sum()
        A[a, a] = -1.0
    if source is None:
        source = PhaseSpaceLayout(tuple(f"M{k}" for k in range(n)))
    labels = ("CM",) + tuple(f"R{a}" for a in range(1, n))
    return LinearCoordinateTransform(source, PhaseSpaceLayout(labels), A)


def _jacobi_inverse(masses: FloatArray) -> FloatArray:
    """A^-1 of `cm_relative_transform` in closed form, no numerical inverse.

    x_k = X_CM + sum_a w_{ak} rho_a: column 0 is all ones and, with M_a =
    m_0 + ... + m_a, w_{ak} = m_a / M_a for a > k, -M_{a-1} / M_a for a = k
    and 0 for a < k.
    """
    cum = np.cumsum(masses)
    n = len(cum)
    Ai = np.triu(np.broadcast_to(masses / cum, (n, n)), 1)
    Ai[:, 0] = 1.0
    Ai[np.arange(1, n), np.arange(1, n)] = -cum[:-1] / cum[1:]
    return Ai


def transform_hamiltonian(H: QuadraticHamiltonian,
                          T: LinearCoordinateTransform) -> QuadraticHamiltonian:
    """Congruence h' = S^-T h S^-1 (the energy scalar is invariant).

    h has no position-momentum block and S^-1 = blockdiag(A^-1, A^T), so h'
    is two n x n congruences: A^-T h_xx A^-1 and A h_pp A^T.
    """
    if H.layout != T.source:
        raise TransformError("Hamiltonian layout does not match transform source")
    n = H.n_modes
    A, Ai = T.A, T.S[n:, n:].T      # S's momentum block is A^-T
    hp = np.zeros_like(H.h)
    hp[:n, :n] = Ai.T @ H.h[:n, :n] @ Ai
    hp[n:, n:] = A @ H.h[n:, n:] @ A.T
    return QuadraticHamiltonian(T.target, hp, tag=H.tag)


def transform_state(state: GaussianState,
                    T: LinearCoordinateTransform) -> GaussianState:
    """mean' = S mean, cov' = S cov S^T; purity is invariant (det S = 1)."""
    if state.layout != T.source:
        raise TransformError("state layout does not match transform source")
    S = T.S
    return GaussianState(T.target, S @ state.mean, S @ state.cov @ S.T)


@dataclass(frozen=True)
class TwoModeConstants:
    """Transformed two-mode constants: H' has c1 X^2 + c2 rho^2 - c3 X rho."""

    c1: float
    c2: float
    c3: float
    mu: float
    total_mass: float

    @property
    def positivity_ok(self) -> bool:
        return self.c1 > 0 and self.c2 > 0


@dataclass(frozen=True)
class ManyModeConstants:
    """Transformed chain constants (free / harmonic open-mode cases)."""

    total_mass: float
    m_omega_cm_sq: float          # M Omega_CM^2
    mu_alpha: FloatArray          # reduced masses, alpha = 1..N
    mu_nu_sq: FloatArray          # mu_alpha nu_alpha^2
    sigma_alpha: FloatArray       # X_CM-rho_alpha coefficients as in h'
    omega_alpha: FloatArray       # Omega_alpha = sum_i kappa_i w_{alpha i}
    omega_cross: FloatArray       # Omega_{alpha alpha'}
    xx_cross: FloatArray          # full rho_alpha rho_alpha' coefficients
    pp_cross: FloatArray          # mass-polarization momentum couplings
    xx_min_eig: float             # lambda_min of the chain's position block
    xx_norm: float                # ||.||_2 of the chain's position block

    @property
    def positivity_ok(self) -> bool:
        """Diagonal constants positive and the whole potential block
        positive semidefinite, up to rounding relative to its norm."""
        return (self.m_omega_cm_sq / 2 > 0
                and bool(np.all(self.mu_nu_sq / 2 > 0))
                and self.xx_min_eig >= -1e-12 * max(self.xx_norm, 1.0))


def two_mode_constants(p: TwoModeParams) -> TwoModeConstants:
    """Closed-form transformed constants of the two-mode model."""
    M = p.m_s + p.m_e
    mu = p.m_s * p.m_e / M
    c1 = p.m_e * p.omega ** 2 / 2 - p.coupling
    c2 = p.m_s * mu * p.omega ** 2 / (2 * M) + p.coupling * mu / M
    c3 = p.coupling * (p.m_e - p.m_s) / M + mu * p.omega ** 2
    return TwoModeConstants(c1, c2, c3, mu, M)


def many_mode_constants(pot: SystemPotential, bath: BathParams) -> ManyModeConstants:
    """Closed-form transformed constants for the open-mode/bath chain.

    Weights w_{alpha i} of the inverse Jacobi transform (x_i = X_CM +
    sum_alpha w_{alpha i} rho_alpha) are taken in closed form by
    `_jacobi_inverse`, independent of the transform's numerical inverse;
    the coupling sign is threaded through every kappa_i term.
    """
    s = float(bath.coupling_sign)
    mi = np.asarray(bath.masses)
    wi = np.asarray(bath.freqs)
    ki = np.asarray(bath.couplings)
    spring = pot.spring  # m_S omega_S^2, zero in the free case
    masses = np.concatenate([[pot.m_s], mi])
    Ainv = _jacobi_inverse(masses)
    w_s = Ainv[0, 1:]        # w_{alpha S}
    w_env = Ainv[1:, 1:]     # w_{alpha i}, rows i, columns alpha
    n = bath.n
    M = masses.sum()
    m_omega_cm_sq = 2 * (np.sum(s * ki + mi * wi ** 2 / 2) + spring / 2)
    omega_alpha = w_env.T @ ki
    mu_nu_sq = 2 * (s * w_s * omega_alpha
                    + (mi * wi ** 2 / 2) @ w_env ** 2
                    + spring * w_s ** 2 / 2)
    sigma_alpha = (mi * wi ** 2) @ w_env + s * (ki.sum() * w_s + ki @ w_env) \
        + spring * w_s
    omega_cross = 0.5 * w_env.T @ np.diag(mi * wi ** 2) @ w_env
    np.fill_diagonal(omega_cross, 0.0)
    xx_cross = (2 * omega_cross
                + s * (np.outer(w_s, omega_alpha) + np.outer(omega_alpha, w_s))
                + spring * np.outer(w_s, w_s))
    np.fill_diagonal(xx_cross, 0.0)
    # Jacobi kinetic energy is exactly diagonal: no mass polarization
    pp_cross = np.zeros((n, n))
    cum = np.cumsum(masses)
    mu_alpha = cum[:-1] * masses[1:] / cum[1:]
    # a diagonal test misses cross terms that make the chain unbounded below
    xx = caldeira_leggett_matrix(pot, bath)[:n + 1, :n + 1]
    xx_eigs = np.linalg.eigvalsh(xx)
    return ManyModeConstants(M, m_omega_cm_sq, mu_alpha, mu_nu_sq, sigma_alpha,
                             omega_alpha, omega_cross, xx_cross, pp_cross,
                             float(xx_eigs[0]), float(np.abs(xx_eigs).max()))


def verify_constants(Hp: QuadraticHamiltonian,
                     K: TwoModeConstants | ManyModeConstants) -> dict[str, float]:
    """Residuals between analytic constants and the congruence-transformed h'."""
    n = Hp.layout.n_modes
    h = Hp.h
    if isinstance(K, TwoModeConstants):
        return {
            "c1": abs(h[0, 0] / 2 - K.c1),
            "c2": abs(h[1, 1] / 2 - K.c2),
            "c3": abs(-h[0, 1] - K.c3),
            "mu": abs(1 / h[n + 1, n + 1] - K.mu),
            "total_mass": abs(1 / h[n, n] - K.total_mass),
        }
    res = {
        "m_omega_cm_sq": abs(h[0, 0] - K.m_omega_cm_sq),
        "total_mass": abs(1 / h[n, n] - K.total_mass),
        "mu_alpha": float(np.abs(1 / np.diag(h[n + 1:, n + 1:]) - K.mu_alpha).max()),
        "mu_nu_sq": float(np.abs(np.diag(h[1:n, 1:n]) - K.mu_nu_sq).max()),
        "sigma_alpha": float(np.abs(h[0, 1:n] - K.sigma_alpha).max()),
        "pp_cross": float(np.abs(np.triu(h[n + 1:, n + 1:], 1) - np.triu(K.pp_cross, 1)).max()),
    }
    xx = h[1:n, 1:n].copy()
    np.fill_diagonal(xx, 0.0)
    res["xx_cross"] = float(np.abs(xx - K.xx_cross).max())
    return res


def _normal_modes(V: FloatArray, T: FloatArray) -> tuple[FloatArray, ...]:
    """(lam, U, T^1/2, T^-1/2), T^1/2 V T^1/2 = U diag(lam) U^T for T > 0."""
    eT, UT = np.linalg.eigh(T)
    if eT.min() <= 0:
        raise TransformError("kinetic block must be positive definite")
    Th = UT @ np.diag(np.sqrt(eT)) @ UT.T        # T^{1/2}
    Thi = UT @ np.diag(1 / np.sqrt(eT)) @ UT.T   # T^{-1/2}
    lam, U = np.linalg.eigh(Th @ V @ Th)
    return lam, U, Th, Thi


def normal_mode_transform(H: QuadraticHamiltonian, env_modes) -> tuple[
        LinearCoordinateTransform, QuadraticHamiltonian]:
    """Diagonalize the environment block into unit-mass normal modes.

    Environment kinetic form 1/2 p^T T p and potential 1/2 x^T V x go to
    sum_l (P_l^2/2 + w_l^2 Q_l^2/2) via A_env = U^T T^{-1/2}, where
    T^{1/2} V T^{1/2} = U diag(w_l^2) U^T (eigenvalues ascending).  Rows and
    columns of the open modes are untouched.
    """
    lay = H.layout
    n = lay.n_modes
    env = [lay.index(lb) for lb in env_modes]
    if len(env) == 0:
        raise TransformError("no environment modes given")
    p_open = [n + k for k in range(n) if k not in env]
    p_env = [n + j for j in env]
    h = H.h
    tol = 1e-12 * max(1.0, float(np.abs(h).max()))
    if np.any(np.abs(h[np.ix_(p_open, p_env)]) > tol):
        raise TransformError("open-mode momentum couples to the environment")
    ev, U, _, Thi = _normal_modes(h[np.ix_(env, env)], h[np.ix_(p_env, p_env)])
    if ev.min() <= 0:
        raise TransformError(
            f"environment potential block is not positive definite "
            f"(eigenvalue {ev.min():.6e})")
    # deterministic eigenvector signs: first non-negligible component positive
    U *= np.sign(U[np.argmax(np.abs(U) > 1e-12, axis=0), np.arange(len(env))])
    A = np.eye(n)
    A[np.ix_(env, env)] = U.T @ Thi
    T_lct = LinearCoordinateTransform(lay, lay, A)
    return T_lct, transform_hamiltonian(H, T_lct)

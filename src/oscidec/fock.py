"""Brute-force truncated-Fock-space oracle for up to three modes.

Everything here is built independently of the Gaussian engine: ladder-operator
matrices, dense eigendecomposition evolution, reduced density matrices,
Hilbert-Schmidt overlaps, and a quadrature-based re-expression of pure
two-mode wavefunctions in CM/relative coordinates for an independent
partial-transpose entanglement check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.typing import NDArray

from .models import BathParams, SystemPotential, TwoModeParams
from .phase_space import FloatArray

ComplexArray = NDArray[np.complex128]

_D_CAP = 20000
_LEAK_TRUST = 1e-6  # population allowed in the top two levels of any mode


class OracleError(ValueError):
    """Oracle request outside its validity envelope."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated multimode Fock space with per-mode ladder scalings."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    masses: tuple[float, ...]
    freqs: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.labels)
        if not (1 <= k <= 3):
            raise OracleError("oracle supports 1 to 3 modes")
        if len(self.dims) != k or len(self.masses) != k or len(self.freqs) != k:
            raise OracleError("per-mode parameter lists must align")
        if any(d < 2 for d in self.dims):
            raise OracleError("every cutoff must be at least 2")
        if int(np.prod(self.dims)) > _D_CAP:
            raise OracleError(f"total dimension exceeds the cap {_D_CAP}")
        if any(m <= 0 for m in self.masses) or any(w <= 0 for w in self.freqs):
            raise OracleError("masses and frequencies must be positive")

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))


def _ladder(d: int) -> FloatArray:
    return np.diag(np.sqrt(np.arange(1, d)), 1)


def _embed(op: np.ndarray, k: int, dims: Sequence[int]) -> np.ndarray:
    full = np.array([[1.0]])
    for j, d in enumerate(dims):
        full = np.kron(full, op if j == k else np.eye(d))
    return full


@dataclass(frozen=True)
class FockOperators:
    """Position and momentum matrices on the full space."""

    space: FockSpace
    x: tuple[ComplexArray, ...]
    p: tuple[ComplexArray, ...]


def build_operators(space: FockSpace) -> FockOperators:
    """x_k = (a + a^dag)/sqrt(2 m_k w_k), p_k = i sqrt(m_k w_k/2)(a^dag - a)."""
    xs, ps = [], []
    for k, (d, m, w) in enumerate(zip(space.dims, space.masses, space.freqs)):
        a = _ladder(d)
        x1 = (a + a.T) / np.sqrt(2 * m * w)
        p1 = 1j * np.sqrt(m * w / 2) * (a.T - a)
        xs.append(_embed(x1, k, space.dims).astype(complex))
        ps.append(_embed(p1, k, space.dims).astype(complex))
    return FockOperators(space, tuple(xs), tuple(ps))


def two_mode_hamiltonian(ops: FockOperators, p: TwoModeParams) -> ComplexArray:
    """Operator expression of the two-mode model (independent of any h matrix)."""
    xS, xE = ops.x
    pS, pE = ops.p
    H = (pS @ pS / (2 * p.m_s) + pE @ pE / (2 * p.m_e)
         + p.m_e * p.omega ** 2 / 2 * (xE @ xE) - p.coupling * (xS @ xE))
    return 0.5 * (H + H.conj().T)


def chain_hamiltonian(ops: FockOperators, pot: SystemPotential,
                      bath: BathParams) -> ComplexArray:
    """Open mode + small bath, assembled directly from operator products."""
    if len(ops.space.labels) != bath.n + 1:
        raise OracleError("operator space does not match the bath size")
    H = ops.p[0] @ ops.p[0] / (2 * pot.m_s) + pot.spring / 2 * (ops.x[0] @ ops.x[0])
    for i in range(bath.n):
        xi, pi = ops.x[i + 1], ops.p[i + 1]
        H = H + pi @ pi / (2 * bath.masses[i]) \
            + bath.masses[i] * bath.freqs[i] ** 2 / 2 * (xi @ xi) \
            + bath.coupling_sign * bath.couplings[i] * (ops.x[0] @ xi)
    return 0.5 * (H + H.conj().T)


def quadratic_hamiltonian_operator(ops: FockOperators, h: FloatArray,
                                   linear: FloatArray | None = None) -> ComplexArray:
    """Generic 1/2 z^T h z + c^T z with symmetrized operator products."""
    n = len(ops.space.labels)
    zops = list(ops.x) + list(ops.p)
    D = ops.space.total_dim
    H = np.zeros((D, D), dtype=complex)
    for i in range(2 * n):
        for j in range(i, 2 * n):
            hij = h[i, j]
            if hij == 0.0:
                continue
            term = zops[i] @ zops[j]
            if i != j:
                term = term + zops[j] @ zops[i]
            H += 0.5 * hij * term
    if linear is not None:
        for i, ci in enumerate(np.asarray(linear, float)):
            if ci != 0.0:
                H += ci * zops[i]
    return 0.5 * (H + H.conj().T)


def coherent_vector(d: int, mass: float, freq: float, x0: float,
                    p0: float = 0.0) -> ComplexArray:
    """Truncated coherent state |alpha>, alpha = sqrt(mw/2) x0 + i p0/sqrt(2mw)."""
    alpha = np.sqrt(mass * freq / 2) * x0 + 1j * p0 / np.sqrt(2 * mass * freq)
    nn = np.arange(d)
    if alpha == 0:
        v = np.zeros(d, complex)
        v[0] = 1.0
        return v
    log_sqrt_fact = np.array([0.5 * math.lgamma(n + 1.0) for n in range(d)])
    v = alpha ** nn * np.exp(-0.5 * abs(alpha) ** 2 - log_sqrt_fact)
    return v / np.linalg.norm(v)


def product_pure_state(space: FockSpace, vectors: Sequence[ComplexArray]) -> ComplexArray:
    psi = np.array([1.0 + 0j])
    for v in vectors:
        psi = np.kron(psi, v)
    return psi


def thermal_density(space: FockSpace, temperature: float) -> tuple[ComplexArray, float]:
    """Product Gibbs state via truncated, renormalized spectral weights.

    Returns (rho, tail_error) with tail_error the largest per-mode weight lost
    to truncation before renormalization.
    """
    rho = np.array([[1.0 + 0j]])
    tail = 0.0
    for d, w in zip(space.dims, space.freqs):
        if temperature <= 0:
            g = np.zeros(d)
            g[0] = 1.0
        else:
            expo = -w * np.arange(d) / temperature
            g = np.exp(expo - expo.max())
            z_full = 1.0 / -np.expm1(-w / temperature)  # geometric series sum
            tail = max(tail, 1.0 - g.sum() * np.exp(expo.max()) / z_full)
            g = g / g.sum()
        rho = np.kron(rho, np.diag(g).astype(complex))
    return rho, tail


def validate_density(rho: ComplexArray) -> None:
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise OracleError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise OracleError("density matrix trace deviates from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise OracleError("density matrix has a significant negative eigenvalue")


@dataclass(frozen=True)
class Evolver:
    """Dense eigendecomposition of H, reusable across grid times."""

    space: FockSpace
    energies: FloatArray
    vectors: ComplexArray

    def unitary(self, t: float) -> ComplexArray:
        phase = np.exp(-1j * self.energies * t)
        return (self.vectors * phase) @ self.vectors.conj().T

    def evolve_pure(self, psi0: ComplexArray, t: float) -> ComplexArray:
        """U(t) psi0 applied in the eigenbasis, without forming U(t)."""
        phase = np.exp(-1j * self.energies * t)
        return self.vectors @ (phase * (self.vectors.conj().T @ psi0))

    def evolve(self, rho0: ComplexArray, t: float) -> ComplexArray:
        U = self.unitary(t)
        return U @ rho0 @ U.conj().T


def diagonalize(space: FockSpace, H: ComplexArray) -> Evolver:
    if np.abs(H - H.conj().T).max() > 1e-10 * max(np.abs(H).max(), 1.0):
        raise OracleError("Hamiltonian operator must be Hermitian")
    E, V = np.linalg.eigh(H)
    return Evolver(space, E, V)


def evolve_exact(rho0: ComplexArray, space: FockSpace, H: ComplexArray,
                 t: float) -> tuple[ComplexArray, bool]:
    """rho(t) = U rho0 U^dag; returns (rho, trusted) per the leakage monitor."""
    validate_density(rho0)
    rho = diagonalize(space, H).evolve(rho0, t)
    return rho, leakage(rho, space) < _LEAK_TRUST


def populations(state: ComplexArray, space: FockSpace) -> FloatArray:
    """Per-basis-state occupation probabilities for a vector or density matrix."""
    if state.ndim == 1:
        pops = np.abs(state) ** 2
    else:
        pops = np.real(np.diag(state))
    return pops.reshape(space.dims)


def leakage(state: ComplexArray, space: FockSpace) -> float:
    """Total population in the top two Fock levels of any mode."""
    pops = populations(state, space)
    total = 0.0
    for k, d in enumerate(space.dims):
        total += float(np.take(pops, [d - 2, d - 1], axis=k).sum())
    return total


def reduced_density(state: ComplexArray, space: FockSpace, keep: int) -> ComplexArray:
    """Partial trace keeping one mode (vector or density-matrix input)."""
    dims = space.dims
    k = len(dims)
    if state.ndim == 1:
        psi = state.reshape(dims)
        m = np.moveaxis(psi, keep, 0).reshape(dims[keep], -1)
        return m @ m.conj().T
    rho = state.reshape(dims + dims)
    for a in sorted((a for a in range(k) if a != keep), reverse=True):
        rho = np.trace(rho, axis1=a, axis2=a + len(rho.shape) // 2)
    return rho


def hs_overlap(ra: ComplexArray, rb: ComplexArray) -> float:
    """Normalized Hilbert-Schmidt overlap tr(ra rb)/sqrt(tr ra^2 tr rb^2)."""
    num = np.real(np.trace(ra @ rb))
    den = np.sqrt(np.real(np.trace(ra @ ra)) * np.real(np.trace(rb @ rb)))
    return float(num / den)


def moments(state: ComplexArray, ops: FockOperators) -> tuple[FloatArray, FloatArray]:
    """First moments <z> and symmetrized covariance of a vector/density matrix.

    The truncated x and p matrices are Hermitian, so <{z_i, z_j}>/2 is
    Re <z_i psi|z_j psi> for a vector and Re tr(z_i z_j rho) for a density
    matrix; neither needs a product of two operators.
    """
    zops = list(ops.x) + list(ops.p)
    if state.ndim == 1:
        W = np.array([z @ state for z in zops])
        mean = np.real(W @ state.conj())
        cov = np.real(W.conj() @ W.T)
    else:
        W = [z @ state for z in zops]
        mean = np.array([np.real(np.trace(w)) for w in W])
        cov = np.array([[np.real(np.sum(zi.T * wj)) for wj in W] for zi in zops])
    cov = 0.5 * (cov + cov.T) - np.outer(mean, mean)
    return mean, cov


# ---------------------------------------------------------------------------
# CM/relative re-expression of pure two-mode states (quadrature projection)
# ---------------------------------------------------------------------------

def _hermite_functions(xi: FloatArray, d: int) -> FloatArray:
    """Normalized Hermite functions phi_0..phi_{d-1} via stable recurrence."""
    out = np.zeros((d, len(xi)))
    out[0] = np.pi ** -0.25 * np.exp(-xi ** 2 / 2)
    if d > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for k in range(1, d - 1):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * xi * out[k] \
            - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def _mode_wavefunctions(x: FloatArray, d: int, mass: float, freq: float) -> FloatArray:
    s = np.sqrt(mass * freq)
    return np.sqrt(s) * _hermite_functions(s * x, d)


def project_to_transformed_basis(c: ComplexArray,
                                 scales_in: Sequence[tuple[float, float]],
                                 scales_out: Sequence[tuple[float, float]],
                                 A: FloatArray, d_out: int,
                                 n_quad: int = 140) -> ComplexArray:
    """Amplitudes of a pure two-mode state in the x' = A x coordinate bases.

    c is the Fock amplitude matrix in the original per-mode oscillator bases;
    the return value is the amplitude matrix in oscillator bases of the new
    coordinates (Gauss-Hermite quadrature on both axes).  The Frobenius norm
    of the result measures projection completeness.
    """
    (m1, w1), (m2, w2) = scales_in
    (M1, W1), (M2, W2) = scales_out
    y1, q1 = hermgauss(n_quad)
    y2, q2 = hermgauss(n_quad)
    s1 = np.sqrt(M1 * W1)
    s2 = np.sqrt(M2 * W2)
    g1 = y1 / s1
    g2 = y2 / s2
    Ai = np.linalg.inv(A)
    X1 = Ai[0, 0] * g1[:, None] + Ai[0, 1] * g2[None, :]
    X2 = Ai[1, 0] * g1[:, None] + Ai[1, 1] * g2[None, :]
    d1, d2 = c.shape
    phi1 = _mode_wavefunctions(X1.ravel(), d1, m1, w1).reshape(d1, n_quad, n_quad)
    phi2 = _mode_wavefunctions(X2.ravel(), d2, m2, w2).reshape(d2, n_quad, n_quad)
    psi = np.einsum("jk,jab,kab->ab", c, phi1, phi2, optimize=True)
    out1 = _mode_wavefunctions(g1, d_out, M1, W1) * (q1 * np.exp(y1 ** 2)) / s1
    out2 = _mode_wavefunctions(g2, d_out, M2, W2) * (q2 * np.exp(y2 ** 2)) / s2
    jac = abs(np.linalg.det(Ai))
    return np.sqrt(jac) * np.einsum("ma,nb,ab->mn", out1, out2, psi, optimize=True)


def pt_log_negativity_pure(amp: ComplexArray) -> float:
    """ln || rho^T_B ||_1 for the pure state with amplitude matrix amp.

    The partial transpose of |psi><psi| has entries
    (rho^T_B)_{(m n),(m' n')} = amp[m, n'] conj(amp[m', n]); its trace norm is
    evaluated literally from the eigenvalues of that Hermitian matrix.
    """
    a = amp / np.linalg.norm(amp)
    d1, d2 = a.shape
    rho_pt = np.einsum("mq,pn->mnpq", a, a.conj()).reshape(d1 * d2, d1 * d2)
    ev = np.linalg.eigvalsh(rho_pt)
    return float(np.log(np.abs(ev).sum()))


def schmidt_log_negativity_pure(amp: ComplexArray) -> float:
    """Pure-state shortcut: E_N = 2 ln sum of Schmidt coefficients."""
    a = amp / np.linalg.norm(amp)
    sv = np.linalg.svd(a, compute_uv=False)
    return float(2.0 * np.log(sv.sum()))


def cm_relative_log_negativity(psi: ComplexArray, space: FockSpace,
                               d_out: int = 24, n_quad: int = 140,
                               literal_pt: bool = True) -> tuple[float, float]:
    """CM|relative entanglement of a pure two-mode state.

    Returns (log_negativity, projection_norm); the projection norm should be
    close to 1 when d_out captures the state.
    """
    if len(space.labels) != 2:
        raise OracleError("CM/relative split is defined for two modes here")
    m1, m2 = space.masses
    M = m1 + m2
    mu = m1 * m2 / M
    A = np.array([[m1 / M, m2 / M], [1.0, -1.0]])
    c = psi.reshape(space.dims)
    amp = project_to_transformed_basis(
        c, list(zip(space.masses, space.freqs)), [(M, 1.0), (mu, 1.0)], A, d_out,
        n_quad)
    norm = float(np.linalg.norm(amp))
    en = pt_log_negativity_pure(amp) if literal_pt else schmidt_log_negativity_pure(amp)
    return en, norm


# ---------------------------------------------------------------------------
# Gaussian-engine crosscheck on the two-mode scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckRow:
    t: float
    leakage: float
    trusted: bool
    dev_mean: float
    dev_cov: float
    dev_purity: float
    dev_overlap: float


@dataclass(frozen=True)
class CrosscheckReport:
    rows: tuple[CrosscheckRow, ...]
    trusted_horizon: float
    max_dev_mean: float
    max_dev_cov: float
    max_dev_purity: float
    max_dev_overlap: float
    negativity_gauss: float
    negativity_oracle: float
    negativity_time: float

    @property
    def negativity_sign_agrees(self) -> bool:
        return (self.negativity_gauss > 0) == (self.negativity_oracle > 0)


def gaussian_crosscheck(p: TwoModeParams, x0: float, t_grid: Sequence[float],
                        dims: tuple[int, int] = (24, 24),
                        negativity_time: float | None = None) -> CrosscheckReport:
    """Compare the Gaussian engine against the oracle on the two-mode model.

    Branches are coherent displacements +-x0 of the open mode over the E
    vacuum (T = 0).  Deviations are tabulated per grid time together with the
    leakage trust flag; the max columns aggregate trusted times only.
    """
    from . import dynamics, phase_space  # deferred: keeps the oracle standalone

    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    ops = build_operators(space)
    H = two_mode_hamiltonian(ops, p)
    evo = diagonalize(space, H)
    va = coherent_vector(dims[0], p.m_s, 1.0, x0)
    vb = coherent_vector(dims[0], p.m_s, 1.0, -x0)
    ve = coherent_vector(dims[1], p.m_e, p.omega, 0.0)
    psi_a0 = product_pure_state(space, [va, ve])
    psi_b0 = product_pure_state(space, [vb, ve])

    from .models import build_two_mode
    Hg = build_two_mode(p)
    lay = Hg.layout
    base_cov = phase_space.vacuum_cov([p.m_s, p.m_e], [1.0, p.omega])

    rows = []
    horizon = 0.0
    worst = dict(mean=0.0, cov=0.0, pur=0.0, ov=0.0)
    for t in t_grid:
        t = float(t)
        pa = evo.evolve_pure(psi_a0, t)
        pb = evo.evolve_pure(psi_b0, t)
        leak = leakage(pa, space)
        trusted = leak < _LEAK_TRUST
        mean_o, cov_o = moments(pa, ops)
        M = dynamics.propagator(Hg, t).M
        mean_g = M @ np.array([x0, 0, 0, 0])
        cov_g = M @ base_cov @ M.T
        dev_mean = float(np.abs(mean_o - mean_g).max())
        dev_cov = float(np.abs(cov_o - cov_g).max())
        rs_o = reduced_density(pa, space, keep=0)
        pur_o = float(np.real(np.trace(rs_o @ rs_o)))
        state_g = phase_space.GaussianState(lay, mean_g, cov_g)
        pur_g = phase_space.purity(phase_space.reduce_state(state_g, ["S"]))
        dev_pur = abs(pur_o - pur_g)
        re_a = reduced_density(pa, space, keep=1)
        re_b = reduced_density(pb, space, keep=1)
        ov_o = hs_overlap(re_a, re_b)
        d_env = (M @ np.array([2 * x0, 0, 0, 0]))[[1, 3]]
        cov_env = cov_g[np.ix_([1, 3], [1, 3])]
        ov_g = float(np.exp(-0.25 * d_env @ np.linalg.solve(cov_env, d_env)))
        dev_ov = abs(ov_o - ov_g)
        if trusted:
            horizon = t
            worst["mean"] = max(worst["mean"], dev_mean)
            worst["cov"] = max(worst["cov"], dev_cov)
            worst["pur"] = max(worst["pur"], dev_pur)
            worst["ov"] = max(worst["ov"], dev_ov)
        rows.append(CrosscheckRow(t, leak, trusted, dev_mean, dev_cov,
                                  dev_pur, dev_ov))

    t_neg = negativity_time if negativity_time is not None else horizon
    pa = evo.evolve_pure(psi_a0, t_neg)
    en_o, _ = cm_relative_log_negativity(pa, space)
    M = dynamics.propagator(Hg, t_neg).M
    cov_g = M @ base_cov @ M.T
    mean_g = M @ np.array([x0, 0, 0, 0])
    from .decomposition import cm_relative_transform, transform_state
    T = cm_relative_transform([p.m_s, p.m_e], labels=("CM", "R1"), source=lay)
    st_cm = transform_state(phase_space.GaussianState(lay, mean_g, cov_g), T)
    en_g = phase_space.log_negativity(st_cm, ["CM"], ["R1"])
    return CrosscheckReport(tuple(rows), horizon, worst["mean"], worst["cov"],
                            worst["pur"], worst["ov"], en_g, en_o, float(t_neg))

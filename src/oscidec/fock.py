"""Brute-force truncated-Fock-space oracle for pure states of one or two
modes.

Everything here is built independently of the Gaussian engine: ladder-operator
matrices, dense eigendecomposition evolution, reduced density matrices,
Hilbert-Schmidt overlaps, and a quadrature-based re-expression of pure
two-mode wavefunctions in CM/relative coordinates for an independent
entanglement check.  The log-negativity of that pure state is read from its
Schmidt coefficients, which fix the spectrum of the partial transpose
exactly; the tests keep the literal partial-transpose eigendecomposition as
the reference it is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.typing import NDArray

from .models import TwoModeParams
from .phase_space import FloatArray

ComplexArray = NDArray[np.complex128]

_D_CAP = 20000
_LEAK_TRUST = 1e-6  # population allowed in the top two levels of any mode


class OracleError(ValueError):
    """Oracle request outside its validity envelope."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated one- or two-mode Fock space with per-mode ladder scalings."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    masses: tuple[float, ...]
    freqs: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.labels)
        if not (1 <= k <= 2):
            raise OracleError("oracle supports 1 or 2 modes")
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


@dataclass(frozen=True)
class FockOperators:
    """Position and momentum matrices on the full space."""

    space: FockSpace
    x: tuple[ComplexArray, ...]
    p: tuple[ComplexArray, ...]


def _quadratures(d: int, mass: float,
                 freq: float) -> tuple[FloatArray, ComplexArray]:
    """One mode's x = (a + a^dag)/sqrt(2 m w), p = i sqrt(m w/2)(a^dag - a)."""
    a = _ladder(d)
    x = (a + a.T) / np.sqrt(2 * mass * freq)
    p = 1j * np.sqrt(mass * freq / 2) * (a.T - a)
    return x, p


def build_operators(space: FockSpace) -> FockOperators:
    """Every mode's quadratures on the full space: op kron I on the first
    mode, I kron op on the second."""
    xs, ps = [], []
    for k, (d, m, w) in enumerate(zip(space.dims, space.masses, space.freqs)):
        eye = np.eye(space.total_dim // d)
        for ops, op in zip((xs, ps), _quadratures(d, m, w)):
            ops.append((np.kron(op, eye) if k == 0
                        else np.kron(eye, op)).astype(complex))
    return FockOperators(space, tuple(xs), tuple(ps))


def two_mode_hamiltonian(ops: FockOperators, p: TwoModeParams) -> ComplexArray:
    """Operator expression of the two-mode model (independent of any h matrix).

    H = hS kron I + I kron hE - C xS kron xE, with every operator product
    taken on one mode's d x d matrices rather than on the full space.  The
    Kronecker products of Hermitian factors are exactly Hermitian, so the
    single-mode terms are symmetrized instead of H.
    """
    space = ops.space
    (xS, pS), (xE, pE) = (_quadratures(d, m, w) for d, m, w in
                          zip(space.dims, space.masses, space.freqs))
    hS = pS @ pS / (2 * p.m_s)
    hE = pE @ pE / (2 * p.m_e) + p.m_e * p.omega ** 2 / 2 * (xE @ xE)
    return (np.kron(0.5 * (hS + hS.conj().T), np.eye(space.dims[1]))
            + np.kron(np.eye(space.dims[0]), 0.5 * (hE + hE.conj().T))
            - p.coupling * np.kron(xS, xE))


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

    def evolve_pure(self, psi0: ComplexArray, t: float) -> ComplexArray:
        """U(t) psi0 applied in the eigenbasis, without forming U(t)."""
        phase = np.exp(-1j * self.energies * t)
        return self.vectors @ (phase * (self.vectors.conj().T @ psi0))


def diagonalize(space: FockSpace, H: ComplexArray) -> Evolver:
    if np.abs(H - H.conj().T).max() > 1e-10 * max(np.abs(H).max(), 1.0):
        raise OracleError("Hamiltonian operator must be Hermitian")
    E, V = np.linalg.eigh(H)
    return Evolver(space, E, V)


def leakage(psi: ComplexArray, space: FockSpace) -> float:
    """Total population in the top two Fock levels of any mode."""
    pops = (np.abs(psi) ** 2).reshape(space.dims)
    total = 0.0
    for k, d in enumerate(space.dims):
        total += float(np.take(pops, [d - 2, d - 1], axis=k).sum())
    return total


def reduced_density(psi: ComplexArray, space: FockSpace, keep: int) -> ComplexArray:
    """Partial trace of |psi><psi| keeping one mode."""
    dims = space.dims
    m = np.moveaxis(psi.reshape(dims), keep, 0).reshape(dims[keep], -1)
    return m @ m.conj().T


def hs_overlap(ra: ComplexArray, rb: ComplexArray) -> float:
    """Normalized Hilbert-Schmidt overlap tr(ra rb)/sqrt(tr ra^2 tr rb^2)."""
    num = np.real(np.trace(ra @ rb))
    den = np.sqrt(np.real(np.trace(ra @ ra)) * np.real(np.trace(rb @ rb)))
    return float(num / den)


def moments(psi: ComplexArray, ops: FockOperators) -> tuple[FloatArray, FloatArray]:
    """First moments <z> and symmetrized covariance of a state vector.

    The truncated x and p matrices are Hermitian, so <{z_i, z_j}>/2 is
    Re <z_i psi|z_j psi>, with no product of two operators.
    """
    W = np.array([z @ psi for z in list(ops.x) + list(ops.p)])
    mean = np.real(W @ psi.conj())
    cov = np.real(W.conj() @ W.T)
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
    y, q = hermgauss(n_quad)
    s1 = np.sqrt(M1 * W1)
    s2 = np.sqrt(M2 * W2)
    g1 = y / s1
    g2 = y / s2
    Ai = np.linalg.inv(A)
    X1 = Ai[0, 0] * g1[:, None] + Ai[0, 1] * g2[None, :]
    X2 = Ai[1, 0] * g1[:, None] + Ai[1, 1] * g2[None, :]
    d1, d2 = c.shape
    phi1 = _mode_wavefunctions(X1.ravel(), d1, m1, w1).reshape(d1, n_quad, n_quad)
    phi2 = _mode_wavefunctions(X2.ravel(), d2, m2, w2).reshape(d2, n_quad, n_quad)
    psi = np.einsum("jk,jab,kab->ab", c, phi1, phi2, optimize=True)
    out1 = _mode_wavefunctions(g1, d_out, M1, W1) * (q * np.exp(y ** 2)) / s1
    out2 = _mode_wavefunctions(g2, d_out, M2, W2) * (q * np.exp(y ** 2)) / s2
    jac = abs(np.linalg.det(Ai))
    return np.sqrt(jac) * np.einsum("ma,nb,ab->mn", out1, out2, psi, optimize=True)


def pt_log_negativity_pure(amp: ComplexArray) -> float:
    """ln || rho^T_B ||_1 for the pure state with amplitude matrix amp.

    With the Schmidt decomposition amp / ||amp|| = U diag(s) V^T,
    rho^T_B = (U kron conj(V)) (sum_ij s_i s_j |i j><j i|) (U kron conj(V))^dag:
    a unitary conjugate of a swap-like matrix whose eigenvalues are s_i^2 and
    +-s_i s_j (i < j).  Hence ||rho^T_B||_1 = (sum_i s_i)^2 and
    E_N = 2 ln sum_i s_i (Vidal & Werner, PRA 65, 032314, 2002), found from
    one d1 x d2 SVD instead of a (d1 d2) x (d1 d2) eigendecomposition.
    """
    s = np.linalg.svd(amp / np.linalg.norm(amp), compute_uv=False)
    return float(2.0 * np.log(s.sum()))


def cm_relative_log_negativity(psi: ComplexArray, space: FockSpace,
                               d_out: int = 24,
                               n_quad: int = 140) -> tuple[float, float]:
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
    return pt_log_negativity_pure(amp), norm


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
    negativity_projection_norm: float  # ~1 when d_out captures the state

    @property
    def negativity_sign_agrees(self) -> bool:
        return (self.negativity_gauss > 0) == (self.negativity_oracle > 0)


def gaussian_crosscheck(p: TwoModeParams, x0: float, t_grid: Sequence[float],
                        dims: tuple[int, int] = (24, 24),
                        negativity_time: float | None = None) -> CrosscheckReport:
    """Compare the Gaussian engine against the oracle on the two-mode model.

    Branches are coherent displacements +-x0 of the open mode over the E
    vacuum (T = 0).  Deviations are tabulated per grid time together with the
    leakage trust flag; the max columns aggregate trusted times only.  The
    Gaussian side is the +x0 branch from one stepped pass over the grid; the
    -x0 branch is its mirror image, so the branches differ by twice its mean.
    """
    # deferred: keeps the oracle standalone
    from .decomposition import cm_relative_transform, transform_state
    from .dynamics import evolve_grid
    from .models import build_two_mode
    from .phase_space import (GaussianState, log_negativity, purity,
                              reduce_state, vacuum_cov)

    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    ops = build_operators(space)
    H = two_mode_hamiltonian(ops, p)
    evo = diagonalize(space, H)
    va = coherent_vector(dims[0], p.m_s, 1.0, x0)
    vb = coherent_vector(dims[0], p.m_s, 1.0, -x0)
    ve = coherent_vector(dims[1], p.m_e, p.omega, 0.0)
    psi_a0 = product_pure_state(space, [va, ve])
    psi_b0 = product_pure_state(space, [vb, ve])

    Hg = build_two_mode(p)
    lay = Hg.layout
    state0 = GaussianState(lay, np.array([x0, 0.0, 0.0, 0.0]),
                           vacuum_cov([p.m_s, p.m_e], [1.0, p.omega]))
    ts = [float(t) for t in t_grid]

    rows = []
    horizon = 0.0
    worst = dict(mean=0.0, cov=0.0, pur=0.0, ov=0.0)
    for t, st in zip(ts, evolve_grid(state0, Hg, ts), strict=True):
        pa = evo.evolve_pure(psi_a0, t)
        pb = evo.evolve_pure(psi_b0, t)
        leak = leakage(pa, space)
        trusted = leak < _LEAK_TRUST
        mean_o, cov_o = moments(pa, ops)
        dev_mean = float(np.abs(mean_o - st.mean).max())
        dev_cov = float(np.abs(cov_o - st.cov).max())
        rs_o = reduced_density(pa, space, keep=0)
        pur_o = float(np.real(np.trace(rs_o @ rs_o)))
        dev_pur = abs(pur_o - purity(reduce_state(st, ["S"])))
        re_a = reduced_density(pa, space, keep=1)
        re_b = reduced_density(pb, space, keep=1)
        ov_o = hs_overlap(re_a, re_b)
        d_env = 2 * st.mean[[1, 3]]
        cov_env = st.cov[np.ix_([1, 3], [1, 3])]
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
    en_o, norm_o = cm_relative_log_negativity(pa, space)
    (st,) = evolve_grid(state0, Hg, [t_neg])
    T = cm_relative_transform([p.m_s, p.m_e], labels=("CM", "R1"), source=lay)
    en_g = log_negativity(transform_state(st, T), ["CM"], ["R1"])
    return CrosscheckReport(tuple(rows), horizon, worst["mean"], worst["cov"],
                            worst["pur"], worst["ov"], en_g, en_o, float(t_neg),
                            norm_o)

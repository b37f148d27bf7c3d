"""Brute-force truncated-Fock-space oracle for pure states of one or two
modes.

Everything here is built independently of the Gaussian engine: ladder-operator
matrices, dense eigendecomposition evolution, reduced density matrices,
Hilbert-Schmidt overlaps, and a quadrature-based re-expression of pure
two-mode wavefunctions in CM/relative coordinates for an independent
entanglement check.  The two-mode Hamiltonian is real symmetric, so its
eigenbasis is real, and every grid time is evolved in one batched pass.
The per-time quantities work on the (T, d1, d2) stack of amplitude
matrices; moments apply each mode's single-mode quadratures to its own axis,
so no full-space operator is formed.  The log-negativity of the CM/relative
state is read from its Schmidt coefficients, which fix the spectrum of the
partial transpose exactly; the tests keep the literal partial-transpose
eigendecomposition as the reference it is checked against.
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


def _quadratures(d: int, mass: float,
                 freq: float) -> tuple[FloatArray, ComplexArray]:
    """One mode's x = (a + a^dag)/sqrt(2 m w), p = i sqrt(m w/2)(a^dag - a)."""
    a = _ladder(d)
    x = (a + a.T) / np.sqrt(2 * mass * freq)
    p = 1j * np.sqrt(mass * freq / 2) * (a.T - a)
    return x, p


def two_mode_hamiltonian(space: FockSpace, p: TwoModeParams) -> FloatArray:
    """Operator expression of the two-mode model (independent of any h matrix).

    H = hS kron I + I kron hE - C xS kron xE, with every operator product
    taken on one mode's d x d matrices rather than on the full space.  With
    p = i p~ for the real antisymmetric p~, p^2 = -p~^2, so H is real
    symmetric.  The Kronecker products of symmetric factors are exactly
    symmetric, so the single-mode terms are symmetrized instead of H.
    """
    (xS, pS), (xE, pE) = (_quadratures(d, m, w) for d, m, w in
                          zip(space.dims, space.masses, space.freqs))
    hS = -(pS.imag @ pS.imag) / (2 * p.m_s)
    hE = (-(pE.imag @ pE.imag) / (2 * p.m_e)
          + p.m_e * p.omega ** 2 / 2 * (xE @ xE))
    return (np.kron(0.5 * (hS + hS.T), np.eye(space.dims[1]))
            + np.kron(np.eye(space.dims[0]), 0.5 * (hE + hE.T))
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


def _split_matmul(a: ComplexArray, b: FloatArray | ComplexArray) -> ComplexArray:
    """a @ b for a complex stack a of shape (..., n): its real and imaginary
    parts go through one stacked product, so a real b costs real arithmetic."""
    ri = np.stack([a.real, a.imag]).reshape(-1, a.shape[-1]) @ b
    ri = ri.reshape((2,) + a.shape[:-1] + (b.shape[-1],))
    return ri[0] + 1j * ri[1]


@dataclass(frozen=True)
class Evolver:
    """Dense eigendecomposition of H, reusable across grid times."""

    space: FockSpace
    energies: FloatArray
    vectors: FloatArray | ComplexArray

    def evolve_pure(self, psi0: ComplexArray,
                    ts: Sequence[float]) -> ComplexArray:
        """U(t) psi0 = V (e^{-iEt} * V^dag psi0) for every t in ts, without
        forming U(t).

        psi0 has shape (..., D) and the result (..., T, D).  Two matrix
        products serve the whole grid; they are real when V is.
        """
        V = self.vectors
        coef = np.conj(_split_matmul(np.conj(psi0), V))   # V^dag psi0
        phase = np.exp(-1j * np.multiply.outer(np.asarray(ts, float),
                                               self.energies))
        return _split_matmul(coef[..., None, :] * phase, V.T)


def diagonalize(space: FockSpace, H: FloatArray | ComplexArray) -> Evolver:
    """Eigendecomposition of H as given: a real symmetric H has a real
    eigenbasis."""
    if np.abs(H - H.conj().T).max() > 1e-10 * max(np.abs(H).max(), 1.0):
        raise OracleError("Hamiltonian operator must be Hermitian")
    E, V = np.linalg.eigh(H)
    return Evolver(space, E, V)


# Per-state quantities below take amplitude stacks of shape (..., *space.dims):
# one state's amplitude is its vector reshaped to the per-mode cutoffs.

def leakage(amp: ComplexArray, space: FockSpace) -> FloatArray:
    """Total population in the top two Fock levels of any mode, per state."""
    pops = np.abs(amp) ** 2
    n = len(space.dims)
    return sum(np.take(pops, [d - 2, d - 1], axis=k - n).sum(
        axis=tuple(range(-n, 0))) for k, d in enumerate(space.dims))


def reduced_density(amp: ComplexArray, space: FockSpace,
                    keep: int) -> ComplexArray:
    """Partial trace of |psi><psi| keeping one mode, per state."""
    n = len(space.dims)
    m = np.moveaxis(amp, keep - n, -n)
    m = m.reshape(m.shape[:-n] + (space.dims[keep], -1))
    return m @ m.conj().swapaxes(-1, -2)


def _trace_of_product(a: ComplexArray, b: ComplexArray) -> FloatArray:
    """Re tr(a b) over the last two axes."""
    return np.einsum("...ij,...ji->...", a, b).real


def hs_overlap(ra: ComplexArray, rb: ComplexArray) -> FloatArray:
    """Normalized Hilbert-Schmidt overlap tr(ra rb)/sqrt(tr ra^2 tr rb^2)."""
    return _trace_of_product(ra, rb) / np.sqrt(
        _trace_of_product(ra, ra) * _trace_of_product(rb, rb))


def moments(amp: ComplexArray,
            space: FockSpace) -> tuple[FloatArray, FloatArray]:
    """First moments <z> and symmetrized covariance per state, with
    z = (x_1, .., x_n, p_1, .., p_n).

    Each mode's single-mode x and p act on that mode's axis of the amplitude
    (x_S A and A x_E^T for two modes), so no full-space operator is formed.
    The truncated x and p matrices are Hermitian, so <{z_i, z_j}>/2 is
    Re <z_i psi|z_j psi>, with no product of two operators.
    """
    n = len(space.dims)
    quads = [_quadratures(d, m, w)
             for d, m, w in zip(space.dims, space.masses, space.freqs)]

    def on_axis(z: ComplexArray, k: int) -> ComplexArray:
        # the last mode's axis is the amplitude's last; the first of two
        # modes is the matrix row axis
        return amp @ z.T if k == n - 1 else z @ amp

    W = np.stack([on_axis(q[part], k) for part in (0, 1)
                  for k, q in enumerate(quads)], axis=-n - 1)
    lead = amp.shape[:-n]
    W = W.reshape(lead + (2 * n, -1))
    psi = amp.reshape(lead + (-1, 1))
    mean = np.real(W @ psi.conj())[..., 0]
    cov = np.real(W.conj() @ W.swapaxes(-1, -2))
    cov = (0.5 * (cov + cov.swapaxes(-1, -2))
           - mean[..., :, None] * mean[..., None, :])
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
    phi1 = _mode_wavefunctions(X1.ravel(), d1, m1, w1)
    phi2 = _mode_wavefunctions(X2.ravel(), d2, m2, w2)
    # psi(a, b) = sum_jk c_jk phi1_j phi2_k with real wavefunctions: one real
    # product for the real and imaginary parts of c together, then the k sum
    ct = np.concatenate([c.real.T, c.imag.T]).reshape(2, d2, d1)
    psi = np.einsum("rka,ka->ra", ct @ phi1, phi2).reshape(2, n_quad, n_quad)
    out1 = _mode_wavefunctions(g1, d_out, M1, W1) * (q * np.exp(y ** 2)) / s1
    out2 = _mode_wavefunctions(g2, d_out, M2, W2) * (q * np.exp(y ** 2)) / s2
    re, im = out1 @ psi @ out2.T
    return np.sqrt(abs(np.linalg.det(Ai))) * (re + 1j * im)


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
    oracle evolves both branches to every grid time and the negativity time
    in one batched pass, and its per-time quantities come from that stack.
    The Gaussian side is the +x0 branch from one stepped pass over the grid;
    the -x0 branch is its mirror image, so the branches differ by twice its
    mean.
    """
    # deferred: keeps the oracle standalone
    from .decomposition import cm_relative_transform, transform_state
    from .dynamics import evolve_grid
    from .models import build_two_mode
    from .phase_space import (GaussianState, log_negativity, purity,
                              reduce_state, vacuum_cov)

    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    evo = diagonalize(space, two_mode_hamiltonian(space, p))
    ve = coherent_vector(dims[1], p.m_e, p.omega, 0.0)
    psi0 = np.array([product_pure_state(
        space, [coherent_vector(dims[0], p.m_s, 1.0, s * x0), ve])
        for s in (1.0, -1.0)])
    ts = [float(t) for t in t_grid]
    # without a negativity time it is the trusted horizon, a grid time or 0
    t_all = ts + [0.0 if negativity_time is None else float(negativity_time)]
    amps = evo.evolve_pure(psi0, t_all).reshape((2, len(t_all)) + dims)
    grid = amps[:, :len(ts)]
    leak = leakage(grid[0], space)
    mean_o, cov_o = moments(grid[0], space)
    rs_o = reduced_density(grid[0], space, keep=0)
    pur_o = _trace_of_product(rs_o, rs_o)
    re_o = reduced_density(grid, space, keep=1)
    ov_o = hs_overlap(re_o[0], re_o[1])

    Hg = build_two_mode(p)
    lay = Hg.layout
    state0 = GaussianState(lay, np.array([x0, 0.0, 0.0, 0.0]),
                           vacuum_cov([p.m_s, p.m_e], [1.0, p.omega]))

    rows = []
    horizon = 0.0
    worst = dict(mean=0.0, cov=0.0, pur=0.0, ov=0.0)
    for k, (t, st) in enumerate(zip(ts, evolve_grid(state0, Hg, ts),
                                    strict=True)):
        trusted = bool(leak[k] < _LEAK_TRUST)
        dev_mean = float(np.abs(mean_o[k] - st.mean).max())
        dev_cov = float(np.abs(cov_o[k] - st.cov).max())
        dev_pur = abs(float(pur_o[k]) - purity(reduce_state(st, ["S"])))
        d_env = 2 * st.mean[[1, 3]]
        cov_env = st.cov[np.ix_([1, 3], [1, 3])]
        ov_g = float(np.exp(-0.25 * d_env @ np.linalg.solve(cov_env, d_env)))
        dev_ov = abs(float(ov_o[k]) - ov_g)
        if trusted:
            horizon = t
            worst["mean"] = max(worst["mean"], dev_mean)
            worst["cov"] = max(worst["cov"], dev_cov)
            worst["pur"] = max(worst["pur"], dev_pur)
            worst["ov"] = max(worst["ov"], dev_ov)
        rows.append(CrosscheckRow(t, float(leak[k]), trusted, dev_mean,
                                  dev_cov, dev_pur, dev_ov))

    t_neg = negativity_time if negativity_time is not None else horizon
    en_o, norm_o = cm_relative_log_negativity(amps[0, t_all.index(t_neg)],
                                              space)
    (st,) = evolve_grid(state0, Hg, [t_neg])
    T = cm_relative_transform([p.m_s, p.m_e], labels=("CM", "R1"), source=lay)
    en_g = log_negativity(transform_state(st, T), ["CM"], ["R1"])
    return CrosscheckReport(tuple(rows), horizon, worst["mean"], worst["cov"],
                            worst["pur"], worst["ov"], en_g, en_o, float(t_neg),
                            norm_o)

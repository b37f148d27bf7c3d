"""Brute-force truncated-Fock-space oracle for pure states of one or two
modes.

Everything here is built independently of the Gaussian engine: ladder-operator
matrices, dense eigendecomposition evolution, reduced density matrices,
Hilbert-Schmidt overlaps, and an exact re-expression of pure two-mode states
in CM/relative oscillator bases for an independent entanglement check.  The
two-mode Hamiltonian is real symmetric and keeps total parity
(-1)^(n_S + n_E), so its eigenbasis is real and comes from one
eigendecomposition per parity block; every grid time is evolved in one
batched pass.  The per-time quantities work on the (T, d1, d2) stack of
amplitude matrices; moments apply each mode's single-mode quadratures to its
own axis, so no full-space operator is formed.  The change of basis contracts
the amplitudes with the overlap tensor of the two bases, filled by a Hermite
recurrence from its Gaussian generating function; the tests keep the old
Gauss-Hermite quadrature projection as its reference.  The log-negativity of
the CM/relative state is read from its Schmidt coefficients, which fix the
spectrum of the partial transpose exactly; the tests keep the literal
partial-transpose eigendecomposition as the reference it is checked against.

The coupling-free terms of the two-mode Hamiltonian and the overlap tensor
depend only on the basis (masses, frequencies, cutoffs), so each is built
once per basis and kept, read-only, for the last basis asked for:
cross-checks repeated in one process on one basis share them, and a one-shot
CLI run builds each once either way.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .decomposition import cm_relative_transform, transform_state
from .dynamics import evolve_grid
from .models import TwoModeParams, build_two_mode
from .phase_space import (FloatArray, GaussianState, _log_purity_of_cov,
                          log_negativity, vacuum_cov)

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
        # tuples, so that a space given lists or arrays is hashable and
        # keys the kept Hamiltonian terms
        for name in ("labels", "dims", "masses", "freqs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        k = len(self.labels)
        if not (1 <= k <= 2):
            raise OracleError("oracle supports 1 or 2 modes")
        if len(self.dims) != k or len(self.masses) != k or len(self.freqs) != k:
            raise OracleError("per-mode parameter lists must align")
        if any(d < 2 for d in self.dims):
            raise OracleError("every cutoff must be at least 2")
        if int(np.prod(self.dims)) > _D_CAP:
            raise OracleError(f"total dimension exceeds the cap {_D_CAP}")
        if not all(x > 0 for x in (*self.masses, *self.freqs)):
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
    symmetric, so the single-mode terms are symmetrized instead of H.  The
    terms come from `_hamiltonian_terms`, built once per basis; only the
    coupling is applied per call, and the H returned is a new array.
    """
    H0, X = _hamiltonian_terms(space, p.m_s, p.m_e, p.omega)
    return H0 - p.coupling * X


@functools.lru_cache(maxsize=1)
def _hamiltonian_terms(space: FockSpace, m_s: float, m_e: float,
                       omega: float) -> tuple[FloatArray, FloatArray]:
    """(hS kron I + I kron hE, xS kron xE) of the last basis asked for,
    read-only: every scan over coupling, x0 or time shares them."""
    (xS, pS), (xE, pE) = (_quadratures(d, m, w) for d, m, w in
                          zip(space.dims, space.masses, space.freqs))
    hS = -(pS.imag @ pS.imag) / (2 * m_s)
    hE = (-(pE.imag @ pE.imag) / (2 * m_e)
          + m_e * omega ** 2 / 2 * (xE @ xE))
    terms = (np.kron(0.5 * (hS + hS.T), np.eye(space.dims[1]))
             + np.kron(np.eye(space.dims[0]), 0.5 * (hE + hE.T)),
             np.kron(xS, xE))
    for a in terms:
        a.flags.writeable = False
    return terms


def coherent_vector(d: int, mass: float, freq: float, x0: float,
                    p0: float = 0.0) -> ComplexArray:
    """Truncated coherent state |alpha>, alpha = sqrt(mw/2) x0 + i p0/sqrt(2mw)."""
    alpha = np.sqrt(mass * freq / 2) * x0 + 1j * p0 / np.sqrt(2 * mass * freq)
    nn = np.arange(d)
    log_sqrt_fact = np.array([0.5 * math.lgamma(n + 1.0) for n in range(d)])
    v = alpha ** nn * np.exp(-0.5 * abs(alpha) ** 2 - log_sqrt_fact)
    return v / np.linalg.norm(v)


def product_pure_state(vectors: Sequence[ComplexArray]) -> ComplexArray:
    psi = np.array([1.0 + 0j])
    for v in vectors:
        psi = np.kron(psi, v)
    return psi


def validate_density(rho: ComplexArray) -> None:
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise OracleError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise OracleError("density matrix trace deviates from 1")
    if np.linalg.eigvalsh(rho if rho.imag.any() else rho.real).min() < -1e-8:
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


def total_parity(dims: Sequence[int]) -> NDArray[np.int_]:
    """(-1)^(n_1 + .. + n_k) as 0 (even) or 1 (odd) per flat basis index."""
    return sum(np.ix_(*(np.arange(d) for d in dims))).ravel() % 2


def diagonalize(H: FloatArray | ComplexArray, dims: Sequence[int]) -> Evolver:
    """Eigendecomposition of H on the Fock space of per-mode cutoffs dims,
    one total-parity block at a time.

    Every Hamiltonian here is a sum of products of two quadratures, so it
    keeps total parity (-1)^(n_1 + .. + n_k); H must have exactly zero
    entries between the even and odd blocks.  Each block is decomposed on its
    own and its eigenvectors fill the columns of the same indices, so V keeps
    the block structure with exact zeros outside it.  A real symmetric H has a
    real eigenbasis.  With zero cross-parity blocks only the blocks gathered
    for eigh need the Hermitian check; otherwise all of H gets it first, so a
    non-Hermitian H is named as such.
    """
    parity = total_parity(dims)
    idx = [np.flatnonzero(parity == s) for s in (0, 1)]
    coupled = any(np.any(H[np.ix_(i, j)]) for i, j in (idx, idx[::-1]))
    blocks = [H] if coupled else [H[np.ix_(i, i)] for i in idx]
    tol = 1e-10 * max(max(np.abs(b).max() for b in blocks), 1.0)
    if any(np.abs(b - b.conj().T).max() > tol for b in blocks):
        raise OracleError("Hamiltonian operator must be Hermitian")
    if coupled:
        raise OracleError("Hamiltonian couples the total-parity blocks")
    E = np.empty(len(H))
    V = np.zeros_like(H)
    for i, block in zip(idx, blocks):
        E[i], V[np.ix_(i, i)] = np.linalg.eigh(block)
    return Evolver(E, V)


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
    """One mode's number-state wavefunctions phi_0..phi_{d-1} at x."""
    s = np.sqrt(mass * freq)
    return np.sqrt(s) * _hermite_functions(s * x, d)


# ---------------------------------------------------------------------------
# CM/relative re-expression of pure two-mode states (exact overlap tensor)
# ---------------------------------------------------------------------------

def _overlap_tensor(B: FloatArray, d_out: int,
                    dims: tuple[int, int]) -> FloatArray:
    """T[a, b, j, k] = <a b| U |j k> for the unitary U psi(v) =
    |det B|^-1/2 psi(B^-1 v) between two-mode Hermite-function bases.

    The generating function sum_n T[n] z^n / sqrt(n!), z = (alpha, beta),
    is the Gaussian integral T0 exp(z^T Q z / 2) with P = (I + B^T B)^-1,
    Q = [[2 B P B^T - I, 2 B P], [2 P B^T, 2 P - I]] and
    T0 = 2 |det B|^1/2 / sqrt(det(I + B^T B)).  Differentiating it gives
    g[n + e_i] = sum_l Q_il sqrt(n_l) g[n - e_l] / sqrt(n_i + 1)
    (Miatto & Quesada, Quantum 4, 366, 2020).  g is stored as [k, j, b, a]
    and filled from its last axis to its first: along axis i every earlier
    index is 0, so only l >= i contribute, and each step fills one slice
    over all later axes.  Filling the output axes first and the input axes
    last kept the rounding smallest of the axis orders tried: against an
    extended-precision fill it grows from 1e-16 on the lowest input shells
    j + k to about 1e-11 on the top shell of a 24 x 24 input, where a state
    the leakage gate trusts has amplitudes below 1e-3.  The tensor of the
    last (B, d_out, dims) is kept, keyed on B's exact bytes, and the return
    value is a read-only transposed view of it.
    """
    return _overlap_fill(np.asarray(B, dtype=float).tobytes(), d_out,
                         tuple(dims)).T


@functools.lru_cache(maxsize=1)
def _overlap_fill(B_bytes: bytes, d_out: int,
                  dims: tuple[int, int]) -> FloatArray:
    """The read-only [k, j, b, a] array of `_overlap_tensor` for the 2 x 2
    map with these bytes."""
    B = np.frombuffer(B_bytes).reshape(2, 2)
    eye = np.eye(2)
    K = eye + B.T @ B
    P = np.linalg.inv(K)
    Q = np.block([[2 * B @ P @ B.T - eye, 2 * B @ P],
                  [2 * P @ B.T, 2 * P - eye]])[::-1, ::-1]
    shape = dims[::-1] + (d_out, d_out)
    g = np.zeros(shape)
    g[0, 0, 0, 0] = 2 * np.sqrt(abs(np.linalg.det(B)) / np.linalg.det(K))
    roots = [np.sqrt(np.arange(d, dtype=float)) for d in shape]
    for i in reversed(range(4)):
        v = g[(0,) * i]                # axis i first, every later axis after
        # sqrt(m) Q_il g[.., m - 1, ..] along each later axis l, into index m
        later = [((slice(None),) * ax,
                  Q[i, l] * roots[l][1:][(slice(None),) + (None,) * (3 - l)])
                 for ax, l in enumerate(range(i + 1, 4))]
        for n in range(1, shape[i]):
            acc = v[n, ...]            # a view, still zero
            if n >= 2:
                np.multiply(Q[i, i] * roots[i][n - 1], v[n - 2], out=acc)
            for lead, coef in later:
                acc[lead + (slice(1, None),)] += (
                    coef * v[n - 1][lead + (slice(None, -1),)])
            acc /= roots[i][n]
    g.flags.writeable = False
    return g


def project_to_transformed_basis(c: ComplexArray,
                                 scales_in: Sequence[tuple[float, float]],
                                 scales_out: Sequence[tuple[float, float]],
                                 A: FloatArray, d_out: int) -> ComplexArray:
    """Amplitudes of a pure two-mode state in the x' = A x coordinate bases.

    c is the Fock amplitude matrix in the original per-mode oscillator bases;
    the return value is the d_out x d_out amplitude matrix in oscillator bases
    of the new coordinates, contracted exactly with the overlap tensor of the
    dimensionless map B = D_out A D_in^-1, D = diag(sqrt(m w)).  The Frobenius
    norm of the result measures projection completeness.
    """
    d_in, d_new = (np.array([np.sqrt(m * w) for m, w in s])
                   for s in (scales_in, scales_out))
    B = d_new[:, None] * A / d_in[None, :]
    # T.T is the contiguous [k, j, b, a] array: one real product for the
    # real and imaginary parts of c together
    flat = _overlap_tensor(B, d_out, c.shape).T.reshape(c.size, -1)
    re, im = np.stack([c.real.T.ravel(), c.imag.T.ravel()]) @ flat
    return (re + 1j * im).reshape(d_out, d_out).T


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
                               d_out: int = 24) -> tuple[float, float]:
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
        c, list(zip(space.masses, space.freqs)), [(M, 1.0), (mu, 1.0)], A, d_out)
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
    max_dev_overlap: float
    negativity_gauss: float
    negativity_oracle: float
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
    leakage trust flag; the max columns aggregate trusted times only.  H
    keeps total parity, so the oracle decomposes it one parity block at a
    time and evolves the +x0 branch to every grid time and the negativity
    time in one batched pass; the -x0 branch is that stack's total-parity
    image.  The Gaussian side is the +x0 branch from one closed-form
    `evolve_grid` pass over the grid and the negativity time; the -x0 branch
    is its mirror image, so the branches differ by twice its mean.
    """
    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    evo = diagonalize(two_mode_hamiltonian(space, p), dims)
    psi0 = product_pure_state([coherent_vector(dims[0], p.m_s, 1.0, x0),
                               coherent_vector(dims[1], p.m_e, p.omega, 0.0)])
    ts = [float(t) for t in t_grid]
    # without a negativity time it is the trusted horizon, a grid time or 0
    t_all = ts + [0.0 if negativity_time is None else float(negativity_time)]
    amps = evo.evolve_pure(psi0, t_all).reshape((len(t_all),) + dims)
    grid = amps[:len(ts)]
    leak = leakage(grid, space)
    mean_o, cov_o = moments(grid, space)
    rs_o = reduced_density(grid, space, keep=0)
    pur_o = _trace_of_product(rs_o, rs_o)
    # E starts in vacuum, so the -x0 branch starts as the total-parity image
    # of the +x0 one, and H keeps total parity: it stays that image
    re_o = reduced_density(grid, space, keep=1)
    odd = total_parity(dims).reshape(dims)
    re_minus = reduced_density(np.where(odd, -grid, grid), space, keep=1)
    ov_o = hs_overlap(re_o, re_minus)

    trusted = leak < _LEAK_TRUST
    horizon = ts[np.flatnonzero(trusted)[-1]] if trusted.any() else 0.0
    t_neg = horizon if negativity_time is None else float(negativity_time)

    Hg = build_two_mode(p)
    state0 = GaussianState(Hg.layout, np.array([x0, 0.0, 0.0, 0.0]),
                           vacuum_cov([p.m_s, p.m_e], [1.0, p.omega]))
    *states, st_neg = evolve_grid(state0, Hg, ts + [t_neg])
    mean_g = np.array([st.mean for st in states])
    cov_g = np.array([st.cov for st in states])
    dev_mean = np.abs(mean_o - mean_g).max(axis=1)
    dev_cov = np.abs(cov_o - cov_g).max(axis=(1, 2))
    # z = (x_S, x_E, p_S, p_E): S is rows 0 and 2, E rows 1 and 3
    cov_s, cov_e = cov_g[:, [[0], [2]], [0, 2]], cov_g[:, [[1], [3]], [1, 3]]
    dev_pur = np.abs(pur_o - np.exp(_log_purity_of_cov(cov_s)))
    d_env = 2 * mean_g[:, [1, 3]]
    x = np.linalg.solve(cov_e, d_env[..., None])[..., 0]
    dev_ov = np.abs(ov_o - np.exp(-0.25 * (d_env * x).sum(axis=1)))
    rows = tuple(CrosscheckRow(*r) for r in zip(
        ts, leak.tolist(), trusted.tolist(), dev_mean.tolist(),
        dev_cov.tolist(), dev_pur.tolist(), dev_ov.tolist(), strict=True))

    en_o, norm_o = cm_relative_log_negativity(amps[t_all.index(t_neg)], space)
    T = cm_relative_transform([p.m_s, p.m_e], source=Hg.layout)
    en_g = log_negativity(transform_state(st_neg, T), ["CM"], ["R1"])
    worst = [float(c[trusted].max(initial=0.0)) for c in (dev_mean, dev_cov, dev_ov)]
    return CrosscheckReport(rows, horizon, *worst, en_g, en_o, norm_o)

"""Dephasing master equation: operators, exact solve, visibility."""
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from oscidec import (MasterEqError, MasterEqScenario, TrustGateError,
                     coherence_profile, evolve_master, parse_config,
                     position_kernel)
from oscidec.fock import coherent_vector
from oscidec.master import (MasterEvolution, _dephase, _sector_flow,
                            _sector_generator, scenario_operators)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Condition (3.13) of Al-Mohy & Higham for one vector, l = 2 and m_max = 55
# holds up to a 1-norm of 352 * 9.9 / 55 = 63.36; this leaves rounding room.
_STEP_NORM = 60.0


def _cat_density(d: int, x0: float) -> np.ndarray:
    v = coherent_vector(d, 1.0, 1.0, x0) + coherent_vector(d, 1.0, 1.0, -x0)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_pure_density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _operators(d: int, variant: str = "harmonic"):
    """x and H = p^2/2 (free) or p^2/2 + x^2/2 (harmonic), m = omega = 1,
    built here, not by the module."""
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    x = ((a + a.T) / np.sqrt(2)).astype(complex)
    p = (1j / np.sqrt(2) * (a.T - a)).astype(complex)
    H = p @ p / 2
    return x, H + x @ x / 2 if variant == "harmonic" else H


def _profile_reference(kernels, xs, patch_a, patch_b):
    """Visibility from each time's full position kernel, patch by patch."""
    in_a = (xs >= patch_a[0]) & (xs <= patch_a[1])
    in_b = (xs >= patch_b[0]) & (xs <= patch_b[1])
    out = []
    for R in kernels:
        off = abs(R[np.ix_(in_a, in_b)].sum())
        da = float(R[np.ix_(in_a, in_a)].sum().real)
        db = float(R[np.ix_(in_b, in_b)].sum().real)
        out.append(off / np.sqrt(da * db))
    return np.array(out)


def _loop_reference(rho, K, Kd, X, two_lam, dt, n_steps):
    """Deliberately naive RK4 with explicit matmuls, no in-place tricks."""
    def rhs(r):
        return -(K @ r + r @ Kd) + two_lam * (X @ r @ X)

    r = rho.copy()
    for _ in range(n_steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return r


def _superoperator(scn):
    """The whole generator as a CSR matrix on row-major vec rho, built with
    Kronecker products.

    With vec(A rho B) = (A kron B^T) vec rho, drho/dt = -(K rho + rho K^+)
    + 2 Lambda x rho x becomes L = -(K kron I + I kron conj(K))
    + 2 Lambda x kron x^T, with K = iH + Lambda x^2.
    """
    x, H = scenario_operators(scn)
    K = sp.csr_array(1j * H + scn.lam * (x @ x))
    xs = sp.csr_array(x)
    eye = sp.identity(scn.dim, dtype=complex, format="csr")
    return (2 * scn.lam * sp.kron(xs, xs.T, format="csr")
            - sp.kron(K, eye, format="csr")
            - sp.kron(eye, K.conj(), format="csr"))


def _propagate_reference(L, v0, t_grid):
    """exp(t L) v0 on the whole of vec rho, interval by interval: each
    interval is cut into the fewest equal steps h with ||h(L - mu I)||_1
    within _STEP_NORM, one single-time expm_multiply call per step."""
    n = L.shape[0]
    mu = L.trace() / n
    norm = float(abs(L - mu * sp.identity(n, format="csr")).sum(axis=0).max())
    out = np.empty((len(t_grid), n), dtype=complex)
    v, prev = v0, 0.0
    for k, t in enumerate(t_grid):
        steps = math.ceil((t - prev) * norm / _STEP_NORM)
        if steps:
            hL = (t - prev) / steps * L
            for _ in range(steps):
                v = expm_multiply(hL, v)
        out[k] = v
        prev = t
    return out


def _phase_space_kernel(xs, scn, x0, t):
    """rho(x, x') of the cat |x0> + |-x0> (unnormalised) at time t, with no
    Fock basis.

    Each term |a_j><a_k| has a Gaussian Wigner function with covariance
    Sigma0 = diag(1/(2 m w), m w/2) (w the basis frequency), complex mean
    ((x_j + x_k)/2, -i m w (x_j - x_k)/2) and weight <a_k|a_j>.  The
    equation's Wigner form dW/dt = {H, W} + Lambda d^2W/dp^2 maps the mean
    to M mean and the covariance to M Sigma0 M^T + D(t), with M the
    classical flow and D(t) = int_0^t M(s) diag(0, 2 Lambda) M(s)^T ds from
    one Van Loan block exponential.  rho(X + y/2, X - y/2) is the
    p-integral of W(X, p) e^{ipy}, taken in closed form.
    """
    m, w = scn.mass, scn.basis_freq
    k = 0.0 if scn.variant == "free" else m * scn.omega ** 2
    A = np.array([[0.0, 1.0 / m], [-k, 0.0]])
    Q = np.diag([0.0, 2.0 * scn.lam])
    F = expm(np.block([[-A, Q], [np.zeros((2, 2)), A.T]]) * t)
    M = F[2:, 2:].T
    sig = M @ np.diag([1 / (2 * m * w), m * w / 2]) @ M.T + M @ F[:2, 2:]
    a, b, c = sig[0, 0], sig[0, 1], sig[1, 1]
    X = (xs[:, None] + xs[None, :]) / 2
    y = xs[:, None] - xs[None, :]
    rho = np.zeros_like(X, dtype=complex)
    for xj in (x0, -x0):
        for xk in (x0, -x0):
            mx, mp = M @ np.array([(xj + xk) / 2, -0.5j * m * w * (xj - xk)])
            weight = np.exp(-m * w * (xj - xk) ** 2 / 4)
            rho += (weight * np.exp(-(X - mx) ** 2 / (2 * a)) / np.sqrt(2 * np.pi * a)
                    * np.exp(1j * y * (mp + b / a * (X - mx))
                             - (c - b * b / a) * y ** 2 / 2))
    return rho


def test_scenario_validation():
    with pytest.raises(MasterEqError, match="variant"):
        MasterEqScenario("quartic", 0.1, 8)
    with pytest.raises(MasterEqError, match="non-negative"):
        MasterEqScenario("none", -0.1, 8)
    with pytest.raises(MasterEqError, match="cutoff"):
        MasterEqScenario("none", 0.1, 1)
    with pytest.raises(MasterEqError, match="scaling"):
        MasterEqScenario("none", 0.1, 8, mass=-1.0)
    with pytest.raises(MasterEqError, match="omega"):
        MasterEqScenario("harmonic", 0.1, 8, omega=0.0)


def test_scenario_operators_variants():
    scn = MasterEqScenario("none", 0.2, 10)
    x, H = scenario_operators(scn)
    assert np.abs(H).max() == 0.0
    assert x[0, 1] == pytest.approx(1 / np.sqrt(2))
    _, Hf = scenario_operators(MasterEqScenario("free", 0.2, 10))
    assert Hf[0, 0] == pytest.approx(0.25)      # <0| p^2/2m |0> = w_basis/4
    # matched basis diagonalizes the harmonic variant below the truncation row
    _, Hh = scenario_operators(MasterEqScenario("harmonic", 0.2, 10,
                                                omega=1.0, basis_freq=1.0))
    want = np.diag(np.arange(10) + 0.5)
    assert np.abs(Hh[:9, :9] - want[:9, :9]).max() < 1e-12


def test_free_hamiltonian_off_diagonal_decay_law():
    lam, x0, t_end = 0.4, 1.0, 0.25
    scn = MasterEqScenario("none", lam, 24)
    res = evolve_master(_cat_density(24, x0), scn, [0.0, t_end])
    xs = np.linspace(-2.5, 2.5, 41)
    R0 = position_kernel(res.states[0], xs, 1.0, 1.0)
    Rt = position_kernel(res.states[1], xs, 1.0, 1.0)
    dx2 = (xs[:, None] - xs[None, :]) ** 2
    mask = np.abs(R0) > 1e-3 * np.abs(R0).max()
    ratio = np.abs(Rt[mask]) / np.abs(R0[mask])
    law = np.exp(-lam * dx2[mask] * t_end)
    assert np.abs(ratio - law).max() < 1e-4


@pytest.mark.parametrize("grid", [
    [0.1 * k for k in range(6)], [0.0, 0.1, 0.3], [0.3]])
def test_pure_dephasing_matches_closed_form(grid):
    # in the eigenbasis x = V diag(xi) V^+, the truncated "none" generator
    # multiplies each element by exp(-lam (xi_i - xi_j)^2 t), exactly
    d, lam = 30, 0.4
    rho0 = _cat_density(d, 1.5)
    scn = MasterEqScenario("none", lam, d)
    x, _ = scenario_operators(scn)
    xi, V = np.linalg.eigh(x)
    tilde0 = V.conj().T @ rho0 @ V
    gap2 = (xi[:, None] - xi[None, :]) ** 2
    res = evolve_master(rho0, scn, grid)
    assert len(res.states) == len(grid)
    for t, rho in zip(grid, res.states):
        want = V @ (tilde0 * np.exp(-lam * gap2 * t)) @ V.conj().T
        assert np.abs(rho - want).max() < 1e-12


@pytest.mark.parametrize("lam", [0.1, 0.5])
def test_closed_form_dephasing_matches_stepped_solver(lam):
    # the "none" closed form against the Taylor-stepped sector solve and the
    # per-interval expm_multiply reference on the Kronecker generator, at
    # the benchmark's basis size and grid
    d = 64
    scn = MasterEqScenario("none", lam, d)
    rho0 = _cat_density(d, 1.5)
    grid = np.linspace(0.0, 0.5, 11)
    fast = _dephase(rho0, scn, grid)
    stepped = _sector_flow(rho0, scn, grid)
    ref = _propagate_reference(_superoperator(scn), rho0.ravel(), grid)
    assert np.abs(fast - stepped).max() < 1e-12
    assert np.abs(fast - ref.reshape(-1, d, d)).max() < 1e-12


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("d", [2, 3, 20, 64])
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("variant", ["none", "free", "harmonic"])
def test_sector_assembly_matches_kronecker_generator(variant, lam, d, parity):
    # the banded assembly against that parity sector of the Kronecker
    # generator, entry by entry; the sector is closed under L
    scn = MasterEqScenario(variant, lam, d, mass=1.3, omega=0.8,
                           basis_freq=1.1)
    m, n = np.divmod(np.arange(d * d), d)
    sector = np.flatnonzero((m + n) % 2 == parity)
    L = _superoperator(scn)
    got = _sector_generator(scn, sector)
    assert got.shape == (sector.size, sector.size)
    gap = abs(got - L[sector][:, sector]).max()
    assert gap <= 1e-15 * abs(L).max()
    outside = np.flatnonzero((m + n) % 2 != parity)
    assert not L[sector][:, outside].count_nonzero()


def test_evolve_master_matches_naive_rk4_reference():
    lam = 0.35
    # random pure state, small basis, small step: RK4's own error is ~1e-12
    d = 8
    rho = _random_pure_density(d, 1)
    x, H = _operators(d)
    K = 1j * H + lam * (x @ x)
    want = _loop_reference(rho, K, K.conj().T, x, 2 * lam, 1e-3, 100)
    got = evolve_master(rho, MasterEqScenario("harmonic", lam, d), [0.1])
    assert np.abs(got.states[0] - want).max() < 1e-10
    # the benchmark's basis size at the old default step dt = 1e-3
    d, lam = 64, 0.3
    rho = _cat_density(d, 1.5)
    x, H = _operators(d)
    K = 1j * H + lam * (x @ x)
    want = _loop_reference(rho, K, K.conj().T, x, 2 * lam, 1e-3, 200)
    got = evolve_master(rho, MasterEqScenario("harmonic", lam, d), [0.0, 0.2])
    assert np.abs(got.states[1] - want).max() < 1e-11


@pytest.mark.parametrize("variant", ["free", "harmonic"])
def test_zero_dephasing_is_unitary(variant):
    d, t = 10, 0.7
    rho = _random_pure_density(d, 5)
    _, H = _operators(d, variant)
    E, W = np.linalg.eigh(H)
    U = (W * np.exp(-1j * E * t)) @ W.conj().T
    res = evolve_master(rho, MasterEqScenario(variant, 0.0, d), [t])
    assert np.abs(res.states[0] - U @ rho @ U.conj().T).max() < 1e-12
    assert abs(np.trace(res.states[0]).real - 1.0) < 1e-12


def test_grid_shapes_agree():
    # every grid is stepped from t = 0, interval by interval
    scn = MasterEqScenario("harmonic", 0.25, 20)
    rho0 = _cat_density(20, 1.0)
    ref = evolve_master(rho0, scn, [0.0, 0.1, 0.2, 0.3]).states
    for grid, picks in (([0.0, 0.1, 0.3], (0, 1, 3)), ([0.1, 0.2, 0.3], (1, 2, 3)),
                        ([0.3], (3,)), ([0.1, 0.1, 0.3], (1, 1, 3))):
        got = evolve_master(rho0, scn, grid).states
        for rho, k in zip(got, picks, strict=True):
            assert np.abs(rho - ref[k]).max() < 1e-12


def test_long_interval_is_stepped():
    # 3 * ||L - mu I||_1 is about 91 at basis 20, so the interval [0, 3]
    # takes ten Taylor sub-steps of about 9.1, and each 0.1 interval of the
    # 31-point grid one
    scn = MasterEqScenario("harmonic", 0.25, 20)
    rho0 = _cat_density(20, 1.0)
    fine = evolve_master(rho0, scn, np.linspace(0.0, 3.0, 31)).states[-1]
    coarse = evolve_master(rho0, scn, [3.0]).states[-1]
    assert np.abs(coarse - fine).max() < 1e-12


@pytest.mark.parametrize("variant", ["none", "harmonic"])
def test_evolve_master_clean_run(variant):
    scn = MasterEqScenario(variant, 0.25, 20)
    grid = [0.0, 0.1, 0.3]
    res = evolve_master(_cat_density(20, 1.0), scn, grid)
    assert res.halvings == 0
    assert res.max_trace_drift <= 1e-8
    # the exact flow of a Lindblad generator keeps every state positive
    assert np.linalg.eigvalsh(res.states).min() >= -1e-12
    assert len(res.states) == len(grid)
    assert np.array_equal(res.states[0], _cat_density(20, 1.0))
    rho = res.states[-1]
    assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_input_state_is_not_mutated():
    rho = _random_pure_density(8, 7)
    before = rho.copy()
    evolve_master(rho, MasterEqScenario("harmonic", 0.35, 8), [0.0, 0.05])
    assert np.array_equal(rho, before)


def test_grid_validation():
    scn = MasterEqScenario("none", 0.1, 8)
    rho0 = _cat_density(8, 0.5)
    for grid in ([0.2, 0.1], [-0.1, 0.2], [], [0.0, float("nan")]):
        with pytest.raises(MasterEqError, match="ascending"):
            evolve_master(rho0, scn, grid)


@pytest.mark.parametrize("variant", ["none", "harmonic"])
@pytest.mark.parametrize("d_rho, d_basis", [(64, 40), (40, 64)])
def test_initial_state_of_another_basis_size_is_refused(variant, d_rho,
                                                        d_basis):
    # refused as invalid input before any solve, not as a trust failure,
    # a bare IndexError or a matmul ValueError
    rho0 = _cat_density(d_rho, 0.5)
    with pytest.raises(MasterEqError, match=rf"\({d_rho}, {d_rho}\).*"
                       rf"\({d_basis}, {d_basis}\)") as exc:
        evolve_master(rho0, MasterEqScenario(variant, 0.1, d_basis), [0.0, 1.0])
    assert not isinstance(exc.value, TrustGateError)


def test_coherence_profile_visibility():
    lam, x0 = 0.3, 1.5
    scn = MasterEqScenario("none", lam, 30)
    res = evolve_master(_cat_density(30, x0), scn, [0.0, 0.1, 0.2])
    xs = np.linspace(-4.0, 4.0, 81)
    vis = coherence_profile(res, xs, (0.8, 2.2), (-2.2, -0.8), 1.0, 1.0)
    assert vis[0] > 0.95
    assert vis[0] > vis[1] > vis[2]
    # expected e^{-4 lam x0^2 t} envelope, loose bounds for patch-mass effects
    assert 0.4 < vis[2] / vis[0] < 0.75
    with pytest.raises(MasterEqError, match="no grid points"):
        coherence_profile(res, xs, (10.0, 11.0), (-2.0, -1.0), 1.0, 1.0)
    # |1> has a node at x = 0, so a patch holding only that point has no weight
    one = np.zeros((1, 30, 30), complex)
    one[0, 1, 1] = 1.0
    with pytest.raises(MasterEqError, match="vanishing diagonal"):
        coherence_profile(MasterEvolution(one, 0.0),
                          np.array([0.0, 1.0]), (-0.5, 0.5), (0.5, 1.5),
                          1.0, 1.0)


@pytest.mark.parametrize("variant", ["none", "harmonic"])
def test_coherence_profile_matches_kernel_patch_sums(variant):
    # the batched bilinear forms against the per-time position kernel, on
    # the shipped master-eq scenario and its profile grid
    x0 = 1.5
    res = evolve_master(_cat_density(40, x0), MasterEqScenario(variant, 0.25, 40),
                        np.linspace(0.0, 0.5, 11))
    xs = np.linspace(-(2.5 * x0 + 2.0), 2.5 * x0 + 2.0, 121)
    patches = (x0 - 0.8, x0 + 0.8), (-x0 - 0.8, -x0 + 0.8)
    got = coherence_profile(res, xs, *patches, 1.0, 1.0)
    kernels = (position_kernel(rho, xs, 1.0, 1.0) for rho in res.states)
    assert np.abs(got - _profile_reference(kernels, xs, *patches)).max() < 1e-12


_REFERENCE_GRIDS = ([0.0, 0.1, 0.2, 0.3], [0.0, 0.1, 0.3], [0.1, 0.2, 0.3],
                    [0.3], [0.1, 0.1, 0.3], np.linspace(0.0, 0.5, 11))


@pytest.mark.parametrize("d", [20, 64])
@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("variant", ["none", "free", "harmonic"])
def test_evolve_master_matches_per_interval_reference(variant, lam, d):
    # the sector split and the Taylor steps against the whole of vec rho
    # stepped interval by interval, for a cat (even sector only) and a
    # random state (both sectors), on regular and irregular grids
    scn = MasterEqScenario(variant, lam, d)
    L = _superoperator(scn)
    grids = _REFERENCE_GRIDS if d == 20 else _REFERENCE_GRIDS[-2:]
    for rho0 in (_cat_density(d, 1.5), _random_pure_density(d, 11)):
        for grid in grids:
            want = _propagate_reference(L, rho0.ravel(), grid)
            got = evolve_master(rho0, scn, grid).states
            assert np.abs(got.reshape(len(grid), -1) - want).max() < 1e-13


def test_cat_fills_only_the_even_parity_sector():
    d = 20
    rho0 = _cat_density(d, 1.5)
    m, n = np.indices((d, d))
    assert not rho0[(m + n) % 2 == 1].any()
    res = evolve_master(rho0, MasterEqScenario("harmonic", 0.3, d),
                        [0.0, 0.2, 0.5])
    assert not res.states[:, (m + n) % 2 == 1].any()


def test_solve_never_estimates_a_norm():
    # the Taylor steps read only the exact 1-norm of each sector's
    # generator, so no random norm estimator runs and the global RNG is
    # left alone, on a short grid and on one long interval
    np.random.seed(7)
    before = np.random.get_state()
    evolve_master(_cat_density(64, 1.5),
                  MasterEqScenario("harmonic", 0.5, 64, omega=1.2),
                  np.linspace(0.0, 0.5, 11))
    evolve_master(_cat_density(20, 1.0), MasterEqScenario("harmonic", 0.25, 20),
                  [3.0])
    after = np.random.get_state()
    assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]


def _shipped_master():
    cfg = parse_config((CONFIGS / "dephasing_master.cfg").read_text())
    scn = MasterEqScenario(cfg["master.variant"], cfg["master.lam"],
                           cfg["master.dim"], cfg["model.m_s"],
                           cfg["model.omega_s"])
    return scn, cfg["master.x0"], np.asarray(cfg.master_t_grid())


@pytest.mark.parametrize("scn, x0, grid", [
    _shipped_master(),
    *[(MasterEqScenario(variant, lam, 64, omega=omega), 2.0,
       np.linspace(0.0, 0.5, 11))
      for variant, omega in (("free", 1.0), ("harmonic", 1.0), ("harmonic", 1.2))
      for lam in (0.1, 0.5)],
], ids=["shipped", "free-0.1", "free-0.5", "harmonic-0.1", "harmonic-0.5",
        "harmonic-w1.2-0.1", "harmonic-w1.2-0.5"])
def test_visibility_matches_phase_space_closed_form(scn, x0, grid):
    # the truncated solve against the basis-free Gaussian closed form, on
    # the master-eq command's position grid and patches
    xs = np.linspace(-(2.5 * x0 + 2.0), 2.5 * x0 + 2.0, 121)
    patches = (x0 - 0.8, x0 + 0.8), (-x0 - 0.8, -x0 + 0.8)
    v = coherent_vector(scn.dim, scn.mass, scn.basis_freq, x0)
    v = v + coherent_vector(scn.dim, scn.mass, scn.basis_freq, -x0)
    v = v / np.linalg.norm(v)
    res = evolve_master(np.outer(v, v.conj()), scn, grid)
    got = coherence_profile(res, xs, *patches, scn.mass, scn.basis_freq)
    kernels = (_phase_space_kernel(xs, scn, x0, t) for t in grid)
    want = _profile_reference(kernels, xs, *patches)
    assert np.abs(got - want).max() < 1e-12


def test_phase_space_kernel_starts_at_the_cat():
    # at t = 0 the closed form is psi(x) psi(x')* of the unnormalised cat
    xs = np.linspace(-4.0, 4.0, 33)
    scn = MasterEqScenario("harmonic", 0.3, 8)
    psi = sum(np.exp(-(xs - c) ** 2 / 2) for c in (1.2, -1.2)) / np.pi ** 0.25
    got = _phase_space_kernel(xs, scn, 1.2, 0.0)
    assert np.abs(got - np.outer(psi, psi)).max() < 1e-14


def test_max_leakage_reads_the_top_two_levels():
    d = 10
    states = np.zeros((2, d, d), complex)
    states[:, 0, 0] = 1.0
    states[1, 0, 0], states[1, d - 2, d - 2], states[1, d - 1, d - 1] = 0.7, 0.2, 0.1
    res = MasterEvolution(states, 0.0)
    assert res.max_leakage == pytest.approx(0.3, abs=1e-15)
    clean = evolve_master(_cat_density(40, 1.5),
                          MasterEqScenario("harmonic", 0.25, 40), [0.0, 0.5])
    assert clean.max_leakage < 1e-20

"""Dephasing master equation: operators, exact solve, visibility."""
import numpy as np
import pytest

from oscidec import (MasterEqError, MasterEqScenario, coherence_profile,
                     evolve_master, position_kernel)
from oscidec.fock import coherent_vector
from oscidec.master import scenario_operators


def _cat_density(d: int, x0: float) -> np.ndarray:
    v = coherent_vector(d, 1.0, 1.0, x0) + coherent_vector(d, 1.0, 1.0, -x0)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_pure_density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _harmonic_operators(d: int):
    """x and H = p^2/2 + x^2/2 (m = omega = 1) built here, not by the module."""
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    x = ((a + a.T) / np.sqrt(2)).astype(complex)
    p = (1j / np.sqrt(2) * (a.T - a)).astype(complex)
    return x, p @ p / 2 + x @ x / 2


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


def test_evolve_master_matches_naive_rk4_reference():
    lam = 0.35
    # random pure state, small basis, small step: RK4's own error is ~1e-12
    d = 8
    rho = _random_pure_density(d, 1)
    x, H = _harmonic_operators(d)
    K = 1j * H + lam * (x @ x)
    want = _loop_reference(rho, K, K.conj().T, x, 2 * lam, 1e-3, 100)
    got = evolve_master(rho, MasterEqScenario("harmonic", lam, d), [0.1])
    assert np.abs(got.states[0] - want).max() < 1e-10
    # the benchmark's basis size at the old default step dt = 1e-3
    d, lam = 64, 0.3
    rho = _cat_density(d, 1.5)
    x, H = _harmonic_operators(d)
    K = 1j * H + lam * (x @ x)
    want = _loop_reference(rho, K, K.conj().T, x, 2 * lam, 1e-3, 200)
    got = evolve_master(rho, MasterEqScenario("harmonic", lam, d), [0.0, 0.2])
    assert np.abs(got.states[1] - want).max() < 1e-11


def test_zero_dephasing_is_unitary():
    d, t = 10, 0.7
    rho = _random_pure_density(d, 5)
    _, H = _harmonic_operators(d)
    E, W = np.linalg.eigh(H)
    U = (W * np.exp(-1j * E * t)) @ W.conj().T
    res = evolve_master(rho, MasterEqScenario("harmonic", 0.0, d), [t])
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
    # 3 * ||L - mu I||_1 is about 91 at basis 20, so [3.0] takes two steps;
    # the 31-point grid takes one per interval
    scn = MasterEqScenario("harmonic", 0.25, 20)
    rho0 = _cat_density(20, 1.0)
    fine = evolve_master(rho0, scn, np.linspace(0.0, 3.0, 31)).states[-1]
    coarse = evolve_master(rho0, scn, [3.0]).states[-1]
    assert np.abs(coarse - fine).max() < 1e-12


def test_evolve_master_clean_run():
    scn = MasterEqScenario("harmonic", 0.25, 20)
    grid = [0.0, 0.1, 0.3]
    res = evolve_master(_cat_density(20, 1.0), scn, grid)
    assert res.halvings == 0
    assert res.max_trace_drift <= 1e-8
    assert res.positivity_ok
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

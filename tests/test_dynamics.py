"""Symplectic propagation: analytic rotations, invariants, branch pairs."""
import numpy as np
import pytest

from oscidec import (BathParams, CoherentAmplitude, DynamicsError,
                     DynamicsTrustError, GaussianState, PhaseSpaceError,
                     PhaseSpaceLayout, QuadraticHamiltonian, SystemPotential,
                     TrustGateError, build_caldeira_leggett, build_two_mode,
                     TwoModeParams, coherent_state, decoherence_function,
                     discretize_ohmic_bath, energy, evolve, evolve_branches,
                     evolve_branches_from, layout, product_state, propagator,
                     symplectic_residual, thermal_state, vacuum_cov)
from oscidec.dynamics import BranchPair


def _sho(m: float, w: float) -> QuadraticHamiltonian:
    lay = layout("S")
    h = np.diag([m * w * w, 1.0 / m])
    return QuadraticHamiltonian(lay, h)


def test_propagator_matches_oscillator_rotation():
    m, w = 1.7, 0.6
    H = _sho(m, w)
    for t in (0.0, 0.3, 2.1, 7.9):
        M = propagator(H, t).M
        c, s = np.cos(w * t), np.sin(w * t)
        expected = np.array([[c, s / (m * w)], [-m * w * s, c]])
        assert np.abs(M - expected).max() < 1e-12


def test_propagator_free_particle_shear():
    lay = layout("S")
    H = QuadraticHamiltonian(lay, np.diag([0.0, 1.0 / 2.5]))
    M = propagator(H, 3.0).M
    assert np.abs(M - np.array([[1.0, 3.0 / 2.5], [0.0, 1.0]])).max() < 1e-14


def test_propagator_rejects_excessive_time_and_nonfinite():
    H = _sho(1.0, 1.0)
    with pytest.raises(DynamicsTrustError, match="certified cap"):
        propagator(H, 2.0e3)
    with pytest.raises(DynamicsError, match="finite"):
        propagator(H, np.inf)
    # just below the cap still works
    propagator(H, 0.99e3)


def test_propagator_layout_mismatch():
    H = _sho(1.0, 1.0)
    other = GaussianState(layout("E"), np.zeros(2), np.eye(2) / 2)
    with pytest.raises(DynamicsError, match="layout"):
        propagator(H, 0.5).apply(other)


def test_symplectic_residual_of_propagators():
    rng = np.random.default_rng(11)
    lay = layout("A", "B", "C")
    for _ in range(5):
        xx = rng.normal(size=(3, 3))
        h = np.zeros((6, 6))
        h[:3, :3] = xx @ xx.T + 0.1 * np.eye(3)
        h[3:, 3:] = np.diag(rng.uniform(0.3, 2.0, 3))
        H = QuadraticHamiltonian(lay, h)
        M = propagator(H, 1.3).M
        assert symplectic_residual(M) < 1e-11
    assert symplectic_residual(np.eye(6)) == 0.0


def test_matched_vacuum_is_stationary():
    m, w = 0.8, 1.9
    H = _sho(m, w)
    state = GaussianState(layout("S"), np.zeros(2), vacuum_cov([m], [w]))
    out = evolve(state, H, 2.7)
    assert np.abs(out.cov - state.cov).max() < 1e-13
    assert np.abs(out.mean).max() == 0.0


def test_energy_value_and_conservation():
    m, w = 1.0, 1.0
    H = _sho(m, w)
    state = GaussianState(layout("S"), np.array([0.7, -0.2]),
                          vacuum_cov([m], [w]))
    e0 = energy(state, H)
    # 1/2 (x^2 + p^2) + vacuum 1/2
    assert e0 == pytest.approx(0.5 * (0.49 + 0.04) + 0.5, rel=1e-13)
    for t in (0.4, 1.1, 4.3):
        assert energy(evolve(state, H, t), H) == pytest.approx(e0, rel=1e-12)


def test_energy_includes_linear_term():
    lay = layout("S")
    H = QuadraticHamiltonian(lay, np.eye(2), linear=np.array([2.0, 0.0]))
    state = GaussianState(lay, np.array([0.5, 0.0]), np.eye(2) / 2)
    assert energy(state, H) == pytest.approx(0.5 * 0.25 + 0.5 + 1.0, rel=1e-13)


def test_branch_pair_shares_covariance_bitwise():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    env = GaussianState(layout("E"), np.zeros(2), vacuum_cov([1.0], [1.0]))
    a = CoherentAmplitude("S", 0.5)
    b = CoherentAmplitude("S", -0.5)
    pairs = evolve_branches(a, b, env, H, [0.0, 0.7, 1.9], (1.0, 1.0))
    for pair in pairs:
        assert np.array_equal(pair.branch_b.cov, pair.branch_a.cov)
        assert pair.alpha is a and pair.beta is b
    # covariances genuinely evolve
    assert np.abs(pairs[2].branch_a.cov - pairs[0].branch_a.cov).max() > 1e-3


def test_branch_displacement_at_t0():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    base = GaussianState(H.layout, np.zeros(4),
                         vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    a = CoherentAmplitude("S", 0.3, 0.9)
    b = CoherentAmplitude("S", -0.3, 0.0)
    pair = evolve_branches_from(base, a, b, H, [0.0])[0]
    assert pair.branch_a.mean == pytest.approx([0.3, 0.0, 0.9, 0.0])
    assert pair.branch_b.mean == pytest.approx([-0.3, 0.0, 0.0, 0.0])


def test_branch_amplitudes_must_share_mode():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    base = GaussianState(H.layout, np.zeros(4),
                         vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(DynamicsError, match="same mode"):
        evolve_branches_from(base, CoherentAmplitude("S", 0.3),
                             CoherentAmplitude("E", -0.3), H, [0.0])


def test_evolve_branches_product_base():
    H = build_two_mode(TwoModeParams(1.0, 2.0, 1.5, 0.1))
    env = GaussianState(layout("E"), np.array([0.4, -0.1]),
                        vacuum_cov([2.0], [1.5]))
    pair = evolve_branches(CoherentAmplitude("S", 1.0),
                           CoherentAmplitude("S", -1.0), env, H,
                           [0.0], (1.0, 3.0))[0]
    mean, cov = pair.branch_a.mean, pair.branch_a.cov
    assert mean == pytest.approx([1.0, 0.4, 0.0, -0.1])
    assert cov[0, 0] == pytest.approx(1.0 / 6.0)      # 1/(2 m0 w0)
    assert cov[2, 2] == pytest.approx(1.5)            # m0 w0 / 2
    assert cov[1, 1] == pytest.approx(1.0 / 6.0)
    assert cov[0, 1] == 0.0


def test_evolve_branches_validates_modes():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    env = GaussianState(layout("E"), np.zeros(2), vacuum_cov([1.0], [1.0]))
    with pytest.raises(DynamicsError, match="not in layout"):
        evolve_branches(CoherentAmplitude("Q", 1.0), CoherentAmplitude("Q", -1.0),
                        env, H, [0.0], (1.0, 1.0))
    bad_env = GaussianState(layout("X"), np.zeros(2), vacuum_cov([1.0], [1.0]))
    with pytest.raises(DynamicsError, match="non-open modes"):
        evolve_branches(CoherentAmplitude("S", 1.0), CoherentAmplitude("S", -1.0),
                        bad_env, H, [0.0], (1.0, 1.0))


def _reference_branches(base, alpha, beta, H, t_grid):
    """Evolve both displaced states with propagator(H, t).apply and rebuild
    every environment marginal through the checked constructor."""
    n = base.layout.n_modes
    states = []
    for amp in (alpha, beta):
        k = base.layout.index(amp.mode)
        mean = base.mean.copy()
        mean[k] += amp.x0
        mean[k + n] += amp.p0
        states.append(GaussianState(base.layout, mean, base.cov))
    out = []
    for t in t_grid:
        P = propagator(H, float(t))
        out.append(BranchPair(float(t), P.apply(states[0]), P.apply(states[1]),
                              alpha, beta))
    return out


def test_evolve_branches_from_matches_checked_reference():
    pot = SystemPotential("harmonic", 1.0, 1.0)
    bath = discretize_ohmic_bath(4, 3.0, 0.05)
    bath = BathParams(bath.masses, bath.freqs, bath.couplings, -1)
    H = build_caldeira_leggett(pot, bath)
    env_labels = H.layout.mode_labels[1:]
    env = thermal_state(PhaseSpaceLayout(env_labels), bath.masses, bath.freqs,
                        2.0)
    base = product_state(H.layout, "S",
                         coherent_state(layout("S"), [1.0], [1.0]), env)
    alpha, beta = CoherentAmplitude("S", 1.2, 0.3), CoherentAmplitude("S", -0.7)
    t_grid = np.linspace(0.0, 3.0, 13)
    got = evolve_branches_from(base, alpha, beta, H, t_grid)
    want = _reference_branches(base, alpha, beta, H, t_grid)
    idx = H.layout.z_indices(env_labels)
    for g, w in zip(got, want):
        assert g.t == w.t
        for gs, ws in ((g.branch_a, w.branch_a), (g.branch_b, w.branch_b)):
            np.testing.assert_array_equal(gs.mean, ws.mean)
            np.testing.assert_array_equal(gs.cov, ws.cov)
            full = GaussianState(PhaseSpaceLayout(env_labels), ws.mean[idx],
                                 ws.cov[np.ix_(idx, idx)])
            np.testing.assert_array_equal(
                gs.cov[np.ix_(idx, idx)], full.cov)
    np.testing.assert_array_equal(decoherence_function(got, env_labels),
                                  decoherence_function(want, env_labels))


def test_evolved_covariance_failing_uncertainty_raises_trust_error():
    # the free open mode leaves h indefinite (min eigenvalue -0.059), so
    # states grow like e^{0.24 t} until the evolved covariance loses the
    # uncertainty relation to rounding
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    assert np.linalg.eigvalsh(H.h).min() < -0.05
    state = GaussianState(H.layout, np.array([0.4, 0.0, 0.0, 0.0]),
                          vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    evolve(state, H, 20.0)           # still satisfies it
    assert 200.0 * np.linalg.norm(H.h, 2) < 1e3   # inside the time cap
    with pytest.raises(DynamicsTrustError, match="uncertainty relation") as exc:
        evolve(state, H, 200.0)
    assert exc.value.gate == "uncertainty relation"
    with pytest.raises(DynamicsTrustError, match="uncertainty relation"):
        evolve_branches_from(state, CoherentAmplitude("S", 0.1),
                             CoherentAmplitude("S", -0.1), H, [0.0, 200.0])
    # a bad input state is invalid input, not a trust failure
    with pytest.raises(PhaseSpaceError) as bad:
        GaussianState(H.layout, np.zeros(4), 0.1 * np.eye(4))
    assert not isinstance(bad.value, TrustGateError)

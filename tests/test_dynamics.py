"""Symplectic propagation: analytic rotations, invariants, branch pairs."""
import numpy as np
import pytest

import oscidec.dynamics
from oscidec import (BathParams, CoherentAmplitude, DynamicsError,
                     DynamicsTrustError, GaussianState, PhaseSpaceError,
                     PhaseSpaceLayout, QuadraticHamiltonian, SystemPotential,
                     TrustGateError, build_caldeira_leggett, build_two_mode,
                     TwoModeParams, cm_relative_transform, coherent_state,
                     decoherence_function, discretize_ohmic_bath, energy,
                     evolve, evolve_branches, evolve_branches_from,
                     evolve_grid, layout, normal_mode_transform,
                     product_state, propagator, symplectic_form,
                     symplectic_residual, thermal_state,
                     transform_hamiltonian, transform_state, vacuum_cov)


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
    traj = evolve_branches(a, b, env, H, [0.0, 0.7, 1.9], (1.0, 1.0))
    assert traj.alpha is a and traj.beta is b
    # one covariance serves both branches: swapping them leaves it unchanged
    swapped = evolve_branches(b, a, env, H, [0.0, 0.7, 1.9], (1.0, 1.0))
    assert np.array_equal(swapped.env_cov, traj.env_cov)
    assert np.array_equal(swapped.mean_a, traj.mean_b)
    # covariances genuinely evolve
    assert np.abs(traj.env_cov[2] - traj.env_cov[0]).max() > 1e-3


def test_branch_displacement_at_t0():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    base = GaussianState(H.layout, np.zeros(4),
                         vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    a = CoherentAmplitude("S", 0.3, 0.9)
    b = CoherentAmplitude("S", -0.3, 0.0)
    traj = evolve_branches_from(base, a, b, H, [0.0])
    assert traj.mean_a[0] == pytest.approx([0.3, 0.0, 0.9, 0.0])
    assert traj.mean_b[0] == pytest.approx([-0.3, 0.0, 0.0, 0.0])


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
    a, b = CoherentAmplitude("S", 1.0), CoherentAmplitude("S", -1.0)
    traj = evolve_branches(a, b, env, H, [0.0, 0.9], (1.0, 3.0))
    assert traj.mean_a[0] == pytest.approx([1.0, 0.4, 0.0, -0.1])
    assert traj.env.mode_labels == ("E",)
    assert traj.env_cov[0] == pytest.approx(np.diag([1.0 / 6.0, 1.5]))
    # the open mode is the vacuum at open_scale: 1/(2 m0 w0), m0 w0 / 2
    base = product_state(H.layout, "S",
                         GaussianState(layout("S"), np.zeros(2),
                                       np.diag([1.0 / 6.0, 1.5])), env)
    want = evolve_branches_from(base, a, b, H, [0.0, 0.9])
    for field in ("t", "mean_a", "mean_b", "env_cov"):
        assert np.array_equal(getattr(traj, field), getattr(want, field))


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
    """Evolve both displaced states with propagator(H, t).apply, one matrix
    exponential per time: the slow reference for the stepped pass."""
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
        out.append((float(t), P.apply(states[0]), P.apply(states[1])))
    return out


def _chain_frames(n_bath, temperature):
    """(base, H, alpha, beta) of the chain in the S+E frame and in the CM+R
    frame, built as parallel_compare builds them."""
    pot = SystemPotential("harmonic", 1.0, 1.0)
    b = discretize_ohmic_bath(n_bath, 5.0, 0.1)
    bath = BathParams(b.masses, b.freqs, b.couplings, -1)
    H = build_caldeira_leggett(pot, bath)
    env = thermal_state(PhaseSpaceLayout(H.layout.mode_labels[1:]),
                        bath.masses, bath.freqs, temperature)
    base = product_state(H.layout, "S",
                         coherent_state(layout("S"), [1.0], [1.0]), env)
    labels = ("CM",) + tuple(f"R{a}" for a in range(1, n_bath + 1))
    T1 = cm_relative_transform(np.concatenate([[1.0], bath.masses]),
                               labels=labels, source=H.layout)
    T2, H2 = normal_mode_transform(transform_hamiltonian(H, T1), labels[1:])
    base_cm = transform_state(transform_state(base, T1), T2)
    return [(base, H, CoherentAmplitude("S", 3.0), CoherentAmplitude("S", -3.0)),
            (base_cm, H2, CoherentAmplitude("CM", 0.25, 0.1),
             CoherentAmplitude("CM", -0.25))]


def _assert_matches_reference(base, alpha, beta, H, t_grid):
    """Means, environment covariances and Gamma of the stepped pass agree
    with the per-time reference to 1e-12 relative."""
    got = evolve_branches_from(base, alpha, beta, H, t_grid)
    want = _reference_branches(base, alpha, beta, H, t_grid)
    env = got.env.mode_labels
    idx = H.layout.z_indices(env)
    assert got.t.tolist() == [t for t, _, _ in want]
    gamma = []
    for i, (_, wa, wb) in enumerate(want):
        for g, w in ((got.mean_a[i], wa.mean), (got.mean_b[i], wb.mean),
                     (got.env_cov[i], wa.cov[np.ix_(idx, idx)])):
            np.testing.assert_allclose(g, w, rtol=0,
                                       atol=1e-12 * np.abs(w).max())
        d = wa.mean[idx] - wb.mean[idx]
        gamma.append(-0.25 * d @ np.linalg.solve(wa.cov[np.ix_(idx, idx)], d))
    np.testing.assert_allclose(decoherence_function(got, env), gamma,
                               rtol=1e-12, atol=0)


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
    for t_grid in (np.linspace(0.0, 3.0, 13),   # uniform
                   [0.0, 0.7, 1.9],             # every step new
                   [0.4, 0.9, 1.4, 2.6]):       # t0 != 0, then a new step
        _assert_matches_reference(base, alpha, beta, H, t_grid)


@pytest.mark.parametrize("frame", [0, 1], ids=["S+E", "CM+R"])
def test_stepped_reference_chain_matches_per_time_reference(frame):
    base, H, alpha, beta = _chain_frames(32, 10.0)[frame]
    _assert_matches_reference(base, alpha, beta, H, np.linspace(0.0, 2.0, 201))


def test_stepped_pass_takes_one_exponential_per_distinct_step(monkeypatch):
    calls = []

    def counting_expm(a):
        calls.append(a)
        return expm(a)

    expm = oscidec.dynamics.expm
    monkeypatch.setattr(oscidec.dynamics, "expm", counting_expm)
    base, H, alpha, beta = _chain_frames(4, 1.0)[0]
    grid = [2.0 * i / 200 for i in range(201)]   # the config grid's rounding
    evolve_branches_from(base, alpha, beta, H, grid)
    assert len(calls) == 2                       # M(t0) and one step
    calls.clear()
    evolve_branches_from(base, alpha, beta, H, [0.0, 0.7, 1.9, 3.1])
    assert len(calls) == 3                       # M(t0), steps 0.7 and 1.2


def test_branch_probes_are_the_pass_propagators():
    base, H, alpha, beta = _chain_frames(4, 1.0)[1]
    grid = np.linspace(0.0, 2.0, 21)
    traj = evolve_branches_from(base, alpha, beta, H, grid, [grid[1], 2.0])
    assert sorted(traj.propagators) == [grid[1], 2.0]
    idx = H.layout.z_indices(traj.env.mode_labels)
    for t, M in traj.propagators.items():
        assert np.abs(M - propagator(H, t).M).max() < 1e-12
        # the kept matrix is the one that produced the stored covariance
        cov = M @ base.cov @ M.T
        cov = 0.5 * (cov + cov.T)
        assert np.array_equal(cov[np.ix_(idx, idx)],
                              traj.env_cov[grid.tolist().index(t)])
    with pytest.raises(DynamicsError, match="not grid times"):
        evolve_branches_from(base, alpha, beta, H, grid, [0.05])


def test_evolve_grid_matches_per_time_evolve():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    state = GaussianState(H.layout, np.array([0.4, 0.0, 0.1, 0.0]),
                          vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    grid = [0.3, 0.8, 1.3, 1.8, 4.0, 4.5]
    for t, got in zip(grid, evolve_grid(state, H, grid), strict=True):
        want = evolve(state, H, t)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0,
                                   atol=1e-12 * np.abs(want.mean).max())
        np.testing.assert_allclose(got.cov, want.cov, rtol=0,
                                   atol=1e-12 * np.abs(want.cov).max())
    with pytest.raises(DynamicsError, match="layout"):
        evolve_grid(GaussianState(layout("E"), np.zeros(2), np.eye(2) / 2),
                    H, grid)


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


def test_stepped_pass_refuses_long_uniform_grid_of_free_model():
    # the free open mode's growth breaks the uncertainty relation inside
    # [0, 200]; stepping must not carry the pass past it
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    state = GaussianState(H.layout, np.array([0.4, 0.0, 0.0, 0.0]),
                          vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    grid = np.linspace(0.0, 200.0, 201)
    with pytest.raises(DynamicsTrustError, match="uncertainty relation") as exc:
        evolve_branches_from(state, CoherentAmplitude("S", 0.1),
                             CoherentAmplitude("S", -0.1), H, grid)
    assert exc.value.gate == "uncertainty relation"
    with pytest.raises(DynamicsTrustError, match="uncertainty relation"):
        list(evolve_grid(state, H, grid))


def test_non_finite_evolved_covariance_fails_the_uncertainty_gate():
    # an inverted oscillator grows like e^t: at t = 400, inside the time cap,
    # M is finite but M sigma M^T overflows, and eigvalsh of it returns NaN
    lay = layout("S")
    H = QuadraticHamiltonian(lay, np.diag([-1.0, 1.0]))
    state = GaussianState(lay, np.zeros(2), np.eye(2) / 2)
    assert np.isfinite(propagator(H, 400.0).M).all()
    with pytest.raises(DynamicsTrustError, match="min eig nan") as exc:
        evolve(state, H, 400.0)
    assert exc.value.gate == "uncertainty relation"
    with pytest.raises(DynamicsTrustError, match="uncertainty relation"):
        list(evolve_grid(state, H, [0.0, 400.0]))
    # NaN entries can make eigvalsh raise instead of returning NaN
    cov = np.eye(4) / 2
    cov[0, 1] = cov[1, 0] = np.nan
    with pytest.raises(DynamicsTrustError, match="min eig nan"):
        oscidec.dynamics._evolved_cov(np.eye(4), cov, 1.0,
                                      0.5j * symplectic_form(2))

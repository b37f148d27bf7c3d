"""Symplectic propagation: analytic rotations, invariants, branch pairs."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import oscidec.dynamics
import oscidec.metrics
from oscidec.cli import main
from oscidec import (BathParams, BranchTrajectory, CoherentAmplitude,
                     DynamicsError, DynamicsTrustError, GaussianState,
                     LinearCoordinateTransform, PhaseSpaceError,
                     PhaseSpaceLayout, QuadraticHamiltonian,
                     SystemPotential, TrustGateError, build_caldeira_leggett, build_two_mode,
                     TwoModeParams, cm_relative_transform, coherent_state,
                     decoherence_function, discretize_ohmic_bath, energy,
                     evolve_branches_from, evolve_grid, gaussian_crosscheck,
                     layout, normal_mode_transform, open_mode_base,
                     parallel_compare, product_state, purity, symplectic_form,
                     symplectic_residual, thermal_state,
                     transform_hamiltonian, vacuum_cov)


def _sho(m: float, w: float) -> QuadraticHamiltonian:
    lay = layout("S")
    h = np.diag([m * w * w, 1.0 / m])
    return QuadraticHamiltonian(lay, h)


def _expm_propagator(H, t):
    """M(t) = expm(t J h), one exponential per time: the slow reference for
    the closed form."""
    return expm(t * symplectic_form(H.n_modes) @ H.h)


def _propagators_at(modes, ts):
    """M(t) of the closed form at each of ts, from its modal weights."""
    dyn = oscidec.dynamics
    return dyn._propagators(modes, *dyn._modal_weights(
        modes[2], np.asarray(ts, dtype=float)))


def _pass_propagators(H, t_grid):
    """M(t) of the closed form at each grid time."""
    return list(_propagators_at(oscidec.dynamics._normal_mode_factors(H),
                                t_grid))


# Grid steps equal to within this many ulps of max|t| share one step
# propagator, so the rounding of t_max * i / (n - 1) does not split them.
_SAME_STEP_ULPS = 4


def _stepped_trajectory(H, t_grid):
    """(t, M(t)) at each grid time, in grid order: the stepped reference.
    M(t_0) and each distinct step E come from the closed form, and
    M(t_k) = E M(t_{k-1}), one matrix product per time."""
    dyn = oscidec.dynamics
    ts = [float(t) for t in t_grid]
    modes = dyn._normal_mode_factors(H)
    same_step = _SAME_STEP_ULPS * np.spacing(max(map(abs, ts), default=0.0))
    M = E = step = t_prev = None
    for t in ts:
        if M is None:
            (M,) = _propagators_at(modes, [t])
        else:
            dt = t - t_prev
            if step is None or abs(dt - step) > same_step:
                step, (E,) = dt, _propagators_at(modes, [dt])
            M = E @ M
        t_prev = t
        yield t, M


def _stepped_branch_gram(base, alpha, beta, H, t_grid, frame=None):
    """W at each grid time from the full stepped M(t), one 2n x 2n product
    per time: rows k and k + n of N = M S, whitened by (S L)^-1."""
    n = H.n_modes
    k = H.layout.index(alpha.mode)
    delta = np.zeros(2 * n)
    delta[k], delta[k + n] = alpha.x0 - beta.x0, alpha.p0 - beta.p0
    L = np.linalg.cholesky(base.cov)
    whiten = np.linalg.inv(L if frame is None else frame @ L).T
    J = symplectic_form(n)
    coef = np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    gram = []
    for _, M in _stepped_trajectory(H, t_grid):
        rows = M[k::n]
        c_x, c_p = rows @ delta
        coef[0] = c_p, -c_x
        y = coef @ (rows @ J.T)
        y[0] += delta
        z = y @ whiten
        gram.append(z @ z.T)
    return np.array(gram)


def test_propagator_matches_oscillator_rotation():
    m, w = 1.7, 0.6
    H = _sho(m, w)
    grid = (0.0, 0.3, 2.1, 7.9)
    for t, M in zip(grid, _pass_propagators(H, grid), strict=True):
        c, s = np.cos(w * t), np.sin(w * t)
        expected = np.array([[c, s / (m * w)], [-m * w * s, c]])
        assert np.abs(M - expected).max() < 1e-12


def test_propagator_free_particle_shear():
    lay = layout("S")
    H = QuadraticHamiltonian(lay, np.diag([0.0, 1.0 / 2.5]))
    (M,) = _pass_propagators(H, [3.0])
    assert np.abs(M - np.array([[1.0, 3.0 / 2.5], [0.0, 1.0]])).max() < 1e-14


def test_propagator_rejects_nonfinite_time():
    H = _sho(1.0, 1.0)
    state = GaussianState(layout("S"), np.zeros(2), np.eye(2) / 2)
    with pytest.raises(DynamicsError, match="finite"):
        list(evolve_grid(state, H, [np.inf]))


def test_closed_form_propagator_matches_expm_in_every_regime():
    # random h = blockdiag(V, T) whose normal modes rotate (lam > 0), shear
    # (lam = 0 up to rounding) and grow (lam < 0)
    rng = np.random.default_rng(21)
    lay = layout("A", "B", "C", "D")
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        T = a @ a.T + 0.2 * np.eye(4)
        eT, UT = np.linalg.eigh(T)
        Thi = UT @ np.diag(eT ** -0.5) @ UT.T
        W, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lam = np.array([-0.6, 0.0, 0.4, 2.5]) * rng.uniform(0.5, 1.5)
        V = Thi @ W @ np.diag(lam) @ W.T @ Thi
        H = QuadraticHamiltonian(lay, np.block([[0.5 * (V + V.T), np.zeros((4, 4))],
                                                [np.zeros((4, 4)), T]]))
        # a one-time grid takes M(t) straight from the closed form
        (M0,) = _pass_propagators(H, [0.0])
        assert np.array_equal(M0, np.eye(8))
        for t in (1e-3, 0.37, 2.9, -1.4):
            (got,), want = _pass_propagators(H, [t]), _expm_propagator(H, t)
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("grid", [[1e12], [0.0, 1e12]], ids=["t", "0-t"])
def test_unit_oscillator_at_huge_time_stays_a_rotation(grid):
    # one step of t = 1e12 is a rotation to rounding: the state stays pure
    # and its mean on the circle
    x0 = 0.7
    state = coherent_state(layout("S"), [1.0], [1.0],
                           [CoherentAmplitude("S", x0)])
    out = list(evolve_grid(state, _sho(1.0, 1.0), grid))[-1]
    t = grid[-1]
    assert abs(purity(out) - 1.0) < 1e-9
    np.testing.assert_allclose(out.mean, [x0 * np.cos(t), -x0 * np.sin(t)],
                               rtol=0, atol=1e-9)


def test_ten_thousand_steps_keep_the_oscillator_pure():
    state = coherent_state(layout("S"), [1.0], [1.0],
                           [CoherentAmplitude("S", 0.7)])
    grid = np.linspace(0.0, 1e5, 10001)
    drift = max(abs(purity(st) - 1.0)
                for st in evolve_grid(state, _sho(1.0, 1.0), grid))
    assert drift < 1e-10


def test_propagator_layout_mismatch():
    H = _sho(1.0, 1.0)
    other = GaussianState(layout("E"), np.zeros(2), np.eye(2) / 2)
    with pytest.raises(DynamicsError, match="layout"):
        evolve_grid(other, H, [0.5])


def test_symplectic_residual_of_propagators():
    rng = np.random.default_rng(11)
    lay = layout("A", "B", "C")
    for _ in range(5):
        xx = rng.normal(size=(3, 3))
        h = np.zeros((6, 6))
        h[:3, :3] = xx @ xx.T + 0.1 * np.eye(3)
        h[3:, 3:] = np.diag(rng.uniform(0.3, 2.0, 3))
        H = QuadraticHamiltonian(lay, h)
        (M,) = _pass_propagators(H, [1.3])
        assert symplectic_residual(M) < 1e-11
    assert symplectic_residual(np.eye(6)) == 0.0


def test_matched_vacuum_is_stationary():
    m, w = 0.8, 1.9
    H = _sho(m, w)
    state = GaussianState(layout("S"), np.zeros(2), vacuum_cov([m], [w]))
    (out,) = evolve_grid(state, H, [2.7])
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
    for st in evolve_grid(state, H, (0.4, 1.1, 4.3)):
        assert energy(st, H) == pytest.approx(e0, rel=1e-12)


def test_hamiltonian_has_no_linear_term():
    # evolution reads h alone, so a linear term would be silently dropped
    with pytest.raises(TypeError, match="linear"):
        QuadraticHamiltonian(layout("S"), np.eye(2), linear=np.array([2.0, 0.0]))


def test_branch_pair_shares_covariance_bitwise():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    base = open_mode_base(H, [1.0, 1.0], [1.0, 1.0], 0.0)
    a = CoherentAmplitude("S", 0.5)
    b = CoherentAmplitude("S", -0.5)
    traj = evolve_branches_from(base, a, b, H, [0.0, 0.7, 1.9])
    assert traj.alpha is a and traj.beta is b
    # one covariance serves both branches: swapping them flips the sign of
    # the separation alone, so the open-mode block of W is unchanged, its
    # separation row only changes sign, and Gamma is unchanged bit for bit
    swapped = evolve_branches_from(base, b, a, H, [0.0, 0.7, 1.9])
    sign = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
    assert np.array_equal(swapped.gram, sign * traj.gram)
    assert np.array_equal(decoherence_function(swapped),
                          decoherence_function(traj))
    # the covariance genuinely evolves, and Gamma with it
    assert np.abs(traj.gram[2, 1:, 1:] - traj.gram[0, 1:, 1:]).max() > 1e-3
    assert decoherence_function(traj)[2] < -1e-3


def test_branch_displacement_at_t0():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    base = GaussianState(H.layout, np.zeros(4),
                         vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    a = CoherentAmplitude("S", 0.3, 0.9)
    b = CoherentAmplitude("S", -0.3, 0.0)
    traj = evolve_branches_from(base, a, b, H, [0.0, 1.0])
    # at t = 0 the separation sits on the open mode alone, so the environment
    # part d_hat is exactly zero, and W's open-mode block is sigma0^-1's
    assert np.all(traj.gram[0, 0] == 0.0) and np.all(traj.gram[0, :, 0] == 0.0)
    assert traj.gram[0, 1:, 1:] == pytest.approx(np.diag([2.0, 2.0]))
    # later, Gamma reads the displacement of x by 0.6 and of p by 0.9 on the
    # open mode, through the environment block of M(t) sigma0 M(t)^T
    M = _expm_propagator(H, 1.0)
    d = M @ np.array([0.6, 0.0, 0.9, 0.0])
    cov = M @ base.cov @ M.T
    env_cov = cov[np.ix_([1, 3], [1, 3])]
    gamma = decoherence_function(traj)
    assert gamma[0] == 0.0
    assert gamma[1] == pytest.approx(
        -0.25 * d[[1, 3]] @ np.linalg.solve(env_cov, d[[1, 3]]), rel=1e-12)


def test_branch_amplitudes_must_share_mode():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    base = GaussianState(H.layout, np.zeros(4),
                         vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    with pytest.raises(DynamicsError, match="same mode"):
        evolve_branches_from(base, CoherentAmplitude("S", 0.3),
                             CoherentAmplitude("E", -0.3), H, [0.0])


def test_branch_pass_refuses_a_singular_base_covariance(monkeypatch):
    # sigma + iJ/2 stays inside the state's tolerance (min eig -8.3e-11), so
    # the state is accepted and evolve_grid evolves it; the branch pass needs
    # a Cholesky factor and refuses it by name before its first time
    H = _sho(1.0, 1.0)
    base = GaussianState(H.layout, np.zeros(2), np.diag([0.0, 3e9]))
    assert len(list(evolve_grid(base, H, [0.0, 1.0]))) == 2
    steps = []
    normal_modes = oscidec.dynamics._normal_modes
    monkeypatch.setattr(oscidec.dynamics, "_normal_modes",
                        lambda *a: steps.append(a) or normal_modes(*a))
    with pytest.raises(DynamicsError, match="not positive definite"):
        evolve_branches_from(base, CoherentAmplitude("S", 0.3),
                             CoherentAmplitude("S", -0.3), H, [0.0, 1.0])
    assert steps == []


def _reference_moments(M, mean, cov):
    """M m and the symmetrised M sigma M^T."""
    cov = M @ cov @ M.T
    return M @ mean, 0.5 * (cov + cov.T)


def _reference_branches(base, alpha, beta, H, t_grid):
    """(t, mean_a, mean_b, cov, W) of both displaced states, one matrix
    exponential per time: the slow reference for the stepped pass.  W is the
    Gram matrix Y^T sigma0^-1 Y of Y = M^-1 [d_hat, e_x, e_p], with M^-1
    from a solve, not from the symplectic form."""
    n = base.layout.n_modes
    k = base.layout.index(alpha.mode)
    means = []
    for amp in (alpha, beta):
        mean = base.mean.copy()
        mean[k] += amp.x0
        mean[k + n] += amp.p0
        means.append(mean)
    K0 = np.linalg.inv(base.cov)
    out = []
    for t in t_grid:
        M = _expm_propagator(H, float(t))
        mean_a, cov = _reference_moments(M, means[0], base.cov)
        mean_b = M @ means[1]
        E = np.zeros((2 * n, 3))
        E[:, 0] = mean_a - mean_b
        E[[k, k + n], 0] = 0.0
        E[k, 1] = E[k + n, 2] = 1.0
        Y = np.linalg.solve(M, E)
        out.append((float(t), mean_a, mean_b, cov, Y.T @ K0 @ Y))
    return out


def _chain_frames(n_bath, temperature, cutoff=5.0, eta=0.1, coupling_sign=-1,
                  amplitudes=(3.0, 0.25)):
    """(base, H, alpha, beta, frame) of the chain in the S+E frame and in the
    CM+R frame, built as parallel_compare builds them: both passes evolve
    the S+E base, the CM+R one through its frame S = T2.S T1.S."""
    pot = SystemPotential("harmonic", 1.0, 1.0)
    b = discretize_ohmic_bath(n_bath, cutoff, eta)
    bath = BathParams(b.masses, b.freqs, b.couplings, coupling_sign)
    H = build_caldeira_leggett(pot, bath)
    env = thermal_state(PhaseSpaceLayout(H.layout.mode_labels[1:]),
                        bath.masses, bath.freqs, temperature)
    base = product_state(H.layout, "S",
                         coherent_state(layout("S"), [1.0], [1.0]), env)
    T1 = cm_relative_transform(np.concatenate([[1.0], bath.masses]),
                               source=H.layout)
    T2, H2 = normal_mode_transform(transform_hamiltonian(H, T1),
                                   T1.target.mode_labels[1:])
    a, c = amplitudes
    return [(base, H, CoherentAmplitude("S", a), CoherentAmplitude("S", -a),
             None),
            (base, H2, CoherentAmplitude("CM", c, 0.1),
             CoherentAmplitude("CM", -c), T2.S @ T1.S)]


def _framed(base, H, frame):
    """The base state in H's coordinates: S m and S sigma0 S^T."""
    if frame is None:
        return base
    return GaussianState(H.layout, frame @ base.mean,
                         frame @ base.cov @ frame.T)


def _chain_states(*args, **kwargs):
    """(state in H's coordinates, H, alpha, beta) of `_chain_frames`."""
    return [(_framed(base, H, S), H, a, b)
            for base, H, a, b, S in _chain_frames(*args, **kwargs)]


def _assert_matches_reference(base, alpha, beta, H, t_grid, rtol=1e-12,
                              frame=None):
    """The Gram matrices of the pass agree with the per-time reference to
    rtol of their largest entry, and Gamma agrees with -1/4 d^T sigma_EE^-1 d
    from the reference means and environment covariance block to rtol
    relative."""
    got = evolve_branches_from(base, alpha, beta, H, t_grid, frame=frame)
    want = _reference_branches(_framed(base, H, frame), alpha, beta, H,
                               t_grid)
    idx = H.layout.z_indices(
        [lb for lb in H.layout.mode_labels if lb != alpha.mode])
    assert got.t.tolist() == [t for t, *_ in want]
    gamma = []
    for i, (_, wa, wb, wcov, wgram) in enumerate(want):
        np.testing.assert_allclose(got.gram[i], wgram, rtol=0,
                                   atol=rtol * np.abs(wgram).max())
        d = wa[idx] - wb[idx]
        gamma.append(-0.25 * d @ np.linalg.solve(wcov[np.ix_(idx, idx)], d))
    np.testing.assert_allclose(decoherence_function(got), gamma,
                               rtol=rtol, atol=0)


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
    base, H, alpha, beta, S = _chain_frames(32, 10.0)[frame]
    _assert_matches_reference(base, alpha, beta, H, np.linspace(0.0, 2.0, 201),
                              frame=S)


@pytest.mark.parametrize("frame", [0, 1], ids=["S+E", "CM+R"])
def test_long_grid_gamma_matches_per_time_reference(frame):
    # 2001 times to t = 20, 32 chunks of the closed form; M^-1 = -J M^T J
    # carries any departure from symplecticity into Gamma
    base, H, alpha, beta, S = _chain_frames(8, 10.0, cutoff=3.0)[frame]
    grid = np.linspace(0.0, 20.0, 2001)
    _assert_matches_reference(base, alpha, beta, H, grid, frame=S)


@pytest.mark.parametrize("frame", [0, 1], ids=["S+E", "CM+R"])
def test_reference_chain_gamma_to_t60_matches_per_time_reference(frame):
    # the reference chain past its bath recurrence at 2 pi / d_omega = 40.2,
    # where t ||h|| reaches 1.5e3 (S+E) and 1.6e4 (CM+R)
    base, H, alpha, beta, S = _chain_frames(32, 10.0)[frame]
    _assert_matches_reference(base, alpha, beta, H,
                              np.linspace(0.0, 60.0, 400), rtol=1e-11, frame=S)


def test_stepped_pass_takes_one_exponential_per_distinct_step(monkeypatch):
    # the stepped reference shares one closed-form step across a grid whose
    # steps differ only by rounding
    calls = []
    propagators = oscidec.dynamics._propagators
    monkeypatch.setattr(oscidec.dynamics, "_propagators",
                        lambda modes, cm1, s: calls.append(len(cm1))
                        or propagators(modes, cm1, s))
    _, H, _, _, _ = _chain_frames(4, 1.0)[0]
    grid = [2.0 * i / 200 for i in range(201)]   # the config grid's rounding
    list(_stepped_trajectory(H, grid))
    assert len(calls) == 2                       # M(t0) and one step
    calls.clear()
    list(_stepped_trajectory(H, [0.0, 0.7, 1.9, 3.1]))
    assert len(calls) == 3                       # M(t0), steps 0.7 and 1.2


def test_branch_probes_are_the_pass_propagators():
    base, H, alpha, beta, S = _chain_frames(4, 1.0)[1]
    grid = np.linspace(0.0, 2.0, 21)
    traj = evolve_branches_from(base, alpha, beta, H, grid, [grid[1], 2.0],
                                frame=S)
    assert sorted(traj.propagators) == [grid[1], 2.0]
    cov0 = _framed(base, H, S).cov
    idx = H.layout.z_indices(
        [lb for lb in H.layout.mode_labels if lb != alpha.mode])
    n = H.n_modes
    delta = np.zeros(2 * n)
    delta[0], delta[n] = alpha.x0 - beta.x0, alpha.p0 - beta.p0
    for t, M in traj.propagators.items():
        assert np.abs(M - _expm_propagator(H, t)).max() < 1e-12
        # the kept matrix reproduces the stored Gram matrix at its time:
        # W's open-mode block is that of sigma^-1 = M^-T sigma0^-1 M^-1, and
        # W_00 - W_0s W_ss^-1 W_s0 is d^T sigma_EE^-1 d
        cov = M @ cov0 @ M.T
        cov = 0.5 * (cov + cov.T)
        W = traj.gram[grid.tolist().index(t)]
        ss = [0, n]
        np.testing.assert_allclose(W[1:, 1:],
                                   np.linalg.inv(cov)[np.ix_(ss, ss)],
                                   rtol=1e-12)
        d = (M @ delta)[idx]
        schur = W[0, 0] - W[0, 1:] @ np.linalg.solve(W[1:, 1:], W[1:, 0])
        assert schur == pytest.approx(
            d @ np.linalg.solve(cov[np.ix_(idx, idx)], d), rel=1e-12)
    # a probe off the grid is kept as the closed form gives it; only a
    # non-finite probe is refused
    off_grid = evolve_branches_from(base, alpha, beta, H, grid, [0.05],
                                    frame=S).propagators
    dyn = oscidec.dynamics
    assert np.array_equal(off_grid[0.05],
                          _propagators_at(dyn._normal_mode_factors(H),
                                          [0.05])[0])
    with pytest.raises(DynamicsError, match="finite"):
        evolve_branches_from(base, alpha, beta, H, grid, [np.inf], frame=S)
    with pytest.raises(DynamicsError, match="frame must map"):
        evolve_branches_from(base, alpha, beta, H, grid, frame=S[:, 1:])
    with pytest.raises(DynamicsError, match="layout"):
        evolve_branches_from(base, alpha, beta, H, grid)


@pytest.mark.parametrize("frame", [0, 1], ids=["S+E", "CM+R"])
@pytest.mark.parametrize("chain", [
    (10.0, 0.1, -1, (3.0, 0.25)),               # configs/chain_compare.cfg
    (12.3488, 0.0441, 1, (3.8166, 0.1505)),     # chain_compare pool, seed 0 #2
], ids=["reference", "hot"])
def test_rows_only_pass_matches_stepped_reference(monkeypatch, chain, frame):
    # Gamma and W agree with the pass that forms the full stepped M(t) per
    # time, and the pass forms a full M(t) only at parallel_compare's three
    # probe times: the certificate clears every other time
    temperature, eta, sign, amplitudes = chain
    base, H, alpha, beta, S = _chain_frames(
        32, temperature, eta=eta, coupling_sign=sign,
        amplitudes=amplitudes)[frame]
    grid = np.linspace(0.0, 2.0, 201)
    probes = oscidec.metrics._residual_probe_times(grid)
    formed, times_of = [], {}
    weights = oscidec.dynamics._modal_weights
    propagators = oscidec.dynamics._propagators

    def recorded_weights(lam, ts):
        # keeping cm1 alive keeps its id its own
        cm1, s = weights(lam, ts)
        times_of[id(cm1)] = cm1, ts.tolist()
        return cm1, s

    with monkeypatch.context() as m:
        m.setattr(oscidec.dynamics, "_modal_weights", recorded_weights)
        m.setattr(oscidec.dynamics, "_propagators",
                  lambda modes, cm1, s: formed.extend(times_of[id(cm1)][1])
                  or propagators(modes, cm1, s))
        got = evolve_branches_from(base, alpha, beta, H, grid, probes,
                                   frame=S)
    assert sorted(formed) == probes and len(probes) == 3
    want = _stepped_branch_gram(base, alpha, beta, H, grid, S)
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(got.gram - want) <= 1e-12 * scale)
    ref = BranchTrajectory(got.t, want, alpha, beta, {})
    np.testing.assert_allclose(decoherence_function(got),
                               decoherence_function(ref), rtol=1e-12, atol=0)


def test_evolve_grid_matches_per_time_evolve():
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    state = GaussianState(H.layout, np.array([0.4, 0.0, 0.1, 0.0]),
                          vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    # the oracle's branch and 26-point grid on [0, 5], as the config rounds it
    oracle = GaussianState(H.layout, np.array([0.4, 0.0, 0.0, 0.0]),
                           vacuum_cov([1.0, 1.0], [1.0, 1.0]))
    grid = [0.3, 0.8, 1.3, 1.8, 4.0, 4.5]
    for st, ts in ((state, grid), (oracle, [5.0 * i / 25 for i in range(26)])):
        for t, got in zip(ts, evolve_grid(st, H, ts), strict=True):
            mean, cov = _reference_moments(_expm_propagator(H, t), st.mean,
                                           st.cov)
            np.testing.assert_allclose(got.mean, mean, rtol=0,
                                       atol=1e-12 * np.abs(mean).max())
            np.testing.assert_allclose(got.cov, cov, rtol=0,
                                       atol=1e-12 * np.abs(cov).max())
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
    list(evolve_grid(state, H, [20.0]))           # still satisfies it
    with pytest.raises(DynamicsTrustError, match="uncertainty relation") as exc:
        list(evolve_grid(state, H, [200.0]))
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
    # an inverted oscillator grows like e^t: at t = 400 M is finite but
    # M sigma M^T overflows, and eigvalsh of it returns NaN
    lay = layout("S")
    H = QuadraticHamiltonian(lay, np.diag([-1.0, 1.0]))
    state = GaussianState(lay, np.zeros(2), np.eye(2) / 2)
    assert np.isfinite(_expm_propagator(H, 400.0)).all()
    with pytest.raises(DynamicsTrustError, match="min eig nan") as exc:
        list(evolve_grid(state, H, [400.0]))
    assert exc.value.gate == "uncertainty relation"
    with pytest.raises(DynamicsTrustError, match="uncertainty relation"):
        list(evolve_grid(state, H, [0.0, 400.0]))
    # the branch pass, which builds sigma only where its bound fails, with a
    # stable oscillator beside the inverted one as its environment
    lay2 = layout("S", "E")
    H2 = QuadraticHamiltonian(lay2, np.diag([-1.0, 1.0, 1.0, 1.0]))
    state2 = GaussianState(lay2, np.zeros(4), np.eye(4) / 2)
    with pytest.raises(DynamicsTrustError, match="min eig nan"):
        evolve_branches_from(state2, CoherentAmplitude("S", 0.1),
                             CoherentAmplitude("S", -0.1), H2, [0.0, 400.0])
    # NaN entries can make eigvalsh raise instead of returning NaN, whether
    # sigma takes them from sigma0 or from M
    cov = np.eye(4) / 2
    cov[0, 1] = cov[1, 0] = np.nan
    dyn = oscidec.dynamics
    with pytest.raises(DynamicsTrustError, match="min eig nan"):
        dyn._check_uncertainty(np.eye(4), dyn._evolved_cov(np.eye(4), cov),
                               1.0, 0.0)
    M = np.eye(4)
    M[0, 1] = np.nan
    with pytest.raises(DynamicsTrustError, match="min eig nan"):
        dyn._check_uncertainty(M, dyn._evolved_cov(M, np.eye(4) / 2), 1.0,
                               0.0)


def _eigvalsh_gate(N, cov, t, eps0):
    """The uncertainty gate without the symplectic-defect bound: one eigvalsh
    of sigma + iJ/2 per time, refusing a minimum below -1e-10.  The
    reference the bounded gate must agree with."""
    J = symplectic_form(len(N) // 2)
    min_eig = np.nan
    if np.isfinite(cov).all():
        min_eig = float(np.linalg.eigvalsh(cov + 0.5j * J).min())
    if not min_eig >= -1e-10:
        raise DynamicsTrustError("uncertainty relation",
                                 f"min eig {min_eig:.3e}")


def _certificate_off(patcher):
    """Patch the per-pass certificate through `patcher` (a monkeypatch) to
    clear no time, so the pass runs its per-time gate at every time."""
    patcher.setattr(oscidec.dynamics._Certificate, "floor",
                    lambda self, cm1, s: np.full(len(cm1), -np.inf))


def _count_gate(patcher):
    """Patch the per-time uncertainty gate through `patcher` to record the
    time of each call; returns the record."""
    times = []
    check = oscidec.dynamics._check_uncertainty
    patcher.setattr(oscidec.dynamics, "_check_uncertainty",
                    lambda *args: times.append(args[2]) or check(*args))
    return times


def _count_eigvalsh(patcher):
    """Patch np.linalg.eigvalsh through `patcher` (a monkeypatch) to record
    the shape of each call; returns the record."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    patcher.setattr(np.linalg, "eigvalsh",
                    lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


def _gated_pass(state, H, grid):
    """(covariances `evolve_grid` accepts, in grid order; the trust error
    that refused the next time, or None)."""
    covs = []
    try:
        for st in evolve_grid(state, H, grid):
            covs.append(st.cov)
    except DynamicsTrustError as exc:
        return covs, exc
    return covs, None


def _branch_refusal(state, H, grid):
    """The trust error that stops the branch pass from `state`, or None."""
    mode = H.layout.mode_labels[0]
    try:
        evolve_branches_from(state, CoherentAmplitude(mode, 0.1),
                             CoherentAmplitude(mode, -0.1), H, grid)
    except DynamicsTrustError as exc:
        return exc
    return None


def _assert_gate_matches_eigvalsh(monkeypatch, state, H, grid):
    """Run `evolve_grid` with the certificate and the bounded gate, and with
    the certificate off and the eigvalsh reference at every time, on the
    same M stack: both must accept the same covariances, bit for bit, and
    refuse at the same first time with the same gate.  The branch pass,
    which reads the same certificate and gate, must refuse with the same
    message and call eigvalsh as often.  Returns (times accepted, refusing
    gate, eigvalsh calls made by the bounded pass)."""
    with monkeypatch.context() as m:
        calls = _count_eigvalsh(m)
        got, got_exc = _gated_pass(state, H, grid)
        grid_calls = len(calls)
        calls.clear()
        branch_exc = _branch_refusal(state, H, grid)
    with monkeypatch.context() as m:
        _certificate_off(m)
        m.setattr(oscidec.dynamics, "_check_uncertainty", _eigvalsh_gate)
        want, want_exc = _gated_pass(state, H, grid)
    got_gate = got_exc and got_exc.gate
    assert (len(got), got_gate) == (len(want), want_exc and want_exc.gate)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert str(branch_exc) == str(got_exc) and len(calls) == grid_calls
    return len(got), got_gate, grid_calls


def _floor_and_min_eig(monkeypatch, state, H, grid):
    """The bound with ||sigma||_F, the bound with tr sigma and the eigvalsh
    minimum at every time of the pass, with the certificate off and no gate
    stopping it."""
    dyn = oscidec.dynamics
    L = np.linalg.cholesky(state.cov)
    J = symplectic_form(H.n_modes)
    out = []

    def recording_gate(M, cov, t, eps0):
        ML = M @ L
        out.append((dyn._uncertainty_floor(M, J, eps0, np.linalg.norm(cov)),
                    dyn._uncertainty_floor(M, J, eps0, np.vdot(ML, ML)),
                    np.linalg.eigvalsh(cov + 0.5j * J).min()))

    with monkeypatch.context() as m:
        _certificate_off(m)
        m.setattr(dyn, "_check_uncertainty", recording_gate)
        for _ in evolve_grid(state, H, grid):
            pass
    return np.array(out).T


@pytest.mark.parametrize("temperature, t_refused", [(0.0, 27.9), (1.0, 35.75)],
                         ids=["vacuum", "thermal"])
def test_uncertainty_bound_refuses_where_eigvalsh_refuses_on_two_mode_model(
        monkeypatch, temperature, t_refused):
    # configs/two_mode_oracle.cfg physics: h is indefinite, so the evolved
    # covariance grows until rounding breaks the uncertainty relation inside
    # [0, 45]
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    state = thermal_state(H.layout, [1.0, 1.0], [1.0, 1.0], temperature)
    grid = np.linspace(0.0, 45.0, 901)
    accepted, gate, calls = _assert_gate_matches_eigvalsh(
        monkeypatch, state, H, grid)
    assert gate == "uncertainty relation"
    assert grid[accepted] == pytest.approx(t_refused, rel=1e-15)
    # the bound decides some times and eigvalsh the rest
    assert 1 < calls < accepted
    # past the first refusal too, neither bound clears a time eigvalsh
    # refuses, and the trace never reads below the norm
    floor, floor_tr, min_eig = _floor_and_min_eig(monkeypatch, state, H, grid)
    assert np.any(min_eig < -1e-10)
    assert not np.any((floor >= -1e-10) & (min_eig < -1e-10))
    assert np.all(floor_tr <= floor)


def _certificate_scan(state, H, grid, frame=None):
    """(certificate clears, full check refuses) at every grid time, with no
    gate stopping the scan: the certificate of the branch pass against
    `_check_uncertainty` on the full closed-form N(t) = M(t) S."""
    dyn = oscidec.dynamics
    modes = dyn._normal_mode_factors(H)
    eps0 = max(0.0, -oscidec.phase_space._uncertainty_min_eig(state.cov))
    cert = dyn._Certificate.build(modes, state.cov, frame, eps0)
    clears = cert.floor(*dyn._modal_weights(modes[2], grid)) >= -1e-10
    refused = []
    for t, M in zip(grid, _propagators_at(modes, grid)):
        N = M if frame is None else M @ frame
        try:
            dyn._check_uncertainty(N, dyn._evolved_cov(N, state.cov), t,
                                   eps0)
        except DynamicsTrustError:
            refused.append(t)
    return clears, np.isin(grid, refused)


@pytest.mark.parametrize("frame", [False, True], ids=["S+E", "CM+R"])
@pytest.mark.parametrize("temperature", [0.0, 1.0], ids=["vacuum", "thermal"])
def test_certificate_clears_no_time_the_full_check_refuses(temperature, frame):
    # the two-mode scan above, in its own coordinates and through the CM+R
    # frame: the growing normal mode drives every term of the certificate
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    state = thermal_state(H.layout, [1.0, 1.0], [1.0, 1.0], temperature)
    S = None
    if frame:
        T = cm_relative_transform([1.0, 1.0], source=H.layout)
        H, S = transform_hamiltonian(H, T), T.S
    grid = np.linspace(0.0, 45.0, 901)
    clears, refused = _certificate_scan(state, H, grid, S)
    assert refused.any() and not (clears & refused).any()
    # it clears every time to t = 19.5, and nothing past the first refusal;
    # between them the full check decides
    assert clears[grid <= 19.5].all()
    assert not clears[np.argmax(refused):].any()


def _min_eig_of_factors(modes, cm1, s, cov0, frame):
    """lambda_min(sigma + iJ/2) per time for N = (I + P (R - I) Q) S built
    from the given factors and weights, which need not be consistent."""
    B, Bi, lam = modes
    n = len(lam)
    zero = np.zeros((n, n))
    P = np.block([[B, zero], [zero, Bi.T]])
    Q = np.block([[Bi, zero], [zero, B.T]])
    J = symplectic_form(n)
    out = []
    for c, w in zip(cm1, s):
        Rm1 = np.block([[np.diag(c), np.diag(w)],
                        [-np.diag(lam * w), np.diag(c)]])
        N = (np.eye(2 * n) + P @ Rm1 @ Q) @ frame
        cov = N @ cov0 @ N.T
        out.append(np.linalg.eigvalsh(0.5 * (cov + cov.T) + 0.5j * J).min())
    return np.array(out)


def _dense_certificate(modes, cov0, frame, eps0):
    """The certificate from dense 2n x 2n products: P, Q, E = (I - P Q) S,
    K = Q' sigma0 Q'^T and G = P^T P, with Z summed over every pair of R's
    entries.  The reference for `_Certificate.build`, which reads the same
    quantities from their n x n blocks."""
    B, Bi, lam = modes
    n = len(lam)
    zero = np.zeros((n, n))
    P = np.block([[B, zero], [zero, Bi.T]])
    Q = np.block([[Bi, zero], [zero, B.T]])
    E = np.eye(2 * n) - P @ Q
    if frame is not None:
        Q, E = Q @ frame, E @ frame
    J = symplectic_form(n)
    K = Q @ cov0 @ Q.T
    G = P.T @ P
    x, p = slice(0, n), slice(n, 2 * n)
    # R's entries: (weight index in v, row block, column block, sign)
    entries = ((0, x, x, 1.0), (0, p, p, 1.0), (1, x, p, 1.0),
               (2, p, x, -1.0))
    Z = np.zeros((3, n, 3, n))
    for a, ra, ca, sa in entries:
        for b, rb, cb, sb in entries:
            Z[a, :, b, :] += sa * sb * K[ca, cb] * G[ra, rb]
    dyn = oscidec.dynamics
    return dyn._Certificate(lam, eps0,
                            max(np.linalg.norm(B, 2), np.linalg.norm(Bi, 2)),
                            float(np.linalg.norm(Q)),
                            dyn._symplectic_defect(P, J),
                            dyn._symplectic_defect(Q, J),
                            float(np.linalg.norm(E)), Z.reshape(3 * n, 3 * n))


@pytest.mark.parametrize("term", ["eps0", "P", "R", "frame"])
def test_certificate_bounds_each_defect(term):
    # one defect at a time, each large enough that sigma + iJ/2 fails the
    # tolerance: an initial deficit, B^-1 that is not B's inverse, modal
    # weights that are not a symplectic map, a frame that is not symplectic.
    # The certificate must stay below the eigenvalue at every time.
    dyn = oscidec.dynamics
    T = cm_relative_transform([1.0, 1.0], source=layout("S", "E"))
    H = transform_hamiltonian(build_two_mode(TwoModeParams(1.0, 1.0, 1.0,
                                                           0.25)), T)
    B, Bi, lam = dyn._normal_mode_factors(H)
    cov0 = np.eye(4) / 2
    frame = T.S
    ts = np.array([0.0, 1.0, 5.0, 15.0])
    cm1, s = dyn._modal_weights(lam, ts)
    if term == "eps0":
        cov0 = cov0 - 1e-6 * np.eye(4)
    elif term == "P":
        # the frame undoes the change in Q = blockdiag(B^-1, B^T), so only
        # P J P^T - J and I - P Q read it
        Bi = Bi * (1 + 1e-6)
        frame = np.diag([1 / (1 + 1e-6)] * 2 + [1.0] * 2) @ frame
    elif term == "R":
        s = s * (1 + 1e-3)
    else:
        frame = frame * (1 - 1e-6)
    eps0 = max(0.0, -oscidec.phase_space._uncertainty_min_eig(cov0))
    cert = dyn._Certificate.build((B, Bi, lam), cov0, frame, eps0)
    floor = cert.floor(cm1, s)
    min_eig = _min_eig_of_factors((B, Bi, lam), cm1, s, cov0, frame)
    nonzero = ts > 0 if term == "R" else ts >= 0   # M(0) = I
    assert np.all(min_eig[nonzero] < -1e-10)
    assert np.all(floor <= min_eig)


@pytest.mark.parametrize("frame", [0, 1], ids=["S+E", "CM+R"])
@pytest.mark.parametrize("case", [
    ("chain", 32, 10.0, 60.0, 400),      # configs/chain_compare.cfg to t = 60
    ("chain", 32, 100.0, 2.0, 201),      # ... at T = 100
    ("chain", 64, 10.0, 2.0, 201),       # ... at bath.n = 64
    ("chain", 128, 10.0, 2.0, 201),      # ... at bath.n = 128
    ("two-mode", None, 0.0, 45.0, 901),  # the two-mode scans from vacuum
    ("two-mode", None, 1.0, 45.0, 901),  # ... and from T = 1
], ids=["chain-t60", "chain-T100", "chain-n64", "chain-n128",
        "two-mode-vacuum", "two-mode-thermal"])
def test_block_certificate_matches_the_dense_build(case, frame):
    # the block build against the dense one, field by field, and the times
    # each clears: the same, at every time of the scan
    model, n_bath, temperature, t_max, n_times = case
    if model == "chain":
        base, H, _, _, S = _chain_frames(n_bath, temperature)[frame]
    else:
        H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
        base = thermal_state(H.layout, [1.0, 1.0], [1.0, 1.0], temperature)
        S = None
        if frame:
            T = cm_relative_transform([1.0, 1.0], source=H.layout)
            H, S = transform_hamiltonian(H, T), T.S
    dyn = oscidec.dynamics
    modes = dyn._normal_mode_factors(H)
    got = dyn._Certificate.build(modes, base.cov, S, base._deficit)
    want = _dense_certificate(modes, base.cov, S, base._deficit)
    assert got.norm_p == pytest.approx(want.norm_p, rel=1e-12, abs=0)
    assert got.norm_q == pytest.approx(want.norm_q, rel=1e-12, abs=0)
    # Q'JQ'^T - J has entries of scale ||Q'||^2
    assert abs(got.defect_q - want.defect_q) <= 1e-12 * want.norm_q ** 2
    scale = np.abs(want.trace_form).max()
    assert np.abs(got.trace_form - want.trace_form).max() <= 1e-12 * scale
    # both are rounding residuals of B B^-1 - I, summed by another route
    assert abs(got.defect_p - want.defect_p) <= 1e-15
    assert abs(got.err - want.err) <= 1e-15
    weights = dyn._modal_weights(modes[2], np.linspace(0.0, t_max, n_times))
    assert np.array_equal(got.floor(*weights) >= -1e-10,
                          want.floor(*weights) >= -1e-10)


@pytest.mark.parametrize("skew", [0.0, 1e-6], ids=["symplectic", "skewed"])
@pytest.mark.parametrize("temperature", [0.0, 1.0], ids=["vacuum", "thermal"])
def test_certificate_through_a_frame_that_mixes_x_and_p(temperature, skew):
    # a shear [[I, X], [0, I]] after the two-mode CM+R frame: the frame's
    # position rows read momenta, so the block build takes Q' and E from the
    # frame's row blocks, not from its diagonal ones.  With X symmetric the
    # shear is symplectic; skewed by 1e-6, S J S^T - J = [[X^T - X, 0],
    # [0, 0]] is a defect that only the off-diagonal block carries
    dyn = oscidec.dynamics
    lay = layout("S", "E")
    T = cm_relative_transform([1.0, 1.0], source=lay)
    H = transform_hamiltonian(build_two_mode(TwoModeParams(1.0, 1.0, 1.0,
                                                           0.25)), T)
    X = np.array([[0.3, -0.2 + skew], [-0.2, 0.5]])
    shear = np.block([[np.eye(2), X], [np.zeros((2, 2)), np.eye(2)]])
    frame = shear @ T.S
    state = thermal_state(lay, [1.0, 1.0], [1.0, 1.0], temperature)
    modes = dyn._normal_mode_factors(H)
    ts = np.linspace(0.0, 45.0, 901)
    cm1, s = dyn._modal_weights(modes[2], ts)
    cert = dyn._Certificate.build(modes, state.cov, frame, state._deficit)
    floor = cert.floor(cm1, s)
    want = _dense_certificate(modes, state.cov, frame,
                              state._deficit).floor(cm1, s)
    min_eig = _min_eig_of_factors(modes, cm1, s, state.cov, frame)
    # Z reads tr sigma(t) of the closed-form N(t) = M(t) S
    v = np.concatenate([1.0 + cm1, s, modes[2] * s], axis=1)
    N = dyn._propagators(modes, cm1, s) @ frame
    np.testing.assert_allclose(((v @ cert.trace_form) * v).sum(axis=1),
                               np.einsum("tij,jk,tik->t", N, state.cov, N),
                               rtol=1e-12, atol=0)
    assert np.all(floor <= min_eig)
    # the eigenvalue refuses some times; the symplectic shear's bound
    # clears others
    assert (min_eig < -1e-10).any()
    assert (floor >= -1e-10).any() == (skew == 0.0)
    np.testing.assert_allclose(floor, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("frame", [0, 1], ids=["S+E", "CM+R"])
def test_uncertainty_bound_refuses_where_eigvalsh_refuses_on_chain(
        monkeypatch, frame):
    # the grid runs to t ||h||_2 = 1.01e3 (t = 40.3 in S+E, 3.88 in CM+R):
    # the chain is confining, so both gates accept every time, and the
    # bound decides most of them
    base, H, _, _ = _chain_states(32, 10.0)[frame]
    grid = np.linspace(0.0, 1.01e3 / np.linalg.norm(H.h, 2), 400)
    accepted, gate, calls = _assert_gate_matches_eigvalsh(
        monkeypatch, base, H, grid)
    assert gate is None and accepted == len(grid)
    assert calls < accepted / 2


@pytest.mark.parametrize("t_max, t_steps, t_refused", [
    (5000.0, 26, 200.0),    # `evolve` on two_mode_oracle.cfg, run.t_max = 5000
    (60.0, 61, 30.0),       # `oracle` on it, run.t_max = 60, run.t_steps = 61
], ids=["evolve", "oracle"])
def test_branch_pass_and_evolve_grid_refuse_alike(t_max, t_steps, t_refused):
    # the CLI's refused two-mode grids, from the state both commands evolve:
    # the branch pass must stop where evolve_grid stops, with its message
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    state = coherent_state(H.layout, [1.0, 1.0], [1.0, 1.0],
                           [CoherentAmplitude("S", 0.4)])
    grid = [t_max * i / (t_steps - 1) for i in range(t_steps)]
    covs, exc = _gated_pass(state, H, grid)
    assert exc.gate == "uncertainty relation"
    assert f"evolved state at t = {t_refused!r}:" in str(exc)
    assert grid[len(covs)] == t_refused
    assert str(_branch_refusal(state, H, grid)) == str(exc)


def test_compare_makes_no_per_time_eigvalsh_call(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    counts = []
    for temperature, eta, sign, a, c in (
            (10.0, 0.1, -1, 3.0, 0.25),             # chain_compare.cfg
            (12.3488, 0.0441, 1, 3.8166, 0.1505)):  # its pool, seed 0 #2
        b = discretize_ohmic_bath(32, 5.0, eta)
        bath = BathParams(b.masses, b.freqs, b.couplings, sign)
        for n_times in (21, 201):
            calls.clear()
            parallel_compare(SystemPotential("harmonic", 1.0, 1.0), bath,
                             (CoherentAmplitude("S", a),
                              CoherentAmplitude("S", -a)),
                             (CoherentAmplitude("CM", c),
                              CoherentAmplitude("CM", -c)),
                             temperature, np.linspace(0.0, 2.0, n_times))
            counts.append(len(calls))
    # a 201-point pipeline costs what a 21-point one does: three momentum
    # blocks (the chain's Hamiltonian and its two transformed copies), the
    # confinement check, the bath's thermal state and the open mode's vacuum;
    # the confinement check reads the position block of the chain's h
    # without validating a second Hamiltonian, and both passes read the
    # initial deficit the two state validations kept
    assert counts == [6] * 4


def test_compare_inverts_no_point_transform_action(monkeypatch, tmp_path):
    # one `compare` on the shipped chain: each of its two point transforms
    # reads cond(A) and inverts its 33 x 33 A once, and each branch pass its
    # 66 x 66 whitening; the congruences, the closed-form constants and the
    # frame residual read S^-1 from the blocks without inverting S
    inverted, conds, actions = [], [], []
    inv, cond = np.linalg.inv, np.linalg.cond
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: inverted.append(np.array(a)) or inv(a))
    monkeypatch.setattr(np.linalg, "cond",
                        lambda a, *args: conds.append(np.shape(a))
                        or cond(a, *args))
    post_init = LinearCoordinateTransform.__post_init__

    def record(T):
        post_init(T)
        actions.append(T.S)

    monkeypatch.setattr(LinearCoordinateTransform, "__post_init__", record)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "chain_compare.cfg"
    assert main(["compare", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert [a.shape for a in inverted] == [(33, 33)] * 2 + [(66, 66)] * 2
    assert conds == [(33, 33)] * 2
    assert len(actions) == 2
    assert not any(np.array_equal(a, S) for a in inverted for S in actions)


@pytest.mark.parametrize("config", ["chain_compare", "two_mode_oracle"])
def test_evolve_runs_no_per_time_gate_on_shipped_configs(monkeypatch,
                                                         tmp_path, config):
    # the certificate clears every time of `evolve` on each shipped config
    cfg = Path(__file__).resolve().parents[1] / "configs" / f"{config}.cfg"
    gate = _count_gate(monkeypatch)
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert gate == []


@pytest.mark.parametrize("temperature", [0.0, 2.0])
def test_evolve_checks_its_start_state_once(monkeypatch, tmp_path,
                                            temperature):
    # the start state is the thermal state displaced, whose sigma is checked
    # once: eigvalsh runs on the 2x2 momentum block of h and on one 4x4
    # sigma + iJ/2, and the certificate clears every time after that
    cfg = Path(__file__).resolve().parents[1] / "configs" / "two_mode_oracle.cfg"
    text = cfg.read_text() + f"state.temperature = {temperature}\n"
    (tmp_path / "c.cfg").write_text(text)
    calls = _count_eigvalsh(monkeypatch)
    assert main(["evolve", "--config", str(tmp_path / "c.cfg"),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [(2, 2), (4, 4)]


def test_crosscheck_runs_no_per_time_gate(monkeypatch):
    # oracle_crosscheck's pool scenario seed 0 #0: the Gaussian pass over
    # its 26-point grid and the negativity time
    gate = _count_gate(monkeypatch)
    rep = gaussian_crosscheck(TwoModeParams(1.0, 1.0, 1.0, 0.2081), 0.3712,
                              np.linspace(0.0, 5.0, 26), dims=(16, 16),
                              negativity_time=0.8455)
    assert len(rep.rows) == 26 and gate == []


def test_uncertainty_bound_reads_the_defect_and_the_initial_deficit(
        monkeypatch):
    M = _expm_propagator(build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25)),
                         3.0)
    calls = _count_eigvalsh(monkeypatch)
    dyn = oscidec.dynamics

    def check(M, cov0, t, eps0):
        dyn._check_uncertainty(M, dyn._evolved_cov(M, cov0), t, eps0)

    vac = np.eye(4) / 2
    # a symplectic M and a valid state: the bound decides, eigvalsh never runs
    check(M, vac, 3.0, 0.0)
    assert calls == []
    bad = vac - 1e-6 * np.eye(4)
    eps0 = -oscidec.phase_space._uncertainty_min_eig(bad)
    assert eps0 == pytest.approx(1e-6)
    # M J M^T = 0.81 J: sigma = 0.405 I, min eig -0.095, seen only through
    # the symplectic defect; an exact symplectic M carries an initial
    # deficit of 1e-6 forward
    for M, cov0, eps0 in ((0.9 * np.eye(4), vac, 0.0), (np.eye(4), bad, eps0)):
        with pytest.raises(DynamicsTrustError, match="uncertainty relation"):
            check(M, cov0, 1.0, eps0)


def test_norm_read_clears_times_the_certificate_leaves(monkeypatch):
    # where the certificate does not clear a time, the gate's norm read on
    # the sigma the pass formed clears it before eigvalsh runs.  At T = 100
    # the certificate clears no time of either compare pass on the shipped
    # chain, and the norm read clears them all
    b = discretize_ohmic_bath(32, 5.0, 0.1)
    bath = BathParams(b.masses, b.freqs, b.couplings, -1)
    with monkeypatch.context() as m:
        gate = _count_gate(m)
        calls = _count_eigvalsh(m)
        parallel_compare(SystemPotential("harmonic", 1.0, 1.0), bath,
                         (CoherentAmplitude("S", 3.0),
                          CoherentAmplitude("S", -3.0)),
                         (CoherentAmplitude("CM", 0.25),
                          CoherentAmplitude("CM", -0.25)),
                         100.0, np.linspace(0.0, 2.0, 201))
    assert len(gate) == 2 * 201
    assert len(calls) == 6          # only the pipeline's fixed calls
    # the shipped chain's S+E base with a deficit put in on purpose: sigma0
    # - eps I, whose open-mode vacuum gives lambda_min(sigma0 + iJ/2) = -eps.
    # eps0 weighs ||N||^2 in both bounds, and the certificate's is the looser:
    # it clears the first times only, the norm read clears some of the rest
    # (91 of 196 when measured) and eigvalsh decides the others
    state, H, _, _ = _chain_states(32, 10.0)[0]
    eps = 5e-13
    state = GaussianState(state.layout, state.mean,
                          state.cov - eps * np.eye(len(state.cov)))
    assert state._deficit == pytest.approx(eps, rel=0.05)
    gate = _count_gate(monkeypatch)
    calls = _count_eigvalsh(monkeypatch)
    grid = np.linspace(0.0, 2.0, 201)
    assert len(list(evolve_grid(state, H, grid))) == len(grid)
    assert 0 < len(calls) < len(gate) < len(grid) and 0.0 not in gate


@pytest.mark.parametrize("n_times", [201, 2001])
def test_branch_pass_memory_does_not_grow_with_the_environment(n_times):
    # the reference chain (33 modes): a (T, 64, 64) environment-covariance
    # stack alone would take 6.6 MB at 201 times; the pass keeps a 3x3 Gram
    # matrix per time and O(n^2) working arrays
    base, H, alpha, beta, _ = _chain_frames(32, 10.0)[0]
    grid = np.linspace(0.0, 2.0, n_times)
    tracemalloc.start()
    try:
        traj = evolve_branches_from(base, alpha, beta, H, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.gram.shape == (n_times, 3, 3)
    assert peak < 2e6

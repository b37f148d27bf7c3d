"""Truncated-Fock oracle: operators, evolution, projections, negativity."""
import numpy as np
import pytest

from oscidec import (BathParams, FockSpace, GaussianState, OracleError,
                     SystemPotential, TwoModeParams, build_caldeira_leggett,
                     build_two_mode, cm_relative_log_negativity,
                     cm_relative_transform, evolve_exact, layout, leakage,
                     log_negativity, pt_log_negativity_pure,
                     schmidt_log_negativity_pure, transform_state, vacuum_cov)
from oscidec.fock import (build_operators, chain_hamiltonian, coherent_vector,
                          diagonalize, hs_overlap, moments, populations,
                          product_pure_state, project_to_transformed_basis,
                          quadratic_hamiltonian_operator, reduced_density,
                          thermal_density, two_mode_hamiltonian,
                          validate_density)


def test_space_validation():
    with pytest.raises(OracleError, match="1 to 3 modes"):
        FockSpace(("A", "B", "C", "D"), (2, 2, 2, 2), (1,) * 4, (1,) * 4)
    with pytest.raises(OracleError, match="at least 2"):
        FockSpace(("A",), (1,), (1.0,), (1.0,))
    with pytest.raises(OracleError, match="cap"):
        FockSpace(("A", "B", "C"), (30, 30, 30), (1,) * 3, (1,) * 3)
    with pytest.raises(OracleError, match="align"):
        FockSpace(("A", "B"), (4,), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(OracleError, match="positive"):
        FockSpace(("A",), (4,), (-1.0,), (1.0,))


def test_canonical_commutator_below_truncation():
    space = FockSpace(("S",), (12,), (1.4,), (0.6,))
    ops = build_operators(space)
    comm = ops.x[0] @ ops.p[0] - ops.p[0] @ ops.x[0]
    # [x, p] = i 1 except in the top truncated level
    assert np.abs(comm[:-1, :-1] - 1j * np.eye(11)).max() < 1e-13


def test_two_mode_operator_matches_generic_builder():
    p = TwoModeParams(1.0, 2.0, 1.5, 0.4)
    space = FockSpace(("S", "E"), (8, 8), (p.m_s, p.m_e), (1.0, p.omega))
    ops = build_operators(space)
    direct = two_mode_hamiltonian(ops, p)
    generic = quadratic_hamiltonian_operator(ops, build_two_mode(p).h)
    assert np.abs(direct - generic).max() < 1e-12


def test_chain_operator_matches_generic_builder():
    pot = SystemPotential("harmonic", 1.0, 0.8)
    bath = BathParams((1.0, 2.0), (0.9, 1.4), (0.2, -0.3), -1)
    space = FockSpace(("S", "E1", "E2"), (5, 5, 5),
                      (pot.m_s,) + bath.masses, (1.0,) + bath.freqs)
    ops = build_operators(space)
    direct = chain_hamiltonian(ops, pot, bath)
    generic = quadratic_hamiltonian_operator(ops, build_caldeira_leggett(pot, bath).h)
    assert np.abs(direct - generic).max() < 1e-12
    small = FockSpace(("S", "E1"), (5, 5), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(OracleError, match="bath size"):
        chain_hamiltonian(build_operators(small), pot, bath)


def test_coherent_vector_moments():
    m, w, x0, p0 = 1.3, 0.7, 0.6, -0.4
    space = FockSpace(("S",), (40,), (m,), (w,))
    ops = build_operators(space)
    v = coherent_vector(40, m, w, x0, p0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    mean, cov = moments(v, ops)
    assert mean == pytest.approx([x0, p0], abs=1e-10)
    # displacement leaves the vacuum covariance untouched
    assert np.abs(cov - np.diag([1 / (2 * m * w), m * w / 2])).max() < 1e-9
    ground = coherent_vector(6, m, w, 0.0)
    assert ground == pytest.approx(np.eye(6)[0])


def test_coherent_vector_matches_recursion():
    # c_n = c_{n-1} alpha / sqrt(n), normalised; d = 200 passes 170!, where
    # a factorial computed in floating point overflows
    for d, m, w, x0, p0 in ((40, 1.0, 1.0, 1.5, 0.0), (64, 1.3, 0.7, -2.0, 0.4),
                            (200, 1.0, 1.0, 4.0, 2.0)):
        alpha = np.sqrt(m * w / 2) * x0 + 1j * p0 / np.sqrt(2 * m * w)
        want = np.ones(d, complex)
        for n in range(1, d):
            want[n] = want[n - 1] * alpha / np.sqrt(n)
        want /= np.linalg.norm(want)
        assert np.abs(coherent_vector(d, m, w, x0, p0) - want).max() < 1e-14


def _moments_reference(state, ops):
    """Literal <z> and <{z_i, z_j}>/2 - <z_i><z_j> from operator products."""
    zops = list(ops.x) + list(ops.p)
    m = len(zops)
    if state.ndim == 1:
        def ev(op):
            return float(np.real(state.conj() @ (op @ state)))
    else:
        def ev(op):
            return float(np.real(np.trace(op @ state)))
    mean = np.array([ev(z) for z in zops])
    cov = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            sym = 0.5 * (zops[i] @ zops[j] + zops[j] @ zops[i])
            cov[i, j] = cov[j, i] = ev(sym) - mean[i] * mean[j]
    return mean, cov


def _three_mode_ops():
    space = FockSpace(("S", "E1", "E2"), (4, 5, 3), (1.3, 0.7, 2.1),
                      (0.9, 1.6, 0.5))
    return space, build_operators(space)


def test_moments_match_operator_product_reference():
    space, ops = _three_mode_ops()
    D = space.total_dim
    rng = np.random.default_rng(11)
    psi = rng.normal(size=D) + 1j * rng.normal(size=D)
    psi /= np.linalg.norm(psi)
    vecs = rng.normal(size=(D, 3)) + 1j * rng.normal(size=(D, 3))
    vecs /= np.linalg.norm(vecs, axis=0)
    rho = (vecs * np.array([0.5, 0.3, 0.2])) @ vecs.conj().T   # rank-3 mixture
    validate_density(rho)
    for state in (psi, rho):
        mean, cov = moments(state, ops)
        mean_ref, cov_ref = _moments_reference(state, ops)
        assert np.abs(mean - mean_ref).max() < 1e-12
        assert np.abs(cov - cov_ref).max() < 1e-12
        assert np.array_equal(cov, cov.T)
    # the vector and density-matrix paths agree on a pure state
    mean_v, cov_v = moments(psi, ops)
    mean_r, cov_r = moments(np.outer(psi, psi.conj()), ops)
    assert np.abs(mean_v - mean_r).max() < 1e-13
    assert np.abs(cov_v - cov_r).max() < 1e-13


def test_thermal_density_moments_match_closed_form():
    masses, freqs, T = (1.3, 0.7), (1.0, 2.0), 1.0
    space = FockSpace(("S", "E"), (20, 20), masses, freqs)
    rho, tail = thermal_density(space, T)
    mean, cov = moments(rho, build_operators(space))
    coth = [1.0 / np.tanh(w / (2 * T)) for w in freqs]
    var = np.array([c / (2 * m * w) for c, m, w in zip(coth, masses, freqs)]
                   + [m * w * c / 2 for c, m, w in zip(coth, masses, freqs)])
    assert np.abs(mean).max() < 1e-14
    assert np.abs(cov - np.diag(np.diag(cov))).max() < 1e-14
    # Truncating a mode at d levels drops Gibbs weight q^d = e^{-d w/T} and
    # shifts <z^2> by exactly d (e^{w/T} - 1) q^d / (1 - q^d) relative; tail is
    # the largest q^d, so it bounds every mode (1% slack covers rounding).
    bound = [1.01 * d * np.expm1(w / T) * tail / (1 - tail)
             for d, w in zip(space.dims, freqs)] * 2
    assert tail < 1e-8
    assert np.all(np.abs(np.diag(cov) / var - 1.0) <= bound)


def test_evolve_pure_matches_unitary():
    space, ops = _three_mode_ops()
    pot = SystemPotential("harmonic", 1.3, 0.9)
    bath = BathParams((0.7, 2.1), (1.6, 0.5), (0.2, -0.1), -1)
    evo = diagonalize(space, chain_hamiltonian(ops, pot, bath))
    rng = np.random.default_rng(4)
    psi0 = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    psi0 /= np.linalg.norm(psi0)
    for t in (0.0, 0.9, 3.7):
        assert np.abs(evo.evolve_pure(psi0, t) - evo.unitary(t) @ psi0).max() < 1e-12


def test_oracle_trajectory_matches_classical_rotation():
    m, w, x0, p0 = 1.3, 0.7, 0.8, 0.5
    space = FockSpace(("S",), (48,), (m,), (w,))
    ops = build_operators(space)
    H = quadratic_hamiltonian_operator(ops, np.diag([m * w * w, 1.0 / m]))
    evo = diagonalize(space, H)
    psi0 = coherent_vector(48, m, w, x0, p0)
    for t in (0.5, 1.7, 4.2):
        psi = evo.evolve_pure(psi0, t)
        mean, _ = moments(psi, ops)
        c, s = np.cos(w * t), np.sin(w * t)
        assert mean[0] == pytest.approx(x0 * c + p0 / (m * w) * s, abs=1e-8)
        assert mean[1] == pytest.approx(p0 * c - m * w * x0 * s, abs=1e-8)


def test_evolution_preserves_trace_and_hermiticity():
    p = TwoModeParams(1.0, 1.0, 1.0, 0.25)
    space = FockSpace(("S", "E"), (10, 10), (1.0, 1.0), (1.0, 1.0))
    rho0, _ = thermal_density(space, 0.7)
    H = two_mode_hamiltonian(build_operators(space), p)
    rho, _ = evolve_exact(rho0, space, H, 1.3)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    rho_id, _ = evolve_exact(rho0, space, H, 0.0)
    assert np.abs(rho_id - rho0).max() < 1e-12


def test_leakage_decreases_with_cutoff_and_gates_trust():
    m = w = 1.0
    leaks = []
    for d in (6, 10, 16, 24):
        space = FockSpace(("S",), (d,), (m,), (w,))
        leaks.append(leakage(coherent_vector(d, m, w, 1.5), space))
    assert all(a > b for a, b in zip(leaks, leaks[1:]))
    assert leaks[-1] < 1e-6
    # a too-small cutoff flags the evolved state untrusted
    p = TwoModeParams(1.0, 1.0, 1.0, 0.25)
    space = FockSpace(("S", "E"), (4, 4), (1.0, 1.0), (1.0, 1.0))
    psi = product_pure_state(space, [coherent_vector(4, 1, 1, 1.5),
                                     coherent_vector(4, 1, 1, 0.0)])
    rho0 = np.outer(psi, psi.conj())
    _, trusted = evolve_exact(rho0, space, two_mode_hamiltonian(
        build_operators(space), p), 1.0)
    assert not trusted


def test_thermal_density_properties():
    space = FockSpace(("S", "E"), (20, 20), (1.0, 1.0), (1.0, 2.0))
    rho, tail = thermal_density(space, 1.0)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert tail < 1e-8
    cold, tail0 = thermal_density(space, 0.0)
    assert cold[0, 0] == pytest.approx(1.0)
    assert tail0 == 0.0
    pops = populations(rho, space)
    # occupation ratio follows the Gibbs weight per mode
    assert pops[1, 0] / pops[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-10)
    assert pops[0, 1] / pops[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-10)


def test_validate_density_rejections():
    good = np.diag([0.6, 0.4]).astype(complex)
    validate_density(good)
    bad_h = good.copy()
    bad_h[0, 1] = 0.5j
    with pytest.raises(OracleError, match="Hermitian"):
        validate_density(bad_h)
    with pytest.raises(OracleError, match="trace"):
        validate_density(2 * good)
    with pytest.raises(OracleError, match="negative"):
        validate_density(np.diag([1.5, -0.5]).astype(complex))


def test_reduced_density_vector_and_matrix_paths_agree():
    space = FockSpace(("S", "E"), (6, 5), (1.0, 1.0), (1.0, 1.0))
    rng = np.random.default_rng(3)
    psi = rng.normal(size=30) + 1j * rng.normal(size=30)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for keep in (0, 1):
        rv = reduced_density(psi, space, keep)
        rm = reduced_density(rho, space, keep)
        assert np.abs(rv - rm).max() < 1e-12
        assert abs(np.trace(rv).real - 1.0) < 1e-12
    # product states reduce to pure marginals
    prod = product_pure_state(space, [coherent_vector(6, 1, 1, 0.4),
                                      coherent_vector(5, 1, 1, -0.2)])
    rs = reduced_density(prod, space, 0)
    assert np.real(np.trace(rs @ rs)) == pytest.approx(1.0, abs=1e-12)


def test_hs_overlap_limits():
    e0 = np.zeros((4, 4), complex)
    e0[0, 0] = 1.0
    e1 = np.zeros((4, 4), complex)
    e1[1, 1] = 1.0
    assert hs_overlap(e0, e0) == pytest.approx(1.0)
    assert hs_overlap(e0, e1) == pytest.approx(0.0)


def test_projection_identity_transform():
    rng = np.random.default_rng(9)
    c = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    c /= np.linalg.norm(c)
    scales = [(1.0, 1.0), (2.0, 0.5)]
    out = project_to_transformed_basis(c, scales, scales, np.eye(2), 8)
    assert np.abs(out - c).max() < 1e-10
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


def test_pt_and_schmidt_negativities_agree():
    rng = np.random.default_rng(5)
    amp = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    en_pt = pt_log_negativity_pure(amp)
    en_sv = schmidt_log_negativity_pure(amp)
    assert en_pt == pytest.approx(en_sv, abs=1e-10)
    # product amplitude carries no entanglement
    prod = np.outer(coherent_vector(7, 1, 1, 0.3), coherent_vector(7, 1, 1, -0.1))
    assert abs(pt_log_negativity_pure(prod)) < 1e-12


def test_cm_relative_negativity_zero_for_symmetric_vacuum():
    space = FockSpace(("S", "E"), (10, 10), (1.0, 1.0), (1.0, 1.0))
    psi = product_pure_state(space, [coherent_vector(10, 1, 1, 0.0),
                                     coherent_vector(10, 1, 1, 0.0)])
    en, norm = cm_relative_log_negativity(psi, space, d_out=12, n_quad=90)
    assert norm == pytest.approx(1.0, abs=1e-8)
    assert abs(en) < 1e-8


def test_cm_relative_negativity_matches_gaussian():
    masses, freqs = (1.0, 2.0), (1.0, 2.0)   # distinct freqs: CM|R entangled
    space = FockSpace(("S", "E"), (10, 10), masses, freqs)
    psi = product_pure_state(space, [coherent_vector(10, masses[0], freqs[0], 0.0),
                                     coherent_vector(10, masses[1], freqs[1], 0.0)])
    en_o, norm = cm_relative_log_negativity(psi, space, d_out=14, n_quad=100)
    lay = layout("S", "E")
    vac = GaussianState(lay, np.zeros(4), vacuum_cov(masses, freqs))
    T = cm_relative_transform(masses, labels=("CM", "R1"), source=lay)
    en_g = log_negativity(transform_state(vac, T), ["CM"], ["R1"])
    assert norm == pytest.approx(1.0, abs=1e-6)
    assert en_o == pytest.approx(en_g, abs=1e-6)
    assert en_g > 0.01
    with pytest.raises(OracleError, match="two modes"):
        one = FockSpace(("S",), (4,), (1.0,), (1.0,))
        cm_relative_log_negativity(np.eye(4)[0].astype(complex), one)

import numpy as np
import pytest

from oscidec.decomposition import (LinearCoordinateTransform, TransformError,
                                   cm_relative_transform, many_mode_constants,
                                   normal_mode_transform,
                                   transform_hamiltonian, transform_state,
                                   two_mode_constants, verify_constants)
from oscidec.models import (BathParams, SystemPotential, TwoModeParams,
                            build_caldeira_leggett, build_two_mode)
from oscidec.phase_space import (GaussianState, PhaseSpaceLayout, layout,
                                 purity, thermal_state, vacuum_cov)


def test_cm_transform_equal_masses():
    T = cm_relative_transform(np.array([1.0, 1.0]))
    np.testing.assert_allclose(T.A, [[0.5, 0.5], [1.0, -1.0]])
    assert T.target.mode_labels == ("CM", "R1")


def test_cm_transform_inverse_first_column_is_ones():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6):
        masses = rng.uniform(0.2, 5.0, n)
        T = cm_relative_transform(masses)
        Ainv = np.linalg.inv(T.A)
        np.testing.assert_allclose(Ainv[:, 0], np.ones(n), atol=1e-12)


def test_cm_transform_diagonalizes_kinetic_energy():
    rng = np.random.default_rng(6)
    masses = rng.uniform(0.2, 5.0, 5)
    T = cm_relative_transform(masses)
    kin = np.diag(1.0 / masses)
    kin_new = T.A @ kin @ T.A.T       # p = A^T p', so p^T diag(1/m) p -> p'^T A (1/m) A^T p'
    off = kin_new - np.diag(np.diag(kin_new))
    assert np.abs(off).max() < 1e-14
    assert kin_new[0, 0] == pytest.approx(1.0 / masses.sum())


def test_transform_rejects_singular_matrix():
    lay = layout("A", "B")
    with pytest.raises(TransformError):
        LinearCoordinateTransform(lay, lay, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_transform_builds_its_symplectic_action_once():
    T = cm_relative_transform(np.array([1.0, 3.0]))
    assert T.S is T.S
    zero = np.zeros((2, 2))
    assert np.array_equal(T.S, np.block([[T.A, zero],
                                         [zero, np.linalg.inv(T.A).T]]))


def test_transform_hamiltonian_preserves_energy_scalar():
    p = TwoModeParams(1.2, 0.7, 1.4, 0.2)
    H = build_two_mode(p)
    T = cm_relative_transform(np.array([p.m_s, p.m_e]), source=H.layout)
    Hp = transform_hamiltonian(H, T)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.normal(size=4)
        zp = T.S @ z
        e = 0.5 * z @ H.h @ z
        ep = 0.5 * zp @ Hp.h @ zp
        assert ep == pytest.approx(e, rel=1e-12)


def test_transform_state_preserves_purity():
    lay = layout("S", "E")
    th = thermal_state(lay, [1.0, 2.0], [1.0, 0.5], 1.5)
    T = cm_relative_transform(np.array([1.0, 2.0]), source=lay)
    assert purity(transform_state(th, T)) == pytest.approx(purity(th), rel=1e-10)


def test_transform_layout_mismatch():
    lay = layout("S", "E")
    other = layout("A", "B")
    T = cm_relative_transform(np.array([1.0, 1.0]), source=lay)
    st = GaussianState(other, np.zeros(4), vacuum_cov([1, 1], [1, 1]))
    with pytest.raises(TransformError):
        transform_state(st, T)


def test_two_mode_constants_reference_point():
    k = two_mode_constants(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    assert k.c1 == pytest.approx(0.25)
    assert k.c2 == pytest.approx(0.1875)
    assert k.c3 == pytest.approx(0.5)
    assert k.mu == pytest.approx(0.5)
    assert k.positivity_ok


def test_two_mode_constants_positivity_flag():
    # coupling close to the bound leaves a barely confined CM direction
    k = two_mode_constants(TwoModeParams(1.0, 1.0, 1.0, 0.49))
    assert k.c1 == pytest.approx(0.01)
    assert k.positivity_ok
    # strongly negative coupling flips the relative-coordinate confinement
    k2 = two_mode_constants(TwoModeParams(1.0, 1.0, 1.0, -3.0))
    assert not k2.positivity_ok


def test_verify_constants_two_mode_residuals():
    p = TwoModeParams(0.8, 2.5, 1.1, -0.4)
    H = build_two_mode(p)
    T = cm_relative_transform(np.array([p.m_s, p.m_e]), source=H.layout)
    res = verify_constants(transform_hamiltonian(H, T), two_mode_constants(p))
    assert max(res.values()) < 1e-12


def test_many_mode_constants_sign_flip_changes_cm_frequency():
    bath = BathParams((1.0, 1.0), (1.0, 2.0), (0.3, 0.3))
    pot = SystemPotential("harmonic", 1.0, 1.0)
    k_plus = many_mode_constants(pot, BathParams(bath.masses, bath.freqs,
                                                 bath.couplings, 1))
    k_minus = many_mode_constants(pot, BathParams(bath.masses, bath.freqs,
                                                  bath.couplings, -1))
    # MOmega^2 = 2(sum(s kappa + m w^2/2) + spring/2) moves with the sign
    assert k_plus.m_omega_cm_sq - k_minus.m_omega_cm_sq == pytest.approx(
        4 * sum(bath.couplings))


def test_many_mode_reduced_masses():
    masses = np.array([1.0, 2.0, 3.0])
    bath = BathParams((2.0, 3.0), (1.0, 1.0), (0.0, 0.0))
    k = many_mode_constants(SystemPotential("free", 1.0), bath)
    cum = np.cumsum(masses)
    np.testing.assert_allclose(k.mu_alpha, cum[:-1] * masses[1:] / cum[1:])
    assert k.total_mass == pytest.approx(6.0)


def test_normal_mode_transform_sorts_frequencies():
    bath = BathParams((1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (0.05, 0.05, 0.05), -1)
    H = build_caldeira_leggett(SystemPotential("harmonic", 1.0, 1.0), bath)
    masses = np.concatenate([[1.0], bath.masses])
    T1 = cm_relative_transform(masses, source=H.layout)
    H1 = transform_hamiltonian(H, T1)
    T2, H2 = normal_mode_transform(H1, H1.layout.mode_labels[1:])
    n = H2.layout.n_modes
    w2 = np.diag(H2.h)[1:n]
    assert np.all(np.diff(w2) > 0)
    np.testing.assert_allclose(np.diag(H2.h)[n + 1:], 1.0, atol=1e-12)


def test_normal_mode_transform_deterministic_signs():
    bath = BathParams((1.0, 1.5), (0.9, 1.7), (0.1, 0.2), -1)
    H = build_caldeira_leggett(SystemPotential("free", 1.0), bath)
    masses = np.concatenate([[1.0], bath.masses])
    H1 = transform_hamiltonian(H, cm_relative_transform(masses, source=H.layout))
    T_a, _ = normal_mode_transform(H1, H1.layout.mode_labels[1:])
    T_b, _ = normal_mode_transform(H1, H1.layout.mode_labels[1:])
    np.testing.assert_array_equal(T_a.A, T_b.A)


def test_normal_mode_transform_rejects_indefinite_environment():
    # env potential block with a negative eigenvalue must be refused, named
    lay = layout("S", "E1", "E2")
    h = np.zeros((6, 6))
    h[0, 0] = 1.0
    h[1, 1], h[2, 2] = 1.0, -0.5
    h[3:, 3:] = np.eye(3)
    H = __import__("oscidec").QuadraticHamiltonian(lay, h)
    with pytest.raises(TransformError, match="eigenvalue"):
        normal_mode_transform(H, ("E1", "E2"))


def test_normal_mode_transform_requires_env_modes():
    p = TwoModeParams(1.0, 1.0, 1.0, 0.1)
    H = build_two_mode(p)
    with pytest.raises(TransformError):
        normal_mode_transform(H, ())

import numpy as np
import pytest

from oscidec.phase_space import (CoherentAmplitude, GaussianState,
                                 PhaseSpaceError, PhaseSpaceLayout,
                                 QuadraticHamiltonian, TrustGateError,
                                 coherent_state, layout,
                                 log_negativity, log_purity, product_state,
                                 purity, reduce_state, symplectic_form,
                                 thermal_occupation, thermal_state,
                                 vacuum_cov)
from oscidec.phase_space import _log_purity_of_cov, _uncertainty_min_eig


def test_layout_basics():
    lay = layout("S", "E1", "E2")
    assert lay.n_modes == 3 and lay.dim == 6
    assert lay.index("E2") == 2
    np.testing.assert_array_equal(lay.z_indices(("E1",)), [1, 4])


def test_layout_rejects_duplicates_and_empty():
    with pytest.raises(PhaseSpaceError):
        PhaseSpaceLayout(("A", "A"))
    with pytest.raises(PhaseSpaceError):
        PhaseSpaceLayout(())
    with pytest.raises(PhaseSpaceError):
        layout("S").index("missing")


def test_symplectic_form_squares_to_minus_identity():
    J = symplectic_form(3)
    np.testing.assert_array_equal(J @ J, -np.eye(6))


def test_hamiltonian_rejects_asymmetric_and_bad_momentum_block():
    lay = layout("S")
    h = np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(PhaseSpaceError):
        QuadraticHamiltonian(lay, h)
    h_bad = np.diag([1.0, -1.0])
    with pytest.raises(PhaseSpaceError):
        QuadraticHamiltonian(lay, h_bad)


@pytest.mark.parametrize("entry", [(0, 2), (0, 3), (3, 0)])
def test_hamiltonian_refuses_position_momentum_coupling(entry):
    # evolution assumes h = blockdiag(V, T); one x-p entry, in either
    # off-diagonal block and however small, is refused by name (a lone
    # 1e-300 passes the symmetry check and survives symmetrisation)
    h = np.diag([1.0, 2.0, 1.0, 1.0])
    h[entry] = 1e-300
    with pytest.raises(PhaseSpaceError, match="position-momentum coupling"):
        QuadraticHamiltonian(layout("S", "E"), h)
    h[entry] = 0.0
    QuadraticHamiltonian(layout("S", "E"), h)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_hamiltonian_rejects_non_finite_entries(bad):
    # an infinite coupling passes the symmetry check, since inf - inf is NaN
    h = np.diag([1.0, 1.0, 1.0, 1.0])
    h[0, 1] = h[1, 0] = bad
    with pytest.raises(PhaseSpaceError, match="finite"):
        QuadraticHamiltonian(layout("S", "E"), h)


def test_state_rejects_uncertainty_violation():
    lay = layout("S")
    with pytest.raises(PhaseSpaceError):
        GaussianState(lay, np.zeros(2), 0.1 * np.eye(2))  # below vacuum


@pytest.mark.parametrize("where", ["mean", "off-diagonal", "diagonal"])
def test_state_rejects_non_finite_input(where):
    # without the check a NaN mean passes, and a NaN covariance entry makes
    # eigvalsh raise LinAlgError or return finite eigenvalues
    lay = layout("S", "E")
    mean, cov = np.zeros(4), np.eye(4) / 2
    if where == "mean":
        mean[0] = np.nan
    elif where == "off-diagonal":
        cov[0, 1] = cov[1, 0] = np.nan
    else:
        cov[2, 2] = np.nan
    with pytest.raises(PhaseSpaceError, match="finite"):
        GaussianState(lay, mean, cov)


def test_vacuum_is_pure_and_thermal_is_mixed():
    lay = layout("S", "E")
    vac = GaussianState(lay, np.zeros(4), vacuum_cov([1.0, 2.0], [1.0, 0.5]))
    assert purity(vac) == pytest.approx(1.0, abs=1e-12)
    th = thermal_state(lay, [1.0, 2.0], [1.0, 0.5], 2.0)
    assert purity(th) < 1.0
    assert log_purity(th) == pytest.approx(np.log(purity(th)), rel=1e-12)


def test_log_purity_refuses_a_degenerate_covariance():
    flat = np.diag([0.5, 0.0])
    with pytest.raises(PhaseSpaceError, match="degenerate covariance") as exc:
        log_purity(GaussianState._prechecked(layout("S"), np.zeros(2), flat))
    # det(2 sigma) < 1 is the uncertainty relation failing: a trust refusal
    assert isinstance(exc.value, TrustGateError)
    assert exc.value.gate == "uncertainty relation"
    # a stack is refused if any member is degenerate
    stack = np.stack([vacuum_cov([1.0], [2.0]), flat])
    with pytest.raises(PhaseSpaceError, match="degenerate covariance"):
        _log_purity_of_cov(stack)
    assert _log_purity_of_cov(stack[:1]) == pytest.approx([0.0], abs=1e-15)


def test_product_of_checked_states_needs_no_eigendecomposition(monkeypatch):
    env = thermal_state(layout("E", "F"), [2.0, 0.5], [1.5, 0.7], 1.2)
    open_state = GaussianState(layout("S"), np.array([0.3, -0.2]),
                               np.array([[0.3, 0.1], [0.1, 1.0]]))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw:
                        calls.append(a.shape) or eigvalsh(a, *args, **kw))
    prod = product_state(layout("E", "S", "F"), "S", open_state, env)
    # the product's deficit is the larger of the deficits its parts kept
    assert prod._deficit == max(open_state._deficit, env._deficit)
    assert calls == []
    monkeypatch.undo()
    checked = GaussianState(prod.layout, prod.mean, prod.cov)
    assert np.array_equal(checked.cov, prod.cov)
    # sigma + iJ/2 of the product is block diagonal in the parts' matrices
    assert _uncertainty_min_eig(prod.cov) == pytest.approx(
        min(_uncertainty_min_eig(open_state.cov),
            _uncertainty_min_eig(env.cov)), abs=1e-14)
    assert checked._deficit == pytest.approx(prod._deficit, abs=1e-14)


def test_product_state_env_must_cover_the_non_open_modes():
    open_state = coherent_state(layout("S"), [1.0], [1.0])
    bad_env = thermal_state(layout("X"), [1.0], [1.0], 0.0)
    with pytest.raises(PhaseSpaceError, match="non-open modes"):
        product_state(layout("S", "E"), "S", open_state, bad_env)


def test_deficit_is_read_once_per_state(monkeypatch):
    # validation keeps max(0, -lambda_min(sigma + iJ/2)); a state built
    # without validation computes it on first read, once
    bad = np.eye(2) / 2 - 1e-11 * np.eye(2)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw:
                        calls.append(a.shape) or eigvalsh(a, *args, **kw))
    st = GaussianState(layout("S"), np.zeros(2), bad)
    assert len(calls) == 1
    assert st._deficit == pytest.approx(1e-11, rel=1e-4)
    assert len(calls) == 1
    pre = GaussianState._prechecked(layout("S"), np.zeros(2), bad)
    assert [pre._deficit, pre._deficit] == [st._deficit] * 2
    assert len(calls) == 2
    assert GaussianState(layout("S"), np.zeros(2), np.eye(2))._deficit == 0.0


@pytest.mark.parametrize("temperature", [-5.0, np.nan])
def test_thermal_state_refuses_negative_temperature(temperature):
    with pytest.raises(PhaseSpaceError, match="temperature"):
        thermal_state(layout("S"), [1.0], [1.0], temperature)


def test_thermal_occupation_limits():
    assert thermal_occupation(1.0, 0.0) == 0.0
    assert thermal_occupation(1.0, 1e-8) == pytest.approx(0.0, abs=1e-12)
    # high-T classical limit nbar -> T/w
    assert thermal_occupation(0.5, 50.0) == pytest.approx(100.0, rel=1e-2)


def test_coherent_state_mean_and_cov():
    lay = layout("S", "E")
    st = coherent_state(lay, [1.0, 4.0], [1.0, 0.25],
                        [CoherentAmplitude("E", 1.5, -0.5)])
    np.testing.assert_allclose(st.mean, [0.0, 1.5, 0.0, -0.5])
    np.testing.assert_allclose(np.diag(st.cov), [0.5, 0.5, 0.5, 0.5])


def test_reduce_state_marginal():
    lay = layout("S", "E")
    th = thermal_state(lay, [1.0, 1.0], [1.0, 2.0], 1.0)
    red = reduce_state(th, ("E",))
    assert red.layout.mode_labels == ("E",)
    k = lay.index("E")
    assert red.cov[0, 0] == th.cov[k, k]
    with pytest.raises(PhaseSpaceError):
        reduce_state(th, ())
    # a correlated state reduced to reordered modes: the exact principal
    # submatrix and sub-vector, in the requested order
    lay3 = layout("S", "E1", "E2")
    rng = np.random.default_rng(5)
    S = np.linalg.qr(rng.normal(size=(3, 3)))[0]       # orthogonal: symplectic
    Sz = np.zeros((6, 6))
    Sz[:3, :3] = Sz[3:, 3:] = S
    st = GaussianState(lay3, rng.normal(size=6),
                       Sz @ vacuum_cov([1, 2, 3], [1, 0.5, 2]) @ Sz.T)
    red = reduce_state(st, ("E2", "S"))
    idx = np.array([2, 0, 5, 3])
    assert red.layout.mode_labels == ("E2", "S")
    assert np.array_equal(red.mean, st.mean[idx])
    assert np.array_equal(red.cov, st.cov[np.ix_(idx, idx)])


def test_log_negativity_zero_for_product_positive_for_entangled():
    lay = layout("A", "B")
    vac = GaussianState(lay, np.zeros(4), vacuum_cov([1, 1], [1, 1]))
    assert log_negativity(vac, ("A",), ("B",)) == pytest.approx(0.0, abs=1e-10)
    # two-mode squeezed covariance: entangled for r > 0
    r = 0.8
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    cov = 0.5 * np.array([[c, s, 0, 0], [s, c, 0, 0],
                          [0, 0, c, -s], [0, 0, -s, c]])
    tms = GaussianState(lay, np.zeros(4), cov)
    assert log_negativity(tms, ("A",), ("B",)) == pytest.approx(2 * r, rel=1e-10)
    with pytest.raises(PhaseSpaceError):
        log_negativity(vac, ("A",), ("A",))

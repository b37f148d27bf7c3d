import math

import numpy as np
import pytest

from oscidec.decomposition import cm_relative_transform
from oscidec.fock import FockSpace
from oscidec.master import MasterEqScenario
from oscidec.phase_space import layout, thermal_state, vacuum_cov
from oscidec.models import (BathParams, ModelError, SystemPotential,
                            TwoModeParams, build_caldeira_leggett,
                            build_two_mode, discretize_ohmic_bath)

NAN = float("nan")


def test_two_mode_params_constraint():
    TwoModeParams(1.0, 1.0, 1.0, 0.49)  # just inside
    with pytest.raises(ModelError, match="C < m_E omega\\^2/2"):
        TwoModeParams(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ModelError):
        TwoModeParams(-1.0, 1.0, 1.0, 0.1)
    with pytest.raises(ModelError):
        TwoModeParams(1.0, 1.0, 0.0, 0.1)


@pytest.mark.parametrize("make, name", [
    (lambda: SystemPotential("harmonic", NAN, 1.0), "m_s"),
    (lambda: SystemPotential("harmonic", 1.0, NAN), "omega_s"),
    (lambda: TwoModeParams(NAN, 1.0, 1.0, 0.1), "m_s"),
    (lambda: TwoModeParams(1.0, NAN, 1.0, 0.1), "m_e"),
    (lambda: TwoModeParams(1.0, 1.0, NAN, 0.1), "omega"),
    (lambda: TwoModeParams(1.0, 1.0, 1.0, NAN), "coupling"),
    (lambda: BathParams((NAN,), (1.0,), (0.1,)), "masses"),
    (lambda: BathParams((1.0,), (NAN,), (0.1,)), "frequencies"),
    (lambda: BathParams((1.0,), (1.0,), (NAN,)), "couplings"),
    (lambda: discretize_ohmic_bath(4, NAN, 0.1), "cutoff"),
    (lambda: discretize_ohmic_bath(4, 5.0, NAN), "eta"),
    (lambda: MasterEqScenario("none", NAN, 8), "lam"),
    (lambda: MasterEqScenario("none", 0.1, 8, mass=NAN), "mass"),
    (lambda: MasterEqScenario("none", 0.1, 8, basis_freq=NAN), "basis_freq"),
    (lambda: MasterEqScenario("harmonic", 0.1, 8, omega=NAN), "omega"),
    (lambda: FockSpace(("S",), (4,), (NAN,), (1.0,)), "masses"),
    (lambda: vacuum_cov([NAN], [1.0]), "masses"),
    (lambda: thermal_state(layout("S"), [NAN], [1.0], 1.0), "masses"),
    (lambda: cm_relative_transform([1.0, NAN]), "masses"),
    (lambda: TwoModeParams(1.0, 1.0, 1.0, -math.inf), "coupling")],
    ids=["potential-m_s", "potential-omega_s", "two_mode-m_s", "two_mode-m_e",
         "two_mode-omega", "two_mode-coupling", "bath-masses", "bath-freqs",
         "bath-couplings", "ohmic-cutoff", "ohmic-eta", "master-lam",
         "master-mass", "master-basis_freq", "master-omega", "fock-masses",
         "vacuum_cov-masses", "thermal_state-masses", "cm_relative-masses",
         "two_mode-coupling-inf"])
def test_nan_parameters_are_refused_by_name(make, name):
    with pytest.raises(ValueError, match=name):
        make()


def test_build_two_mode_matrix():
    H = build_two_mode(TwoModeParams(2.0, 3.0, 1.5, 0.4))
    assert H.layout.mode_labels == ("S", "E")
    assert H.h[0, 0] == 0.0                       # free open mode
    assert H.h[1, 1] == pytest.approx(3.0 * 1.5 ** 2)
    assert H.h[0, 1] == pytest.approx(-0.4)       # -C x_S x_E
    assert H.h[2, 2] == pytest.approx(1 / 2.0)
    assert H.h[3, 3] == pytest.approx(1 / 3.0)


def test_system_potential_variants():
    assert SystemPotential("free", 2.0).spring == 0.0
    assert SystemPotential("harmonic", 2.0, 3.0).spring == pytest.approx(18.0)
    with pytest.raises(ModelError):
        SystemPotential("quartic", 1.0, 1.0)
    with pytest.raises(ModelError):
        SystemPotential("harmonic", 1.0, 0.0)


def test_bath_params_validation():
    with pytest.raises(ModelError):
        BathParams((), (), ())
    with pytest.raises(ModelError):
        BathParams((1.0,), (1.0, 2.0), (0.1,))
    with pytest.raises(ModelError):
        BathParams((1.0,), (-1.0,), (0.1,))
    with pytest.raises(ModelError):
        BathParams((1.0,), (1.0,), (0.1,), coupling_sign=2)


def test_build_caldeira_leggett_sign_threading():
    bath = BathParams((1.0, 2.0), (1.0, 0.5), (0.3, 0.4), coupling_sign=-1)
    H = build_caldeira_leggett(SystemPotential("harmonic", 1.0, 2.0), bath)
    assert H.layout.mode_labels == ("S", "E1", "E2")
    assert H.h[0, 0] == pytest.approx(4.0)        # m_S omega_S^2
    assert H.h[0, 1] == pytest.approx(-0.3)
    assert H.h[0, 2] == pytest.approx(-0.4)
    assert H.h[4, 4] == pytest.approx(1.0)
    assert H.h[5, 5] == pytest.approx(0.5)


def test_ohmic_discretization_single_mode():
    b = discretize_ohmic_bath(1, 1.0, 0.1)
    assert b.freqs[0] == pytest.approx(1.0)
    assert b.couplings[0] == pytest.approx(np.sqrt(0.2))


def test_ohmic_reorganization_sum_exact():
    # sum kappa^2 / (2 m w^2) telescopes to eta * omega_c for any N
    for n in (4, 32, 128):
        b = discretize_ohmic_bath(n, 5.0, 0.1)
        k2 = np.asarray(b.couplings) ** 2
        total = np.sum(k2 / (2 * np.asarray(b.masses) * np.asarray(b.freqs) ** 2))
        assert total == pytest.approx(0.1 * 5.0, rel=1e-12)


def test_ohmic_spectral_weight_converges():
    # sum kappa^2 / (2 m w) is the Riemann sum of eta w dw -> eta w_c^2 / 2
    target = 0.1 * 25.0 / 2
    errs = []
    for n in (16, 64, 256):
        b = discretize_ohmic_bath(n, 5.0, 0.1)
        k2 = np.asarray(b.couplings) ** 2
        total = np.sum(k2 / (2 * np.asarray(b.masses) * np.asarray(b.freqs)))
        errs.append(abs(total - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.005


def test_ohmic_validation():
    with pytest.raises(ModelError):
        discretize_ohmic_bath(0, 5.0, 0.1)
    with pytest.raises(ModelError):
        discretize_ohmic_bath(4, -1.0, 0.1)
    with pytest.raises(ModelError):
        discretize_ohmic_bath(4, 5.0, -0.1)

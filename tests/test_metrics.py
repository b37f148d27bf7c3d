"""Decoherence metrics: Gamma, Lambda fits, tau, and the parallel pipelines."""
import numpy as np
import pytest

from oscidec import (BathParams, CoherentAmplitude, MetricsError,
                     PhaseSpaceLayout, SystemPotential, TwoModeParams,
                     amplitude_distance_sq, build_caldeira_leggett,
                     build_report, build_two_mode, coherent_state,
                     decoherence_function, decoherence_time,
                     discretize_ohmic_bath, evolve_branches_from, fit_lambda,
                     layout, model_fingerprint, open_mode_base,
                     parallel_compare, product_state, thermal_state)
from oscidec.metrics import _ratio_summary, saturation_flags


def _two_mode_branches(coupling: float, x0: float, t_grid):
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, coupling))
    base = open_mode_base(H, [1.0, 1.0], [1.0, 1.0], 0.0)
    a = CoherentAmplitude("S", x0)
    b = CoherentAmplitude("S", -x0)
    return evolve_branches_from(base, a, b, H, t_grid), H


def test_open_mode_base_is_the_product_state():
    # the two-mode model, and configs/chain_compare.cfg
    pot = SystemPotential("harmonic", 1.0, 1.0)
    b = discretize_ohmic_bath(32, 5.0, 0.1)
    bath = BathParams(b.masses, b.freqs, b.couplings, -1)
    cases = [(build_two_mode(TwoModeParams(1.0, 2.0, 1.5, 0.1)),
              [1.0, 2.0], [3.0, 1.5], 0.0),
             (build_caldeira_leggett(pot, bath), [pot.m_s, *bath.masses],
              [pot.omega_s, *bath.freqs], 10.0)]
    for H, masses, freqs, temp in cases:
        base = open_mode_base(H, masses, freqs, temp)
        env = thermal_state(PhaseSpaceLayout(H.layout.mode_labels[1:]),
                            masses[1:], freqs[1:], temp)
        want = product_state(H.layout, "S",
                             coherent_state(layout("S"), masses[:1],
                                            freqs[:1]), env)
        assert base.layout == want.layout
        for field in ("mean", "cov", "_deficit"):
            assert np.array_equal(getattr(base, field), getattr(want, field))
    # the two-mode open mode is the vacuum at (1, 3): 1/(2 m w) and m w / 2
    two_mode = open_mode_base(*cases[0])
    assert two_mode.cov[np.ix_([0, 2], [0, 2])].tolist() == [[1 / 6, 0.0],
                                                            [0.0, 1.5]]


def test_gamma_zero_without_coupling():
    branches, _ = _two_mode_branches(0.0, 1.0, np.linspace(0.0, 3.0, 7))
    gamma = decoherence_function(branches)
    assert np.array_equal(gamma, np.zeros(7))


def test_gamma_nonpositive_and_zero_at_t0():
    branches, _ = _two_mode_branches(0.3, 1.0, np.linspace(0.0, 3.0, 13))
    gamma = decoherence_function(branches)
    assert gamma[0] == 0.0
    assert np.all(gamma <= 0.0)
    assert gamma.min() < -1e-3


def test_gamma_scales_exactly_with_squared_separation():
    t_grid = np.linspace(0.0, 2.0, 9)
    b1, _ = _two_mode_branches(0.3, 0.4, t_grid)
    b2, _ = _two_mode_branches(0.3, 0.8, t_grid)
    g1 = decoherence_function(b1)
    g2 = decoherence_function(b2)
    assert np.array_equal(g2, 4.0 * g1)


def test_amplitude_distance_sq():
    a = CoherentAmplitude("S", 1.0, 0.5)
    b = CoherentAmplitude("S", -1.0, 0.0)
    # m w dx^2 + dp^2 / (m w) at m=2, w=0.5
    assert amplitude_distance_sq(a, b, (2.0, 0.5)) == pytest.approx(4.0 + 0.25)


def test_fit_lambda_scaling_and_degenerate_pair():
    gamma = np.array([0.0, -0.5, -2.0])
    a = CoherentAmplitude("S", 1.0)
    b = CoherentAmplitude("S", -1.0)
    lam = fit_lambda(gamma, a, b, (1.0, 1.0))   # d^2 = 4
    assert lam == pytest.approx([0.0, 0.25, 1.0])
    with pytest.raises(MetricsError, match="undefined"):
        fit_lambda(gamma, a, a, (1.0, 1.0))


def test_decoherence_time_interpolation():
    t = [0.0, 1.0, 2.0]
    assert decoherence_time(t, np.array([0.0, -0.5, -2.0])) == pytest.approx(4.0 / 3.0)
    assert decoherence_time(t, np.array([0.0, -1.0, -3.0])) == pytest.approx(1.0)
    assert decoherence_time(t, np.array([0.0, -0.2, -0.9])) is None
    # flat segment at the threshold resolves to the right endpoint
    assert decoherence_time(t, np.array([-1.5, -1.5, -1.5])) == 1.0


def test_saturation_flags_mark_clamped_entries():
    floor = float(np.log(1e-300))
    flags = saturation_flags(np.array([0.0, -5.0, floor]))
    assert flags.tolist() == [False, False, True]


def test_build_report_identical_amplitudes():
    t_grid = np.linspace(0.0, 1.0, 5)
    H = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.3))
    base = open_mode_base(H, [1.0, 1.0], [1.0, 1.0], 0.0)
    a = CoherentAmplitude("S", 0.6)
    branches = evolve_branches_from(base, a, a, H, t_grid)
    rep = build_report("S+E", branches, (1.0, 1.0), H)
    assert np.array_equal(rep.lambda_fit, np.zeros(5))
    assert rep.tau_dec is None
    assert not rep.saturated.any()
    assert rep.fingerprint == model_fingerprint(H)


def test_model_fingerprint_format_and_sensitivity():
    h1 = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.2))
    h2 = build_two_mode(TwoModeParams(1.0, 1.0, 1.0, 0.25))
    f1, f2 = model_fingerprint(h1), model_fingerprint(h2)
    assert f1.startswith("two_mode/2m/") and len(f1.split("/")[-1]) == 12
    assert f1 != f2
    assert model_fingerprint(h1) == f1


def test_ratio_summary_classification():
    assert _ratio_summary(None, 1.0) == (None, "undefined")
    assert _ratio_summary(1.0, None) == (None, "undefined")
    assert _ratio_summary(1.0, 0.0) == (None, "undefined")
    r, flag = _ratio_summary(1.0, 0.5)
    assert r == pytest.approx(2.0) and flag == "within"
    assert _ratio_summary(21.0, 1.0)[1] == "outside"
    assert _ratio_summary(0.05, 1.0)[1] == "outside"


def _small_comparison():
    pot = SystemPotential("harmonic", 1.0, 1.0)
    bath = discretize_ohmic_bath(4, 3.0, 0.05)
    bath = BathParams(bath.masses, bath.freqs, bath.couplings, -1)
    pair_s = (CoherentAmplitude("S", 0.8), CoherentAmplitude("S", -0.8))
    pair_cm = (CoherentAmplitude("CM", 0.2), CoherentAmplitude("CM", -0.2))
    return parallel_compare(pot, bath, pair_s, pair_cm, 2.0,
                            np.linspace(0.0, 2.0, 21))


def test_parallel_compare_small_chain():
    cmp = _small_comparison()
    assert cmp.report_s.decomposition == "S+E"
    assert cmp.report_cm.decomposition == "CM+R"
    assert cmp.report_s.gamma[0] == 0.0 and cmp.report_cm.gamma[0] == 0.0
    assert np.all(cmp.report_s.gamma <= 0.0)
    assert np.all(cmp.report_cm.gamma <= 0.0)
    assert cmp.frame_residual < 1e-9
    assert cmp.positivity_ok
    assert cmp.ratio_flag in ("within", "outside", "undefined")
    if cmp.tau_ratio is not None:
        assert cmp.tau_ratio == pytest.approx(
            cmp.report_s.tau_dec / cmp.report_cm.tau_dec)


def test_parallel_compare_positivity_gate():
    pot = SystemPotential("harmonic", 1.0, 1.0)
    bath = BathParams((1.0,), (1.0,), (2.0,), -1)   # kappa too strong: MW^2 < 0
    pair_s = (CoherentAmplitude("S", 0.5), CoherentAmplitude("S", -0.5))
    pair_cm = (CoherentAmplitude("CM", 0.5), CoherentAmplitude("CM", -0.5))
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(MetricsError, match="positivity"):
        parallel_compare(pot, bath, pair_s, pair_cm, 0.0, grid)
    cmp = parallel_compare(pot, bath, pair_s, pair_cm, 0.0, grid,
                           allow_positivity_violation=True)
    assert not cmp.positivity_ok

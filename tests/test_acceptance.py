"""Acceptance gate: ten numbered criteria, one summary line each.

Every test records its verdict in RESULTS (printed by the conftest terminal
summary) before asserting, so the per-criterion line appears even on failure.
"""
from __future__ import annotations

import numpy as np

from oscidec import (BathParams, CoherentAmplitude, GaussianState,
                     MasterEqScenario, PhaseSpaceLayout, SystemPotential,
                     TwoModeParams, build_caldeira_leggett, build_report,
                     build_two_mode, cm_relative_log_negativity,
                     cm_relative_transform, coherence_profile, coherent_state,
                     discretize_ohmic_bath, energy, evolve_branches,
                     evolve_branches_from, evolve_grid, evolve_master,
                     gaussian_crosscheck, log_negativity,
                     log_purity, many_mode_constants, normal_mode_transform,
                     parallel_compare, position_kernel,
                     symplectic_residual, thermal_state, transform_hamiltonian,
                     transform_state, two_mode_constants, vacuum_cov,
                     verify_constants)
from oscidec.fock import FockSpace, coherent_vector, product_pure_state

RESULTS: list[str] = []


def _record(num: int, ok: bool, label: str, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    RESULTS.append(f"criterion {num:>2} {verdict}  {label}: {detail}")
    assert ok, f"criterion {num} failed - {label}: {detail}"


def _random_two_mode(rng: np.random.Generator) -> TwoModeParams:
    m_s = rng.uniform(0.2, 5.0)
    m_e = rng.uniform(0.2, 5.0)
    omega = rng.uniform(0.2, 3.0)
    c = rng.uniform(-0.95, 0.95) * (m_e * omega ** 2 / 2)
    return TwoModeParams(m_s, m_e, omega, c)


def _random_chain(rng: np.random.Generator, n_env: int,
                  variant: str) -> tuple[SystemPotential, BathParams]:
    pot = SystemPotential(variant, rng.uniform(0.2, 5.0),
                          rng.uniform(0.2, 3.0) if variant == "harmonic" else 0.0)
    bath = BathParams(tuple(rng.uniform(0.2, 5.0, n_env)),
                      tuple(rng.uniform(0.2, 3.0, n_env)),
                      tuple(rng.uniform(-1.0, 1.0, n_env)),
                      int(rng.choice([-1, 1])))
    return pot, bath


def _reference_scenario() -> tuple[SystemPotential, BathParams]:
    b = discretize_ohmic_bath(32, 5.0, 0.1)
    bath = BathParams(b.masses, b.freqs, b.couplings, -1)
    return SystemPotential("harmonic", 1.0, 1.0), bath


def test_c01_two_mode_constant_agreement():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        p = _random_two_mode(rng)
        H = build_two_mode(p)
        T = cm_relative_transform(np.array([p.m_s, p.m_e]), source=H.layout)
        res = verify_constants(transform_hamiltonian(H, T),
                               two_mode_constants(p))
        worst = max(worst, res["c1"], res["c2"], res["c3"])
    _record(1, worst < 1e-10, "two-mode transformed constants",
            f"max residual {worst:.3e} over 100 random draws (tol 1e-10)")


def test_c02_chain_constant_agreement():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n_env in (2, 3, 5):
        for k in range(20):
            variant = "free" if k % 2 == 0 else "harmonic"
            pot, bath = _random_chain(rng, n_env, variant)
            H = build_caldeira_leggett(pot, bath)
            masses = np.concatenate([[pot.m_s], bath.masses])
            T = cm_relative_transform(masses, source=H.layout)
            K = many_mode_constants(pot, bath)
            res = verify_constants(transform_hamiltonian(H, T), K)
            worst = max(worst, max(res.values()))
            # sub-constants against direct sums over the inverse transform
            Ainv = np.linalg.inv(T.A)
            s, ki = bath.coupling_sign, np.asarray(bath.couplings)
            mi, wi = np.asarray(bath.masses), np.asarray(bath.freqs)
            for a in range(n_env):
                om_a = sum(ki[i] * Ainv[i + 1, a + 1] for i in range(n_env))
                worst = max(worst, abs(om_a - K.omega_alpha[a]))
                for b in range(a + 1, n_env):
                    om_ab = 0.5 * sum(mi[i] * wi[i] ** 2
                                      * Ainv[i + 1, a + 1] * Ainv[i + 1, b + 1]
                                      for i in range(n_env))
                    worst = max(worst, abs(om_ab - K.omega_cross[a, b]))
    _record(2, worst < 1e-9, "chain transformed constants",
            f"max residual {worst:.3e} over 60 random draws, both potential "
            f"cases, N in (2,3,5) (tol 1e-9)")


def _pass_propagators(H, times):
    """M(t) at `times`, kept as probe propagators by the stepped branch pass
    that compare runs, here from the vacuum I/2."""
    dim = 2 * H.n_modes
    base = GaussianState(H.layout, np.zeros(dim), np.eye(dim) / 2)
    mode = H.layout.mode_labels[0]
    traj = evolve_branches_from(base, CoherentAmplitude(mode, 1.0),
                                CoherentAmplitude(mode, -1.0), H, times, times)
    return traj.propagators.values()


def test_c03_symplectic_validity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        masses = rng.uniform(0.2, 5.0, n)
        T = cm_relative_transform(masses)
        worst = max(worst, symplectic_residual(T.S))
    for n_env in (2, 4, 8):
        pot, bath = _random_chain(rng, n_env, "harmonic")
        H = build_caldeira_leggett(pot, bath)
        masses = np.concatenate([[pot.m_s], bath.masses])
        T1 = cm_relative_transform(masses, source=H.layout)
        H1 = transform_hamiltonian(H, T1)
        try:
            T2, H2 = normal_mode_transform(H1, H1.layout.mode_labels[1:])
        except Exception:
            continue  # indefinite random draw: transform refused, nothing to score
        worst = max(worst, symplectic_residual(T2.S))
        for M in [*_pass_propagators(H, (0.3, 1.7)),
                  *_pass_propagators(H2, (0.3, 1.7))]:
            worst = max(worst, symplectic_residual(M))
    p = TwoModeParams(1.0, 1.0, 1.0, 0.25)
    for M in _pass_propagators(build_two_mode(p), (0.5, 2.0, 5.0)):
        worst = max(worst, symplectic_residual(M))
    _record(3, worst < 1e-9, "symplectic validity",
            f"max |S^T J S - J| {worst:.3e} over transforms and propagators "
            f"(tol 1e-9)")


def test_c04_environment_linearization():
    rng = np.random.default_rng(4)
    worst = 0.0
    for n_env in (2, 4, 8):
        for variant in ("free", "harmonic"):
            pot, bath = _random_chain(rng, n_env, variant)
            # keep couplings weak so random draws stay dynamically confined
            bath = BathParams(bath.masses, bath.freqs,
                              tuple(0.1 * k for k in bath.couplings),
                              bath.coupling_sign)
            H = build_caldeira_leggett(pot, bath)
            masses = np.concatenate([[pot.m_s], bath.masses])
            T1 = cm_relative_transform(masses, source=H.layout)
            H1 = transform_hamiltonian(H, T1)
            _, H2 = normal_mode_transform(H1, H1.layout.mode_labels[1:])
            n = H2.layout.n_modes
            xx = H2.h[1:n, 1:n].copy()
            np.fill_diagonal(xx, 0.0)
            pp = H2.h[n + 1:, n + 1:].copy()
            np.fill_diagonal(pp, 0.0)
            open_p = np.abs(H2.h[n, n + 1:]).max()
            worst = max(worst, np.abs(xx).max(), np.abs(pp).max(), open_p)
    _record(4, worst < 1e-10, "environment linearization",
            f"max residual cross coupling {worst:.3e} after normal modes; "
            f"open mode couples only through positions (tol 1e-10)")


def test_c05_oracle_equivalence():
    p = TwoModeParams(1.0, 1.0, 1.0, 0.25)
    rep = gaussian_crosscheck(p, 0.4, np.linspace(0.0, 5.0, 26),
                              dims=(24, 24), negativity_time=1.0)
    n_trusted = sum(r.trusted for r in rep.rows)
    ok = (n_trusted >= 5 and rep.trusted_horizon >= 1.0
          and rep.max_dev_mean < 1e-6 and rep.max_dev_cov < 1e-5
          and rep.max_dev_overlap < 1e-6 and rep.negativity_sign_agrees
          and rep.negativity_gauss > 0 and rep.negativity_oracle > 0)
    _record(5, ok, "dense-solver equivalence",
            f"{n_trusted} trusted times to t={rep.trusted_horizon:g}; "
            f"dev mean {rep.max_dev_mean:.2e} (<1e-6), "
            f"cov {rep.max_dev_cov:.2e} (<1e-5), "
            f"overlap {rep.max_dev_overlap:.2e} (<1e-6); "
            f"negativity {rep.negativity_oracle:.4f}/{rep.negativity_gauss:.4f} "
            f"both > 0")


def test_c06_overlap_exponent_scaling():
    pot, bath = _reference_scenario()
    H = build_caldeira_leggett(pot, bath)
    env_labels = H.layout.mode_labels[1:]
    env = thermal_state(PhaseSpaceLayout(env_labels), bath.masses, bath.freqs,
                        10.0)
    t_grid = np.linspace(0.0, 2.0, 51)
    reports = {}
    for s in (1, 2, 4):
        x0 = 0.75 * s
        br = evolve_branches(CoherentAmplitude("S", x0),
                             CoherentAmplitude("S", -x0), env, H, t_grid,
                             (pot.m_s, pot.omega_s))
        reports[s] = build_report("S+E", br, (pot.m_s, pot.omega_s), H)
    g1 = reports[1].gamma
    dev_g = 0.0
    dev_l = 0.0
    for s in (2, 4):
        gs = reports[s].gamma
        dev_g = max(dev_g, float(np.max(np.abs(gs[1:] - s ** 2 * g1[1:])
                                        / np.abs(s ** 2 * g1[1:]))))
        dev_l = max(dev_l, float(np.max(
            np.abs(reports[s].lambda_fit[1:] - reports[1].lambda_fit[1:])
            / np.abs(reports[1].lambda_fit[1:]))))
    ok = dev_g < 1e-8 and dev_l < 1e-8
    _record(6, ok, "overlap exponent scaling",
            f"Gamma deviates {dev_g:.3e} from squared-separation scaling over "
            f"s in (1,2,4); Lambda pair-dependence {dev_l:.3e} (tol 1e-8 rel)")


def test_c07_parallel_decoherence():
    pot, bath = _reference_scenario()
    t_grid = np.linspace(0.0, 2.0, 201)
    cmp = parallel_compare(
        pot, bath,
        (CoherentAmplitude("S", 3.0), CoherentAmplitude("S", -3.0)),
        (CoherentAmplitude("CM", 0.25), CoherentAmplitude("CM", -0.25)),
        temperature=10.0, t_grid=t_grid)
    mono = True
    for rep in (cmp.report_s, cmp.report_cm):
        assert rep.tau_dec is not None
        window = t_grid <= 1.1 * rep.tau_dec
        mono = mono and bool(np.all(np.diff(rep.gamma[window]) < 0))
    tau_s, tau_cm = cmp.report_s.tau_dec, cmp.report_cm.tau_dec
    ok = (mono and tau_s is not None and tau_cm is not None
          and cmp.ratio_flag == "within" and cmp.frame_residual < 1e-9
          and abs(tau_s - 0.42266899034151567) < 1e-9
          and abs(tau_cm - 0.18819788161580417) < 1e-9)
    _record(7, ok, "parallel decoherence",
            f"tau_open {tau_s:.6f}, tau_cm {tau_cm:.6f}, ratio "
            f"{cmp.tau_ratio:.4f} [{cmp.ratio_flag}]; Gamma strictly "
            f"decreasing through 1.1*tau in both splits: {mono}; frame "
            f"residual {cmp.frame_residual:.2e} (tol 1e-9)")


def test_c08_entanglement_relativity():
    m_s, m_e, w_s, w_e = 1.0, 3.0, 1.0, 2.0
    lay = PhaseSpaceLayout(("S", "E"))
    st = GaussianState(lay, np.zeros(4), vacuum_cov([m_s, m_e], [w_s, w_e]))
    T = cm_relative_transform(np.array([m_s, m_e]), source=lay)
    en_gauss = log_negativity(transform_state(st, T), ("CM",), ("R1",))

    space = FockSpace(("S", "E"), (24, 24), (m_s, m_e), (w_s, w_e))
    psi = product_pure_state([coherent_vector(24, m_s, w_s, 0.0),
                              coherent_vector(24, m_e, w_e, 0.0)])
    en_oracle, norm = cm_relative_log_negativity(psi, space, d_out=40)
    ok = (en_gauss > 0.01 and en_oracle > 0.01
          and abs(en_gauss - en_oracle) < 1e-6 and abs(norm - 1.0) < 1e-6)
    _record(8, ok, "entanglement relativity",
            f"product state in one split, log-negativity {en_gauss:.6f} "
            f"(engine) vs {en_oracle:.6f} (partial transpose) in the other "
            f"(threshold 0.01, agreement 1e-6)")


def test_c09_dephasing_law():
    d, x0, lam = 40, 1.5, 0.25
    a = coherent_vector(d, 1.0, 1.0, x0)
    b = coherent_vector(d, 1.0, 1.0, -x0)
    psi = a + b
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    horizon = 2.0 / (lam * (2 * x0) ** 2)
    res = evolve_master(rho0, MasterEqScenario("none", lam, d),
                        [0.0, horizon])
    grid = np.linspace(-3.2, 3.2, 33)
    R0 = position_kernel(res.states[0], grid, 1.0, 1.0)
    Rt = position_kernel(res.states[1], grid, 1.0, 1.0)
    mask = np.abs(R0) > 1e-3 * np.abs(R0).max()
    sep2 = (grid[:, None] - grid[None, :]) ** 2
    pred = np.exp(-lam * sep2 * horizon)
    rel_law = float((np.abs(Rt / R0 - pred)[mask] / pred[mask]).max())
    spanned = float(lam * sep2[mask].max() * horizon)

    x0b, lamb = 2.0, 0.5
    ab = coherent_vector(d, 1.0, 1.0, x0b)
    bb = coherent_vector(d, 1.0, 1.0, -x0b)
    psib = ab + bb
    psib /= np.linalg.norm(psib)
    rate_target = 4 * lamb * x0b ** 2
    t1 = 0.05 / rate_target
    resb = evolve_master(np.outer(psib, psib.conj()),
                         MasterEqScenario("harmonic", lamb, d),
                         [0.0, t1])
    vis = coherence_profile(resb, np.linspace(-4.0, 4.0, 81),
                            (x0b - 0.8, x0b + 0.8), (-x0b - 0.8, -x0b + 0.8),
                            1.0, 1.0)
    rate = float(-(np.log(vis[1]) - np.log(vis[0])) / t1)
    rel_rate = abs(rate - rate_target) / rate_target
    ok = rel_law < 0.02 and spanned >= 2.0 and rel_rate < 0.10
    _record(9, ok, "dephasing law",
            f"off-diagonal decay err {rel_law:.2e} over {spanned:.1f} decay "
            f"constants (tol 2%); visibility rate {rate:.3f} vs "
            f"{rate_target:g} (err {rel_rate:.2%}, tol 10%)")


def test_c10_conservation_suite():
    p = TwoModeParams(1.0, 1.0, 1.0, 0.25)
    H2 = build_two_mode(p)
    st2 = coherent_state(H2.layout, [1.0, 1.0], [1.0, 1.0],
                         [CoherentAmplitude("S", 0.7, 0.3)])
    pot, bath = _reference_scenario()
    Hc = build_caldeira_leggett(pot, bath)
    masses = np.concatenate([[pot.m_s], bath.masses])
    freqs = np.concatenate([[pot.omega_s], bath.freqs])
    stc = thermal_state(Hc.layout, masses, freqs, 10.0)
    worst_p = 0.0
    worst_e = 0.0
    for H, st, grid in ((H2, st2, np.linspace(0.0, 5.0, 11)),
                        (Hc, stc, np.linspace(0.0, 2.0, 9))):
        lp0, e0 = log_purity(st), energy(st, H)
        for stt in evolve_grid(st, H, grid[1:]):
            worst_p = max(worst_p, abs(log_purity(stt) - lp0))
            worst_e = max(worst_e, abs(energy(stt, H) - e0) / max(1.0, abs(e0)))
    scn = MasterEqScenario("harmonic", 0.5, 40)
    v = coherent_vector(40, 1.0, 1.0, 2.0)
    res = evolve_master(np.outer(v, v.conj()), scn, [0.0, 0.1])
    ok = worst_p < 1e-8 and worst_e < 1e-8 and res.max_trace_drift < 1e-8
    _record(10, ok, "conservation suite",
            f"unitary log-purity drift {worst_p:.2e}, relative energy drift "
            f"{worst_e:.2e}, master-equation trace drift "
            f"{res.max_trace_drift:.2e} (tol 1e-8)")

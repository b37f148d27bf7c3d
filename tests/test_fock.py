"""Truncated-Fock oracle: operators, evolution, projections, negativity."""
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from oscidec import (BathParams, FockSpace, GaussianState, OracleError,
                     SystemPotential, TwoModeParams, build_caldeira_leggett,
                     build_two_mode, cm_relative_log_negativity,
                     cm_relative_transform, evolve_grid, gaussian_crosscheck,
                     layout, leakage, log_negativity, pt_log_negativity_pure,
                     purity, reduce_state, transform_state, vacuum_cov)
from oscidec.fock import (_LEAK_TRUST, _mode_wavefunctions, _overlap_tensor,
                          _quadratures, coherent_vector, diagonalize,
                          hs_overlap, moments, product_pure_state,
                          project_to_transformed_basis, reduced_density,
                          total_parity, two_mode_hamiltonian, validate_density)


# References the oracle is checked against; none of them is on a CLI path.

@dataclass(frozen=True)
class FockOperators:
    """Position and momentum matrices on the full space."""

    space: FockSpace
    x: tuple
    p: tuple


def build_operators(space):
    """Every mode's quadratures on the full space: op kron I on the first
    mode, I kron op on the second."""
    xs, ps = [], []
    for k, (d, m, w) in enumerate(zip(space.dims, space.masses, space.freqs)):
        eye = np.eye(space.total_dim // d)
        for ops, op in zip((xs, ps), _quadratures(d, m, w)):
            ops.append((np.kron(op, eye) if k == 0
                        else np.kron(eye, op)).astype(complex))
    return FockOperators(space, tuple(xs), tuple(ps))


def quadratic_hamiltonian_operator(ops, h):
    """Generic 1/2 z^T h z with symmetrized operator products."""
    n = len(ops.space.labels)
    zops = list(ops.x) + list(ops.p)
    D = ops.space.total_dim
    H = np.zeros((D, D), dtype=complex)
    for i in range(2 * n):
        for j in range(i, 2 * n):
            hij = h[i, j]
            if hij == 0.0:
                continue
            term = zops[i] @ zops[j]
            if i != j:
                term = term + zops[j] @ zops[i]
            H += 0.5 * hij * term
    return 0.5 * (H + H.conj().T)


def unitary(evo, t):
    """U(t) formed from the eigendecomposition, for U(t) psi0 products."""
    phase = np.exp(-1j * evo.energies * t)
    return (evo.vectors * phase) @ evo.vectors.conj().T


def quadrature_projection(c, scales_in, scales_out, A, d_out, n_quad=140):
    """The amplitude matrix of project_to_transformed_basis by Gauss-Hermite
    quadrature: the state's wavefunction on the n_quad x n_quad grid of the
    new coordinates, integrated against the new bases' wavefunctions."""
    (m1, w1), (m2, w2) = scales_in
    (M1, W1), (M2, W2) = scales_out
    y, q = hermgauss(n_quad)
    s1 = np.sqrt(M1 * W1)
    s2 = np.sqrt(M2 * W2)
    g1 = y / s1
    g2 = y / s2
    Ai = np.linalg.inv(A)
    X1 = Ai[0, 0] * g1[:, None] + Ai[0, 1] * g2[None, :]
    X2 = Ai[1, 0] * g1[:, None] + Ai[1, 1] * g2[None, :]
    d1, d2 = c.shape
    phi1 = _mode_wavefunctions(X1.ravel(), d1, m1, w1)
    phi2 = _mode_wavefunctions(X2.ravel(), d2, m2, w2)
    psi = np.einsum("jk,ja,ka->a", c, phi1, phi2).reshape(n_quad, n_quad)
    out1 = _mode_wavefunctions(g1, d_out, M1, W1) * (q * np.exp(y ** 2)) / s1
    out2 = _mode_wavefunctions(g2, d_out, M2, W2) * (q * np.exp(y ** 2)) / s2
    return np.sqrt(abs(np.linalg.det(Ai))) * (out1 @ psi @ out2.T)


def literal_pt_log_negativity(amp):
    """ln || rho^T_B ||_1 from the eigenvalues of the partial transpose
    itself, (rho^T_B)_{(m n),(m' n')} = amp[m, n'] conj(amp[m', n])."""
    a = amp / np.linalg.norm(amp)
    d1, d2 = a.shape
    rho_pt = np.einsum("mq,pn->mnpq", a, a.conj()).reshape(d1 * d2, d1 * d2)
    return float(np.log(np.abs(np.linalg.eigvalsh(rho_pt)).sum()))


def test_space_validation():
    with pytest.raises(OracleError, match="1 or 2 modes"):
        FockSpace(("A", "B", "C"), (2, 2, 2), (1,) * 3, (1,) * 3)
    with pytest.raises(OracleError, match="at least 2"):
        FockSpace(("A",), (1,), (1.0,), (1.0,))
    with pytest.raises(OracleError, match="cap"):
        FockSpace(("A", "B"), (150, 150), (1,) * 2, (1,) * 2)
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
    for dims in ((8, 8), (8, 5)):    # unequal cutoffs fix the Kronecker order
        space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
        direct = two_mode_hamiltonian(space, p)
        assert direct.dtype == np.float64
        generic = quadratic_hamiltonian_operator(build_operators(space),
                                                 build_two_mode(p).h)
        assert np.abs(direct - generic).max() < 1e-12


def test_coherent_vector_moments():
    m, w, x0, p0 = 1.3, 0.7, 0.6, -0.4
    space = FockSpace(("S",), (40,), (m,), (w,))
    v = coherent_vector(40, m, w, x0, p0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    mean, cov = moments(v, space)
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


def _moments_reference(psi, ops):
    """Literal <z> and <{z_i, z_j}>/2 - <z_i><z_j> from operator products."""
    zops = list(ops.x) + list(ops.p)
    m = len(zops)

    def ev(op):
        return float(np.real(psi.conj() @ (op @ psi)))
    mean = np.array([ev(z) for z in zops])
    cov = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            sym = 0.5 * (zops[i] @ zops[j] + zops[j] @ zops[i])
            cov[i, j] = cov[j, i] = ev(sym) - mean[i] * mean[j]
    return mean, cov


def _unequal_two_mode_ops():
    space = FockSpace(("S", "E1"), (4, 5), (1.3, 0.7), (0.9, 1.6))
    return space, build_operators(space)


def test_moments_match_operator_product_reference():
    space, ops = _unequal_two_mode_ops()
    D = space.total_dim
    rng = np.random.default_rng(11)
    psis = rng.normal(size=(3, D)) + 1j * rng.normal(size=(3, D))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    amps = psis.reshape((3,) + space.dims)
    means, covs = moments(amps, space)
    assert means.shape == (3, 4) and covs.shape == (3, 4, 4)
    for psi, amp, mean_s, cov_s in zip(psis, amps, means, covs):
        mean_ref, cov_ref = _moments_reference(psi, ops)
        mean, cov = moments(amp, space)
        for m, c in ((mean, cov), (mean_s, cov_s)):
            assert np.abs(m - mean_ref).max() < 1e-12
            assert np.abs(c - cov_ref).max() < 1e-12
            assert np.array_equal(c, c.T)


def test_evolve_pure_matches_unitary():
    space, ops = _unequal_two_mode_ops()
    pot = SystemPotential("harmonic", 1.3, 0.9)
    bath = BathParams((0.7,), (1.6,), (0.2,), -1)
    H_complex = quadratic_hamiltonian_operator(
        ops, build_caldeira_leggett(pot, bath).h)
    H_real = two_mode_hamiltonian(space, TwoModeParams(1.3, 0.7, 1.6, 0.2))
    rng = np.random.default_rng(4)
    D = space.total_dim
    psi0 = rng.normal(size=(2, D)) + 1j * rng.normal(size=(2, D))
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    ts = (0.0, 0.9, 3.7)
    for H, dtype in ((H_complex, np.complex128), (H_real, np.float64)):
        evo = diagonalize(H, space.dims)
        assert evo.vectors.dtype == dtype
        stack = evo.evolve_pure(psi0, ts)
        assert stack.shape == (2, len(ts), D)
        assert np.abs(evo.evolve_pure(psi0[0], ts) - stack[0]).max() < 1e-13
        for k, t in enumerate(ts):
            want = unitary(evo, t) @ psi0.T
            assert np.abs(stack[:, k] - want.T).max() < 1e-12


def test_oracle_trajectory_matches_classical_rotation():
    m, w, x0, p0 = 1.3, 0.7, 0.8, 0.5
    space = FockSpace(("S",), (48,), (m,), (w,))
    H = quadratic_hamiltonian_operator(build_operators(space),
                                       np.diag([m * w * w, 1.0 / m]))
    evo = diagonalize(H, space.dims)
    psi0 = coherent_vector(48, m, w, x0, p0)
    ts = (0.5, 1.7, 4.2)
    means, _ = moments(evo.evolve_pure(psi0, ts), space)
    for t, mean in zip(ts, means):
        c, s = np.cos(w * t), np.sin(w * t)
        assert mean[0] == pytest.approx(x0 * c + p0 / (m * w) * s, abs=1e-8)
        assert mean[1] == pytest.approx(p0 * c - m * w * x0 * s, abs=1e-8)


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
    psi = product_pure_state([coherent_vector(4, 1, 1, 1.5),
                              coherent_vector(4, 1, 1, 0.0)])
    evo = diagonalize(two_mode_hamiltonian(space, p), space.dims)
    amp = evo.evolve_pure(psi, [1.0]).reshape(space.dims)
    assert leakage(amp, space) >= _LEAK_TRUST


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
    # partial trace of |psi><psi| over the other mode
    rho = np.outer(psi, psi.conj()).reshape(6, 5, 6, 5)
    for keep, spec in ((0, "ajbj->ab"), (1, "jajb->ab")):
        rv = reduced_density(psi.reshape(6, 5), space, keep)
        rm = np.einsum(spec, rho)
        assert np.abs(rv - rm).max() < 1e-12
        assert abs(np.trace(rv).real - 1.0) < 1e-12
    # product states reduce to pure marginals
    prod = product_pure_state([coherent_vector(6, 1, 1, 0.4),
                               coherent_vector(5, 1, 1, -0.2)])
    rs = reduced_density(prod.reshape(6, 5), space, 0)
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


def _cm_relative_map(masses):
    m1, m2 = masses
    M = m1 + m2
    return np.array([[m1 / M, m2 / M], [1.0, -1.0]]), [(M, 1.0),
                                                       (m1 * m2 / M, 1.0)]


# mass, frequency, per-mode cutoff and d_out sets; the second is criterion 8's
@pytest.mark.parametrize("masses, freqs, dims, d_out", [
    ((1.0, 1.0), (1.0, 1.0), (16, 16), 24),
    ((1.0, 3.0), (1.0, 2.0), (24, 24), 40),
    ((1.0, 2.0), (1.0, 2.0), (10, 10), 14),
    ((2.0, 0.5), (1.5, 0.7), (20, 12), 24),
    ((1.0, 1.0), (1.0, 0.8), (24, 24), 24)])
def test_projection_matches_quadrature_reference(masses, freqs, dims, d_out):
    """The overlap tensor against Gauss-Hermite quadrature, on states whose
    amplitudes fall off with the level as trusted oracle states do: coherent
    products, one of them evolved, and a random state damped by e^-(j+k)/4.
    The recurrence's rounding grows toward the top input shells (about 1e-11
    on the top shell of a 24 x 24 input), which such states do not weight."""
    A, scales_out = _cm_relative_map(masses)
    scales_in = list(zip(masses, freqs))
    space = FockSpace(("S", "E"), dims, masses, freqs)
    vac = product_pure_state([coherent_vector(d, m, w, 0.0)
                              for d, m, w in zip(dims, masses, freqs)])
    cat = product_pure_state([coherent_vector(d, m, w, x0, 0.3)
                              for d, m, w, x0 in zip(dims, masses, freqs,
                                                     (0.8, -0.5))])
    (evolved,) = diagonalize(two_mode_hamiltonian(
        space, TwoModeParams(masses[0], masses[1], freqs[1], 0.1)),
        dims).evolve_pure(cat, [0.9])
    rng = np.random.default_rng(19)
    damped = ((rng.normal(size=dims) + 1j * rng.normal(size=dims))
              * np.exp(-0.25 * np.add.outer(*(np.arange(d) for d in dims))))
    for psi in (vac, cat, evolved, damped.ravel() / np.linalg.norm(damped)):
        c = psi.reshape(dims)
        got = project_to_transformed_basis(c, scales_in, scales_out, A, d_out)
        want = quadrature_projection(c, scales_in, scales_out, A, d_out)
        assert got.shape == (d_out, d_out)
        assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("B", [
    np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
    np.array([[np.cos(1.1), np.sin(1.1)], [np.sin(1.1), -np.cos(1.1)]]),
    np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])])
def test_overlap_tensor_of_an_orthogonal_map_keeps_each_shell(B):
    # equal scales make B orthogonal, the generating function is then
    # exp(alpha^T B beta): T joins only equal total numbers a + b = j + k,
    # and is orthogonal on every shell whose states all fit every cutoff
    T = _overlap_tensor(B, 10, (8, 9))
    a, b, j, k = np.ix_(*(np.arange(d) for d in T.shape))
    assert np.abs(T[np.broadcast_to(a + b != j + k, T.shape)]).max() < 1e-14
    for N in range(8):
        shell = [(n, N - n) for n in range(N + 1)]
        blk = np.array([[T[p + q] for q in shell] for p in shell])
        assert np.abs(blk @ blk.T - np.eye(N + 1)).max() < 1e-13
        assert np.abs(blk.T @ blk - np.eye(N + 1)).max() < 1e-13


@pytest.mark.parametrize("p, dims", [
    (TwoModeParams(1.0, 1.0, 1.0, 0.25), (16, 16)),
    (TwoModeParams(1.3, 0.7, 1.6, -0.4), (9, 12)),
    (TwoModeParams(2.0, 0.5, 1.8, 0.6), (11, 7))])
def test_two_mode_hamiltonian_keeps_total_parity(p, dims):
    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    H = two_mode_hamiltonian(space, p)
    parity = total_parity(dims)
    assert np.array_equal(parity.reshape(dims),
                          np.add.outer(np.arange(dims[0]),
                                       np.arange(dims[1])) % 2)
    even, odd = parity == 0, parity == 1
    assert np.all(H[np.ix_(even, odd)] == 0.0)
    # the coupling does act inside each block
    assert np.abs(H[np.ix_(even, even)] - np.diag(np.diag(H)[even])).max() > 0.1
    evo = diagonalize(H, dims)
    assert evo.vectors.dtype == np.float64
    assert np.all(evo.vectors[np.ix_(even, odd)] == 0.0)
    assert np.all(evo.vectors[np.ix_(odd, even)] == 0.0)
    assert np.sort(evo.energies) == pytest.approx(np.linalg.eigvalsh(H),
                                                  abs=1e-12)
    assert np.abs(H @ evo.vectors - evo.vectors * evo.energies).max() < 1e-12


def test_diagonalize_refuses_a_hamiltonian_that_breaks_total_parity():
    space = FockSpace(("S", "E"), (6, 6), (1.0, 1.0), (1.0, 1.0))
    H = two_mode_hamiltonian(space, TwoModeParams(1.0, 1.0, 1.0, 0.25))
    H[0, 1] = H[1, 0] = 1e-300
    with pytest.raises(OracleError, match="couples the total-parity blocks"):
        diagonalize(H, space.dims)


@pytest.mark.parametrize("entry", [(0, 2), (0, 1)])
def test_diagonalize_refuses_a_non_hermitian_hamiltonian(entry):
    # (0, 2) lies inside the even block, (0, 1) between the blocks: a
    # one-sided entry there is named non-Hermitian before any coupling
    space = FockSpace(("S", "E"), (6, 6), (1.0, 1.0), (1.0, 1.0))
    H = two_mode_hamiltonian(space, TwoModeParams(1.0, 1.0, 1.0, 0.25))
    H[entry] += 1e-6
    with pytest.raises(OracleError, match="must be Hermitian"):
        diagonalize(H, space.dims)


def test_minus_branch_is_the_total_parity_image():
    # E starts in vacuum, so the -x0 branch starts as the image of the +x0
    # one under (-1)^(n_S + n_E); with the block-structured eigenbasis,
    # evolving both branches gives that image bit for bit
    p = TwoModeParams(1.0, 1.0, 1.0, 0.25)
    dims = (16, 12)
    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    parity = total_parity(dims)
    evo = diagonalize(two_mode_hamiltonian(space, p), dims)
    ve = coherent_vector(dims[1], p.m_e, p.omega, 0.0)
    psi0 = np.array([product_pure_state(
        [coherent_vector(dims[0], p.m_s, 1.0, s), ve]) for s in (0.4, -0.4)])
    assert np.array_equal(psi0[1], np.where(parity, -psi0[0], psi0[0]))
    both = evo.evolve_pure(psi0, [0.0, 0.35, 1.0, 2.7])
    assert np.array_equal(both[1], np.where(parity, -both[0], both[0]))
    assert np.abs(evo.evolve_pure(psi0[0], [0.0, 0.35, 1.0, 2.7])
                  - both[0]).max() < 1e-15


def _oracle_cm_relative_amplitude(monkeypatch):
    """The CM|relative amplitude that cm_relative_log_negativity hands to
    pt_log_negativity_pure, for a cutoff-16 oracle state at t = 0.7."""
    import oscidec.fock as fock
    p = TwoModeParams(1.0, 1.0, 1.0, 0.2)
    space = FockSpace(("S", "E"), (16, 16), (1.0, 1.0), (1.0, 1.0))
    evo = diagonalize(two_mode_hamiltonian(space, p), space.dims)
    psi0 = product_pure_state([coherent_vector(16, 1, 1, 0.35),
                               coherent_vector(16, 1, 1, 0.0)])
    seen = []
    schmidt = fock.pt_log_negativity_pure
    monkeypatch.setattr(fock, "pt_log_negativity_pure",
                        lambda amp: seen.append(amp) or schmidt(amp))
    (psi,) = evo.evolve_pure(psi0, [0.7])
    cm_relative_log_negativity(psi, space)
    (amp,) = seen
    return amp


def test_pt_and_schmidt_negativities_agree(monkeypatch):
    rng = np.random.default_rng(5)
    amps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for d in (7, 24)]
    amps.append(_oracle_cm_relative_amplitude(monkeypatch))
    assert amps[-1].shape == (24, 24)
    for amp in amps:
        assert pt_log_negativity_pure(amp) == pytest.approx(
            literal_pt_log_negativity(amp), abs=1e-12)
    assert pt_log_negativity_pure(amps[-1]) > 0.01
    # product amplitude carries no entanglement
    prod = np.outer(coherent_vector(7, 1, 1, 0.3), coherent_vector(7, 1, 1, -0.1))
    assert abs(pt_log_negativity_pure(prod)) < 1e-12


def test_crosscheck_decomposes_nothing_larger_than_the_fock_space(monkeypatch):
    shapes = []
    for name in ("eigvalsh", "eigh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _fn=fn, **kw:
                            shapes.append(a.shape) or _fn(a, *args, **kw))
    rep = gaussian_crosscheck(TwoModeParams(1.0, 1.0, 1.0, 0.25), 0.4,
                              np.linspace(0.0, 1.0, 3), dims=(16, 16),
                              negativity_time=0.7)
    assert rep.negativity_oracle > 0
    # the Fock Hamiltonian is decomposed once per total-parity block; the
    # negativity adds no d_out^2-sized partial transpose
    assert shapes.count((128, 128)) == 2
    assert max(max(s) for s in shapes) <= 128


def test_oracle_diagonalizes_once_in_real_arithmetic(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw:
                        calls.append((a.shape, a.dtype)) or eigh(a, *args, **kw))
    gaussian_crosscheck(TwoModeParams(1.0, 1.0, 1.0, 0.25), 0.4,
                        np.linspace(0.0, 1.0, 3), dims=(16, 16),
                        negativity_time=0.7)
    # the Gaussian side's one pass over the grid and the negativity time
    # takes two 2x2 calls for its normal modes
    fock_calls = [c for c in calls if c[0] != (2, 2)]
    assert fock_calls == [((128, 128), np.float64)] * 2
    assert len(calls) == 2 + 2


def test_crosscheck_evolves_the_gaussian_branch_in_one_pass(monkeypatch):
    import oscidec.dynamics as dynamics
    passes, normal_modes = [], []
    chunks, modes = dynamics._certified_chunks, dynamics._normal_modes
    monkeypatch.setattr(dynamics, "_certified_chunks",
                        lambda modes, state, ts, frame=None:
                        passes.append(ts.tolist())
                        or chunks(modes, state, ts, frame))
    monkeypatch.setattr(dynamics, "_normal_modes",
                        lambda *a: normal_modes.append(1) or modes(*a))
    t_grid = np.linspace(0.0, 1.0, 3)
    for t_neg, expect in ((0.7, 0.7), (None, 0.5)):
        passes.clear()
        normal_modes.clear()
        rep = gaussian_crosscheck(TwoModeParams(1.0, 1.0, 1.0, 0.25), 0.4,
                                  t_grid, dims=(16, 16),
                                  negativity_time=t_neg)
        # the grid, then the negativity time (else the trusted horizon)
        assert rep.trusted_horizon == 0.5
        assert passes == [[0.0, 0.5, 1.0, expect]]
        assert len(normal_modes) == 1


def _two_mode_hamiltonian_reference(ops, p):
    """The two-mode H in complex arithmetic, p^2 formed from the complex p."""
    space = ops.space
    (xS, pS), (xE, pE) = (_quadratures(d, m, w) for d, m, w in
                          zip(space.dims, space.masses, space.freqs))
    hS = pS @ pS / (2 * p.m_s)
    hE = pE @ pE / (2 * p.m_e) + p.m_e * p.omega ** 2 / 2 * (xE @ xE)
    return (np.kron(0.5 * (hS + hS.conj().T), np.eye(space.dims[1]))
            + np.kron(np.eye(space.dims[0]), 0.5 * (hE + hE.conj().T))
            - p.coupling * np.kron(xS, xE))


def _crosscheck_reference(p, x0, t_grid, dims, negativity_time):
    """The oracle side of gaussian_crosscheck one time at a time: a complex
    eigh, a per-time U(t) psi0 for each branch, moments from full-space
    operators, and one state's leakage, reduced densities and overlap at a
    time.  Returns per-row (leakage, trusted, dev_mean, dev_cov, dev_purity,
    dev_overlap), the horizon, and (E_N Gaussian, E_N dense, projection
    norm) at the negativity time."""
    space = FockSpace(("S", "E"), dims, (p.m_s, p.m_e), (1.0, p.omega))
    ops = build_operators(space)
    E, V = np.linalg.eigh(_two_mode_hamiltonian_reference(ops, p))
    assert V.dtype == np.complex128

    def evolve(psi0, t):
        return V @ (np.exp(-1j * E * t) * (V.conj().T @ psi0))

    def old_leakage(psi):
        pops = (np.abs(psi) ** 2).reshape(dims)
        return sum(float(np.take(pops, [d - 2, d - 1], axis=k).sum())
                   for k, d in enumerate(dims))

    def old_reduced(psi, keep):
        m = np.moveaxis(psi.reshape(dims), keep, 0).reshape(dims[keep], -1)
        return m @ m.conj().T

    def tr(a, b):
        return float(np.real(np.trace(a @ b)))

    def old_moments(psi):
        W = np.array([z @ psi for z in ops.x + ops.p])
        mean = np.real(W @ psi.conj())
        cov = np.real(W.conj() @ W.T)
        return mean, 0.5 * (cov + cov.T) - np.outer(mean, mean)

    ve = coherent_vector(dims[1], p.m_e, p.omega, 0.0)
    psi_a0, psi_b0 = (product_pure_state(
        [coherent_vector(dims[0], p.m_s, 1.0, s), ve]) for s in (x0, -x0))
    Hg = build_two_mode(p)
    state0 = GaussianState(Hg.layout, np.array([x0, 0.0, 0.0, 0.0]),
                           vacuum_cov([p.m_s, p.m_e], [1.0, p.omega]))
    rows, horizon = [], 0.0
    for t, st in zip(t_grid, evolve_grid(state0, Hg, t_grid)):
        pa, pb = evolve(psi_a0, t), evolve(psi_b0, t)
        leak = old_leakage(pa)
        mean_o, cov_o = old_moments(pa)
        rs = old_reduced(pa, 0)
        re_a, re_b = old_reduced(pa, 1), old_reduced(pb, 1)
        ov_o = tr(re_a, re_b) / np.sqrt(tr(re_a, re_a) * tr(re_b, re_b))
        d_env = 2 * st.mean[[1, 3]]
        cov_env = st.cov[np.ix_([1, 3], [1, 3])]
        ov_g = float(np.exp(-0.25 * d_env @ np.linalg.solve(cov_env, d_env)))
        rows.append((leak, leak < _LEAK_TRUST,
                     float(np.abs(mean_o - st.mean).max()),
                     float(np.abs(cov_o - st.cov).max()),
                     abs(tr(rs, rs) - purity(reduce_state(st, ["S"]))),
                     abs(ov_o - ov_g)))
        if leak < _LEAK_TRUST:
            horizon = float(t)
    t_neg = negativity_time if negativity_time is not None else horizon
    (st,) = evolve_grid(state0, Hg, [t_neg])
    T = cm_relative_transform([p.m_s, p.m_e], labels=("CM", "R1"),
                              source=Hg.layout)
    en_g = log_negativity(transform_state(st, T), ["CM"], ["R1"])
    return rows, horizon, (en_g, *cm_relative_log_negativity(
        evolve(psi_a0, t_neg), space))


@pytest.mark.parametrize("dims", [(24, 24), (16, 12)])
@pytest.mark.parametrize("coupling, x0, t_neg",
                         [(0.25, 0.4, 1.0), (0.15, 0.3, 0.55), (0.3, 0.35, None)])
def test_crosscheck_matches_per_time_reference(dims, coupling, x0, t_neg):
    p = TwoModeParams(1.0, 1.0, 1.0, coupling)
    t_grid = np.linspace(0.0, 5.0, 26)
    rep = gaussian_crosscheck(p, x0, t_grid, dims=dims, negativity_time=t_neg)
    rows, horizon, (en_g, en_o, norm) = _crosscheck_reference(
        p, x0, t_grid, dims, t_neg)
    assert [r.trusted for r in rep.rows] == [r[1] for r in rows]
    assert any(r.trusted for r in rep.rows)
    assert rep.trusted_horizon == horizon
    for row, ref in zip(rep.rows, rows, strict=True):
        assert abs(row.leakage - ref[0]) <= 1e-15
        got = (row.dev_mean, row.dev_cov, row.dev_purity, row.dev_overlap)
        assert np.abs(np.subtract(got, ref[2:])).max() <= 1e-13
    assert abs(rep.negativity_gauss - en_g) <= 1e-12
    assert abs(rep.negativity_oracle - en_o) <= 1e-12
    assert abs(rep.negativity_projection_norm - norm) <= 1e-12


def test_cm_relative_negativity_zero_for_symmetric_vacuum():
    space = FockSpace(("S", "E"), (10, 10), (1.0, 1.0), (1.0, 1.0))
    psi = product_pure_state([coherent_vector(10, 1, 1, 0.0),
                              coherent_vector(10, 1, 1, 0.0)])
    en, norm = cm_relative_log_negativity(psi, space, d_out=12)
    assert norm == pytest.approx(1.0, abs=1e-8)
    assert abs(en) < 1e-8


def test_cm_relative_negativity_matches_gaussian():
    masses, freqs = (1.0, 2.0), (1.0, 2.0)   # distinct freqs: CM|R entangled
    space = FockSpace(("S", "E"), (10, 10), masses, freqs)
    psi = product_pure_state([coherent_vector(10, masses[0], freqs[0], 0.0),
                              coherent_vector(10, masses[1], freqs[1], 0.0)])
    en_o, norm = cm_relative_log_negativity(psi, space, d_out=14)
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

"""Output checks computed apart from oscidec, with plain NumPy/SciPy.

Each `check_<workload>(params, out_dir)` reads the CSV files one CLI call
wrote and raises `CheckFailed` when they disagree with the benchmark's own
computation from the scenario's physical parameters.  Nothing here imports
oscidec.

* chain_compare: Gamma(t) of both splits recomputed at probe times from the
  chain Hamiltonian built here, exp(tJh) and a hand-written Jacobi matrix;
  tau re-derived from the CSV's Gamma; the frame residual bounded.
* oracle_crosscheck: every trusted row within criterion 5's tolerances, the
  trust flag consistent with the leakage gate, at least two trusted times.
* master_dephasing: visibility(t) recomputed by exact propagation of a
  sparse Lindblad superoperator (expm_multiply) on ladder operators built here.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

GAMMA_REL_TOL = 1e-9
GAMMA_FLOOR = float(np.log(1e-300))   # the CSV's documented clamp
TAU_REL_TOL = 1e-12
FRAME_RESIDUAL_MAX = 1e-9
ORACLE_LEAK_TRUST = 1e-6
ORACLE_TOL = {"dev_mean": 1e-6, "dev_cov": 1e-5, "dev_overlap": 1e-6}
ORACLE_MIN_TRUSTED = 2
VISIBILITY_TOL = 1e-8
N_PROBES = 4


class CheckFailed(AssertionError):
    """A scenario's output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    _require(len(lines) >= 1, f"{path.name}: no header")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _grid(t_max: float, n: int) -> np.ndarray:
    return np.array([t_max * i / (n - 1) for i in range(n)])


def _check_grid(ts: np.ndarray, t_max: float, n: int, what: str) -> None:
    _require(len(ts) == n, f"{what}: {len(ts)} rows, expected {n}")
    _require(np.allclose(ts, _grid(t_max, n), rtol=0, atol=1e-12),
             f"{what}: time column differs from the configured grid")


# ---------------------------------------------------------------- chain

def _symplectic_form(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def chain_reference(params: dict, times: np.ndarray) -> dict[str, np.ndarray]:
    """Gamma(t) of the S+E and CM+R splits, straight from the physics.

    Chain: H = p_S^2/2m_S + m_S w_S^2 x_S^2/2 + sum_i [p_i^2/2 + w_i^2 x_i^2/2
    + s k_i x_S x_i] with the uniform Ohmic bins w_i = i d, d = w_c/N,
    k_i = sqrt(2 w_i eta w_i d).  Initial state: open-mode vacuum times the
    thermal bath.  Gamma = -1/4 d^T sigma_env^-1 d of the environment
    marginals, with d the evolved branch separation.
    """
    n_bath = int(params["bath.n"])
    n = n_bath + 1
    m_s, w_s = float(params["model.m_s"]), float(params["model.omega_s"])
    wc, eta = float(params["bath.omega_cutoff"]), float(params["bath.eta"])
    sign = float(params["model.coupling_sign"])
    temp = float(params["state.temperature"])
    delta = wc / n_bath
    w = delta * np.arange(1, n_bath + 1)
    kappa = np.sqrt(2.0 * w * eta * w * delta)

    h = np.zeros((2 * n, 2 * n))
    h[0, 0] = m_s * w_s ** 2
    h[np.arange(1, n), np.arange(1, n)] = w ** 2
    h[0, 1:n] = h[1:n, 0] = sign * kappa
    h[n:, n:] = np.diag(np.concatenate([[1.0 / m_s], np.ones(n_bath)]))
    jh = _symplectic_form(n) @ h

    nbar = 1.0 / np.expm1(w / temp) if temp > 0 else np.zeros(n_bath)
    sigma0 = np.diag(np.concatenate([[1.0 / (2 * m_s * w_s)], (nbar + 0.5) / w,
                                     [m_s * w_s / 2], (nbar + 0.5) * w]))

    # Jacobi coordinates: row 0 the centre of mass, row a the CM of the
    # first a particles minus particle a.
    masses = np.concatenate([[m_s], np.ones(n_bath)])
    jac = np.zeros((n, n))
    jac[0] = masses / masses.sum()
    for a in range(1, n):
        jac[a, :a] = masses[:a] / masses[:a].sum()
        jac[a, a] = -1.0
    s1 = np.zeros((2 * n, 2 * n))
    s1[:n, :n] = jac
    s1[n:, n:] = np.linalg.inv(jac).T
    s1_inv = np.linalg.inv(s1)

    env = np.concatenate([np.arange(1, n), np.arange(n + 1, 2 * n)])
    sep_s = float(params["state.alpha_x"]) - float(params["state.beta_x"])
    sep_cm = float(params["state.cm_alpha_x"]) - float(params["state.cm_beta_x"])
    out = {"S+E": [], "CM+R": []}
    for t in times:
        m_t = expm(t * jh)
        cov = m_t @ sigma0 @ m_t.T
        d = m_t[env, 0] * sep_s
        out["S+E"].append(-0.25 * d @ np.linalg.solve(cov[np.ix_(env, env)], d))
        m_j = s1 @ m_t @ s1_inv
        cov_j = s1 @ cov @ s1.T
        d_j = m_j[env, 0] * sep_cm
        out["CM+R"].append(-0.25 * d_j @ np.linalg.solve(cov_j[np.ix_(env, env)], d_j))
    return {k: np.maximum(np.array(v), GAMMA_FLOOR) for k, v in out.items()}


def first_crossing(ts: np.ndarray, gamma: np.ndarray,
                   level: float = -1.0) -> float | None:
    """First time Gamma reaches `level`, linearly interpolated."""
    for i in range(1, len(ts)):
        if gamma[i] <= level:
            g0, g1 = gamma[i - 1], gamma[i]
            if g1 == g0:
                return float(ts[i])
            return float(ts[i - 1] + (level - g0) / (g1 - g0) * (ts[i] - ts[i - 1]))
    return None


def chain_probe_rows(n: int) -> list[int]:
    return sorted({(n - 1) * (k + 1) // N_PROBES for k in range(N_PROBES)})


def check_chain_compare(params: dict, out_dir: Path, reference=None) -> None:
    n = int(params["run.t_steps"])
    t_max = float(params["run.t_max"])
    header, rows = read_csv(Path(out_dir) / "decoherence_both.csv")
    col = {name: i for i, name in enumerate(header)}
    probes = chain_probe_rows(n)
    ref = reference if reference is not None else \
        reference_for("chain_compare", params)
    gammas = {}
    for split in ("S+E", "CM+R"):
        part = [r for r in rows if r[col["decomposition"]] == split]
        ts = np.array([float(r[col["t"]]) for r in part])
        _check_grid(ts, t_max, n, f"decoherence_both.csv {split}")
        g = np.array([float(r[col["log_overlap"]]) for r in part])
        got, want = g[probes], ref[split]
        err = np.abs(got - want)
        _require(bool(np.all(err <= GAMMA_REL_TOL * np.abs(want))),
                 f"{split} Gamma off by {float((err / np.abs(want)).max()):.3e} "
                 f"relative at probe times")
        gammas[split] = (ts, g)

    _, rows = read_csv(Path(out_dir) / "comparison.csv")
    quantity = {r[0]: r[1] for r in rows}
    for split, key in (("S+E", "tau_open"), ("CM+R", "tau_cm")):
        want = first_crossing(*gammas[split])
        got = quantity.get(key, "")
        if want is None:
            _require(got == "", f"{key}={got!r} but Gamma never reaches -1")
        else:
            _require(got != "" and abs(float(got) - want) <= TAU_REL_TOL * want,
                     f"{key}={got!r}, Gamma crosses -1 at {want!r}")
    residual = float(quantity.get("frame_residual", "nan"))
    _require(residual < FRAME_RESIDUAL_MAX,
             f"frame_residual {residual!r} not below {FRAME_RESIDUAL_MAX}")


# --------------------------------------------------------------- oracle

def check_oracle_crosscheck(params: dict, out_dir: Path, reference=None) -> None:
    header, rows = read_csv(Path(out_dir) / "crosscheck.csv")
    col = {name: i for i, name in enumerate(header)}
    n = int(params["run.t_steps"])
    ts = np.array([float(r[col["t"]]) for r in rows])
    _check_grid(ts, float(params["run.t_max"]), n, "crosscheck.csv")
    trusted = 0
    for r in rows:
        flag = r[col["trusted"]]
        _require(flag in ("true", "false"), f"trusted flag {flag!r}")
        leak = float(r[col["leakage"]])
        _require((flag == "true") == (leak < ORACLE_LEAK_TRUST),
                 f"t={r[col['t']]}: trusted={flag} with leakage {leak!r}")
        if flag != "true":
            continue
        trusted += 1
        for key, tol in ORACLE_TOL.items():
            v = float(r[col[key]])
            _require(abs(v) < tol, f"t={r[col['t']]}: {key}={v!r} not below {tol}")
    _require(trusted >= ORACLE_MIN_TRUSTED,
             f"{trusted} trusted times, need {ORACLE_MIN_TRUSTED}")


# --------------------------------------------------------------- master

def _hermite_functions(xi: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_{d-1}, three-term recurrence."""
    out = np.zeros((d, len(xi)))
    out[0] = np.pi ** -0.25 * np.exp(-xi ** 2 / 2)
    if d > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for k in range(2, d):
        out[k] = np.sqrt(2.0 / k) * xi * out[k - 1] - np.sqrt((k - 1) / k) * out[k - 2]
    return out


def _coherent(d: int, s: float, x0: float) -> np.ndarray:
    alpha = np.sqrt(s / 2) * x0
    v = np.empty(d)
    v[0] = 1.0
    for k in range(1, d):
        v[k] = v[k - 1] * alpha / np.sqrt(k)
    return v / np.linalg.norm(v)


def master_reference(params: dict) -> np.ndarray:
    """Visibility(t) from exact propagation of the Lindblad equation.

    drho/dt = -i[H, rho] - lam [x, [x, rho]] on the oscillator basis scaled by
    (m_s, 1), with x, p and H as truncated matrix products; the initial state
    is the normalised sum of the truncated coherent states at +-x0.  The
    visibility uses the CLI's stated grid (121 points on +-(2.5 x0 + 2)) and
    patches (+-x0 +- 0.8).
    """
    d = int(params["master.dim"])
    mass = float(params["model.m_s"])
    omega = float(params["model.omega_s"])
    lam = float(params["master.lam"])
    x0 = float(params["master.x0"])
    s = mass * 1.0
    lower = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    x = ((lower + lower.T) / np.sqrt(2 * s)).astype(complex)
    p = (1j * np.sqrt(s / 2) * (lower.T - lower)).tocsr()
    variant = params["master.variant"]
    if variant == "none":
        h = sp.csr_matrix((d, d), dtype=complex)
    elif variant == "free":
        h = p @ p / (2 * mass)
    else:
        h = p @ p / (2 * mass) + mass * omega ** 2 / 2 * (x @ x)
    eye = sp.identity(d, format="csr")
    x2 = x @ x
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    lind = (-1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
            - lam * (sp.kron(x2, eye) + sp.kron(eye, x2.T))
            + 2 * lam * sp.kron(x, x.T)).tocsr()

    psi = _coherent(d, s, x0) + _coherent(d, s, -x0)
    psi = psi / np.linalg.norm(psi)
    rho0 = np.outer(psi, psi).astype(complex)
    n = int(params["master.t_steps"])
    t_max = float(params["master.t_max"])
    states = expm_multiply(lind, rho0.ravel(), start=0.0, stop=t_max, num=n,
                           endpoint=True)

    half = 2.5 * x0 + 2.0
    xs = np.linspace(-half, half, 121)
    in_a = (xs >= x0 - 0.8) & (xs <= x0 + 0.8)
    in_b = (xs >= -x0 - 0.8) & (xs <= -x0 + 0.8)
    sq = np.sqrt(s)
    phi = np.sqrt(sq) * _hermite_functions(sq * xs, d)
    vis = []
    for vec in states:
        kernel = phi.T @ vec.reshape(d, d) @ phi
        off = abs(kernel[np.ix_(in_a, in_b)].sum())
        da = kernel[np.ix_(in_a, in_a)].sum().real
        db = kernel[np.ix_(in_b, in_b)].sum().real
        vis.append(off / np.sqrt(da * db))
    return np.array(vis)


def check_master_dephasing(params: dict, out_dir: Path, reference=None) -> None:
    header, rows = read_csv(Path(out_dir) / "visibility.csv")
    _require(header == ["t", "visibility"], f"visibility.csv header {header}")
    ts = np.array([float(r[0]) for r in rows])
    _check_grid(ts, float(params["master.t_max"]), int(params["master.t_steps"]),
                "visibility.csv")
    got = np.array([float(r[1]) for r in rows])
    want = reference if reference is not None else \
        reference_for("master_dephasing", params)
    err = float(np.abs(got - want).max())
    _require(err <= VISIBILITY_TOL,
             f"visibility off by {err:.3e} (tolerance {VISIBILITY_TOL})")


def reference_for(workload: str, params: dict):
    """Precomputable part of a check, shared by every run of one scenario."""
    if workload == "chain_compare":
        n = int(params["run.t_steps"])
        ts = _grid(float(params["run.t_max"]), n)[chain_probe_rows(n)]
        return chain_reference(params, ts)
    if workload == "master_dephasing":
        return master_reference(params)
    return None


CHECKS = {
    "chain_compare": check_chain_compare,
    "oracle_crosscheck": check_oracle_crosscheck,
    "master_dephasing": check_master_dephasing,
}

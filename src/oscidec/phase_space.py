"""Canonical phase-space core: layouts, quadratic Hamiltonians, Gaussian states.

Conventions (natural units, hbar = k_B = 1):
  * coordinates stacked as z = (x_1..x_n, p_1..p_n);
  * H = 1/2 z^T h z, h = blockdiag(V, T) with T > 0: no x-p or linear term;
  * covariance sigma_ij = 1/2 <{dz_i, dz_j}>, vacuum sigma = I/2 at m = omega = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

# Pure-state determinant floor: det(2 sigma) >= 1, degeneracy below this is an
# invalid construction, not something to regularize.
_DET_FLOOR = 1e-12
# Smallest eigenvalue of sigma + iJ/2 any covariance, input or evolved, may have.
_UNCERTAINTY_TOL = 1e-10


class PhaseSpaceError(ValueError):
    """Invalid phase-space object or operation."""


class TrustGateError(ValueError):
    """A numerical-trust gate refused to certify a result.

    Distinct from invalid input: the request was well formed, but the numbers
    it produced fall outside what the named `gate` can vouch for.
    """

    def __init__(self, gate: str, message: str):
        super().__init__(message)
        self.gate = gate


class _UncertaintyGateError(PhaseSpaceError, TrustGateError):
    """A covariance whose purity reads det(2 sigma) < 1."""


@dataclass(frozen=True)
class PhaseSpaceLayout:
    """Ordered mode labels fixing the (x-block, p-block) coordinate layout."""

    mode_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.mode_labels) == 0:
            raise PhaseSpaceError("layout needs at least one mode")
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise PhaseSpaceError("mode labels must be unique")

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    @property
    def dim(self) -> int:
        return 2 * len(self.mode_labels)

    def index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise PhaseSpaceError(f"unknown mode label {label!r}") from None

    def z_indices(self, labels: Sequence[str]) -> NDArray[np.intp]:
        """Phase-space indices (x rows then p rows) of the selected modes."""
        k = np.array([self.index(lb) for lb in labels], dtype=np.intp)
        return np.concatenate([k, k + self.n_modes])


def layout(*labels: str) -> PhaseSpaceLayout:
    return PhaseSpaceLayout(tuple(labels))


def symplectic_form(n_modes: int) -> FloatArray:
    """J = [[0, I], [-I, 0]] for the (x, p) block ordering."""
    if n_modes < 1:
        raise PhaseSpaceError("need at least one mode")
    J = np.zeros((2 * n_modes, 2 * n_modes))
    J[:n_modes, n_modes:] = np.eye(n_modes)
    J[n_modes:, :n_modes] = -np.eye(n_modes)
    return J


def _uncertainty_min_eig(cov: FloatArray) -> float:
    """lambda_min(sigma + iJ/2); NaN for a non-finite sigma, on which eigvalsh
    may raise, return NaN or return finite garbage."""
    if not np.isfinite(cov).all():
        return np.nan
    J = symplectic_form(cov.shape[0] // 2)
    return float(np.linalg.eigvalsh(cov + 0.5j * J).min())


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = 1/2 z^T h z = 1/2 x^T V x + 1/2 p^T T p on a fixed layout."""

    layout: PhaseSpaceLayout
    h: FloatArray
    tag: str = ""

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.layout.dim, self.layout.dim):
            raise PhaseSpaceError("h matrix shape does not match layout")
        if not np.isfinite(h).all():
            raise PhaseSpaceError("h matrix must be finite")
        scale = max(np.abs(h).max(), 1.0)
        if np.abs(h - h.T).max() > 1e-12 * scale:
            raise PhaseSpaceError("h matrix must be symmetric")
        object.__setattr__(self, "h", 0.5 * (h + h.T))
        n = self.layout.n_modes
        if np.any(self.h[:n, n:]):
            raise PhaseSpaceError("position-momentum coupling h[:n, n:] must be 0")
        if np.linalg.eigvalsh(self.h[n:, n:]).min() <= 0:
            raise PhaseSpaceError("momentum block must be positive definite")

    @property
    def n_modes(self) -> int:
        return self.layout.n_modes


@dataclass(frozen=True)
class GaussianState:
    """First moments + covariance; carrier of every state in the library."""

    layout: PhaseSpaceLayout
    mean: FloatArray
    cov: FloatArray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = self.layout.dim
        if mean.shape != (d,) or cov.shape != (d, d):
            raise PhaseSpaceError("mean/covariance shape does not match layout")
        # before eigvalsh, which may raise LinAlgError or return finite
        # eigenvalues on NaN input
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise PhaseSpaceError("mean and covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-10 * max(np.abs(cov).max(), 1.0):
            raise PhaseSpaceError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        min_eig = _uncertainty_min_eig(cov)
        if min_eig < -_UNCERTAINTY_TOL:
            raise PhaseSpaceError(
                f"covariance violates the uncertainty relation (min eig {min_eig:.3e})")
        self.__dict__["_deficit"] = max(0.0, -min_eig)

    @classmethod
    def _prechecked(cls, lay: PhaseSpaceLayout, mean: FloatArray,
                    cov: FloatArray,
                    deficit: float | None = None) -> "GaussianState":
        """Skip the checks for a covariance known to pass them already.

        Only for an evolved covariance that passed the dynamics uncertainty
        gate, a principal submatrix of a checked covariance (by Cauchy
        interlacing its sigma + iJ/2 has no smaller minimum eigenvalue), a
        product of checked states (its sigma + iJ/2 is theirs, block diagonal
        up to a permutation, so its `deficit` is the larger of theirs), or a
        checked state displaced (sigma, and so its `deficit`, is unchanged).
        A state given no deficit computes it once, on first read.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "layout", lay)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "cov", cov)
        if deficit is not None:
            state.__dict__["_deficit"] = deficit
        return state

    @cached_property
    def _deficit(self) -> float:
        """max(0, -lambda_min(sigma + iJ/2)): the initial deficit eps0 an
        evolution carries forward, kept from validation where it ran."""
        return max(0.0, -_uncertainty_min_eig(self.cov))

    @property
    def n_modes(self) -> int:
        return self.layout.n_modes


@dataclass(frozen=True)
class CoherentAmplitude:
    """Displacement (x0, p0) of one mode."""

    mode: str
    x0: float
    p0: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x0) and np.isfinite(self.p0)):
            raise PhaseSpaceError("amplitudes must be finite")


def vacuum_cov(masses: Sequence[float], freqs: Sequence[float]) -> FloatArray:
    """Ground-state covariance diag(1/(2 m w), m w / 2) per mode."""
    m = np.asarray(masses, float)
    w = np.asarray(freqs, float)
    if not ((m > 0).all() and (w > 0).all()):
        raise PhaseSpaceError("masses and frequencies must be positive")
    return np.diag(np.concatenate([1.0 / (2 * m * w), m * w / 2]))


def coherent_state(lay: PhaseSpaceLayout,
                   masses: Sequence[float],
                   freqs: Sequence[float],
                   amplitudes: Sequence[CoherentAmplitude] = ()) -> GaussianState:
    """Displaced-vacuum product state; modes without an amplitude stay at rest."""
    mean = np.zeros(lay.dim)
    for amp in amplitudes:
        k = lay.index(amp.mode)
        mean[k] = amp.x0
        mean[k + lay.n_modes] = amp.p0
    return GaussianState(lay, mean, vacuum_cov(masses, freqs))


def thermal_occupation(freq: float, temperature: float) -> float:
    """Bose occupation nbar = 1/(e^{w/T} - 1), 0 at T = 0."""
    if temperature <= 0:
        return 0.0
    r = freq / temperature
    if r > 700:
        return 0.0
    return 1.0 / np.expm1(r)


def thermal_state(lay: PhaseSpaceLayout,
                  masses: Sequence[float],
                  freqs: Sequence[float],
                  temperature: float) -> GaussianState:
    """Zero-mean Gibbs state, per-mode covariance (nbar + 1/2) scaled by (m w)."""
    m = np.asarray(masses, float)
    w = np.asarray(freqs, float)
    if not ((m > 0).all() and (w > 0).all()):
        raise PhaseSpaceError("masses and frequencies must be positive")
    if not temperature >= 0:
        raise PhaseSpaceError(f"temperature must be >= 0, not {temperature!r}")
    nbar = np.array([thermal_occupation(wi, temperature) for wi in w])
    cov = np.diag(np.concatenate([(nbar + 0.5) / (m * w), (nbar + 0.5) * m * w]))
    return GaussianState(lay, np.zeros(lay.dim), cov)


def _log_purity_of_cov(cov: FloatArray) -> FloatArray:
    """-1/2 ln det(2 sigma) per covariance of a stack; refuses a degenerate one."""
    sign, logdet = np.linalg.slogdet(2.0 * cov)
    if np.any((sign <= 0) | (logdet < np.log(1.0 - _DET_FLOOR) - 1e-9)):
        raise _UncertaintyGateError(
            "uncertainty relation",
            "degenerate covariance: det(2 sigma) < 1 violates the uncertainty "
            "relation")
    return -0.5 * logdet


def log_purity(state: GaussianState) -> float:
    """ln tr rho^2; stays finite where purity itself underflows."""
    return float(_log_purity_of_cov(state.cov))


def purity(state: GaussianState) -> float:
    """tr rho^2 = 1 / (2^n sqrt(det sigma))."""
    return float(np.exp(log_purity(state)))


def reduce_state(state: GaussianState, modes: Sequence[str]) -> GaussianState:
    """Marginal on the selected modes (tracing out the rest is basis-free)."""
    if len(modes) == 0:
        raise PhaseSpaceError("cannot reduce to an empty mode set")
    idx = state.layout.z_indices(modes)
    return GaussianState._prechecked(PhaseSpaceLayout(tuple(modes)),
                                     state.mean[idx], state.cov[np.ix_(idx, idx)])


def product_state(lay: PhaseSpaceLayout, open_mode: str,
                  open_state: GaussianState,
                  env: GaussianState) -> GaussianState:
    """One-mode `open_state` on `open_mode` times `env` on the other modes."""
    if open_state.n_modes != 1:
        raise PhaseSpaceError("the open-mode factor must be a one-mode state")
    k = lay.index(open_mode)
    env_labels = tuple(lb for lb in lay.mode_labels if lb != open_mode)
    if env.layout.mode_labels != env_labels:
        raise PhaseSpaceError("environment state must cover all non-open modes")
    mean = np.zeros(lay.dim)
    cov = np.zeros((lay.dim, lay.dim))
    for idx, part in ((np.array([k, k + lay.n_modes]), open_state),
                      (lay.z_indices(env_labels), env)):
        mean[idx] = part.mean
        cov[np.ix_(idx, idx)] = part.cov
    return GaussianState._prechecked(lay, mean, cov,
                                     max(open_state._deficit, env._deficit))


def log_negativity(state: GaussianState, part_a: Sequence[str],
                   part_b: Sequence[str]) -> float:
    """Gaussian logarithmic negativity across the (A, B) bipartition.

    Partial transposition flips the momentum signs of the B modes; the result
    is sum over symplectic eigenvalues nu of max(0, -ln 2 nu).
    """
    lay = state.layout
    if sorted(tuple(part_a) + tuple(part_b)) != sorted(lay.mode_labels):
        raise PhaseSpaceError("bipartition must cover all modes exactly once")
    n = lay.n_modes
    flip = np.ones(2 * n)
    for lb in part_b:
        flip[lay.index(lb) + n] = -1.0
    cov_pt = state.cov * np.outer(flip, flip)
    ev = np.linalg.eigvals(symplectic_form(n) @ cov_pt)
    nu = np.sort(np.abs(ev))[::2]  # eigenvalues come in +-i nu pairs
    return float(np.sum(np.maximum(0.0, -np.log(2.0 * nu))))

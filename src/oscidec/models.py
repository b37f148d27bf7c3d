"""Concrete Hamiltonian builders: two-mode model, Caldeira-Leggett chains,
and discretized Ohmic baths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .phase_space import FloatArray, PhaseSpaceLayout, QuadraticHamiltonian


class ModelError(ValueError):
    """Model parameters violate a stated constraint."""


@dataclass(frozen=True)
class TwoModeParams:
    """Free mode S bilinearly coupled to one harmonic mode E."""

    m_s: float
    m_e: float
    omega: float
    coupling: float  # C, sign fixed positive in the -C x_S x_E convention

    def __post_init__(self) -> None:
        if not (self.m_s > 0 and self.m_e > 0 and self.omega > 0):
            raise ModelError("masses m_s, m_e and frequency omega must be positive")
        if not math.isfinite(self.coupling):
            raise ModelError(f"coupling C must be finite, not {self.coupling}")
        # confinement constraint: C < m_E omega^2 / 2
        if not self.coupling < self.m_e * self.omega ** 2 / 2:
            raise ModelError(
                f"coupling C={self.coupling} violates C < m_E omega^2/2 "
                f"= {self.m_e * self.omega ** 2 / 2}")


@dataclass(frozen=True)
class BathParams:
    """Independent harmonic oscillators, each position-coupled to the open mode."""

    masses: tuple[float, ...]
    freqs: tuple[float, ...]
    couplings: tuple[float, ...]
    coupling_sign: int = 1  # +-1, the sign in front of kappa_i x_S x_i

    def __post_init__(self) -> None:
        n = len(self.masses)
        if n == 0:
            raise ModelError("bath must contain at least one oscillator")
        if len(self.freqs) != n or len(self.couplings) != n:
            raise ModelError("bath parameter lists must have equal length")
        if not all(x > 0 for x in (*self.masses, *self.freqs)):
            raise ModelError("bath masses and frequencies must be positive")
        if not np.isfinite(self.couplings).all():
            raise ModelError("bath couplings must be finite")
        if self.coupling_sign not in (1, -1):
            raise ModelError("coupling_sign must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class SystemPotential:
    """Open-mode potential: free particle or harmonic (m_S, omega_S)."""

    variant: Literal["free", "harmonic"]
    m_s: float = 1.0
    omega_s: float = 0.0

    def __post_init__(self) -> None:
        if self.variant not in ("free", "harmonic"):
            raise ModelError(f"unknown potential variant {self.variant!r}")
        if not self.m_s > 0:
            raise ModelError("open-mode mass m_s must be positive")
        if self.variant == "harmonic" and not self.omega_s > 0:
            raise ModelError("harmonic potential needs omega_s > 0")

    @property
    def spring(self) -> float:
        """Quadratic coefficient m_S omega_S^2 (0 for the free variant)."""
        return 0.0 if self.variant == "free" else self.m_s * self.omega_s ** 2


def build_two_mode(p: TwoModeParams) -> QuadraticHamiltonian:
    """H = p_S^2/2m_S + p_E^2/2m_E + m_E w^2 x_E^2/2 - C x_S x_E."""
    lay = PhaseSpaceLayout(("S", "E"))
    h = np.zeros((4, 4))
    h[1, 1] = p.m_e * p.omega ** 2
    h[0, 1] = h[1, 0] = -p.coupling
    h[2, 2] = 1.0 / p.m_s
    h[3, 3] = 1.0 / p.m_e
    return QuadraticHamiltonian(lay, h, tag="two_mode")


def build_caldeira_leggett(pot: SystemPotential, bath: BathParams) -> QuadraticHamiltonian:
    """Open mode + N-oscillator bath with bilinear position couplings.

    H = p_S^2/2m_S + V(x_S) + sum_i [p_i^2/2m_i + m_i w_i^2 x_i^2/2
        + s kappa_i x_S x_i],  s = bath.coupling_sign.
    """
    lay = PhaseSpaceLayout(("S",) + tuple(f"E{i+1}" for i in range(bath.n)))
    return QuadraticHamiltonian(lay, caldeira_leggett_matrix(pot, bath),
                                tag="caldeira_leggett")


def caldeira_leggett_matrix(pot: SystemPotential, bath: BathParams) -> FloatArray:
    """The h matrix of `build_caldeira_leggett`, symmetric and unvalidated,
    for callers that read only a block of it."""
    n = bath.n + 1
    h = np.zeros((2 * n, 2 * n))
    h[0, 0] = pot.spring
    for i, (m, w, k) in enumerate(zip(bath.masses, bath.freqs, bath.couplings)):
        h[i + 1, i + 1] = m * w ** 2
        h[0, i + 1] = h[i + 1, 0] = bath.coupling_sign * k
    h[n:, n:] = np.diag(np.concatenate([[1.0 / pot.m_s], 1.0 / np.asarray(bath.masses)]))
    return h


def discretize_ohmic_bath(n: int, omega_cutoff: float, eta: float) -> BathParams:
    """Uniform-bin Ohmic bath on (0, omega_cutoff]: J(w) ~ eta w, sharp cutoff.

    Unit masses, omega_i = i * delta with delta = omega_cutoff / n, and
    kappa_i = sqrt(2 m_i omega_i * eta omega_i delta) so each bin carries the
    local Ohmic weight.
    """
    if n < 1:
        raise ModelError("bath oscillator count must be >= 1")
    if not (omega_cutoff > 0 and eta >= 0):
        raise ModelError("cutoff must be positive and eta non-negative")
    delta = omega_cutoff / n
    w = (np.arange(n) + 1) * delta
    m = np.ones(n)
    kappa = np.sqrt(2.0 * m * w * eta * w * delta)
    return BathParams(tuple(m), tuple(w), tuple(kappa))

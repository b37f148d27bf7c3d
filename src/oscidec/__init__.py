"""Decoherence of coupled oscillators across coordinate decompositions.

One closed network of harmonic modes, two stories: split it as open mode +
environment, or re-draw the boundary at center of mass + relative modes via a
linear canonical transform.  Both splits are evolved with exact Gaussian
symplectic dynamics, their branch-overlap decays are compared, and everything
is cross-checked against a dense truncated number-basis solver.
"""
from .phase_space import (CoherentAmplitude, GaussianState, PhaseSpaceError,
                          PhaseSpaceLayout, QuadraticHamiltonian,
                          TrustGateError, coherent_state, gaussian_overlap,
                          layout, log_gaussian_overlap, log_negativity,
                          log_purity, product_state, purity, reduce_state,
                          symplectic_form, thermal_occupation, thermal_state,
                          vacuum_cov)
from .models import (BathParams, ModelError, SystemPotential, TwoModeParams,
                     build_caldeira_leggett, build_two_mode,
                     coupling_spectrum, discretize_ohmic_bath)
from .decomposition import (LinearCoordinateTransform, ManyModeConstants,
                            TransformError, TwoModeConstants,
                            cm_relative_transform, many_mode_constants,
                            normal_mode_transform, transform_hamiltonian,
                            transform_state, two_mode_constants,
                            verify_constants)
from .dynamics import (BranchTrajectory, DynamicsError, DynamicsTrustError,
                       SymplecticPropagator, energy, evolve, evolve_branches,
                       evolve_branches_from, evolve_grid, propagator,
                       symplectic_residual)
from .metrics import (DecoherenceReport, MetricsError, ParallelComparison,
                      PositivityGateError, amplitude_distance_sq, build_report,
                      decoherence_function, decoherence_time, fit_lambda,
                      model_fingerprint, parallel_compare,
                      pointer_robustness)
from .fock import (CrosscheckReport, CrosscheckRow, FockSpace, OracleError,
                   cm_relative_log_negativity, evolve_exact,
                   gaussian_crosscheck, leakage, pt_log_negativity_pure,
                   schmidt_log_negativity_pure)
from .master import (MasterEqError, MasterEqScenario, MasterEqTrustError,
                     MasterEvolution, coherence_profile, evolve_master,
                     position_kernel)
from .config import ConfigError, ScenarioConfig, manifest_text, parse_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # phase space
    "PhaseSpaceError", "TrustGateError", "PhaseSpaceLayout",
    "QuadraticHamiltonian",
    "GaussianState", "CoherentAmplitude", "layout", "symplectic_form",
    "vacuum_cov", "coherent_state", "thermal_occupation", "thermal_state",
    "purity", "log_purity", "reduce_state", "product_state",
    "log_negativity",
    "log_gaussian_overlap", "gaussian_overlap",
    # models
    "ModelError", "TwoModeParams", "BathParams", "SystemPotential",
    "build_two_mode", "build_caldeira_leggett", "discretize_ohmic_bath",
    "coupling_spectrum",
    # decomposition
    "TransformError", "LinearCoordinateTransform", "TwoModeConstants",
    "ManyModeConstants", "cm_relative_transform", "transform_hamiltonian",
    "transform_state", "two_mode_constants", "many_mode_constants",
    "verify_constants", "normal_mode_transform",
    # dynamics
    "DynamicsError", "DynamicsTrustError", "SymplecticPropagator",
    "propagator",
    "symplectic_residual", "evolve", "evolve_grid", "energy",
    "BranchTrajectory", "evolve_branches", "evolve_branches_from",
    # metrics
    "MetricsError", "PositivityGateError", "DecoherenceReport",
    "ParallelComparison",
    "model_fingerprint", "decoherence_function", "amplitude_distance_sq",
    "fit_lambda", "decoherence_time", "build_report", "parallel_compare",
    "pointer_robustness",
    # oracle
    "OracleError", "FockSpace", "CrosscheckRow", "CrosscheckReport",
    "evolve_exact", "leakage", "gaussian_crosscheck",
    "cm_relative_log_negativity", "pt_log_negativity_pure",
    "schmidt_log_negativity_pure",
    # master equation
    "MasterEqError", "MasterEqTrustError", "MasterEqScenario",
    "MasterEvolution", "evolve_master",
    "position_kernel", "coherence_profile",
    # config
    "ConfigError", "ScenarioConfig", "parse_config", "manifest_text",
]

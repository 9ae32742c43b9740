"""Long-range particle chains, their dispersive long-wave surrogate, and a
scaling-validation harness tying the two together."""

__version__ = "0.1.0"

from .bo_solver import BlowUpError, BOConfig, BOState, gaussian_profile, run_to
from .harness import (ConfigError, ScalingReport, ValidationConfig,
                      ValidationResult, ansatz_fields,
                      default_residual_amplitude, error_energy_trace,
                      fit_slope, residual_fields, run_residual_sweep,
                      run_validation)
from .lattice import (CollisionError, LatticeConfig, LatticeState, energy,
                      error_energy, error_energy_constants, force,
                      p2_functional, run_steps)
from .specfun import (AlphaParams, eta_integral, eta_riemann, find_alpha_star,
                      make_alpha_params, zeta, zeta_gap)
from .spectral import (PeriodicGrid, SpectralField, sample_spectrum,
                       sobolev_norm)

__all__ = [
    "AlphaParams", "BOConfig", "BOState", "BlowUpError", "CollisionError",
    "ConfigError", "LatticeConfig", "LatticeState", "PeriodicGrid",
    "ScalingReport", "SpectralField", "ValidationConfig", "ValidationResult",
    "ansatz_fields", "default_residual_amplitude", "energy", "error_energy",
    "error_energy_constants", "error_energy_trace", "eta_integral",
    "eta_riemann", "find_alpha_star", "fit_slope", "force",
    "gaussian_profile", "make_alpha_params", "p2_functional",
    "residual_fields", "run_residual_sweep", "run_steps", "run_to",
    "run_validation", "sample_spectrum", "sobolev_norm", "zeta", "zeta_gap",
    "__version__",
]

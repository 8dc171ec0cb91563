"""Information dimension rate of stationary multivariate Gaussian processes.

Two independent routes to the same number: the average rank of the spectral
density (exact, analytic) and quantized-entropy / rate-distortion slopes
(empirical), plus the diagnostics that connect them.

The package namespace carries the documented entry points only; every other
name is imported from its module, e.g. `from gaussdim.simulate import
sample_paths`.
"""

from .spectral import Band, FrequencyGrid, RationalTerm, SpectralLine, SpectralModel, rank_integral
from .estimators import idr_slope_estimate, invariance_check, surrogate_idr_estimate
from .ratedist import rd_dimension_estimate
from .experiments import ExperimentConfig, run

__all__ = [
    "SpectralModel",
    "Band",
    "RationalTerm",
    "SpectralLine",
    "FrequencyGrid",
    "rank_integral",
    "idr_slope_estimate",
    "surrogate_idr_estimate",
    "rd_dimension_estimate",
    "invariance_check",
    "ExperimentConfig",
    "run",
]

"""Information dimension rate of stationary multivariate Gaussian processes.

Two independent routes to the same number: the average rank of the spectral
density (exact, analytic) and quantized-entropy / rate-distortion slopes
(empirical), plus the diagnostics that connect them.
"""

from .spectral import (
    Band,
    FrequencyGrid,
    ModelValidationError,
    PropernessReport,
    RankIntegralResult,
    RankProfile,
    RationalTerm,
    SpectralLine,
    SpectralModel,
    SupportBoundReport,
    component_variances,
    eval_spectrum,
    normalize_components,
    permute_components,
    properness_check,
    rank_integral,
    scale_components,
    support_bound,
)
from .simulate import (
    AutocovarianceSequence,
    SamplePathBatch,
    WelchEstimate,
    autocovariance_from_spectrum,
    sample_paths,
    welch_psd,
)
from .quantize import (
    BussgangReport,
    DitheredPathBatch,
    QuantizedPathBatch,
    SpectrumIdentityReport,
    bussgang_gain,
    dither,
    quantize,
    spectrum_identity_check,
)
from .entropy import (
    CellDistribution,
    EntropyEstimate,
    exact_cell_distribution,
    exact_cell_entropy,
    plugin_entropy,
)
from .estimators import (
    DimensionEstimate,
    InvarianceReport,
    KLCheckReport,
    gaussian_surrogate_kl,
    idr_slope_estimate,
    invariance_check,
    surrogate_idr_estimate,
)
from .ratedist import (
    RDCurve,
    WaterfillPoint,
    rd_curve,
    rd_dimension_estimate,
)
from .reports import EstimateReport, RunReport, emit, load_report
from .experiments import ExperimentConfig, run

import types as _types

__all__ = [
    name
    for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
]

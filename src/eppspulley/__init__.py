"""Epps-Pulley test for univariate normality.

The package computes the test statistic from data, computes the
spectrum of the limit-null covariance operator in a closed-form basis
(and estimates it by the paper's stochastic discretization), draws
p-values from the limit-null law, and evaluates local approximate
Bahadur slopes and efficiencies against the likelihood ratio benchmark
for a set of parametric alternatives to normality.
"""

from .alternatives import (
    TABLE_FAMILIES,
    AlternativeFamily,
    contamination,
    family_from_name,
    lehmann,
    ley_paindaveine_1,
    ley_paindaveine_2,
)
from .backend import backend_name
from .bahadur import (
    EfficiencyTable,
    efficiency_table,
    local_index,
    lrt_local_index,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureError,
    QuadratureResult,
    integrate_1d,
    integrate_2d,
)
from .spectral import (
    OperatorSpectrum,
    SpectrumResult,
    Truncation,
    kernel,
    lambda1,
    null_pvalue,
    nystrom_spectrum,
    operator_spectrum,
    operator_trace,
    truncation,
)
from .statistic import (
    DegenerateSampleError,
    Sample,
    TuningParam,
    epps_pulley_statistic,
    scaled_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeFamily",
    "DegenerateSampleError",
    "EfficiencyTable",
    "QuadratureConfig",
    "QuadratureError",
    "OperatorSpectrum",
    "QuadratureResult",
    "Sample",
    "SpectrumResult",
    "TABLE_FAMILIES",
    "Truncation",
    "TuningParam",
    "backend_name",
    "contamination",
    "efficiency_table",
    "epps_pulley_statistic",
    "family_from_name",
    "integrate_1d",
    "integrate_2d",
    "kernel",
    "lambda1",
    "lehmann",
    "ley_paindaveine_1",
    "ley_paindaveine_2",
    "local_index",
    "lrt_local_index",
    "null_pvalue",
    "nystrom_spectrum",
    "operator_spectrum",
    "operator_trace",
    "scaled_residuals",
    "truncation",
    "__version__",
]

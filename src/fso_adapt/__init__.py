"""fso-adapt: adaptive subcarrier-PSK intensity-modulated optical links
over lognormal atmospheric turbulence.

Analytics (modulation-order thresholds, spectral efficiency, average
BER, capacity upper bounds, aperture-array extensions) plus an
independent symbol-level Monte Carlo simulator that cross-validates
every analytic number.
"""

__version__ = "0.1.0"

from .adaptation import (
    AdaptiveScheme,
    SweepTable,
    average_ber_adaptive,
    compute_boundaries,
    region_probabilities,
    select_order,
    spectral_efficiency,
    sweep,
)
from .link import (
    LinkBudget,
    ModOrder,
    ber_average,
    ber_conditional,
    capacity_upper_closed,
    capacity_upper_numeric,
    db_to_linear,
    linear_to_db,
)
from .numerics import (
    QuadratureRule,
    gauss_hermite,
    gauss_legendre,
    integrate_truncated_normal,
    inverse_q,
    q_function,
)
from .simulator import (
    KERNEL_BACKEND,
    SimConfig,
    SimReport,
    ValidationResult,
    run,
    validate_point,
)
from .turbulence import MimoConfig, TurbulenceParams, cdf, pdf, sample_fading

__all__ = [
    "__version__",
    "AdaptiveScheme",
    "SweepTable",
    "average_ber_adaptive",
    "compute_boundaries",
    "region_probabilities",
    "select_order",
    "spectral_efficiency",
    "sweep",
    "LinkBudget",
    "ModOrder",
    "ber_average",
    "ber_conditional",
    "capacity_upper_closed",
    "capacity_upper_numeric",
    "db_to_linear",
    "linear_to_db",
    "QuadratureRule",
    "gauss_hermite",
    "gauss_legendre",
    "integrate_truncated_normal",
    "inverse_q",
    "q_function",
    "KERNEL_BACKEND",
    "SimConfig",
    "SimReport",
    "ValidationResult",
    "run",
    "validate_point",
    "MimoConfig",
    "TurbulenceParams",
    "cdf",
    "pdf",
    "sample_fading",
]

"""Sign families with limited independence and their excursion bounds."""

__version__ = "0.1.0"

from .sign_families import (
    ADVERSARIAL_STAGE,
    FULLY_INDEPENDENT,
    H_BRANCHES,
    POLYNOMIAL_KWISE,
    AdversarialParams,
    FamilySpec,
    MomentSummary,
    adversarial_params,
    empirical_moments,
    exact_moments,
    f_values,
    g_table,
    make_sampler,
)
from .walks import (
    GrowthFit,
    drift_check_h1,
    estimate_sup_moment,
    fit_log_growth,
    scaling_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]

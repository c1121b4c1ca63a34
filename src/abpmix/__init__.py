"""Mixed-model analysis of 24-hour ambulatory blood pressure cohorts.

Orthonormal-polynomial and restricted-cubic-spline time bases in a
Gaussian linear mixed model: REML estimation, Satterthwaite inference,
subject-specific BLUP profiles, and model-based prediction bands.
"""

from .basis import (
    PolynomialCoefficients,
    TimeGrid,
    clock_knots_to_elapsed,
    evaluate_polynomial_basis,
    orthonormal_polynomial_basis,
    restricted_cubic_spline_basis,
)
from .blup import (
    population_curve,
    prediction_band,
    random_effects_blup,
    subject_profile,
)
from .dataio import (
    SimulationConfig,
    filter_normals,
    hourly_aggregate,
    read_cohort,
    simulate_cohort,
)
from .design import (
    BasisContext,
    BasisDescriptor,
    Cohort,
    DesignPair,
    ModelSpec,
    Subject,
    build_design,
    parameter_count,
)
from .estimation import (
    CovarianceParams,
    FittedModel,
    MixedModelProblem,
    fit,
)
from .inference import (
    Contrast,
    TestResult,
    f_test,
    information_criteria,
    r2_statistics,
)

__version__ = "0.1.0"

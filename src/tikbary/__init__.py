"""Tikhonov-regularized least squares in Gauss points, with barycentric
evaluation.

Fit a polynomial of degree L to samples taken at the nodes of an (N+1)-point
Gauss rule, with ridge penalty lambda on the coefficients.  Thanks to the
quadrature's exactness the coefficients come out in closed form, a plain
weighted sum shrunk by 1/(1+lambda); with L = N the fit is interpolation and
has two barycentric evaluation forms that inherit the same shrinkage.  The
rest of the package measures how such fits behave under noise: error
metrics, Lebesgue constants, theoretical-bound checks, and reproducible
experiment drivers.
"""

from ._version import __version__
from .barycentric import (
    BarycentricData,
    interp_barycentric,
    interp_modified_lagrange,
    weights_gauss,
    weights_product,
)
from .basis import (
    BasisSpec,
    RecurrenceTable,
    eval_orthonormal,
    recurrence_coefficients,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    desk_config,
    paper_config,
    run,
)
from .metrics import (
    LAMBDA_STAR,
    BoundCheck,
    ErrorReport,
    Surrogates,
    SweepResult,
    bound_check_l2_noise,
    bound_check_stability,
    bound_check_uniform_noise,
    default_l2_rule,
    default_lambda_grid,
    default_uniform_grid,
    l2_error,
    lambda_sweep,
    truncation_surrogates,
    uniform_error,
)
from .quadrature import QuadratureRule, exactness_residual, gauss_rule
from .regularized_fit import (
    RegularizedApproximant,
    continuum_limit_fit,
    evaluate,
    fit,
    gram_matrix_residual,
    lebesgue_constant,
)
from .signals import (
    FUNCTIONS,
    NoiseSpec,
    add_noise,
    airy_ai,
    derive_seed,
    f1,
    f1_plus_sin10x,
    f2,
    f3,
    make_generator,
)

__all__ = [
    "__version__",
    "BasisSpec",
    "RecurrenceTable",
    "recurrence_coefficients",
    "eval_orthonormal",
    "QuadratureRule",
    "gauss_rule",
    "exactness_residual",
    "RegularizedApproximant",
    "fit",
    "evaluate",
    "gram_matrix_residual",
    "continuum_limit_fit",
    "lebesgue_constant",
    "BarycentricData",
    "weights_product",
    "weights_gauss",
    "interp_modified_lagrange",
    "interp_barycentric",
    "FUNCTIONS",
    "f1",
    "f2",
    "f3",
    "f1_plus_sin10x",
    "airy_ai",
    "NoiseSpec",
    "add_noise",
    "make_generator",
    "derive_seed",
    "ErrorReport",
    "BoundCheck",
    "Surrogates",
    "SweepResult",
    "LAMBDA_STAR",
    "default_lambda_grid",
    "default_uniform_grid",
    "default_l2_rule",
    "uniform_error",
    "l2_error",
    "lambda_sweep",
    "truncation_surrogates",
    "bound_check_stability",
    "bound_check_l2_noise",
    "bound_check_uniform_noise",
    "ExperimentConfig",
    "EXPERIMENTS",
    "paper_config",
    "desk_config",
    "run",
]

"""Expected real zeros of random trigonometric and cosine polynomials.

Analytic (Kac-Rice quadrature, closed forms, asymptotic constants) and
empirical (Monte Carlo zero counting) machinery for Gaussian coefficient
models with independent or ell-periodic coefficients.
"""

__version__ = "0.1.0"

from .models import (
    CoefficientModel,
    PeriodDecomposition,
    PolySample,
    decompose_degree,
    mix64,
    sample_coefficients,
    splitmix64,
    validate_model,
)
from .trigpoly import (
    ReducedSample,
    dirichlet_pair,
    evaluate,
    evaluate_on_grid,
    grid_nodes,
    reduce_periodic,
)
from .zeros import (
    ZeroCountReport,
    count_zeros,
    deterministic_zero_set,
)
from .kacrice import (
    AbcTriple,
    KacRiceResult,
    abc_closed,
    abc_reduced,
    expected_zeros_exact_r0,
    expected_zeros_quadrature,
)
from .constants import (
    compute_C,
    compute_I_alpha,
    compute_J,
    compute_K,
    limit_integrand_g,
    monte_carlo_C,
    monte_carlo_K,
    theoretical_mean,
)
from .harness import (
    DegreeRow,
    ExperimentConfig,
    ExperimentReport,
    load_config_file,
    parse_config_text,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .acceptance import CriterionResult, run_all

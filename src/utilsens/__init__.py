"""Long-horizon optimal-utility values, eigenpairs and sensitivities."""

from .coefficients import (
    CoefficientPath,
    build_path,
    closed_beta,
    closed_gamma,
    riccati_oracle,
)
from .eigenpairs import Eigenpair, eigenpair, ergodic_residual, phi_eval
from .models import (
    HESTON,
    KIM_OMBERG,
    OU_COMPLETE,
    ConfigError,
    DomainError,
    HestonParams,
    KimOmbergParams,
    Model,
    OUCompleteParams,
    Preferences,
    UnsupportedModelError,
    ValidationError,
    derive_constants,
    dual_exponent,
    market_price_of_risk,
    validate,
)
from .sensitivities import (
    SensitivityReport,
    convergence_diagnostic,
    initial_factor_sensitivity,
    lambda_fd,
    long_term_sensitivities,
)
from .simulation import (
    DecompositionResult,
    PathEnsemble,
    SimConfig,
    decomposition_check,
    estimate_error_term,
    mc_bump_sensitivity,
    simulate_phat_value,
    simulate_q_paths,
)
from .valuation import (
    ValueResult,
    control_hat_xi,
    control_star_xi,
    dual_value,
    f_eval,
    kappa_eval,
)

__version__ = "0.1.0"

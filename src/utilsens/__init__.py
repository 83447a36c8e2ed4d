"""Long-horizon optimal-utility values, eigenpairs and sensitivities."""

from .coefficients import CoefficientPath, build_path, riccati_oracle
from .eigenpairs import Eigenpair, eigenpair, ergodic_residual
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
    SimConfig,
    decomposition_check,
    decomposition_checks,
    mc_bump_sensitivities,
    mc_bump_sensitivity,
    simulate_phat_value,
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

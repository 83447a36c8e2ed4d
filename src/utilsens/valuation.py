"""Finite-horizon dual value, optimal controls, and the pointwise drift kappa
and tilt rate f of the eigenfunction decomposition.

The normalized dual value v(chi, T) has the closed forms

    kim_omberg: v = exp(Lambda(T) - beta(T) chi^2 / 2 - gamma(T) chi)
    heston:     v = exp(-gamma(T) - beta(T) chi)

and the optimal expected utility is v^(1-p)/p.  The complete-market model has
no closed finite-horizon form here and is served by Monte Carlo instead (see
the simulation module).

Time convention: all time-dependent operations take calendar time t with
horizon T and read the coefficients at time-to-go T - t.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import coefficients as coeff
from .eigenpairs import eigenpair, phi_ratios
from .models import (
    Model,
    UnsupportedModelError,
    initial_state,
    market_price_of_risk,
)


@dataclass(frozen=True)
class ValueResult:
    v: float
    utility: float
    log_abs_utility: float  # (1-p) ln v - ln|p|, finite where utility underflows
    growth_rate_estimate: float | None  # -(ln v)/T, None at T = 0

    @classmethod
    def of(cls, v: float, lv: float, p: float, T: float) -> ValueResult:
        """The row of a dual value v with log lv at horizon T, risk exponent p."""
        return cls(v=v, utility=v ** (1.0 - p) / p,
                   log_abs_utility=(1.0 - p) * lv - math.log(-p),
                   growth_rate_estimate=None if T == 0.0 else -lv / T)

    def as_dict(self) -> dict:
        return asdict(self)


def coefficients_at(model: Model, t: float) -> tuple[float, float, float]:
    """(beta(t), gamma(t), Lambda(t)), Lambda 0 for heston; a model without a
    closed path is refused by ``coefficients._path_spec``."""
    path_fields = coeff._path_spec(model).path_fields
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"horizon T must be finite and >= 0, got {t}")
    cols = {"Lambda": 0.0}
    cols.update((f, coeff._closed(model, f, t)) for f in path_fields)
    return cols["beta"], cols["gamma"], cols["Lambda"]


def _log_value_coefficients(model: Model, t: float) -> tuple[float, float, float]:
    """(a2, a1, a0) of ln v(x) = a0 - a2 x^2/2 - a1 x at time-to-go t."""
    return model.spec.log_value_coefficients(*coefficients_at(model, t))


def log_dual_value(model: Model, chi: float, T: float) -> float:
    a2, a1, a0 = _log_value_coefficients(model, T)
    return a0 - 0.5 * a2 * chi**2 - a1 * chi


def dual_value(model: Model, chi: float | None = None, T: float = 0.0) -> ValueResult:
    """Closed-form dual value and optimal expected utility at horizon T.

    The complete-market model is refused (:class:`UnsupportedModelError`):
    its value has no closed finite-horizon form and is estimated by
    ``simulation.simulate_phat_value``.
    """
    chi = initial_state(model, chi)
    lv = log_dual_value(model, chi, T)
    return ValueResult.of(math.exp(lv), lv, model.p, T)


def _check_time_pair(t: float, T: float) -> None:
    if not 0.0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")


def control_hat_xi(model: Model, x: float, t: float, T: float) -> float:
    """Finite-horizon optimal dual control at state x and calendar time t."""
    _check_time_pair(t, T)
    a2, a1, _ = _log_value_coefficients(model, T - t)
    u, _ = model.spec.scales(x)
    return model.constants.sigma2 / (1.0 - model.q) * (a2 * x + a1) * u


def control_star_xi(model: Model, x: float) -> float:
    """Ergodic optimal control xi*(x) = -sigma2(x) phi'(x) / ((1-q) phi(x))."""
    if not model.spec.has_path:
        raise UnsupportedModelError("no dual control for the complete-market model")
    r1, _ = phi_ratios(eigenpair(model), x)
    u, _ = model.spec.scales(x)
    return -model.constants.sigma2 * u * r1 / (1.0 - model.q)


def f_eval(model: Model, x: float, t: float, T: float) -> float:
    """Exponential-tilt rate f = -(q/2)(1-q) (xi* - xi_hat)^2 <= 0."""
    q = model.q
    d = control_star_xi(model, x) - control_hat_xi(model, x, t, T)
    return -0.5 * q * (1.0 - q) * d * d


def f_eval_expanded(model: Model, x: float, t: float, T: float) -> float:
    """The closed expansion of f (independent code path)."""
    _check_time_pair(t, T)
    a2, a1, _ = _log_value_coefficients(model, T - t)
    _, w = model.spec.scales(x)
    q = model.q
    ep = eigenpair(model)
    c = q * model.constants.sigma2**2 / (2.0 * (1.0 - q))
    return -c * w * ((ep.a2 - a2) * x + (ep.a1 - a1)) ** 2


def kappa_eval(model: Model, x: float, t: float, T: float) -> float:
    """Drift of the factor under the decomposition measure, from the closed
    drift coefficients the simulation uses."""
    _check_time_pair(t, T)
    b, g, _ = coefficients_at(model, T - t)
    model.spec.scales(x)  # rejects x < 0 under sqrt(x) diffusion
    c0, c1 = model.spec.drift(model, eigenpair(model), "q", b, g)
    return c0 - c1 * x


def kappa_eval_generic(model: Model, x: float, t: float, T: float) -> float:
    """kappa assembled from its definition: m - q theta sigma1 - q xi_hat sigma2
    + (phi'/phi)(sigma1^2 + sigma2^2).  Cross-route check of ``kappa_eval``."""
    _check_time_pair(t, T)
    q, pa, c = model.q, model.params, model.constants
    r1, _ = phi_ratios(eigenpair(model), x)
    theta = market_price_of_risk(model, x)
    xi_hat = control_hat_xi(model, x, t, T)
    u, w = model.spec.scales(x)
    return (pa.k * (pa.m_bar - x) - q * theta * (c.sigma1 * u)
            - q * xi_hat * (c.sigma2 * u) + r1 * (pa.sigma**2 * w))

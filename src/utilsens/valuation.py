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
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import coefficients as coeff
from .eigenpairs import eigenpair, phi_ratios
from .models import (
    Model,
    UnsupportedModelError,
    initial_state,
    market_price_of_risk,
)

_PATH_CACHE: dict[tuple, coeff.CoefficientPath] = {}
_PATH_CACHE_LOCK = threading.Lock()
_PATH_CACHE_MAX = 256


@dataclass(frozen=True)
class ValueResult:
    v: float
    utility: float
    growth_rate_estimate: float | None  # -(ln v)/T, None at T = 0

    def as_dict(self) -> dict:
        return asdict(self)


def cached_path(model: Model, T: float, n: int) -> coeff.CoefficientPath:
    """Coefficient path on the uniform grid linspace(0, T, n), cached by model
    content and (T, n).

    Read-mostly: concurrent readers are safe, writers are serialized.  The
    cached path's arrays are read-only, so no caller can change what later
    lookups get.
    """
    key = (model.content_key(), T, n)
    path = _PATH_CACHE.get(key)
    if path is not None:
        return path
    path = coeff.build_path(model, np.linspace(0.0, T, n))
    for arr in (path.grid, path.beta, path.gamma, path.Lambda):
        if arr is not None:
            arr.flags.writeable = False
    with _PATH_CACHE_LOCK:
        if len(_PATH_CACHE) >= _PATH_CACHE_MAX:
            _PATH_CACHE.clear()
        _PATH_CACHE[key] = path
    return path


def coefficients_at(model: Model, t: float) -> tuple[float, float, float]:
    """(beta(t), gamma(t), Lambda(t)) for a factor model; Lambda 0 for heston."""
    if not model.spec.has_path:
        raise UnsupportedModelError(f"no coefficient path for {model.kind}")
    if t < 0:
        raise ValueError("time-to-go must be >= 0")
    if t == 0.0:
        return 0.0, 0.0, 0.0
    path = cached_path(model, t, 2)
    lam = float(path.Lambda[-1]) if path.Lambda is not None else 0.0
    return float(path.beta[-1]), float(path.gamma[-1]), lam


def _log_value_coefficients(model: Model, t: float) -> tuple[float, float, float]:
    """(a2, a1, a0) of ln v(x) = a0 - a2 x^2/2 - a1 x at time-to-go t."""
    return model.spec.log_value_coefficients(*coefficients_at(model, t))


def log_dual_value(model: Model, chi: float, T: float) -> float:
    a2, a1, a0 = _log_value_coefficients(model, T)
    return a0 - 0.5 * a2 * chi**2 - a1 * chi


def dual_value(model: Model, chi: float | None = None, T: float = 0.0) -> ValueResult:
    """Closed-form dual value and optimal expected utility at horizon T.

    The complete-market model is rejected: its value has no closed
    finite-horizon form and is estimated by ``simulation.simulate_phat_value``.
    """
    if not model.spec.has_path:
        raise UnsupportedModelError(
            f"no closed finite-horizon value for {model.kind}; "
            "use simulation.simulate_phat_value"
        )
    chi = initial_state(model, chi)
    if T < 0:
        raise ValueError("T must be >= 0")
    lv = log_dual_value(model, chi, T)
    v = math.exp(lv)
    p = model.p
    utility = v ** (1.0 - p) / p
    growth = None if T == 0.0 else -lv / T
    return ValueResult(v=v, utility=utility, growth_rate_estimate=growth)


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

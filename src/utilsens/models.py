"""Model descriptions, parameter containers, derived constants and admissibility.

Three closed-form market models are supported:

* ``ou_complete`` -- a single risky asset following a mean-reverting
  Ornstein-Uhlenbeck price (complete market),
* ``kim_omberg``  -- stochastic excess returns driven by an OU factor,
* ``heston``      -- stochastic variance driven by a CIR factor.

The investor has power utility x**p / p with risk exponent p < 0; the dual
exponent q = -p/(1-p) in (0, 1) shows up throughout the closed forms.

Each kind has one description, a :class:`ModelSpec` in ``SPECS``, reached
from a validated model as ``model.spec``.  It holds everything that differs
between kinds: the parameter type and its fields, the initial-state field,
the sensitivity parameters, the one scheme its Monte Carlo paths are
stepped by, whether the diffusion and the market price of risk scale with
sqrt(x), the columns of the closed coefficient path (none for the
complete-market model), and the per-kind formulas, down to the published
long-term sensitivity table.  The other modules are written once against
the spec; no other module names a kind.

Parameter sets are immutable.  ``validate`` is the single entry point that
turns raw parameters into a :class:`Model` bundle carrying the derived
constants; everything downstream takes the bundle.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable

import numpy as np

OU_COMPLETE = "ou_complete"
KIM_OMBERG = "kim_omberg"
HESTON = "heston"

MODEL_KINDS = (OU_COMPLETE, KIM_OMBERG, HESTON)

# Strict inequalities (Feller, mean-reversion) are enforced with a margin:
# the exponential-moment formulas downstream blow up at the boundary.
ADMISSIBILITY_MARGIN = 1e-12


class ValidationError(ValueError):
    """Parameter rejection; ``condition`` names the violated constraint."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class ConfigError(ValueError):
    """Malformed configuration input (unknown keys, wrong types, ...)."""


class DomainError(ValueError):
    """State argument outside the model's domain (e.g. negative variance)."""


class UnsupportedModelError(ValueError):
    """Operation not available for this model kind."""


@dataclass(frozen=True)
class Preferences:
    """Power-utility preferences; q is derived, never user-set."""

    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p):
            raise ValidationError("finite", f"p must be finite, got {self.p}")
        if not self.p < 0:
            raise ValidationError("risk_exponent", f"p must be < 0, got {self.p}")
        if not self.q < 1.0:
            raise ValidationError(
                "risk_exponent", f"p = {self.p} rounds q = -p/(1-p) to 1")

    @property
    def q(self) -> float:
        """Dual exponent q = -p/(1-p), in (0, 1)."""
        return -self.p / (1.0 - self.p)


@dataclass(frozen=True)
class OUCompleteParams:
    """Asset price dS = (mu - b*S) dt + varsigma dW, S_0 = s0."""

    mu: float
    b: float
    varsigma: float
    s0: float


@dataclass(frozen=True)
class KimOmbergParams:
    """Excess-return factor dX = k(m_bar - X) dt + sigma dZ, corr(W1, Z) = rho."""

    mu: float
    varsigma: float
    k: float
    m_bar: float
    sigma: float
    rho: float
    chi: float


@dataclass(frozen=True)
class HestonParams:
    """Variance factor dX = k(m_bar - X) dt + sigma sqrt(X) dZ, corr rho."""

    mu: float
    varsigma: float
    k: float
    m_bar: float
    sigma: float
    rho: float
    chi: float


Params = OUCompleteParams | KimOmbergParams | HestonParams


@dataclass(frozen=True)
class DerivedConstants:
    """Model-dependent constants computed once at validation time.

    ``sigma1``/``sigma2`` are the correlated/orthogonal factor loadings
    rho*sigma and sqrt(1-rho^2)*sigma.  The Kim-Omberg block is
    (alpha1..alpha4), the Heston block (beta1, beta2), the complete-market
    block alpha_cm = -p / (2(1-p)^2).  Fields not applicable to the model
    are None.
    """

    sigma1: float | None = None
    sigma2: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None
    alpha3: float | None = None
    alpha4: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    alpha_cm: float | None = None


@dataclass(frozen=True)
class Model:
    """Validated parameter bundle; construct only through :func:`validate`."""

    kind: str
    params: Params
    prefs: Preferences
    constants: DerivedConstants

    @property
    def spec(self) -> ModelSpec:
        return SPECS[self.kind]

    @property
    def q(self) -> float:
        return self.prefs.q

    @property
    def p(self) -> float:
        return self.prefs.p


@dataclass(frozen=True)
class ModelSpec:
    """Everything that differs between model kinds.

    The factor models write the finite-horizon dual value as
    v = exp(Lambda - beta x^2/2 - gamma x) (constant diffusion) or
    v = exp(-gamma - beta x) (sqrt(x) diffusion); ``path`` gives the
    coefficient columns named by ``path_fields``, which is empty when no
    closed path exists.  The formulas marked "path" are None for the
    complete-market model.
    """

    kind: str
    params_type: type
    state_field: str                 # initial state: factor chi or price s0
    vol_field: str                   # parameter scaling the state's diffusion
    positive: tuple[str, ...]        # fields that must be > 0
    sensitivity_params: tuple[str, ...]
    scheme: str                      # the kind's simulation scheme
    sqrt_x: bool                     # diffusion and theta scale with sqrt(x)
    path_fields: tuple[str, ...]     # closed coefficient path columns
    derive: Callable                 # (params, prefs) -> DerivedConstants
    admissible: Callable             # (params, prefs, constants); raises ValidationError
    eigen: Callable                  # model -> (lambda, a2, a1)
    theta: Callable                  # (model, x) -> market price of risk
    hjb_terms: Callable              # (model, x, phi'/phi) -> (l, h, diff^2)
    stationary_sd: Callable          # params -> stationary sd of the state
    drift: Callable                  # (model, ep, measure, beta, gamma) -> (c0, c1)
    exponent: Callable               # (model, ep, measure, times, beta, gamma) -> (g2, g1, g0)
    sensitivity_rows: Callable       # model -> {parameter: published long-term limit}
    path: Callable | None = None            # path: (model, t array) -> path_fields columns
    oracle_rhs: Callable | None = None      # path: model -> rhs(state tuple); no rhs
    #                                         reads the last column, an integral

    @cached_property
    def fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params_type))

    @property
    def has_path(self) -> bool:
        return bool(self.path_fields)

    def scales(self, x):
        """(u, w) with diffusion sigma*u(x) and variance sigma^2*w(x): (1, 1),
        or (sqrt(x), x) under sqrt(x) diffusion, where x must be >= 0; a
        non-finite x is refused."""
        if not np.all(np.isfinite(x)):
            raise DomainError(f"{self.kind} needs a finite x, got {x}")
        if not self.sqrt_x:
            return 1.0, 1.0
        if np.any(np.asarray(x) < 0):
            raise DomainError(f"{self.kind} needs x >= 0, got {x}")
        return np.sqrt(x), x

    def log_value_coefficients(self, beta, gamma, Lambda=0.0):
        """(a2, a1, a0) of ln v = a0 - a2 x^2/2 - a1 x, the form of ln phi;
        under sqrt(x) diffusion v = exp(-gamma - beta x)."""
        return (0.0, beta, -gamma) if self.sqrt_x else (beta, gamma, Lambda)


# --- complete-market formulas ----------------------------------------------

def _ou_constants(params: OUCompleteParams, prefs: Preferences) -> DerivedConstants:
    p = prefs.p
    return DerivedConstants(alpha_cm=-p / (2.0 * (1.0 - p) ** 2))


def _ou_eigen(model: Model):
    pa, p = model.params, model.p
    w = (math.sqrt(1.0 - p) - 1.0) / (1.0 - p)
    return pa.b * w / 2.0, pa.b * w / pa.varsigma**2, -pa.mu * w / pa.varsigma**2


def _ou_theta(model: Model, x):
    pa = model.params
    return (pa.mu - pa.b * x) / pa.varsigma


def _ou_hjb_terms(model: Model, x: float, r1: float):
    pa = model.params
    theta = _ou_theta(model, x)
    return (-model.constants.alpha_cm * theta**2,
            (pa.mu - pa.b * x) / (1.0 - model.p), pa.varsigma**2)


def _ou_drift(model: Model, ep, measure: str, beta, gamma):
    return model.params.mu / (1.0 - model.p), model.params.b / (1.0 - model.p)


def _ou_exponent(model: Model, ep, measure: str, times, beta, gamma):
    pa = model.params
    alpha = model.constants.alpha_cm
    zeros = np.zeros_like(times)
    return (-alpha * (pa.b / pa.varsigma) ** 2 + zeros,
            2.0 * alpha * pa.mu * pa.b / pa.varsigma**2 + zeros,
            -alpha * (pa.mu / pa.varsigma) ** 2 + zeros)


# --- factor-model formulas shared by Kim-Omberg and Heston -----------------

def _loadings(params) -> tuple[float, float]:
    return params.rho * params.sigma, math.sqrt(1.0 - params.rho**2) * params.sigma


def _radical_minus_linear(a1: float, rad_increment: float) -> float:
    """sqrt(a1^2 + rad_increment) - a1 without subtractive cancellation."""
    a4 = math.sqrt(a1 * a1 + rad_increment)
    if a1 >= 0.0:
        return rad_increment / (a4 + a1) if a4 + a1 > 0.0 else 0.0
    return a4 - a1  # both addends positive


def _riccati_source(model: Model) -> float:
    """q(1-q) mu^2 / varsigma^2, the source term of the beta Riccati equation."""
    q, pa = model.q, model.params
    return q * (1.0 - q) * (pa.mu / pa.varsigma) ** 2


def _factor_theta(model: Model, x):
    pa = model.params
    u, _ = model.spec.scales(x)
    return pa.mu * (u if model.spec.sqrt_x else x) / pa.varsigma


def _factor_hjb_terms(model: Model, x: float, r1: float):
    """(l(xi*, x), h(xi*, x), total squared diffusion) of the dual HJB."""
    q, c, pa = model.q, model.constants, model.params
    u, w = model.spec.scales(x)
    s1, s2 = c.sigma1 * u, c.sigma2 * u
    theta = _factor_theta(model, x)
    xi_star = -s2 * r1 / (1.0 - q)
    l_val = -0.5 * q * (1.0 - q) * (theta**2 + xi_star**2)
    h_val = pa.k * (pa.m_bar - x) - q * theta * s1 - q * xi_star * s2
    return l_val, h_val, pa.sigma**2 * w


def _affine_split(model: Model, ep, beta, gamma):
    """(slope, intercept) pairs of ln phi and of ln v as they enter the drift.

    Under sqrt(x) diffusion sigma(x)^2 = sigma^2 x turns the x coefficients
    (phi's a1, the path's beta) into slopes and leaves no intercept.
    """
    if model.spec.sqrt_x:
        return (ep.a1, 0.0), (beta, 0.0)
    return (ep.a2, ep.a1), (beta, gamma)


def _factor_drift(model: Model, ep, measure: str, beta, gamma):
    """(c0, c1) of the affine factor drift c0 - c1 x given beta, gamma at T - t.

    Measure "phat" carries the finite-horizon control, "q" adds the
    eigenfunction tilt.
    """
    q, pa, c = model.q, model.params, model.constants
    (e1, e0), (b1, b0) = _affine_split(model, ep, beta, gamma)
    qs2 = q * c.sigma2**2 / (1.0 - q)
    c1 = pa.k + q * pa.mu * c.sigma1 / pa.varsigma + qs2 * b1
    c0 = pa.k * pa.m_bar - qs2 * b0
    if measure == "q":
        c1 = c1 + pa.sigma**2 * e1
        c0 = c0 - e0 * pa.sigma**2
    return c0, c1


def _factor_exponent(model: Model, ep, measure: str, times, beta, gamma):
    """(g2, g1, g0) of the exponent integrand: the tilt rate f (measure "q")
    or the value exponent -(q/2)(1-q)(theta^2 + xi_hat^2) (measure "phat").

    Written for constant diffusion; under sqrt(x) diffusion the integrand is
    x times the leading coefficient alone.
    """
    q, pa, c = model.q, model.params, model.constants
    (e1, e0), (b1, b0) = _affine_split(model, ep, beta, gamma)
    if measure == "q":
        cc = q * c.sigma2**2 / (2.0 * (1.0 - q))
        d1 = e1 - b1
        d0 = e0 - b0
        poly = -cc * d1 * d1, -2.0 * cc * d1 * d0, -cc * d0 * d0
    else:
        half = 0.5 * q * (1.0 - q)
        xi1 = c.sigma2 / (1.0 - q) * b1
        xi0 = c.sigma2 / (1.0 - q) * b0
        poly = (-half * ((pa.mu / pa.varsigma) ** 2 + xi1 * xi1),
                -half * 2.0 * xi1 * xi0, -half * xi0 * xi0)
    if model.spec.sqrt_x:
        zeros = np.zeros_like(times)
        return zeros, poly[0], zeros
    return poly


# --- Kim-Omberg formulas -----------------------------------------------------

def _ko_constants(params: KimOmbergParams, prefs: Preferences) -> DerivedConstants:
    q = prefs.q
    sigma1, sigma2 = _loadings(params)
    a1 = params.k + q * params.mu * sigma1 / params.varsigma
    a2 = sigma1**2 + sigma2**2 / (1.0 - q)
    a3 = params.k * params.m_bar
    a4 = math.sqrt(a1**2 + q * (1.0 - q) * a2 * (params.mu / params.varsigma) ** 2)
    return DerivedConstants(
        sigma1=sigma1, sigma2=sigma2, alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4
    )


def _ko_admissible(params: KimOmbergParams, prefs: Preferences,
                   c: DerivedConstants) -> None:
    # the condition involves the eigen-coefficient B = (alpha4 - alpha1)/alpha2
    B = (c.alpha4 - c.alpha1) / c.alpha2
    rev = (
        params.k
        + prefs.q * params.mu * params.rho * params.sigma / params.varsigma
        + B * params.sigma**2 / 2.0
    )
    if not rev > ADMISSIBILITY_MARGIN:
        raise ValidationError(
            "mean_reversion",
            f"k + q*mu*rho*sigma/varsigma + B*sigma^2/2 = {rev} must be positive",
        )


def _ko_eigen(model: Model):
    c, q, pa = model.constants, model.q, model.params
    inc = q * (1.0 - q) * c.alpha2 * (pa.mu / pa.varsigma) ** 2
    B = _radical_minus_linear(c.alpha1, inc) / c.alpha2
    C = c.alpha3 * B / c.alpha4
    lam = -0.5 * c.alpha2 * C**2 + c.alpha3 * C + 0.5 * pa.sigma**2 * B
    return lam, B, C


def _ratio_near_zero(f, x, slope):
    """f(x)/x, or its series 1 + slope*x below 1e-8, where that is exact."""
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + slope * x, f(safe) / safe)


def _ko_path(model: Model, t: np.ndarray) -> tuple:
    """(beta, gamma, Lambda) at t, with only decaying exponentials of t.

    Linearizing the beta equation as beta = u'/(alpha2 u) integrates the
    gamma equation.  Lambda(t) = int_0^t (alpha2 gamma^2/2 - alpha3 gamma
    - sigma^2 beta/2): with s = e^{-alpha4 t}, A = alpha4 + alpha1 and
    B = alpha4 - alpha1, the rate is rational in s; dI1..dI4 are the
    increments from s to 1 of its four integrals (Kim and Omberg 1996).
    AB = alpha2 n, so K/B is written without dividing by B, which vanishes
    with mu.
    """
    c = model.constants
    n = _riccati_source(model)
    A = c.alpha4 + c.alpha1
    e = np.exp(-2.0 * c.alpha4 * t)
    om = -np.expm1(-c.alpha4 * t)
    den = A + (c.alpha4 - c.alpha1) * e
    beta = n * (1.0 - e) / den
    gamma = c.alpha3 * n * om * om / (c.alpha4 * den)
    B = _radical_minus_linear(c.alpha1, c.alpha2 * n)
    K = c.alpha3 * n / c.alpha4
    K_B = c.alpha3 * A / (c.alpha2 * c.alpha4)
    s = np.exp(-c.alpha4 * t)
    om2 = -np.expm1(-2.0 * c.alpha4 * t)
    D = A + B * s * s
    E = A + B * s
    dI1 = om2 / (2.0 * D) * _ratio_near_zero(np.log1p, B * om2 / D, -0.5)
    dI2 = om / E * _ratio_near_zero(np.arctan, om * math.sqrt(A * B) / E, 0.0)
    dI3 = om2 / (4.0 * c.alpha4 * D)
    dI4 = (om * (A - B * s) / (2.0 * c.alpha4 * D) + dI2) / (2.0 * A)
    a4t = c.alpha4 * t
    quadratic = 0.5 * c.alpha2 * (K * K * a4t / A**2 + K * K_B * (
        (A * A - B * B) / A**2 * dI1 - 4.0 * dI2
        - (A * A - 6.0 * A * B + B * B) / A * dI3 + 4.0 * (A - B) * dI4))
    linear = -c.alpha3 * K * (a4t / A + (A - B) / A * dI1 - 2.0 * dI2)
    source = -0.5 * model.params.sigma**2 * n * (a4t / A - (A + B) / A * dI1)
    return beta, gamma, (quadratic + linear + source) / c.alpha4


def _ko_rhs(model: Model):
    c = model.constants
    n, a1, a2, a3 = _riccati_source(model), c.alpha1, c.alpha2, c.alpha3
    sig2 = model.params.sigma**2

    def rhs(s):
        b, g, _ = s
        return (
            -a2 * b * b - 2.0 * a1 * b + n,
            -(a1 + a2 * b) * g + a3 * b,
            0.5 * a2 * g * g - a3 * g - 0.5 * sig2 * b,
        )

    return rhs


# --- Heston formulas ---------------------------------------------------------

def _heston_constants(params: HestonParams, prefs: Preferences) -> DerivedConstants:
    q = prefs.q
    sigma1, sigma2 = _loadings(params)
    b1 = params.k + q * params.mu * sigma1 / params.varsigma
    b2 = math.sqrt(
        b1**2
        + q
        * (1.0 - q * params.rho**2)
        * (params.mu * params.sigma / params.varsigma) ** 2
    )
    return DerivedConstants(sigma1=sigma1, sigma2=sigma2, beta1=b1, beta2=b2)


def _heston_admissible(params: HestonParams, prefs: Preferences,
                       c: DerivedConstants) -> None:
    feller = 2.0 * params.k * params.m_bar - params.sigma**2
    if not feller > ADMISSIBILITY_MARGIN:
        raise ValidationError(
            "feller",
            f"2*k*m_bar = {2 * params.k * params.m_bar} must exceed "
            f"sigma^2 = {params.sigma ** 2}",
        )
    rev = params.k + prefs.q * params.mu * params.rho * params.sigma / params.varsigma
    if not rev > ADMISSIBILITY_MARGIN:
        raise ValidationError(
            "mean_reversion",
            f"k + q*mu*rho*sigma/varsigma = {rev} must be positive",
        )


def _heston_eigen(model: Model):
    # phi is exponential-affine, a2 = 0
    c, q, pa = model.constants, model.q, model.params
    inc = q * (1.0 - q * pa.rho**2) * (pa.mu * pa.sigma / pa.varsigma) ** 2
    B = (1.0 - q) * _radical_minus_linear(c.beta1, inc) \
        / ((1.0 - q * pa.rho**2) * pa.sigma**2)
    return pa.k * pa.m_bar * B, 0.0, B


def _heston_path(model: Model, t: np.ndarray) -> tuple:
    """(beta, gamma) at t.  beta is the sinh/cosh display with
    exp(beta2 t / 2) factored out, exact and stable for arbitrarily large t;
    gamma = k m_bar * int_0^t beta = (2 k m_bar / a2h) ln u under
    beta = 2 u' / (a2h u), written with expm1/log1p of decaying terms."""
    n, b1, a2h, km = _heston_ode_constants(model)
    b2 = model.constants.beta2
    e = np.exp(-b2 * t)
    beta = n * (1.0 - e) / (b2 * (1.0 + e) + b1 * (1.0 - e))
    d = _radical_minus_linear(b1, a2h * n)  # beta2 - beta1 without cancellation
    gamma = 2.0 * km / a2h * (0.5 * d * t + np.log1p(d * np.expm1(-b2 * t) / (2.0 * b2)))
    return beta, gamma


def _heston_ode_constants(model: Model) -> tuple:
    c = model.constants
    return (_riccati_source(model), c.beta1,
            c.sigma1**2 + c.sigma2**2 / (1.0 - model.q),
            model.params.k * model.params.m_bar)


def _heston_rhs(model: Model):
    n, b1, a2h, km = _heston_ode_constants(model)

    def rhs(s):
        b, _ = s
        return (-0.5 * a2h * b * b - b1 * b + 0.5 * n, km * b)

    return rhs


# --- published long-term sensitivity tables ----------------------------------
# Each row is the closed-form long-horizon limit of (1/T) d ln|U| / d theta,
# reproduced verbatim; products through alpha3 are rewritten with
# C = alpha3 B / alpha4 so the m_bar = 0 case stays well defined (an exact
# algebraic identity, not a reformulation).

def _ou_rows(model: Model) -> dict[str, float]:
    p = model.p
    w = math.sqrt(1.0 - p)
    return {"mu": 0.0, "b": -(w - 1.0) / 2.0, "varsigma": 0.0}


def _ko_rows(model: Model) -> dict[str, float]:
    pa = model.params
    if pa.mu == 0.0:
        return {k: 0.0 for k in model.spec.sensitivity_params}
    p, q = model.p, model.q
    c = model.constants
    a1, a2, a3, a4 = c.alpha1, c.alpha2, c.alpha3, c.alpha4
    k, mb, mu, vs, rho, sig = pa.k, pa.m_bar, pa.mu, pa.varsigma, pa.rho, pa.sigma
    _, B, C = _ko_eigen(model)
    omp = 1.0 - p
    row_k = (
        omp * a2 * (mb * a3 * B**2 / a4**2 - (a4 + a1) / a4**2 * C**2)
        - omp * (2.0 * mb * C - a3 * (a4 + a1) / a4**2 * C)
        + omp * sig**2 * B / (2.0 * a4)
    )
    row_mb = omp * k * a2 * a3 * B**2 / a4**2 - 2.0 * omp * k * C
    row_mu = (
        -p * sig * a1 * a3**2 * (rho * vs * a4**2 - k * rho * vs * a1 - mu * sig * a1)
        / (vs**2 * a2 * a4**4)
        - p * sig**3 * (rho * vs * a4 - q * rho * vs - mu * sig)
        / (2.0 * vs**2 * a2 * a4)
    )
    row_vs = (
        p * q * mu**2 * sig**2 * a1 * a3**2
        * (rho * vs * a4**2 - k * rho * vs * a1 - mu * sig * a1)
        / (vs**3 * a2 * a4**4)
        + p * mu * sig**3 * (rho * vs * a4 - k * rho * vs - mu * sig)
        / (2.0 * vs**3 * a2 * a4)
    )
    e1 = (k - a4) * mu * sig / (vs * a4 * (a4 - a1))
    row_rho = (
        -a2 * p * C**2 * (e1 + rho * sig**2 / ((1.0 - q) * a2) - k * mu * sig / (vs * a4**2))
        + a3 * p * C * (e1 + 2.0 * rho * sig**2 / ((1.0 - q) * a2) - k * mu * sig / (vs * a4**2))
        + 0.5 * p * sig**2 * B * (e1 + 2.0 * rho * sig**2 / ((1.0 - q) * a2))
    )
    f0 = (rho * vs * a4 - k * rho * vs - mu * sig) / (vs**2 * a4 * (a4 - a1))
    f2 = p * mu * (k * rho * vs + mu * sig) / (vs**2 * a4**2)
    row_sig = (
        a2 * (p * mu * f0 - omp / sig + f2) * C**2
        - a3 * (p * mu * f0 - 2.0 * omp / sig + f2) * C
        - 0.5 * p * mu * sig**2 * f0 * B
    )
    return {"k": row_k, "m_bar": row_mb, "mu": row_mu, "varsigma": row_vs,
            "rho": row_rho, "sigma": row_sig}


def _heston_rows(model: Model) -> dict[str, float]:
    pa = model.params
    if pa.mu == 0.0:
        return {k: 0.0 for k in model.spec.sensitivity_params}
    p, q = model.p, model.q
    c = model.constants
    b1, b2 = c.beta1, c.beta2
    k, mb, mu, vs, rho, sig = pa.k, pa.m_bar, pa.mu, pa.varsigma, pa.rho, pa.sigma
    B = _heston_eigen(model)[2]
    omp = 1.0 - p
    return {
        "k": omp * mb * B * (k / b2 - 1.0),
        "m_bar": -omp * k * B,
        "mu": k * mb * q * (rho * vs * b2 - k * rho * vs - mu * sig)
        / ((1.0 - q * rho**2) * sig * vs**2 * b2),
        "varsigma": k * mb * p * mu * sig * B * (rho * vs * b2 - rho * k * vs - mu * sig)
        / (vs**3 * b2 * (b2 - b1)),
        "rho": k * mb * B * (-p * mu * sig * (b2 - k) / (vs * b2 * (b2 - b1))
                             + 2.0 * p * rho / (1.0 - q * rho**2)),
        "sigma": k * mb * B * (2.0 * omp / sig
                               + p * mu * (k * rho * vs + mu * sig - rho * vs * b2)
                               / (vs**2 * b2 * (b2 - b1))),
    }


# --- the descriptions ------------------------------------------------------

_FACTOR_SENSITIVITIES = ("k", "m_bar", "mu", "varsigma", "rho", "sigma")

SPECS: dict[str, ModelSpec] = {
    OU_COMPLETE: ModelSpec(
        kind=OU_COMPLETE, params_type=OUCompleteParams, state_field="s0",
        vol_field="varsigma", positive=("varsigma", "b"),
        sensitivity_params=("mu", "b", "varsigma"),
        scheme="exact_gaussian", sqrt_x=False, path_fields=(),
        derive=_ou_constants, admissible=lambda params, prefs, c: None,
        eigen=_ou_eigen, theta=_ou_theta, hjb_terms=_ou_hjb_terms,
        stationary_sd=lambda pa: pa.varsigma / math.sqrt(2.0 * pa.b),
        drift=_ou_drift, exponent=_ou_exponent, sensitivity_rows=_ou_rows,
    ),
    KIM_OMBERG: ModelSpec(
        kind=KIM_OMBERG, params_type=KimOmbergParams, state_field="chi",
        vol_field="sigma", positive=("varsigma", "k", "sigma"),
        sensitivity_params=_FACTOR_SENSITIVITIES,
        scheme="exact_gaussian", sqrt_x=False,
        path_fields=("beta", "gamma", "Lambda"),
        derive=_ko_constants, admissible=_ko_admissible, eigen=_ko_eigen,
        theta=_factor_theta, hjb_terms=_factor_hjb_terms,
        stationary_sd=lambda pa: pa.sigma / math.sqrt(2.0 * pa.k),
        drift=_factor_drift, exponent=_factor_exponent,
        sensitivity_rows=_ko_rows,
        path=_ko_path,
        oracle_rhs=_ko_rhs,
    ),
    HESTON: ModelSpec(
        kind=HESTON, params_type=HestonParams, state_field="chi",
        vol_field="sigma", positive=("varsigma", "k", "sigma", "m_bar", "chi"),
        sensitivity_params=_FACTOR_SENSITIVITIES,
        scheme="full_truncation_euler", sqrt_x=True,
        path_fields=("beta", "gamma"),
        derive=_heston_constants, admissible=_heston_admissible,
        eigen=_heston_eigen, theta=_factor_theta, hjb_terms=_factor_hjb_terms,
        stationary_sd=lambda pa: pa.sigma * math.sqrt(pa.m_bar / (2.0 * pa.k)),
        drift=_factor_drift, exponent=_factor_exponent,
        sensitivity_rows=_heston_rows,
        path=_heston_path,
        oracle_rhs=_heston_rhs,
    ),
}
_SPEC_BY_TYPE = {spec.params_type: spec for spec in SPECS.values()}


# --- validation ----------------------------------------------------------------

def _checked_spec(params: Params) -> ModelSpec:
    """The description of ``params``' kind, after the per-field checks."""
    spec = _SPEC_BY_TYPE[type(params)]
    for name in spec.fields:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValidationError("finite", f"{name} must be finite, got {value}")
    for name in spec.positive:
        if not getattr(params, name) > 0:
            raise ValidationError("sign_range", f"{name} must be > 0")
    # rho = +-1 is rejected: the factor code path needs sigma2 > 0 because
    # the dual control acts through the orthogonal Brownian motion.
    if "rho" in spec.fields and not abs(params.rho) < 1:
        raise ValidationError("sign_range", "rho must lie strictly in (-1, 1)")
    return spec


def validate(params: Params, prefs: Preferences) -> Model:
    """Accept iff every invariant, including admissibility, holds.

    Raises :class:`ValidationError` naming the violated condition.  Strict
    inequalities are enforced with margin ``ADMISSIBILITY_MARGIN``; finite
    parameters whose derived constants leave floating-point range fail
    condition "finite".
    """
    spec = _checked_spec(params)
    try:
        constants = spec.derive(params, prefs)
        spec.admissible(params, prefs, constants)
    except ArithmeticError as exc:
        raise ValidationError(
            "finite", f"derived constants out of floating-point range: {exc}"
        ) from exc
    return Model(kind=spec.kind, params=params, prefs=prefs, constants=constants)


def _real(value) -> bool:
    """The type rule for a number from a caller: a real number, not a bool,
    an array or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def initial_state(model: Model, chi: float | None = None) -> float:
    """Initial factor value (initial asset price for the complete-market model).

    An explicit ``chi`` overrides the parameter set's value.  It must be a
    real number (``_real``), finite and in the model's domain (chi > 0 for
    heston); anything else is a DomainError.  It is returned as a float.
    """
    spec = model.spec
    if chi is None:
        return getattr(model.params, spec.state_field)
    if not _real(chi):
        raise DomainError(f"{model.kind} needs a real number {spec.state_field}, "
                          f"got {chi!r}")
    if not math.isfinite(chi):
        raise DomainError(f"{model.kind} needs a finite {spec.state_field}, got {chi}")
    if spec.state_field in spec.positive and not chi > 0:
        raise DomainError(f"{model.kind} requires {spec.state_field} > 0")
    return float(chi)


def _check_horizons(*horizons) -> None:
    """The one rule for a horizon or a time, applied to each of ``horizons``:
    a real number (``_real``), finite and >= 0."""
    for T in horizons:
        if not _real(T):
            raise ValueError("T must be a real number")
        if not (math.isfinite(T) and T >= 0):
            raise ValueError("T must be finite and >= 0")


def bump_params(params: Params, name: str, h: float) -> Params:
    """Return a copy of ``params`` with ``name`` shifted by ``h``.

    ``chi`` is accepted as an alias for the complete-market initial price.
    """
    if name == "chi":
        name = _SPEC_BY_TYPE[type(params)].state_field
    if name not in {f.name for f in fields(params)}:
        raise ConfigError(f"unknown parameter '{name}' for {type(params).__name__}")
    return replace(params, **{name: getattr(params, name) + h})


def bumped_models(model: Model, name: str, h: float) -> tuple[Model, Model, float]:
    """Validated models at ``name`` +- h, as (up, down, h), for a step h that
    is a real number (``_real``), finite and > 0; any other is a ValueError.

    If a leg is inadmissible the step shrinks once by 10x; a second failure
    propagates.
    """
    if not (_real(h) and math.isfinite(h) and h > 0):
        raise ValueError(f"bump step h must be finite and > 0, got {h!r}")

    def legs(step: float) -> tuple[Model, Model, float]:
        return (validate(bump_params(model.params, name, +step), model.prefs),
                validate(bump_params(model.params, name, -step), model.prefs), step)

    try:
        return legs(h)
    except ValidationError:
        return legs(h / 10.0)


def sensitivity_parameters(kind: str) -> list[str]:
    """Drift/volatility parameters with a long-term sensitivity row."""
    return list(SPECS[kind].sensitivity_params)


# --- configuration ----------------------------------------------------------

def config_number(value, where: str) -> float:
    """``value`` as a float; anything but a JSON number is a ConfigError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def config_block(block, allowed: tuple, where: str) -> dict:
    """``block`` if it is a JSON object with no key outside ``allowed``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} block must be an object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where} block")
    return block


def parse_model_block(kind: str, block: dict) -> Params:
    """Build a parameter set from a JSON object; unknown keys are an error."""
    if kind not in SPECS:
        raise ConfigError(f"unknown model kind '{kind}'")
    spec = SPECS[kind]
    config_block(block, spec.fields, kind)
    missing = [k for k in spec.fields if k not in block]
    if missing:
        raise ConfigError(f"missing key '{missing[0]}' in {kind} block")
    return spec.params_type(
        **{key: config_number(block[key], f"{kind}.{key}") for key in spec.fields})


def parse_preferences(block: dict) -> Preferences:
    config_block(block, ("p",), "preferences")
    if "p" not in block:
        raise ConfigError("missing key 'p' in preferences block")
    return Preferences(p=config_number(block["p"], "preferences.p"))


def model_from_config(cfg: dict) -> Model:
    """Validate the single model block of a parsed JSON config."""
    present = [k for k in MODEL_KINDS if k in cfg]
    if len(present) != 1:
        raise ConfigError(
            f"config must contain exactly one model block, found {present or 'none'}"
        )
    kind = present[0]
    if "preferences" not in cfg:
        raise ConfigError("missing preferences block")
    prefs = parse_preferences(cfg["preferences"])
    params = parse_model_block(kind, cfg[kind])
    return validate(params, prefs)


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg

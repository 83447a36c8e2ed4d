"""Closed-form recurrent eigenpairs of the ergodic HJB equation.

Every supported model admits an exponential-quadratic eigenfunction

    phi(x) = exp(-a2 x^2 / 2 - a1 x)

paired with an eigenvalue lambda; together they govern the long-horizon
behaviour of the dual value.  ``ergodic_residual`` re-assembles the ergodic
HJB equation from its pieces (generator, optimal ergodic control, running
reward) and reports a scale-free residual, which is the main internal
cross-check that the closed forms are typed consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import Model, initial_state

# exp() over/underflows past ~709; beyond this the log-scale path is used
LOG_SCALE_CUTOFF = 700.0


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue and exponent coefficients of phi(x) = exp(-a2 x^2/2 - a1 x)."""

    lam: float
    a2: float
    a1: float

    def as_dict(self, model: Model) -> dict:
        return {
            "model": model.kind,
            "lambda": self.lam,
            "a2": self.a2,
            "a1": self.a1,
            "derived_constants": model.constants.as_dict(),
        }


def eigenpair(model: Model) -> Eigenpair:
    """Recurrent eigenpair (lambda, phi) for a validated model."""
    lam, a2, a1 = model.spec.eigen(model)
    return Eigenpair(lam=lam, a2=a2, a1=a1)


class PhiEval(NamedTuple):
    """phi and its first two derivatives, with a log-scale fallback.

    When |exponent| exceeds ``LOG_SCALE_CUTOFF`` the plain-scale fields
    over/underflow (inf or 0); ``log_scale`` is then True and callers should
    work with ``log_value`` and the ratio fields, which are always finite.
    """

    value: float
    d1: float
    d2: float
    log_value: float
    ratio1: float  # phi'/phi  = -(a2 x + a1)
    ratio2: float  # phi''/phi = (a2 x + a1)^2 - a2
    log_scale: bool


def phi_log(ep: Eigenpair, x):
    """log phi(x) = -a2 x^2 / 2 - a1 x (vectorized, never overflows)."""
    x = np.asarray(x, dtype=float)
    out = -0.5 * ep.a2 * x**2 - ep.a1 * x
    return out if out.ndim else float(out)


def phi_ratios(ep: Eigenpair, x):
    """(phi'/phi, phi''/phi), finite at any x."""
    x = np.asarray(x, dtype=float)
    g = ep.a2 * x + ep.a1
    r1 = -g
    r2 = g * g - ep.a2
    if r1.ndim:
        return r1, r2
    return float(r1), float(r2)


def phi_eval(ep: Eigenpair, x) -> PhiEval:
    """Evaluate (phi, phi', phi'') at a scalar x, overflow guarded."""
    x = float(x)
    log_value = float(phi_log(ep, x))
    r1, r2 = phi_ratios(ep, x)
    log_scale = abs(log_value) > LOG_SCALE_CUTOFF
    with np.errstate(over="ignore"):
        value = math.exp(log_value) if log_value < LOG_SCALE_CUTOFF else math.inf
    return PhiEval(
        value=value,
        d1=value * r1,
        d2=value * r2,
        log_value=log_value,
        ratio1=r1,
        ratio2=r2,
        log_scale=log_scale,
    )


def ergodic_residual(model: Model, ep: Eigenpair, x: float) -> float:
    """Scale-free residual of the ergodic HJB equation at x.

    Everything is computed relative to phi, so the result equals
    (L phi + lambda phi) / max(|lambda phi|, phi) without evaluating phi
    itself; the normalisation makes the tolerance parameter-set independent.
    """
    x = float(x)
    r1, r2 = phi_ratios(ep, x)
    l_val, h_val, diff2 = model.spec.hjb_terms(model, x, r1)
    num = 0.5 * diff2 * r2 + h_val * r1 + l_val + ep.lam
    return num / max(abs(ep.lam), 1.0)


def residual_grid(model: Model, n: int = 101) -> np.ndarray:
    """The 101-point grid chi +- 4 stationary sd (positive part if sqrt(x))."""
    chi = initial_state(model)
    sd = model.spec.stationary_sd(model.params)
    grid = np.linspace(chi - 4.0 * sd, chi + 4.0 * sd, n)
    if model.spec.sqrt_x:
        grid = grid[grid > 0.0]
        if grid.size == 0:
            grid = np.linspace(chi / 10.0, chi * 2.0, n)
    return grid

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

from dataclasses import dataclass

import numpy as np

from .models import Model, initial_state


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue and exponent coefficients of phi(x) = exp(-a2 x^2/2 - a1 x)."""

    lam: float
    a2: float
    a1: float


def eigenpair(model: Model) -> Eigenpair:
    """Recurrent eigenpair (lambda, phi) for a validated model."""
    lam, a2, a1 = model.spec.eigen(model)
    return Eigenpair(lam=lam, a2=a2, a1=a1)


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


def ergodic_residual(model: Model, ep: Eigenpair, x: float) -> float:
    """Scale-free residual of the ergodic HJB equation at x.

    Everything is computed relative to phi, so the result equals
    (L phi + lambda phi) / max(|lambda phi|, phi) without evaluating phi
    itself; the normalisation makes the tolerance parameter-set independent.
    """
    x = float(x)
    model.spec.scales(x)  # refuses a non-finite x before phi's ratios read it
    r1, r2 = phi_ratios(ep, x)
    l_val, h_val, diff2 = model.spec.hjb_terms(model, x, r1)
    num = 0.5 * diff2 * r2 + h_val * r1 + l_val + ep.lam
    return num / max(abs(ep.lam), 1.0)


def residual_grid(model: Model) -> np.ndarray:
    """The 101-point grid chi +- 4 stationary sd (positive part if sqrt(x))."""
    chi = initial_state(model)
    sd = model.spec.stationary_sd(model.params)
    grid = np.linspace(chi - 4.0 * sd, chi + 4.0 * sd, 101)
    return grid[grid > 0.0] if model.spec.sqrt_x else grid

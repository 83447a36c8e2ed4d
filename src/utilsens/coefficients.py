"""Time-dependent coefficients of the finite-horizon dual HJB solution.

Kim-Omberg: v(x, t) = exp(Lambda(t) - beta(t) x^2 / 2 - gamma(t) x) with

    beta'   = -alpha2 beta^2 - 2 alpha1 beta + q(1-q) mu^2 / varsigma^2
    gamma'  = -(alpha1 + alpha2 beta) gamma + alpha3 beta
    Lambda' = alpha2 gamma^2 / 2 - alpha3 gamma - sigma^2 beta / 2

all starting from 0.  Linearizing the Riccati equation as
beta = u'/(alpha2 u) gives beta and gamma in closed form; Lambda' is then
rational in exp(-alpha4 t) and integrates in closed form too.  All three are
written with decaying exponentials only, so they stay finite at any horizon
and cost the same at any horizon.

Heston: v(x, t) = exp(-gamma(t) - beta(t) x); substituting into the HJB
yields the Riccati equation

    beta' = -(alpha2/2) beta^2 - beta1 beta + (q/2)(1-q) mu^2 / varsigma^2

(with alpha2 = sigma1^2 + sigma2^2/(1-q) as in Kim-Omberg) whose closed form
is the sinh/cosh display, and gamma(t) = k m_bar * integral of beta, the
logarithm of the same linearization, also closed.

Each kind's closed columns are one formula, ``spec.path`` in the model's
spec, returning the columns named by ``spec.path_fields``.  ``closed_path``
is its one reader, and ``build_path`` samples it on a checked grid;
``_path_spec`` is the one refusal of a kind without a closed path.

``riccati_oracle`` integrates the governing ODE systems with classical RK4 as
an independent verification path for the closed forms.  The coefficients
approach their limits at the model's mixing rate (2 alpha4 for Kim-Omberg,
beta2 for Heston), so the oracle steps at a fixed fraction of the mixing
time, never below ``H_ODE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Model, ModelSpec, UnsupportedModelError

H_ODE = 1e-3          # smallest RK4 step of the oracle
H_MIX = 0.02          # oracle step in units of the model's mixing time
TOL_ODE = 1e-8        # half-step Richardson gate of the oracle


@dataclass(frozen=True)
class CoefficientPath:
    """Sampled coefficient functions on a strictly increasing grid from 0."""

    grid: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    Lambda: np.ndarray | None = None  # kim_omberg only
    meta: dict = field(default_factory=dict)


def _path_spec(model: Model) -> ModelSpec:
    """``model.spec``; the one refusal of a kind without a closed path."""
    if not model.spec.has_path:
        raise UnsupportedModelError(
            f"no closed finite-horizon path for {model.kind}; "
            "use simulation.simulate_phat_value"
        )
    return model.spec


def closed_path(model: Model, t) -> dict:
    """The closed columns {name: value} of the path at ``t`` (vectorized in
    t, floats for a scalar t), overflow-safe at any t; the one pointwise
    reader of ``spec.path``."""
    spec = _path_spec(model)
    cols = spec.path(model, np.asarray(t, dtype=float))
    return {f: c if np.ndim(c) else float(c) for f, c in zip(spec.path_fields, cols)}


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise ValueError("grid must be 1-d and start at 0")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def build_path(model: Model, grid) -> CoefficientPath:
    """Closed-form coefficient path: every column evaluated on ``grid``."""
    grid = _check_grid(grid)
    return CoefficientPath(grid=grid, **closed_path(model, grid))


# --- independent ODE oracle --------------------------------------------------

def _rk4(rhs, state: tuple, grid: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 at steps <= h, landing exactly on the grid points.

    ``state`` is a tuple of floats; returns the states at the grid points,
    stacked.
    """
    out = [state]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        span = t1 - t0
        m = max(1, math.ceil(span / h))
        dt = span / m
        for _ in range(m):
            k1 = rhs(state)
            k2 = rhs(tuple(s + 0.5 * dt * k for s, k in zip(state, k1)))
            k3 = rhs(tuple(s + 0.5 * dt * k for s, k in zip(state, k2)))
            k4 = rhs(tuple(s + dt * k for s, k in zip(state, k3)))
            state = tuple(
                s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for s, a, b, c, d in zip(state, k1, k2, k3, k4)
            )
        out.append(state)
    return np.array(out)


def riccati_oracle(model: Model, grid) -> CoefficientPath:
    """RK4 integration of the coefficient ODEs, Richardson-gated.

    The step is ``max(H_ODE, H_MIX / rate)`` for the model's mixing rate, so
    a slowly mixing model is not stepped finer than its coefficients vary.
    The systems are integrated at that step and at half of it; if the two
    disagree beyond ``TOL_ODE`` at any grid point the step is declared too
    large and :class:`UnsupportedModelError` is raised; a pass that overflows
    (a step past RK4's stability limit) disagrees by NaN and is refused too.
    """
    grid = _check_grid(grid)
    spec = _path_spec(model)
    h_ode = max(H_ODE, H_MIX / spec.mixing_rate(model))
    rhs = spec.oracle_rhs(model)
    zero = (0.0,) * len(spec.path_fields)
    with np.errstate(over="ignore", invalid="ignore"):
        half = _rk4(rhs, zero, grid, h_ode / 2.0)
        disagreement = float(np.max(np.abs(_rk4(rhs, zero, grid, h_ode) - half)))
    if not disagreement <= TOL_ODE:
        raise UnsupportedModelError(
            f"RK4 step h_ode={h_ode:g} too large: half-step disagreement "
            f"{disagreement:.3e} exceeds TOL_ODE={TOL_ODE:g}"
        )
    meta = {"h_ode": h_ode, "richardson_disagreement": disagreement}
    return CoefficientPath(grid=grid, meta=meta, **dict(zip(spec.path_fields, half.T)))

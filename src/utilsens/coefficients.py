"""Time-dependent coefficients of the finite-horizon dual HJB solution.

Kim-Omberg: v(x, t) = exp(Lambda(t) - beta(t) x^2 / 2 - gamma(t) x) with

    beta'   = -alpha2 beta^2 - 2 alpha1 beta + q(1-q) mu^2 / varsigma^2
    gamma'  = -(alpha1 + alpha2 beta) gamma + alpha3 beta
    Lambda' = alpha2 gamma^2 / 2 - alpha3 gamma - sigma^2 beta / 2

all starting from 0.  Linearizing the Riccati equation as
beta = u'/(alpha2 u) gives beta and gamma in closed form, written with
decaying exponentials only so they stay finite at any horizon; Lambda is a
plain integral, taken by cumulative Simpson on a refined grid.

Heston: v(x, t) = exp(-gamma(t) - beta(t) x); substituting into the HJB
yields the Riccati equation

    beta' = -(alpha2/2) beta^2 - beta1 beta + (q/2)(1-q) mu^2 / varsigma^2

(with alpha2 = sigma1^2 + sigma2^2/(1-q) as in Kim-Omberg) whose closed form
is the sinh/cosh display, and gamma(t) = k m_bar * integral of beta, the
logarithm of the same linearization, also closed.

The per-kind formulas live in the model's spec.  ``riccati_oracle``
integrates the governing ODE systems with classical RK4 at a fixed step as
an independent verification path for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Model, ModelSpec, UnsupportedModelError

H_ODE = 1e-3          # fixed RK4 step of the oracle
TOL_ODE = 1e-8        # half-step Richardson gate of the oracle
QUAD_RESOLUTION = 0.01  # target quadrature step, in units of the mixing time


@dataclass(frozen=True)
class CoefficientPath:
    """Sampled coefficient functions on a strictly increasing grid from 0."""

    grid: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    Lambda: np.ndarray | None = None  # kim_omberg only
    meta: dict = field(default_factory=dict)

    def to_csv_rows(self) -> list[list]:
        header = ["t", "beta", "gamma"] + (["Lambda"] if self.Lambda is not None else [])
        rows: list[list] = [header]
        for i, t in enumerate(self.grid):
            row = [t, self.beta[i], self.gamma[i]]
            if self.Lambda is not None:
                row.append(self.Lambda[i])
            rows.append(row)
        return rows


def _path_spec(model: Model) -> ModelSpec:
    if not model.spec.has_path:
        raise UnsupportedModelError(f"no coefficient path for {model.kind}")
    return model.spec


def _closed(model: Model, name: str, t):
    out = getattr(_path_spec(model), name)(model, np.asarray(t, dtype=float))
    return out if out.ndim else float(out)


def closed_beta(model: Model, t):
    """Closed-form beta(t) (vectorized in t), overflow-safe at any t."""
    return _closed(model, "beta", t)


def closed_gamma(model: Model, t):
    """Closed-form gamma(t) (vectorized in t), overflow-safe at any t."""
    return _closed(model, "gamma", t)


def _refined_grid(rate: float, grid: np.ndarray):
    """Split each grid interval into an even number of sub-steps <= h_quad.

    Returns (nodes, indices of the original grid points).  Grid points land
    on even refined indices, so pairwise cumulative Simpson passes through
    them, and the index map avoids any floating-point grid matching.
    """
    h_quad = QUAD_RESOLUTION / rate * 2.0
    # Lambda' varies on the timescale 2/mixing_rate; QUAD_RESOLUTION of that
    pieces = [np.zeros(1)]
    idx = [0]
    for a, b in zip(grid[:-1], grid[1:]):
        width = b - a
        m = max(2, 2 * math.ceil(width / (2.0 * h_quad)))
        sub = a + width * np.arange(1, m + 1) / m
        sub[-1] = b  # land exactly on the grid point
        pieces.append(sub)
        idx.append(idx[-1] + m)
    return np.concatenate(pieces), np.asarray(idx)


def _cumulative_simpson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative integral over pairwise-uniform nodes (odd count per pair).

    Even nodes get composite Simpson; interior nodes the half-interval
    Newton-Cotes rule through the same three points.
    """
    out = np.empty_like(y)
    out[0] = 0.0
    if x.size == 1:
        return out
    i = np.arange(0, x.size - 2, 2)
    h = x[i + 1] - x[i]
    full = h / 3.0 * (y[i] + 4.0 * y[i + 1] + y[i + 2])
    left = h / 12.0 * (5.0 * y[i] + 8.0 * y[i + 1] - y[i + 2])
    out[2::2] = np.cumsum(full)
    out[1::2] = out[0:-1:2] + left
    return out


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
    """Closed-form coefficient path sampled on ``grid``.

    beta and gamma are evaluated on the grid itself; Lambda (Kim-Omberg)
    integrates its rate over refined nodes, counted in ``meta["n_quad_nodes"]``.
    """
    grid = _check_grid(grid)
    spec = _path_spec(model)
    rate = spec.mixing_rate(model.constants)
    meta: dict = {}
    if grid.size > 1:
        max_step = float(np.max(np.diff(grid)))
        if max_step > 1.0 / rate:
            # the closed forms and Lambda's refinement keep the values
            # accurate; the warning notes that the returned sampling cannot
            # resolve the transient
            meta["refinement_warning"] = (
                f"grid step {max_step:g} is coarse relative to the mixing "
                f"time 1/rate = {1.0 / rate:g}"
            )
    Lam = None
    if spec.lambda_rate is not None:
        nodes, idx = _refined_grid(rate, grid)
        meta["n_quad_nodes"] = int(nodes.size)
        lam_rate = spec.lambda_rate(model, spec.beta(model, nodes),
                                    spec.gamma(model, nodes))
        Lam = _cumulative_simpson(nodes, lam_rate)[idx]
    return CoefficientPath(grid=grid, beta=spec.beta(model, grid),
                           gamma=spec.gamma(model, grid), Lambda=Lam, meta=meta)


# --- independent ODE oracle --------------------------------------------------

def _rk4(rhs, state: tuple, grid: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 at steps <= h, landing exactly on the grid points.

    ``state`` is a tuple whose entries are floats for one model or 1-d
    arrays for a batch; returns the states at the grid points, stacked.
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


def _rk4_richardson(rhs, state: tuple, grid: np.ndarray, h_ode: float):
    """RK4 at steps h_ode and h_ode/2: (half-step states, |full - half|)."""
    full = _rk4(rhs, state, grid, h_ode)
    half = _rk4(rhs, state, grid, h_ode / 2.0)
    return half, np.abs(full - half)


def _oracle_path(spec: ModelSpec, grid: np.ndarray, vals: np.ndarray,
                 h_ode: float, disagreement: float) -> CoefficientPath:
    meta = {"h_ode": h_ode, "richardson_disagreement": disagreement}
    return CoefficientPath(grid=grid, meta=meta, **dict(zip(spec.path_fields, vals.T)))


def riccati_oracle(model: Model, grid, h_ode: float = H_ODE,
                   tol_ode: float = TOL_ODE) -> CoefficientPath:
    """RK4 integration of the coefficient ODEs, Richardson-gated.

    The systems are integrated at steps ``h_ode`` and ``h_ode/2``; if the two
    disagree beyond ``tol_ode`` at any grid point the step is declared too
    large and an error is raised.
    """
    grid = _check_grid(grid)
    spec = _path_spec(model)
    rhs = spec.oracle_rhs(*spec.ode_constants(model))
    half, gap = _rk4_richardson(rhs, (0.0,) * len(spec.path_fields), grid, h_ode)
    disagreement = float(np.max(gap))
    if disagreement > tol_ode:
        raise ValueError(
            f"RK4 step h_ode={h_ode:g} too large: half-step disagreement "
            f"{disagreement:.3e} exceeds tol_ode={tol_ode:g}"
        )
    return _oracle_path(spec, grid, half, h_ode, disagreement)


def riccati_oracle_batch(models: list[Model], grid, h_ode: float = H_ODE,
                         tol_ode: float = TOL_ODE) -> list[CoefficientPath]:
    """Vectorized oracle for a sweep of same-kind parameter sets."""
    if not models:
        return []
    if len({m.kind for m in models}) > 1:
        raise ValueError("riccati_oracle_batch needs models of one kind")
    grid = _check_grid(grid)
    spec = _path_spec(models[0])
    consts = zip(*(spec.ode_constants(m) for m in models))
    rhs = spec.oracle_rhs(*(np.array(col) for col in consts))
    zero = (np.zeros(len(models)),) * len(spec.path_fields)
    half, gap = _rk4_richardson(rhs, zero, grid, h_ode)
    disagreement = np.max(gap, axis=(0, 1))
    out = []
    for j in range(len(models)):
        if disagreement[j] > tol_ode:
            raise ValueError(
                f"RK4 step h_ode={h_ode:g} too large for draw {j}: "
                f"disagreement {disagreement[j]:.3e}"
            )
        out.append(_oracle_path(spec, grid, half[:, :, j], h_ode,
                                float(disagreement[j])))
    return out

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

``riccati_oracle`` integrates the governing ODE systems, ``spec.oracle_rhs``,
as an independent verification path for the closed forms: adaptive
Dormand-Prince 5(4) in pure Python, run at two tolerances that must agree.
In both kinds the last column (``Lambda``, ``gamma``) is an integral that no
right-hand side reads.  Once the other columns stop moving, Newton finds the
ODE's own fixed point (never the closed eigenpair) and the pass settles on
it, so the oracle's cost does not grow with the horizon or the mixing rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Model, ModelSpec, UnsupportedModelError

ORACLE_TOLS = (1e-12, 1e-13)  # tolerances of the oracle's two passes
TOL_ODE = 1e-8                # largest disagreement allowed between them
MAX_RHS_EVALS = 100_000       # right-hand-side evaluations allowed per pass


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

# Dormand-Prince 5(4): the rows of stages 2-7 (the last is the fifth-order
# solution, whose right-hand side starts the next step) and the weights of
# the embedded error estimate, fifth- minus fourth-order solution.
_DP_ROWS = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
           -1 / 40)
_H_START = 1e-6       # first trial step; each accepted step grows it at most tenfold
_NEWTON_ITERS = 8


def _counted(rhs, cap: int):
    """``rhs`` with its calls counted in ``.evals``; past ``cap`` it raises."""
    def f(state):
        f.evals += 1
        if f.evals > cap:
            raise UnsupportedModelError(
                f"ODE oracle exceeded {cap} right-hand-side evaluations")
        return rhs(state)

    f.evals = 0
    return f


def _fixed_point(f, y: tuple, tol: float) -> tuple | None:
    """The root of the right-hand side of every column but the last, by
    Newton from ``y`` with a forward-difference Jacobian (1x1 or 2x2); None
    unless Newton converges to a root within tol (1 + |x|) of ``y``."""
    x, tail, n = y[:-1], y[-1:], len(y) - 1
    for _ in range(_NEWTON_ITERS):
        r = f(x + tail)[:n]
        cols = []
        for j in range(n):
            d = 1e-7 * (1.0 + abs(x[j]))
            rj = f(x[:j] + (x[j] + d,) + x[j + 1:] + tail)[:n]
            cols.append([(a - b) / d for a, b in zip(rj, r)])
        if n == 1:
            det = cols[0][0]
            dx = (-r[0] / det,) if det else None
        else:
            (a, c), (b, d) = cols
            det = a * d - b * c
            dx = ((b * r[1] - d * r[0]) / det, (c * r[0] - a * r[1]) / det) if det else None
        if dx is None:
            return None
        x = tuple(xi + di for xi, di in zip(x, dx))
        if all(abs(di) <= 4e-16 * (1.0 + abs(xi)) for xi, di in zip(x, dx)):
            near = all(abs(xi - yi) <= tol * (1.0 + abs(yi)) for xi, yi in zip(x, y))
            return x if near else None
    return None


def _dp5_pass(rhs, n_cols: int, grid: np.ndarray, tol: float):
    """One adaptive Dormand-Prince 5(4) pass at relative and absolute
    tolerance ``tol``, every step clipped to land on the grid points.

    Once an accepted step moves every column but the last by at most
    tol (1 + |x|) and ``_fixed_point`` finds a root within tol of the state,
    the path has settled: the rest of the grid takes the root, and the last
    column, an integral that no right-hand side reads, grows at the root's
    slope.  Returns (states at the grid points, rhs evaluations, accepted
    steps, time stepped before settling).
    """
    f = _counted(rhs, MAX_RHS_EVALS)
    y = (0.0,) * n_cols
    rows, k1 = [y], f(y)
    t, h, steps, settled = 0.0, _H_START, 0, None
    for g in grid[1:].tolist():
        while settled is None and t < g:
            hs = min(h, g - t)
            ks = [k1]
            for row in _DP_ROWS:
                ys = tuple(yj + hs * sum(a * kj for a, kj in zip(row, col))
                           for yj, col in zip(y, zip(*ks)))
                ks.append(f(ys))
            err = 0.0
            for yj, zj, col in zip(y, ys, zip(*ks)):
                e = hs * sum(a * kj for a, kj in zip(_DP_ERR, col))
                e /= tol * (1.0 + max(abs(yj), abs(zj)))
                err += e * e
            err = math.sqrt(err / n_cols)
            factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
            if err <= 1.0:
                steps += 1
                t = g if hs == g - t else t + hs
                still = all(abs(b - a) <= tol * (1.0 + abs(b))
                            for a, b in zip(y[:-1], ys[:-1]))
                y, k1 = ys, ks[-1]
                h = max(h, hs * factor) if hs < h else hs * factor
                root = _fixed_point(f, y, tol) if still else None
                if root is not None:
                    slope = f(root + y[-1:])[-1]
                    settled = (root, t, y[-1], slope)
            else:
                h = hs * min(1.0, factor)
            if not t + h > t:
                raise UnsupportedModelError(
                    f"ODE oracle step underflow at t={t:g} (tol={tol:g})")
        if settled is None:
            rows.append(y)
        else:
            root, ts, tail, slope = settled
            rows.append(root + (tail + slope * (g - ts),))
    span = grid[-1] if settled is None else settled[1]
    return np.array(rows), f.evals, steps, float(span)


def riccati_oracle(model: Model, grid) -> CoefficientPath:
    """Adaptive Dormand-Prince 5(4) integration of the coefficient ODEs,
    gated by two tolerances.

    The systems are integrated at each of ``ORACLE_TOLS``; the tighter pass is
    returned.  If the two disagree beyond ``TOL_ODE`` at any grid point, or
    either gives a NaN, :class:`UnsupportedModelError` is raised, as it is
    when a pass exceeds ``MAX_RHS_EVALS`` evaluations or its step underflows.
    A pass settles on the ODE's own fixed point (see ``_dp5_pass``), so its
    cost does not grow with the horizon.

    ``meta``: ``richardson_disagreement``, the largest gap between the two
    passes; ``h_ode``, the tighter pass's time stepped before settling over
    its accepted steps; ``rhs_evals``, the right-hand-side evaluations of
    both passes.  The first two keep the names of the fixed-step oracle they
    replace, which the benchmark's tracer still reads.
    """
    grid = _check_grid(grid)
    spec = _path_spec(model)
    rhs = spec.oracle_rhs(model)
    n_cols = len(spec.path_fields)
    with np.errstate(over="ignore", invalid="ignore"):
        loose, evals, _, _ = _dp5_pass(rhs, n_cols, grid, ORACLE_TOLS[0])
        tight, evals2, steps, span = _dp5_pass(rhs, n_cols, grid, ORACLE_TOLS[1])
        disagreement = float(np.max(np.abs(loose - tight)))
    if not disagreement <= TOL_ODE:
        raise UnsupportedModelError(
            f"ODE oracle passes at tolerances {ORACLE_TOLS} disagree by "
            f"{disagreement:.3e}, over TOL_ODE={TOL_ODE:g}"
        )
    meta = {"h_ode": span / steps if steps else 0.0,
            "richardson_disagreement": disagreement, "rhs_evals": evals + evals2}
    return CoefficientPath(grid=grid, meta=meta, **dict(zip(spec.path_fields, tight.T)))

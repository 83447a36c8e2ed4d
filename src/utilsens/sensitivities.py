"""Long-term sensitivities of the optimal expected utility.

For each drift/volatility parameter theta the long-horizon limit of
(1/T) d/d theta ln|optimal expected utility| equals -(1-p) dlambda/dtheta.
This module evaluates the published closed-form limit table of each model,
``model.spec.sensitivity_rows`` (the tables themselves live with the other
per-kind formulas in ``models``), next to an independent
central-finite-difference derivative of the eigenvalue, and reports the
disagreement per row.

Disagreement policy: rows whose closed form misses the FD oracle beyond
1e-6 * (1 + |limit|) are flagged, never silently patched; the oracle is the
trusted side.  (With generic parameters the Kim-Omberg mu and varsigma rows
are flagged: their closed forms, reproduced verbatim, are inconsistent with
the eigenvalue they are derived from.  See the FD column for usable values.)

The initial-factor sensitivity is different in kind: its limit is a state
derivative -(1-p)(a2 chi + a1), not a per-time rate, and it is reported
un-normalized by the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import valuation
from .eigenpairs import eigenpair
from .models import (
    ConfigError,
    Model,
    UnsupportedModelError,
    bumped_models,
    initial_state,
)

FD_SCALE = 1e-6          # relative finite-difference step
AUDIT_TOL_ABS = 1e-6     # flag when |closed - fd| >= AUDIT_TOL_ABS * (1 + |closed|)


@dataclass(frozen=True)
class FDEstimate:
    """Central difference of lambda and the step it was taken at."""

    value: float          # (lambda(t+h) - lambda(t-h)) / (2h)
    h: float              # the step after any shrink by bumped_models


@dataclass(frozen=True)
class SensitivityEntry:
    parameter: str
    closed_form: float
    fd_lambda_check: float | None
    abs_disagreement: float | None
    flagged: bool


@dataclass(frozen=True)
class SensitivityReport:
    model: str
    entries: tuple[SensitivityEntry, ...]

    def flagged_parameters(self) -> list[str]:
        return [e.parameter for e in self.entries if e.flagged]

    def entry(self, parameter: str) -> SensitivityEntry:
        for e in self.entries:
            if e.parameter == parameter:
                return e
        raise KeyError(parameter)


def _step(model: Model, parameter: str, h: float | None = None) -> float:
    """``h``, or the default step FD_SCALE * max(|theta|, 1) for ``parameter``."""
    theta = getattr(model.params, parameter, None)
    if theta is None:
        raise ConfigError(f"unknown parameter '{parameter}' for {model.kind}")
    return FD_SCALE * max(abs(theta), 1.0) if h is None else h


def _central(up: Model, dn: Model, h: float) -> float:
    return (eigenpair(up).lam - eigenpair(dn).lam) / (2.0 * h)


def lambda_fd(model: Model, parameter: str, h: float | None = None) -> FDEstimate:
    """Central finite difference of the eigenvalue in ``parameter``.

    The two legs come from ``models.bumped_models``: both bumped parameter
    sets must be admissible, and if one is not the step shrinks once by 10x
    before giving up.
    """
    up, dn, h = bumped_models(model, parameter, _step(model, parameter, h))
    return FDEstimate(value=_central(up, dn, h), h=h)


def long_term_sensitivities(model: Model) -> SensitivityReport:
    """Closed-form limits next to the -(1-p) * FD-of-lambda oracle, per row."""
    omp = 1.0 - model.p
    ep = eigenpair(model)
    chi = initial_state(model)
    entries = [SensitivityEntry(
        parameter="chi",
        closed_form=-omp * (ep.a2 * chi + ep.a1),
        fd_lambda_check=None,
        abs_disagreement=None,
        flagged=False,
    )]
    rows = model.spec.sensitivity_rows(model)
    for name in model.spec.sensitivity_params:
        closed = rows[name]
        fd = -omp * lambda_fd(model, name).value
        gap = abs(closed - fd)
        entries.append(SensitivityEntry(
            parameter=name,
            closed_form=closed,
            fd_lambda_check=fd,
            abs_disagreement=gap,
            flagged=bool(gap >= AUDIT_TOL_ABS * (1.0 + abs(closed))),
        ))
    return SensitivityReport(model=model.kind, entries=tuple(entries))


@dataclass(frozen=True)
class InitialFactorSensitivity:
    finite_horizon: float
    long_term_limit: float
    gap: float


def initial_factor_sensitivity(model: Model, chi: float | None = None,
                               T: float = 0.0) -> InitialFactorSensitivity:
    """(1-p) d/d chi ln v at horizon T next to its long-horizon limit; a model
    without a closed path is refused by ``coefficients._path_spec``."""
    chi = initial_state(model, chi)
    omp = 1.0 - model.p
    a2, a1, _ = valuation._log_value_coefficients(model, T)
    fh = -omp * (a2 * chi + a1)
    ep = eigenpair(model)
    limit = -omp * (ep.a2 * chi + ep.a1)
    return InitialFactorSensitivity(finite_horizon=fh, long_term_limit=limit,
                                    gap=abs(fh - limit))


@dataclass(frozen=True)
class DiagnosticRow:
    T: float
    value: float    # (1/T) d ln v / d theta at horizon T
    limit: float    # -dlambda/dtheta (FD oracle)
    gap: float


def convergence_diagnostic(model: Model, parameter: str, T_grid,
                           sim_config=None, workers: int | None = None
                           ) -> list[DiagnosticRow]:
    """Table of (1/T) d ln v / d theta against the long-horizon limit.

    One pair of models from ``models.bumped_models`` at ``lambda_fd``'s
    default step gives both columns: the limit, exactly
    ``-lambda_fd(model, parameter).value``, and the slopes, from the pair's
    closed-form log values or, for the complete-market model, which has no
    closed value, from the Monte Carlo bump route given a sim config, run
    on ``workers`` threads.
    """
    if parameter == "chi":
        raise ConfigError("use initial_factor_sensitivity for the chi derivative")
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.ndim != 1 or T_grid.size == 0 or np.any(np.diff(T_grid) <= 0) \
            or T_grid[0] <= 0:
        raise ValueError("T grid must be positive and strictly increasing")
    up, dn, h = bumped_models(model, parameter, _step(model, parameter))
    limit = -_central(up, dn, h)
    if model.spec.has_path:
        chi = model.params.chi
        slopes = [(valuation.log_dual_value(up, chi, float(T))
                   - valuation.log_dual_value(dn, chi, float(T))) / (2.0 * h)
                  for T in T_grid]
    else:
        if sim_config is None:
            raise UnsupportedModelError(
                f"{model.kind} convergence diagnostics need a sim config"
            )
        from . import simulation  # local import keeps module deps one-way

        slopes = [slope for slope, _ in simulation.mc_bump_sensitivities(
            model, None, T_grid.tolist(), parameter, h, sim_config, workers)]
    rows = []
    for T, slope in zip(T_grid, slopes):
        val = slope / float(T)
        rows.append(DiagnosticRow(T=float(T), value=val, limit=limit,
                                  gap=abs(val - limit)))
    return rows

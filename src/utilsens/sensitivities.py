"""Long-term sensitivities of the optimal expected utility.

For each drift/volatility parameter theta the long-horizon limit of
(1/T) d/d theta ln|optimal expected utility| equals -(1-p) dlambda/dtheta.
This module evaluates the published closed-form limit tables for the three
models next to an independent central-finite-difference derivative of the
eigenvalue, and reports the disagreement per row.

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

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import valuation
from .eigenpairs import eigenpair
from .models import (
    HESTON,
    KIM_OMBERG,
    OU_COMPLETE,
    ConfigError,
    Model,
    UnsupportedModelError,
    ValidationError,
    bump_params,
    bumped_models,
    initial_state,
    validate,
)

FD_SCALE = 1e-6          # relative finite-difference step
AUDIT_TOL_ABS = 1e-6     # flag when |closed - fd| >= AUDIT_TOL_ABS * (1 + |closed|)


@dataclass(frozen=True)
class FDEstimate:
    """Central difference of lambda with a Richardson error estimate."""

    value: float          # (lambda(t+h) - lambda(t-h)) / (2h)
    half_step: float      # same at h/2
    richardson: float     # (4 * half_step - value) / 3
    error_estimate: float  # estimated error of half_step
    h: float


@dataclass(frozen=True)
class SensitivityEntry:
    parameter: str
    closed_form: float
    fd_lambda_check: float | None
    abs_disagreement: float | None
    flagged: bool

    def as_dict(self) -> dict:
        return asdict(self)


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

    def as_dict(self) -> dict:
        return asdict(self)

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["parameter", "closed_form", "fd_check", "gap"]]
        for e in self.entries:
            rows.append([e.parameter, e.closed_form,
                         "" if e.fd_lambda_check is None else e.fd_lambda_check,
                         "" if e.abs_disagreement is None else e.abs_disagreement])
        return rows


def eigenvalue(model: Model) -> float:
    return eigenpair(model).lam


def lambda_fd(model: Model, parameter: str, h: float | None = None) -> FDEstimate:
    """Central finite difference of the eigenvalue in ``parameter``.

    Both bumped parameter sets must be admissible; if not, the step shrinks
    once by 10x before giving up.
    """
    theta = getattr(model.params, parameter, None)
    if theta is None:
        raise ConfigError(f"unknown parameter '{parameter}' for {model.kind}")
    if h is None:
        h = FD_SCALE * max(abs(theta), 1.0)

    def lam_at(step: float) -> float:
        return eigenvalue(validate(bump_params(model.params, parameter, step),
                                   model.prefs))

    def central(step: float) -> float:
        return (lam_at(+step) - lam_at(-step)) / (2.0 * step)

    try:
        value = central(h)
    except ValidationError:
        h = h / 10.0
        value = central(h)
    half = central(h / 2.0)
    rich = (4.0 * half - value) / 3.0
    return FDEstimate(value=value, half_step=half, richardson=rich,
                      error_estimate=abs(half - value) / 3.0, h=h)


# --- published limit tables ---------------------------------------------------
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
    ep = eigenpair(model)
    B, C = ep.a2, ep.a1
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
    B = eigenpair(model).a1
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


_ROWS = {OU_COMPLETE: _ou_rows, KIM_OMBERG: _ko_rows, HESTON: _heston_rows}


def closed_form_rows(model: Model) -> dict[str, float]:
    return _ROWS[model.kind](model)


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
    rows = closed_form_rows(model)
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

    def as_dict(self) -> dict:
        return asdict(self)


def initial_factor_sensitivity(model: Model, chi: float | None = None,
                               T: float = 0.0) -> InitialFactorSensitivity:
    """(1-p) d/d chi ln v at horizon T next to its long-horizon limit."""
    if not model.spec.has_path:
        raise UnsupportedModelError(
            f"no closed finite-horizon chi-sensitivity for {model.kind}; "
            "use simulation.mc_bump_sensitivity"
        )
    chi = initial_state(model, chi)
    omp = 1.0 - model.p
    a2, a1, _ = model.spec.log_value_coefficients(*valuation.coefficients_at(model, T))
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

    def as_dict(self) -> dict:
        return asdict(self)


def convergence_diagnostic(model: Model, parameter: str, T_grid,
                           h: float | None = None,
                           sim_config=None) -> list[DiagnosticRow]:
    """Table of (1/T) d ln v / d theta against the long-horizon limit.

    Factor models differentiate the closed-form log value by re-solving the
    coefficient paths under theta +- h.  The complete-market model has no
    closed value; pass a sim config and the Monte Carlo bump route is used.
    """
    if parameter == "chi":
        raise ConfigError("use initial_factor_sensitivity for the chi derivative")
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.ndim != 1 or T_grid.size == 0 or np.any(np.diff(T_grid) <= 0) \
            or T_grid[0] <= 0:
        raise ValueError("T grid must be positive and strictly increasing")
    limit = -lambda_fd(model, parameter).value  # rejects unknown parameters
    theta = getattr(model.params, parameter)
    hh = h if h is not None else FD_SCALE * max(abs(theta), 1.0)
    if model.spec.has_path:
        up, dn, hh = bumped_models(model, parameter, hh)
        chi = model.params.chi
        slopes = [(valuation.log_dual_value(up, chi, float(T))
                   - valuation.log_dual_value(dn, chi, float(T))) / (2.0 * hh)
                  for T in T_grid]
    else:
        if sim_config is None:
            raise UnsupportedModelError(
                f"{model.kind} convergence diagnostics need a sim config"
            )
        from . import simulation  # local import keeps module deps one-way

        slopes = [simulation.mc_bump_sensitivity(
            model, None, float(T), parameter, hh, sim_config.with_(T=float(T)))[0]
            for T in T_grid]
    rows = []
    for T, slope in zip(T_grid, slopes):
        val = slope / float(T)
        rows.append(DiagnosticRow(T=float(T), value=val, limit=limit,
                                  gap=abs(val - limit)))
    return rows

"""Monte Carlo simulation of the measure-changed factor dynamics.

Two discretizations cover all supported runs:

* affine-Gaussian: the decomposition and value-representation dynamics of the
  Kim-Omberg factor (and the complete-market price) are linear SDEs with
  time-dependent coefficients, so each step draws from the exact Gaussian
  transition with the coefficients frozen at the step midpoint (scheme
  ``exact_gaussian``), or does a plain Euler step (scheme ``euler``);
* full-truncation Euler for the square-root Heston factor, which evaluates
  drift and diffusion at the positive part of the state and so keeps the
  reported path nonnegative (scheme ``full_truncation_euler``).

Noise is counter-based: path i at step j always reads the same Philox word
(index j * n_paths + i), so results are bit-identical for any worker count
or path blocking, and bumped reruns with the same seed share their Gaussian
increments (common random numbers).  Normals come from the inverse CDF, one
uniform per draw.

The module owns the simulation grid: every run reads its drift and exponent
coefficients on the half-step grid linspace(0, T, 2 n_steps + 1), taken for a
factor model from the closed forms ``coefficients.closed_beta`` and
``closed_gamma`` at time-to-go T - t.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from . import coefficients as coeff
from . import valuation
from .eigenpairs import Eigenpair, eigenpair, phi_log
from .models import (
    Model,
    UnsupportedModelError,
    bumped_models,
    initial_state,
)

SCHEMES = ("exact_gaussian", "euler", "full_truncation_euler")
_BLOCK = 16384  # fixed path block; block geometry never depends on workers


@dataclass(frozen=True)
class SimConfig:
    T: float
    n_steps: int
    n_paths: int
    seed: int
    scheme: str = "exact_gaussian"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T >= 0):
            raise ValueError("T must be finite and >= 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_paths < 100:
            raise ValueError("n_paths must be >= 100")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")

    def with_(self, **kw) -> "SimConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class PathEnsemble:
    """Per-path terminal state and accumulated exponent integral."""

    x_T: np.ndarray
    integral: np.ndarray
    min_x: float
    config: SimConfig


@dataclass(frozen=True)
class DecompositionResult:
    v_closed: float
    skeleton: float
    mc_error_term: float
    mc_se: float
    ratio_gap: float
    passed: bool
    halved_dt_error_term: float | None = None
    halved_dt_gap: float | None = None
    halved_dt_combined_se: float | None = None
    halved_dt_passed: bool | None = None
    seed: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def normals_for(seed: int, n_paths: int, step: int, lo: int, hi: int) -> np.ndarray:
    """Standard normals for paths [lo, hi) at the given step.

    Word index of (path i, step j) is j * n_paths + i; Philox advances in
    4-word blocks, so position = advance(offset // 4) + discard offset % 4.
    """
    offset = step * n_paths + lo
    bg = Philox(key=seed)
    blocks, rem = divmod(offset, 4)
    if blocks:
        bg.advance(blocks)
    if rem:
        bg.random_raw(rem)
    u = Generator(bg).random(hi - lo)
    # u = 0 would map to -inf; nudge the (2^-53-probability) exact zero
    return ndtri(np.maximum(u, 2.0**-54))


def _run_blocks(kernel, n_paths: int, workers: int | None) -> None:
    blocks = [(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK)]
    workers = workers or 1
    if workers <= 1 or len(blocks) == 1:
        for lo, hi in blocks:
            kernel(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda b: kernel(*b), blocks))


def _affine_gaussian_tables(c0m, c1m, sigma, dt):
    """Per-step (decay, shift, sd) of the exact frozen-coefficient transition."""
    z = c1m * dt
    decay = np.exp(-z)
    safe = np.where(np.abs(z) < 1e-14, 1.0, c1m)
    psi = np.where(np.abs(z) < 1e-14, dt, -np.expm1(-z) / safe)
    psi2 = np.where(np.abs(z) < 1e-14, dt, -np.expm1(-2.0 * z) / (2.0 * safe))
    return decay, c0m * psi, sigma * np.sqrt(psi2)


def _coefficients(model: Model, cfg: SimConfig, measure: str):
    """(c0, c1, g2, g1, g0) on the half-step grid linspace(0, T, 2 n_steps + 1).

    The factor drift is c0 - c1 x and the accumulated exponent integrand
    g2 x^2 + g1 x + g0: the tilt rate f under measure "q", the value
    exponent under "phat".  A factor model reads its closed beta and gamma at
    time-to-go T - t.
    """
    times = np.linspace(0.0, cfg.T, 2 * cfg.n_steps + 1)
    beta = gamma = None
    if model.spec.has_path:
        beta = coeff.closed_beta(model, times)[::-1]
        gamma = coeff.closed_gamma(model, times)[::-1]
    ep = eigenpair(model)
    c0, c1 = model.spec.drift(model, ep, measure, beta, gamma)
    g2, g1, g0 = model.spec.exponent(model, ep, measure, times, beta, gamma)
    one = np.ones_like(times)
    return c0 * one, c1 * one, g2, g1, g0


def _ensemble(model: Model, cfg: SimConfig, chi: float, measure: str,
              workers: int | None) -> PathEnsemble:
    """Integrate the SDE and the exponent integral of ``measure`` over the
    step grid.

    Odd entries of the half-step drift arrays are the midpoints used by
    exact_gaussian; the exponent integrand is read at the n_steps + 1 nodes
    and accumulated by the trapezoid rule.
    """
    if cfg.scheme not in model.spec.schemes:
        raise ValueError(
            f"scheme '{cfg.scheme}' not supported for {model.kind}; "
            f"allowed: {model.spec.schemes}"
        )
    n, steps = cfg.n_paths, cfg.n_steps
    if cfg.T == 0.0:
        return PathEnsemble(x_T=np.full(n, chi), integral=np.zeros(n),
                            min_x=float(chi), config=cfg)
    c0, c1, g2, g1, g0 = _coefficients(model, cfg, measure)
    dt = cfg.T / steps
    sigma = getattr(model.params, model.spec.vol_field)
    max_rate = float(np.max(np.abs(c1)))
    if cfg.scheme in ("euler", "full_truncation_euler"):
        floor = math.ceil(2.0 * cfg.T * max_rate)
        if steps < floor:
            raise ValueError(
                f"n_steps={steps} below the explicit-scheme stability floor "
                f"{floor} (= ceil(2 T max drift rate))"
            )
    if steps < 10.0 * cfg.T * max_rate:
        warnings.warn(
            f"n_steps={steps} is below 10 * T * max mean-reversion rate "
            f"(~{10.0 * cfg.T * max_rate:.0f}); discretization bias may be visible",
            stacklevel=2,
        )
    x_T = np.empty(n)
    integral = np.empty(n)
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    block_min = np.full(n_blocks, np.inf)
    c0_left, c1_left = c0[0:-1:2], c1[0:-1:2]
    if cfg.scheme == "exact_gaussian":
        decay, shift, sd = _affine_gaussian_tables(c0[1::2], c1[1::2], sigma, dt)
    sqdt = math.sqrt(dt)
    half_dt = 0.5 * dt
    truncate = cfg.scheme == "full_truncation_euler"

    def kernel(lo: int, hi: int) -> None:
        # x is the raw scheme state; xr the reported path value.  Full
        # truncation keeps x unclamped but evaluates drift, diffusion and the
        # integrand at the positive part, so the reported path is >= 0.
        x = np.full(hi - lo, chi)
        xr = x
        acc = np.zeros(hi - lo)
        g_prev = (g2[0] * chi + g1[0]) * chi + g0[0]
        blk_min = float(chi)
        for j in range(steps):
            z = normals_for(cfg.seed, n, j, lo, hi)
            if cfg.scheme == "exact_gaussian":
                x = decay[j] * x + shift[j] + sd[j] * z
                xr = x
            elif truncate:
                xp = np.maximum(x, 0.0)
                x = x + (c0_left[j] - c1_left[j] * xp) * dt \
                    + sigma * np.sqrt(xp) * sqdt * z
                xr = np.maximum(x, 0.0)
            else:
                x = x + (c0_left[j] - c1_left[j] * x) * dt + sigma * sqdt * z
                xr = x
            k = 2 * (j + 1)
            g_new = (g2[k] * xr + g1[k]) * xr + g0[k]
            acc += half_dt * (g_prev + g_new)
            g_prev = g_new
            if truncate:
                blk_min = min(blk_min, float(np.min(xr)))
        x_T[lo:hi] = xr
        integral[lo:hi] = acc
        block_min[lo // _BLOCK] = blk_min

    _run_blocks(kernel, n, workers)
    return PathEnsemble(x_T=x_T, integral=integral,
                        min_x=float(np.min(block_min)), config=cfg)


def simulate_q_paths(model: Model, cfg: SimConfig, chi: float | None = None,
                     workers: int | None = None) -> PathEnsemble:
    """Sample the decomposition dynamics; per path (X_T, int f ds)."""
    if not model.spec.has_path:
        raise UnsupportedModelError("decomposition sampling needs a factor model")
    return _ensemble(model, cfg, initial_state(model, chi), "q", workers)


def estimate_error_term(ensemble: PathEnsemble, ep: Eigenpair) -> tuple[float, float]:
    """Sample mean and standard error of exp(int f ds) / phi(X_T).

    The per-path exponent int f - log phi(X_T) is assembled in log scale and
    exponentiated per path, so large eigenfunction exponents cannot overflow
    intermediate products.
    """
    if ensemble.x_T.size == 0:
        raise ValueError("empty ensemble")
    return _mean_se(np.exp(ensemble.integral - phi_log(ep, ensemble.x_T)))


def _mean_se(w: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of per-path weights."""
    se = float(np.std(w, ddof=1) / math.sqrt(w.size)) if w.size > 1 else 0.0
    return float(np.mean(w)), se


def decomposition_check(model: Model, chi: float | None, T: float, cfg: SimConfig,
                        workers: int | None = None,
                        check_dt_halving: bool = True) -> DecompositionResult:
    """Verify v = exp(-lambda T) phi(chi) E[exp(int f)/phi(X_T)] at 3 SE.

    The dt-halving gate reruns with doubled n_steps (at least 10^4 paths) and
    requires the error-term shift to stay below 3 combined SE, which bounds
    the visible discretization bias of the scheme.
    """
    chi = initial_state(model, chi)
    cfg = cfg.with_(T=T)
    ep = eigenpair(model)
    lphi = float(phi_log(ep, chi))
    lv = valuation.log_dual_value(model, chi, T)
    skeleton = math.exp(-ep.lam * T + lphi)
    ratio = math.exp(lv + ep.lam * T - lphi)
    if T == 0.0:
        mc, se = math.exp(-lphi), 0.0
        gap = abs(ratio - mc)
        return DecompositionResult(
            v_closed=math.exp(lv), skeleton=skeleton, mc_error_term=mc, mc_se=se,
            ratio_gap=gap, passed=bool(gap <= 1e-12), seed=cfg.seed,
        )
    ens = simulate_q_paths(model, cfg, chi=chi, workers=workers)
    mc, se = estimate_error_term(ens, ep)
    gap = abs(ratio - mc)
    passed = gap < 3.0 * se
    halved = halved_gap = combined = None
    halved_passed = None
    if check_dt_halving:
        n2 = max(min(cfg.n_paths, 10000), cfg.n_paths // 2)
        cfg2 = cfg.with_(n_steps=2 * cfg.n_steps, n_paths=n2)
        ens2 = simulate_q_paths(model, cfg2, chi=chi, workers=workers)
        mc2, se2 = estimate_error_term(ens2, ep)
        halved = mc2
        halved_gap = abs(mc - mc2)
        combined = math.sqrt(se**2 + se2**2)
        halved_passed = halved_gap < 3.0 * combined
        passed = passed and halved_passed
    return DecompositionResult(
        v_closed=math.exp(lv), skeleton=skeleton, mc_error_term=mc, mc_se=se,
        ratio_gap=gap, passed=bool(passed), halved_dt_error_term=halved,
        halved_dt_gap=halved_gap, halved_dt_combined_se=combined,
        halved_dt_passed=halved_passed, seed=cfg.seed,
    )


def _phat_weights(model: Model, chi: float, T: float, cfg: SimConfig,
                  workers: int | None = None) -> np.ndarray:
    """Per-path exp of the value exponent under the representation measure."""
    return np.exp(_ensemble(model, cfg.with_(T=T), chi, "phat", workers).integral)


def simulate_phat_value(model: Model, chi: float | None, T: float, cfg: SimConfig,
                        workers: int | None = None) -> tuple[float, float]:
    """Monte Carlo estimate (value, SE) of the dual value at horizon T.

    This is the second, measure-changed route to the dual value; for the
    complete-market model it is the only finite-horizon route.
    """
    chi = initial_state(model, chi)
    return _mean_se(_phat_weights(model, chi, T, cfg, workers))


def mc_bump_sensitivity(model: Model, chi: float | None, T: float, parameter: str,
                        h: float, cfg: SimConfig,
                        workers: int | None = None) -> tuple[float, float]:
    """Central log-difference of the MC value under a parameter bump.

    Both legs consume identical Gaussian increments (same seed and stream
    layout), so the finite-difference noise scales with the bump response,
    not with the absolute value level.  Returns (d ln v / d parameter, SE).
    """
    chi = initial_state(model, chi)
    if parameter in ("chi", "s0"):
        legs = [(model, chi + h), (model, chi - h)]
    else:
        up, dn, h = bumped_models(model, parameter, h)
        legs = [(up, chi), (dn, chi)]
    w_up = _phat_weights(legs[0][0], legs[0][1], T, cfg, workers)
    w_dn = _phat_weights(legs[1][0], legs[1][1], T, cfg, workers)
    m_up, m_dn = float(np.mean(w_up)), float(np.mean(w_dn))
    est = (math.log(m_up) - math.log(m_dn)) / (2.0 * h)
    _, se = _mean_se(w_up / m_up - w_dn / m_dn)
    return est, se / (2.0 * h)

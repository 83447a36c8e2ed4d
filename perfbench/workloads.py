"""The four benchmark workloads: inputs made from the seed, operations, checks.

A workload is a fixed list of operations.  Building the list is the set-up
(it parses and validates every input); running an operation calls utilsens
through its public functions or ``utilsens.cli.main`` and checks the output.
``Op.run`` returns None when the output is correct and a reason otherwise.
This module imports utilsens, so only pass processes import it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import utilsens as u
from draws import DRAWS
from utilsens import cli
from utilsens.models import load_config, model_from_config, sensitivity_parameters

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIGS = ("heston", "kim_omberg", "ou_complete")
SCHEMES = {u.KIM_OMBERG: "exact_gaussian", u.HESTON: "full_truncation_euler",
           u.OU_COMPLETE: "exact_gaussian"}

# check-by-check verify outcome documented in the README: Kim-Omberg fails
# the sensitivity-formula audit by design (the paper's mu and varsigma rows).
# None marks a Monte Carlo gate, whose verdict is judged from its numbers.
_FACTOR_CHECKS = (("eigenpair_residual_grid", True), ("riccati_oracle_agreement", True),
                  ("t0_identities", True), ("decomposition_identity", None),
                  ("two_route_value", None), ("sensitivity_formula_audit", True),
                  ("convergence_diagnostics", True))
EXPECTED_VERIFY = {
    "heston": _FACTOR_CHECKS,
    "kim_omberg": tuple((c, False if c == "sensitivity_formula_audit" else ok)
                        for c, ok in _FACTOR_CHECKS),
    "ou_complete": (("eigenpair_residual_grid", True), ("t0_identities", True),
                    ("sensitivity_formula_audit", True)),
}

# The library's Monte Carlo gates are 3-SE tests, so a correct program fails
# each one on about 0.3% of seeds.  Such a miss is a correct output: an
# operation is correct when every verdict matches its gap and every gap stays
# within BAND_SE standard errors, which a calibrated gate leaves on about one
# seed in a million.
GATE_SE, BAND_SE = 3.0, 5.0

DECO_T, DECO_STEPS, DECO_PATHS = 5.0, 1000, 100_000
# horizons in mixing times (T * rate), three per decade from 1 to 1e4
SWEEP_TAUS = tuple(10.0 ** (k / 3.0) for k in range(13))
SWEEP_DRAWS = (u.KIM_OMBERG,) + (u.HESTON,) * 7
SMALL_CALLS, SMALL_T, SMALL_STEPS, SMALL_PATHS = 102, 1.0, 100, 2000


@dataclass
class Op:
    label: str
    run: Callable[[], str | None]
    path_steps: int = 0


def decomposition_path_steps(n_paths: int, n_steps: int) -> int:
    """Path-steps of one ``decomposition_check``: the main leg plus the
    dt-halving leg at 2 * n_steps on max(min(n_paths, 1e4), n_paths // 2)
    paths."""
    return n_paths * n_steps + max(min(n_paths, 10_000), n_paths // 2) * 2 * n_steps


def verify_path_steps(kind: str, n_paths: int, n_steps: int) -> int:
    """Path-steps of ``utilsens verify``: decomposition at each verify horizon
    and the two-route value; the complete-market checks simulate nothing."""
    if kind == u.OU_COMPLETE:
        return 0
    return (len(cli.VERIFY_T_VALUES) * decomposition_path_steps(n_paths, n_steps)
            + n_paths * n_steps)


def mixing_rate(model: u.Model) -> float:
    """Rate that sets the quadrature density of the coefficient path."""
    c = model.constants
    return 2.0 * c.alpha4 if model.kind == u.KIM_OMBERG else c.beta2


def gap_in_band(label: str, gap: float, se: float) -> str | None:
    """None when ``gap`` is finite and within BAND_SE positive SEs."""
    if not (math.isfinite(gap) and math.isfinite(se) and se > 0.0):
        return f"{label}: gap {gap!r} with SE {se!r}"
    if not gap < BAND_SE * se:
        return f"{label}: gap {gap:.3e} >= {BAND_SE:g} SE {BAND_SE * se:.3e}"
    return None


def mc_verdict(check: str, details: dict) -> tuple[str | None, bool]:
    """(reason the numbers are wrong or None, the verdict they give) for a
    Monte Carlo check of ``verify --out``.  A decomposition run passes when
    its identity gap is within 3 SE; a run that failed only its dt-halving
    gate therefore counts as wrong, since that gate's legs share their noise
    and its gap spreads by about 0.3 combined SE."""
    if check == "two_route_value":
        gap, se = abs(details["mc"] - details["closed"]), details["mc_se"]
        return gap_in_band(check, gap, se), gap < GATE_SE * se
    for run in details["runs"]:
        label = f"{check} T={run['T']:g}"
        why = gap_in_band(label, run["ratio_gap"], run["mc_se"])
        if why is None and run["passed"] != (run["ratio_gap"] < GATE_SE * run["mc_se"]):
            why = f"{label}: verdict {run['passed']} does not match its 3-SE gap"
        if why is not None:
            return why, False
    return None, all(run["passed"] for run in details["runs"])


def check_verify(name: str, code: int, printed: str, out_path: str) -> str | None:
    with open(out_path, encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    got = [(c["name"], c["passed"]) for c in checks]
    lines = []
    for line in printed.splitlines():
        status, _, check = line.partition(" ")
        lines.append((check, status == "PASS"))
    if lines != got:
        return "--out checks differ from the printed PASS/FAIL lines"
    details = {c["name"]: c["details"] for c in checks}
    want = []
    for check, ok in EXPECTED_VERIFY[name]:
        if ok is None and check in details:
            why, ok = mc_verdict(check, details[check])
            if why is not None:
                return why
        want.append((check, ok))
    if got != want:
        return f"check pattern {got} differs from {want}"
    want_code = 0 if all(ok for _, ok in want) else 1
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    return None


def verify_configs(seed: int, outdir: str, workers: int) -> list[Op]:
    ops = []
    for name in CONFIGS:
        path = os.path.join(ROOT, "configs", f"{name}.json")
        cfg = load_config(path)
        model, sim = model_from_config(cfg), cfg["sim"]
        out = os.path.join(outdir, f"{name}.json")
        argv = ["verify", "--config", path, "--workers", str(workers),
                "--seed", str(seed), "--out", out]

        def run(name=name, argv=argv, out=out):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return check_verify(name, code, buf.getvalue(), out)

        ops.append(Op(name, run, verify_path_steps(model.kind, int(sim["n_paths"]),
                                                   int(sim["n_steps"]))))
    return ops


def mc_decomposition(seed: int, outdir: str, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for name in ("kim_omberg", "heston"):
        model = model_from_config(load_config(os.path.join(ROOT, "configs",
                                                           f"{name}.json")))
        cfg = u.SimConfig(T=DECO_T, n_steps=DECO_STEPS, n_paths=DECO_PATHS,
                          seed=int(rng.integers(2**63)), scheme=SCHEMES[model.kind])

        def run(model=model, cfg=cfg):
            r = u.decomposition_check(model, None, DECO_T, cfg, workers,
                                      check_dt_halving=True)
            why = (gap_in_band("identity", r.ratio_gap, r.mc_se)
                   or gap_in_band("dt-halving", r.halved_dt_gap, r.halved_dt_combined_se))
            if why is not None:
                return why
            halving_ok = r.halved_dt_gap < GATE_SE * r.halved_dt_combined_se
            if (r.halved_dt_passed != halving_ok
                    or r.passed != (r.ratio_gap < GATE_SE * r.mc_se and halving_ok)):
                return "3-SE verdicts do not match their gaps"
            return None

        ops.append(Op(name, run, decomposition_path_steps(DECO_PATHS, DECO_STEPS)))
    return ops


def _sweep_op(model: u.Model, T: float, last: bool):
    def run():
        res = u.dual_value(model, None, T)
        ifs = u.initial_factor_sensitivity(model, None, T)
        row = u.convergence_diagnostic(model, "m_bar", [T])[0]
        rep = u.long_term_sensitivities(model)
        logs = [res.growth_rate_estimate, ifs.finite_horizon, ifs.long_term_limit,
                row.value, row.limit]
        logs += [x for e in rep.entries for x in (e.closed_form, e.fd_lambda_check)
                 if x is not None]
        if not all(math.isfinite(x) for x in logs):
            return "non-finite log-space output"
        if not last:
            return None
        lam = u.eigenpair(model).lam
        if abs(res.growth_rate_estimate - lam) > 0.05 * max(abs(lam), 1e-8):
            return (f"growth rate {res.growth_rate_estimate:.6g} not within 5% "
                    f"of lambda {lam:.6g} at T={T:g}")
        return None

    return run


def horizon_sweep(seed: int, outdir: str, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, kind in enumerate(SWEEP_DRAWS):
        model = DRAWS[kind](rng)
        rate = mixing_rate(model)
        for j, tau in enumerate(SWEEP_TAUS):
            ops.append(Op(f"{kind}[{i}] tau={tau:.4g}",
                          _sweep_op(model, tau / rate, j == len(SWEEP_TAUS) - 1)))
    return ops


def mc_small_calls(seed: int, outdir: str, workers: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    kinds = (u.OU_COMPLETE, u.KIM_OMBERG, u.HESTON)
    ops = []
    for i in range(SMALL_CALLS):
        kind = kinds[i % 3]
        model = DRAWS[kind](rng)
        names = sensitivity_parameters(kind)
        par = names[(i // 3) % len(names)]
        h = 1e-3 * max(abs(getattr(model.params, par)), 1.0)
        cfg = u.SimConfig(T=SMALL_T, n_steps=SMALL_STEPS, n_paths=SMALL_PATHS,
                          seed=int(rng.integers(2**63)), scheme=SCHEMES[kind])

        def run(model=model, par=par, h=h, cfg=cfg):
            est, se = u.mc_bump_sensitivity(model, None, SMALL_T, par, h, cfg, workers)
            if not (math.isfinite(est) and math.isfinite(se) and se > 0.0):
                return f"estimate {est!r} with SE {se!r}"
            return None

        ops.append(Op(f"{kind}[{i}] d/d{par}", run, 2 * SMALL_PATHS * SMALL_STEPS))
    return ops


WORKLOADS = {
    "verify_configs": verify_configs,
    "mc_decomposition": mc_decomposition,
    "horizon_sweep": horizon_sweep,
    "mc_small_calls": mc_small_calls,
}

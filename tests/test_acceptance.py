"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the summary
lines.  Criterion 5 audits the published sensitivity tables row by row
against the finite-difference eigenvalue oracle; the Kim-Omberg mu and
varsigma rows are known to be inconsistent with the eigenvalue they were
derived from, so that criterion fails by design, reporting the discrepancy,
rather than silently patching the formulas (see the module docstring of
``utilsens.sensitivities``).
"""

import math
import os

import numpy as np
import pytest

import utilsens as u
from utilsens import coefficients as co
from utilsens import sensitivities as se
from utilsens import simulation as si
from utilsens import valuation as va
from utilsens.cli import main as cli_main
from utilsens.eigenpairs import ergodic_residual, residual_grid

from conftest import HESTON_SET, KO_SET, OU_SET, draw_heston, draw_ko, draw_model

WORKERS = min(4, os.cpu_count() or 1)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")


def test_c01_ergodic_residual_grid():
    rng = np.random.default_rng(101)
    worst = 0.0
    for kind in ("kim_omberg", "heston"):
        for _ in range(100):
            m = draw_model(kind, rng)
            ep = u.eigenpair(m)
            worst = max(worst, max(abs(ergodic_residual(m, ep, x))
                                   for x in residual_grid(m)))
    ok = worst < 1e-8
    _report(1, ok, f"max |ergodic residual| over 100 draws x 101 points = "
                   f"{worst:.3e} (tol 1e-8)")
    assert ok


def test_c02_eigenpair_identities():
    rng = np.random.default_rng(102)
    worst_ric = worst_cons = worst_rad = 0.0
    for _ in range(1000):
        m = draw_ko(rng)
        c, q, pa = m.constants, m.q, m.params
        ep = u.eigenpair(m)
        B, C = ep.a2, ep.a1
        n = q * (1 - q) * (pa.mu / pa.varsigma) ** 2
        scale = max(abs(n), abs(2 * c.alpha1 * B), abs(c.alpha2 * B * B), 1e-300)
        worst_ric = max(worst_ric,
                        abs(-c.alpha2 * B**2 - 2 * c.alpha1 * B + n) / scale)
        cons_scale = max(abs(c.alpha3 * B), abs(C * c.alpha4), 1e-300)
        worst_cons = max(worst_cons,
                         abs(c.alpha3 * B - C * (c.alpha1 + c.alpha2 * B))
                         / cons_scale)
    for _ in range(1000):
        m = draw_heston(rng)
        c, q, pa = m.constants, m.q, m.params
        rhs = q * (1 - q * pa.rho**2) * (pa.mu * pa.sigma / pa.varsigma) ** 2
        worst_rad = max(worst_rad, abs(c.beta2**2 - c.beta1**2 - rhs)
                        / max(c.beta2**2, rhs))
    ok = worst_ric < 1e-12 and worst_cons < 1e-12 and worst_rad < 1e-12
    _report(2, ok, f"relative identity residuals over 1000 draws: riccati "
                   f"{worst_ric:.2e}, consistency {worst_cons:.2e}, radical "
                   f"{worst_rad:.2e} (tol 1e-12)")
    assert ok


def test_c03_coefficient_oracle_agreement():
    rng = np.random.default_rng(103)
    grid = np.linspace(0.0, 50.0, 251)
    worst = 0.0
    for kind in ("kim_omberg", "heston"):
        models = [draw_model(kind, rng) for _ in range(100)]
        for m in models:
            oracle = co.riccati_oracle(m, grid)
            closed = co.build_path(m, grid)
            worst = max(worst, float(np.max(np.abs(closed.beta - oracle.beta))))
            worst = max(worst, float(np.max(np.abs(closed.gamma - oracle.gamma))))
            if closed.Lambda is not None:
                worst = max(worst,
                            float(np.max(np.abs(closed.Lambda - oracle.Lambda))))
    ok = worst < 1e-6
    _report(3, ok, f"sup |closed - RK4 oracle| on [0,50], 100 draws per model: "
                   f"{worst:.3e} (tol 1e-6)")
    assert ok


def test_c04_convergence_rates():
    rng = np.random.default_rng(104)
    ok = True
    details = []
    for _ in range(10):
        m = draw_ko(rng, mixing_floor=0.5)
        while abs(m.params.mu) / m.params.varsigma < 1.0:
            m = draw_ko(rng, mixing_floor=0.5)
        a4 = m.constants.alpha4
        lam = u.eigenpair(m).lam
        B = u.eigenpair(m).a2
        ts = np.linspace(1.5 / a4, 5.0 / a4, 20)
        gaps = B - co.closed_beta(m, ts)
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        ok &= abs(slope + 2.0 * a4) <= 0.10 * 2.0 * a4
        L = co.build_path(m, np.array([0.0, 50.0])).Lambda
        ok &= abs(L[-1] / 50.0 + lam) < 0.05 * abs(lam)
    for _ in range(10):
        m = draw_heston(rng, mixing_floor=0.5)
        while abs(m.params.mu) / m.params.varsigma < 1.0:
            m = draw_heston(rng, mixing_floor=0.5)
        b2 = m.constants.beta2
        lam = u.eigenpair(m).lam
        B = u.eigenpair(m).a1
        ts = np.linspace(1.5 / b2, 6.0 / b2, 20)
        gaps = B - co.closed_beta(m, ts)
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        ok &= abs(slope + b2) <= 0.15 * b2
        g = co.closed_gamma(m, np.array([0.0, 50.0]))
        ok &= abs(g[-1] / 50.0 - lam) < 0.05 * lam
    _report(4, ok, "beta decay slopes -2*alpha4 (10%) / -beta2 (15%) and "
                   "Lambda(50)/50, gamma(50)/50 eigenvalue checks (5%)")
    assert ok


def test_c05_theorem_formula_audit():
    rng = np.random.default_rng(105)
    failures = []
    for kind in ("ou_complete", "kim_omberg", "heston"):
        for i in range(20):
            if kind == "ou_complete":
                m = u.validate(
                    u.OUCompleteParams(
                        mu=rng.uniform(-0.5, 0.5), b=rng.uniform(0.3, 2.0),
                        varsigma=rng.uniform(0.15, 0.6),
                        s0=rng.uniform(0.2, 1.5)),
                    u.Preferences(p=float(rng.uniform(-4.0, -0.3))))
            else:
                m = draw_model(kind, rng)
            rep = se.long_term_sensitivities(m)
            for e in rep.entries:
                if e.flagged:
                    failures.append(
                        f"{kind} draw {i}: {e.parameter} printed "
                        f"{e.closed_form:+.9e} vs oracle "
                        f"{e.fd_lambda_check:+.9e} (gap {e.abs_disagreement:.3e})"
                    )
    ok = not failures
    _report(5, ok, f"{len(failures)} flagged theorem rows "
                   f"(tol 1e-6 * (1 + |limit|) per row)")
    if failures:
        summary = "\n".join(failures[:12])
        pytest.fail(
            "printed sensitivity formulas disagree with the FD-of-lambda "
            f"oracle on {len(failures)} rows (the kim_omberg mu and varsigma "
            "closed forms are inconsistent with the eigenvalue; the oracle "
            "column is the trusted value):\n" + summary
        )


def _decomposition_runs(kind: str, seed_root: int):
    rng = np.random.default_rng(seed_root)
    scheme = "exact_gaussian" if kind == "kim_omberg" else "full_truncation_euler"
    results = []
    for draw_i in range(5):
        m = draw_model(kind, rng, mixing_floor=0.5)
        for T in (1.0, 5.0, 10.0):
            seed = int(rng.integers(2**62))
            cfg = si.SimConfig(T=T, n_steps=1000, n_paths=100000, seed=seed,
                               scheme=scheme)
            r = si.decomposition_check(m, None, T, cfg, workers=WORKERS,
                                       check_dt_halving=True)
            results.append((kind, draw_i, T, r))
    return results


def test_c06_hansen_scheinkman_decomposition():
    bad = []
    for kind, root in (("kim_omberg", 106), ("heston", 107)):
        for kind_, draw_i, T, r in _decomposition_runs(kind, root):
            if not (r.ratio_gap < 3.0 * r.mc_se):
                bad.append(f"{kind_} draw {draw_i} T={T}: identity gap "
                           f"{r.ratio_gap:.2e} vs 3se {3 * r.mc_se:.2e}")
            if not r.halved_dt_passed:
                bad.append(f"{kind_} draw {draw_i} T={T}: dt-halving gap "
                           f"{r.halved_dt_gap:.2e} vs 3se "
                           f"{3 * r.halved_dt_combined_se:.2e}")
    ok = not bad
    _report(6, ok, "decomposition identity and dt-halving bias gates at 3 SE, "
                   "5 draws x T in {1,5,10} x 2 models, 1e5 paths, 1e3 steps")
    assert ok, "\n".join(bad)


def test_c07_two_route_value():
    ok = True
    details = []
    for params, prefs, scheme in (
        (u.KimOmbergParams(**KO_SET), u.Preferences(p=-1.0), "exact_gaussian"),
        (u.HestonParams(**HESTON_SET), u.Preferences(p=-1.0),
         "full_truncation_euler"),
    ):
        m = u.validate(params, prefs)
        cfg = si.SimConfig(T=2.0, n_steps=500, n_paths=100000, seed=1070,
                           scheme=scheme)
        v_hat, sev, _ = si.simulate_phat_value(m, None, 2.0, cfg, workers=WORKERS)
        v_cl = va.dual_value(m, None, 2.0).v
        ok &= abs(v_hat - v_cl) < 3.0 * sev
        details.append(f"{m.kind}: |mc - closed| = {abs(v_hat - v_cl):.2e} "
                       f"vs 3se {3 * sev:.2e}")
    _report(7, ok, "; ".join(details))
    assert ok


def test_c08_initial_factor_sensitivity_convergence():
    ok = True
    # exponential gap decay toward the limit for both factor models
    ko = u.validate(u.KimOmbergParams(**KO_SET), u.Preferences(p=-1.0))
    a4 = ko.constants.alpha4
    Ts = np.linspace(3.0 / a4, 9.0 / a4, 10)
    gaps = np.array([u.initial_factor_sensitivity(ko, None, T).gap for T in Ts])
    slope, _ = np.polyfit(Ts, np.log(gaps), 1)
    ok &= np.all(np.diff(gaps) < 0) and slope < -0.5 * a4
    he = u.validate(u.HestonParams(**HESTON_SET), u.Preferences(p=-1.0))
    b2 = he.constants.beta2
    Ts = np.linspace(3.0 / b2, 9.0 / b2, 10)
    gaps_h = np.array([u.initial_factor_sensitivity(he, None, T).gap for T in Ts])
    slope_h, _ = np.polyfit(Ts, np.log(gaps_h), 1)
    ok &= np.all(np.diff(gaps_h) < 0) and abs(slope_h + b2) < 0.15 * b2
    # FD of ln v in chi against the closed finite-horizon derivative
    worst = 0.0
    for m in (ko, he):
        chi = m.params.chi
        omp = 1.0 - m.p
        for T in (1.0, 10.0):
            h = 1e-5 * (1.0 + abs(chi))
            fd = omp * (va.log_dual_value(m, chi + h, T)
                        - va.log_dual_value(m, chi - h, T)) / (2 * h)
            closed = u.initial_factor_sensitivity(m, chi, T).finite_horizon
            worst = max(worst, abs(fd - closed) / abs(closed))
    ok &= worst < 1e-6
    _report(8, ok, f"gap decay slopes (ko {slope:.3f} vs alpha4 {a4:.3f}, "
                   f"heston {slope_h:.3f} vs beta2 {b2:.3f}); chi-FD rel err "
                   f"{worst:.2e} (tol 1e-6)")
    assert ok


def test_c09_ou_complete_long_horizon():
    m = u.validate(u.OUCompleteParams(**OU_SET), u.Preferences(p=-3.0))
    lam = u.eigenpair(m).lam
    assert lam == pytest.approx(OU_SET["b"] / 8.0, rel=1e-14)
    cfg = si.SimConfig(T=40.0, n_steps=2000, n_paths=100000, seed=1090,
                       scheme="exact_gaussian")
    v, _, _ = si.simulate_phat_value(m, None, 40.0, cfg, workers=WORKERS)
    growth = -math.log(v) / 40.0
    growth_ok = abs(growth - lam) < 0.10 * lam
    est, _ = si.mc_bump_sensitivity(m, None, 40.0, "b", 1e-4 * OU_SET["b"],
                                    cfg, workers=WORKERS)
    trend = (1.0 - m.p) * est / 40.0
    limit = -(math.sqrt(1.0 - m.p) - 1.0) / 2.0
    bump_ok = abs(trend - limit) < 0.15 * abs(limit)
    ok = growth_ok and bump_ok
    _report(9, ok, f"growth {growth:.5f} vs lambda {lam:.5f} (10%); b-bump "
                   f"trend {trend:.4f} vs {limit:.4f} (15%)")
    assert ok


def test_c10_verify_determinism(tmp_path):
    import json

    cfg = {
        "heston": dict(HESTON_SET),
        "preferences": {"p": -1.0},
        "sim": {"T": 2.0, "n_steps": 200, "n_paths": 2000, "seed": 9100,
                "scheme": "full_truncation_euler"},
    }
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for w in ("1", "4", "8"):
        out = tmp_path / f"verify_w{w}.json"
        code = cli_main(["verify", "--config", str(cfg_path), "--workers", w,
                         "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, ok, "verify JSON byte-identical across worker counts {1,4,8}")
    assert ok

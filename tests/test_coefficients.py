"""Closed-form coefficient paths against independent ODE/quadrature oracles."""

import math
import os
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from utilsens import (
    HestonParams,
    KimOmbergParams,
    Preferences,
    UnsupportedModelError,
    dual_value,
    eigenpair,
    validate,
)
from utilsens import coefficients as co
from utilsens.cli import _closed_and_oracle_gap
from utilsens.models import SPECS, load_config, model_from_config

from conftest import HESTON_SET, KO_SET, draw_heston, draw_ko, draw_model

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs")


def _rk4(rhs, y0, t1, h):
    """Test-local classical RK4; deliberately independent of the library."""
    m = int(round(t1 / h))
    y = list(y0)
    for _ in range(m):
        k1 = rhs(y)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = rhs([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b + 2 * c + 2 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    return y


def _ko_rhs(model):
    c, q, pa = model.constants, model.q, model.params
    n = q * (1 - q) * (pa.mu / pa.varsigma) ** 2

    def rhs(s):
        b, g, L = s
        return [-c.alpha2 * b * b - 2 * c.alpha1 * b + n,
                -(c.alpha1 + c.alpha2 * b) * g + c.alpha3 * b,
                0.5 * c.alpha2 * g * g - c.alpha3 * g - 0.5 * pa.sigma**2 * b]

    return rhs


def _heston_rhs(model):
    # implied by substituting v = exp(-gamma - beta x) into the HJB: the
    # x-coefficient gives beta' = -(alpha2/2) beta^2 - beta1 beta
    # + (q/2)(1-q) mu^2/varsigma^2, the constant term gamma' = k m_bar beta
    c, q, pa = model.constants, model.q, model.params
    a2h = c.sigma1**2 + c.sigma2**2 / (1 - q)
    n = q * (1 - q) * (pa.mu / pa.varsigma) ** 2

    def rhs(s):
        b, g = s
        return [-0.5 * a2h * b * b - c.beta1 * b + 0.5 * n,
                pa.k * pa.m_bar * b]

    return rhs


def test_ko_beta_zero_and_limit(ko_model):
    assert co.closed_path(ko_model, 0.0)["beta"] == 0.0
    B = eigenpair(ko_model).a2
    t_inf = 100.0 / ko_model.constants.alpha4
    assert abs(co.closed_path(ko_model, t_inf)["beta"] - B) < B * 1e-12


def test_ko_beta_matches_test_local_rk4(ko_model):
    b1 = _rk4(_ko_rhs(ko_model), [0.0, 0.0, 0.0], 1.0, 1e-4)[0]
    assert b1 == pytest.approx(0.7448361153365184, abs=1e-12)  # frozen oracle
    assert co.closed_path(ko_model, 1.0)["beta"] == pytest.approx(b1, abs=1e-8)


def test_ko_gamma_lambda_trivial_mu_zero():
    m = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), Preferences(p=-1.0))
    grid = np.linspace(0.0, 10.0, 21)
    path = co.build_path(m, grid)
    g, L = path.gamma, path.Lambda
    assert np.all(g == 0.0) and np.all(L == 0.0)
    path = co.riccati_oracle(m, np.linspace(0.0, 5.0, 6))
    assert np.all(path.beta == 0.0) and np.all(path.gamma == 0.0)
    assert np.all(path.Lambda == 0.0)


def test_ko_gamma_lambda_match_coupled_rk4(ko_model):
    vals = _rk4(_ko_rhs(ko_model), [0.0, 0.0, 0.0], 1.0, 1e-4)
    assert vals[1] == pytest.approx(0.03466275077061422, abs=1e-12)  # frozen
    assert vals[2] == pytest.approx(-0.022861560863889168, abs=1e-12)  # frozen
    path = co.build_path(ko_model, np.array([0.0, 1.0]))
    g, L = path.gamma, path.Lambda
    assert g[-1] == pytest.approx(vals[1], abs=1e-8)
    assert L[-1] == pytest.approx(vals[2], abs=1e-8)


def test_ko_gamma_converges_to_c_exponentially(ko_model):
    # gamma(t) - C = -2 C exp(-alpha4 t) + O(exp(-2 alpha4 t)): the gap decays
    # at rate alpha4 (not 2 alpha4 -- eliminating mu_tilde in closed form gives
    # gamma(t) = (alpha3 N / alpha4)(1 - e^{-alpha4 t})^2
    #            / (alpha4 + alpha1 + (alpha4 - alpha1) e^{-2 alpha4 t}),
    # whose leading deficit is the cross term 2 e^{-alpha4 t}).  Fit c0 on an
    # early window, check the bound later, and pin the asymptotic coefficient.
    ep = eigenpair(ko_model)
    a4 = ko_model.constants.alpha4
    C = ep.a1
    ts = np.linspace(1.0, 8.0 / a4, 30)
    g = co.closed_path(ko_model, np.concatenate([[0.0], ts]))["gamma"]
    gaps = np.abs(g[1:] - C)
    c0 = np.max(gaps * np.exp(a4 * ts))
    later = np.linspace(8.0 / a4, 12.0 / a4, 10)
    g2 = co.closed_path(ko_model, np.concatenate([[0.0], later]))["gamma"]
    late_gaps = np.abs(g2[1:] - C)
    assert np.all(late_gaps <= 1.05 * c0 * np.exp(-a4 * later))
    # asymptotic coefficient is 2C
    ratios = late_gaps * np.exp(a4 * later) / (2.0 * abs(C))
    assert np.all(np.abs(ratios - 1.0) < 0.02)


def test_heston_beta_zero_limit_and_rk4(heston_model):
    assert co.closed_path(heston_model, 0.0)["beta"] == 0.0
    ep = eigenpair(heston_model)
    c = heston_model.constants
    pa = heston_model.params
    q = heston_model.q
    limit = q * (1 - q) * (pa.mu / pa.varsigma) ** 2 / (c.beta1 + c.beta2)
    assert limit == pytest.approx(ep.a1, rel=1e-14)
    assert abs(co.closed_path(heston_model, 100.0 / c.beta2)["beta"] - ep.a1) < 1e-10
    b1 = _rk4(_heston_rhs(heston_model), [0.0, 0.0], 1.0, 1e-4)[0]
    assert b1 == pytest.approx(0.2315911982905709, abs=1e-12)  # frozen oracle
    assert co.closed_path(heston_model, 1.0)["beta"] == pytest.approx(b1, abs=1e-8)


def test_heston_beta_overflow_safe(heston_model):
    # t large enough that naive sinh/cosh would overflow
    val = co.closed_path(heston_model, 5000.0)["beta"]
    assert math.isfinite(val)
    assert val == pytest.approx(eigenpair(heston_model).a1, rel=1e-14)


def test_heston_gamma_trivial_and_quadrature(heston_model):
    m0 = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), Preferences(p=-1.0))
    g = co.closed_path(m0, np.linspace(0.0, 5.0, 11))["gamma"]
    assert np.all(g == 0.0)
    # adaptive-quadrature oracle at t = 1
    pa = heston_model.params
    val, err = quad(lambda t: co.closed_path(heston_model, t)["beta"], 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13)
    oracle = pa.k * pa.m_bar * val
    assert oracle == pytest.approx(0.026810219032828153, abs=1e-12)  # frozen
    g1 = co.closed_path(heston_model, np.array([0.0, 1.0]))["gamma"]
    assert g1[-1] == pytest.approx(oracle, abs=1e-10)


def test_heston_gamma_growth_rate(heston_model):
    lam = eigenpair(heston_model).lam
    g = co.closed_path(heston_model, np.array([0.0, 50.0]))["gamma"]
    assert abs(g[-1] / 50.0 - lam) < lam * 0.05


def test_closed_gamma_finite_at_large_horizon(ko_model, heston_model):
    # only decaying exponentials appear, so nothing overflows or warns at t = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_ko = co.closed_path(ko_model, 1e6)["gamma"]
        g_h = co.closed_path(heston_model, 1e6)["gamma"]
        L_ko = co.build_path(ko_model, [0.0, 1e3, 1e6]).Lambda
    assert g_ko == pytest.approx(eigenpair(ko_model).a1, rel=1e-14)
    assert g_h / 1e6 == pytest.approx(eigenpair(heston_model).lam, rel=1e-6)
    # past the transient Lambda(t) = -lambda t + const
    assert np.all(np.isfinite(L_ko))
    lam = eigenpair(ko_model).lam
    assert abs((L_ko[2] + lam * 1e6) - (L_ko[1] + lam * 1e3)) < 1e-8


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(["kim_omberg", "heston"]), seed=st.integers(0, 2**32 - 1),
       e=st.floats(-6.0, 300.0))
def test_closed_path_finite_zero_at_0_and_scalar_read_is_vector_read(kind, seed, e):
    # an admissible draw at t = 10^e: every column finite and exactly 0 at
    # t = 0, the scalar read the same bits as the read of [0, t], and the log
    # utility finite where the utility itself underflows
    m = draw_model(kind, np.random.default_rng(seed))
    t = 10.0**e
    at0, scalar = co.closed_path(m, 0.0), co.closed_path(m, t)
    vector = co.closed_path(m, np.array([0.0, t]))
    assert list(scalar) == list(m.spec.path_fields)
    for f in m.spec.path_fields:
        assert at0[f] == 0.0 and vector[f][0] == 0.0
        assert isinstance(scalar[f], float) and math.isfinite(scalar[f])
        assert np.float64(scalar[f]).tobytes() == vector[f][1:].tobytes()
    assert math.isfinite(dual_value(m, None, t).log_abs_utility)


def test_closed_gamma_matches_oracle():
    # every closed column, Lambda included, against the RK4 oracle
    rng = np.random.default_rng(25)
    grid = np.linspace(0.0, 10.0, 21)
    for kind_draw in (draw_ko, draw_heston):
        models = [kind_draw(rng) for _ in range(20)]
        for m in models:
            oracle = co.riccati_oracle(m, grid)
            closed = co.build_path(m, grid)
            for f in m.spec.path_fields:
                gap = np.max(np.abs(getattr(closed, f) - getattr(oracle, f)))
                assert gap < 1e-10, f


def _mp_ko_Lambda(pa, p, T):
    """30-digit quadrature of Lambda' with beta and gamma in closed form,
    every constant recomputed from the parameters in mpmath."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        mu, vs, k, mb, sig, rho = (mp.mpf(x) for x in (
            pa.mu, pa.varsigma, pa.k, pa.m_bar, pa.sigma, pa.rho))
        q = -mp.mpf(p) / (1 - mp.mpf(p))
        a1 = k + q * mu * rho * sig / vs
        a2 = (rho * sig) ** 2 + (1 - rho**2) * sig**2 / (1 - q)
        a3 = k * mb
        n = q * (1 - q) * (mu / vs) ** 2
        a4 = mp.sqrt(a1**2 + a2 * n)
        A = a4 + a1
        B = a2 * n / A  # = a4 - a1, without cancellation

        def rate(t):
            s = mp.exp(-a4 * t)
            beta = n * (1 - s * s) / (A + B * s * s)
            gamma = a3 * n / a4 * (1 - s) ** 2 / (A + B * s * s)
            return a2 * gamma**2 / 2 - a3 * gamma - sig**2 * beta / 2

        return float(mp.quad(rate, mp.linspace(0, T, 7)))


@pytest.mark.parametrize("params, p", [
    *[(KimOmbergParams(**{**KO_SET, "mu": mu}), -1.0) for mu in (1e-12, 1e-8, 1e-5)],
    (KimOmbergParams(mu=1.0, varsigma=0.2, k=0.3, m_bar=0.1, sigma=1.5,
                     rho=-0.95, chi=0.2), -0.5),
], ids=["mu=1e-12", "mu=1e-8", "mu=1e-5", "alpha1<0"])
def test_closed_Lambda_matches_mpmath(params, p):
    m = validate(params, Preferences(p=p))
    Ts = [0.3, 3.0, 30.0]
    got = co.build_path(m, [0.0] + Ts).Lambda[1:]
    for T, L in zip(Ts, got):
        ref = _mp_ko_Lambda(params, p, T)
        assert abs(L - ref) <= 1e-12 * (1.0 + abs(ref)), T
        # Lambda scales with mu^2: also relative, where the bound above is loose
        assert abs(L - ref) <= 1e-12 * abs(ref), T


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("route", [co.build_path, co.riccati_oracle])
def test_non_finite_grid_rejected(ko_model, route, bad):
    with pytest.raises(ValueError, match="finite"):
        route(ko_model, [0.0, 1.0, bad])


def test_ko_lambda_growth_rate(ko_model):
    lam = eigenpair(ko_model).lam
    L = co.build_path(ko_model, np.array([0.0, 50.0])).Lambda
    assert abs(L[-1] / 50.0 + lam) < abs(lam) * 0.05


def test_beta_monotone_and_below_limit():
    # strict inequalities hold until the gap saturates below f64 resolution,
    # so test on a window scaled to the mixing rate
    rng = np.random.default_rng(21)
    for draw in (draw_ko, draw_heston):
        for _ in range(10):
            m = draw(rng)
            if abs(m.params.mu) < 1e-3:
                continue
            rate = (2.0 * m.constants.alpha4 if m.kind == "kim_omberg"
                    else m.constants.beta2)
            grid = np.linspace(0.0, 12.0 / rate, 201)
            path = co.build_path(m, grid)
            B = eigenpair(m).a2 if m.kind == "kim_omberg" else eigenpair(m).a1
            assert path.beta[0] == 0.0 and path.gamma[0] == 0.0
            if path.Lambda is not None:
                assert path.Lambda[0] == 0.0
            assert np.all(np.diff(path.beta) > 0)
            assert np.all(path.beta < B)


def test_ko_convergence_rate_bound_and_slope():
    rng = np.random.default_rng(22)
    for _ in range(10):
        m = draw_ko(rng, mixing_floor=0.5)
        if abs(m.params.mu) < 0.05:
            continue
        c = m.constants
        B = eigenpair(m).a2
        bound = 2.0 * c.alpha4 * (c.alpha4 - c.alpha1) / (c.alpha2 * (c.alpha4 + c.alpha1))
        ts = np.linspace(0.0, 4.0 / c.alpha4, 41)
        beta = co.closed_path(m, ts)["beta"]
        gaps = B - beta
        assert np.all(gaps <= bound * np.exp(-2.0 * c.alpha4 * ts) * (1 + 1e-12))
        # log-gap slope is -2 alpha4 within 10% on the tail window
        tail = ts > 1.5 / c.alpha4
        slope = np.polyfit(ts[tail], np.log(gaps[tail]), 1)[0]
        assert slope == pytest.approx(-2.0 * c.alpha4, rel=0.10)


def test_heston_beta_decay_slope():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = draw_heston(rng, mixing_floor=0.5)
        if abs(m.params.mu) < 0.05:
            continue
        b2 = m.constants.beta2
        B = eigenpair(m).a1
        ts = np.linspace(1.5 / b2, 6.0 / b2, 30)
        gaps = B - co.closed_path(m, ts)["beta"]
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        assert slope == pytest.approx(-b2, rel=0.15)


def test_closed_forms_match_oracle_uniformly():
    rng = np.random.default_rng(24)
    grid = np.linspace(0.0, 50.0, 101)
    for kind_draw in (draw_ko, draw_heston):
        models = [kind_draw(rng) for _ in range(10)]
        for m in models:
            oracle = co.riccati_oracle(m, grid)
            closed = co.build_path(m, grid)
            assert np.max(np.abs(closed.beta - oracle.beta)) < 1e-6
            assert np.max(np.abs(closed.gamma - oracle.gamma)) < 1e-6
            if closed.Lambda is not None:
                assert np.max(np.abs(closed.Lambda - oracle.Lambda)) < 1e-6


def _with_rhs(monkeypatch, model, rhs):
    """Give ``model``'s kind the right-hand side ``rhs`` for the oracle."""
    monkeypatch.setitem(SPECS, model.kind,
                        replace(model.spec, oracle_rhs=lambda m: rhs))


def test_riccati_oracle_step_too_large_detected(heston_model, monkeypatch):
    # beta' = beta + 1 grows like e^t: each pass holds its own tolerance
    # relative to beta ~ 5e8 at t = 20, so the looser pass's steps leave it
    # about 1e-4 from the tighter one, over TOL_ODE
    _with_rhs(monkeypatch, heston_model, lambda s: (s[0] + 1.0, s[0]))
    with pytest.raises(UnsupportedModelError, match="disagree"):
        co.riccati_oracle(heston_model, np.linspace(0.0, 20.0, 5))


def test_riccati_oracle_refuses_an_overflowing_pass(ko_model, monkeypatch):
    # beta' = 1 + beta^2 is tan(t), which overflows before t = pi/2: the step
    # underflows at the pole; a rhs that returns NaN has every step rejected
    # until it underflows; a circle around (1, 1) never settles and runs
    # into the evaluation cap on a long grid
    blow_up = lambda s: (1.0 + s[0] * s[0], 0.0, s[0])
    nan = lambda s: (math.nan, 0.0, 0.0)
    circle = lambda s: (1.0 - s[1], s[0] - 1.0, s[0])
    for rhs, grid, why in ((blow_up, [0.0, 2.0], "underflow"),
                           (nan, [0.0, 1.0], "underflow"),
                           (circle, [0.0, 1e5], "evaluations")):
        _with_rhs(monkeypatch, ko_model, rhs)
        with pytest.raises(UnsupportedModelError, match=why):
            co.riccati_oracle(ko_model, grid)


def test_riccati_oracle_checks_a_fast_mixing_model():
    # k = 3000 mixes at rate ~6000, past the stability limit of a
    # fixed-step oracle at any affordable step; the adaptive passes settle
    m = validate(KimOmbergParams(**{**KO_SET, "k": 3000.0}), Preferences(p=-1.0))
    grid = np.linspace(0.0, 50.0, 501)
    oracle, closed = co.riccati_oracle(m, grid), co.build_path(m, grid)
    for f in m.spec.path_fields:
        assert np.max(np.abs(getattr(closed, f) - getattr(oracle, f))) < 1e-10


def test_riccati_oracle_cost_does_not_grow_with_T():
    # verify's grid cut at T = 50 and carried on to 1e6: once a pass settles
    # on the fixed point the long horizons cost nothing, and the gap to the
    # closed forms stays far below verify's 1e-6 bound out to 1e6
    short = np.linspace(0.0, 50.0, 501)
    long = np.concatenate([short, [1e2, 1e3, 1e4, 1e6]])
    for config in ("kim_omberg", "heston"):
        model = model_from_config(load_config(os.path.join(SHIPPED, f"{config}.json")))
        evals = [co.riccati_oracle(model, g).meta["rhs_evals"] for g in (short, long)]
        assert evals[0] <= evals[1] <= evals[0] + 100
        _, sup = _closed_and_oracle_gap(model, long)
        assert sup < 1e-10


@pytest.mark.parametrize("config", ["kim_omberg", "heston"])
def test_riccati_oracle_steps_on_shipped_config(config, monkeypatch):
    # both tolerance passes on verify's 501-point grid, counted at the RHS:
    # the count the oracle reports is every evaluation, Newton's included
    model = model_from_config(load_config(os.path.join(SHIPPED, f"{config}.json")))
    spec, calls = model.spec, [0]

    def counted_rhs(m):
        rhs = spec.oracle_rhs(m)

        def wrapped(state):
            calls[0] += 1
            return rhs(state)

        return wrapped

    monkeypatch.setitem(SPECS, model.kind, replace(spec, oracle_rhs=counted_rhs))
    meta = co.riccati_oracle(model, np.linspace(0.0, 50.0, 501)).meta
    assert calls[0] == meta["rhs_evals"] <= 2 * co.MAX_RHS_EVALS
    assert meta["richardson_disagreement"] <= co.TOL_ODE
    assert 0.0 < meta["h_ode"] < 50.0


@pytest.mark.parametrize("kind, field", [("kim_omberg", "Lambda"), ("heston", "gamma")])
def test_planted_error_shows_in_oracle_gap(ko_model, heston_model, kind, field,
                                           monkeypatch):
    # +1e-7 at every t > 0 in one closed column: the oracle gap on verify's
    # grid reads 1e-7 to within its own error, far below the 1e-6 bounds
    model = ko_model if kind == "kim_omberg" else heston_model
    spec, i = model.spec, model.spec.path_fields.index(field)

    def planted(m, t):
        cols = list(spec.path(m, t))
        cols[i] = cols[i] + 1e-7 * np.sign(t)
        return tuple(cols)

    monkeypatch.setitem(SPECS, kind, replace(spec, path=planted))
    _, sup = _closed_and_oracle_gap(model, np.linspace(0.0, 50.0, 501))
    assert abs(sup - 1e-7) < 1e-9


def test_riccati_oracle_rejects_ou():
    from utilsens import OUCompleteParams, validate

    m = validate(OUCompleteParams(mu=0.3, b=0.8, varsigma=0.4, s0=0.5),
                 Preferences(p=-3.0))
    with pytest.raises(UnsupportedModelError):
        co.riccati_oracle(m, np.array([0.0, 1.0]))


def test_csv_serialization(tmp_path):
    # the riccati CSV table: a Lambda column only for the kind whose path has one
    import io
    import json
    from contextlib import redirect_stdout

    from utilsens.cli import main

    for kind, params, header in (("kim_omberg", KO_SET, "t,beta,gamma,Lambda"),
                                 ("heston", HESTON_SET, "t,beta,gamma")):
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({kind: params, "preferences": {"p": -1.0},
                                   "sweep": {"T_grid": [0.5, 1.0, 1.5, 2.0]}}))
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["riccati", "--config", str(cfg), "--format", "csv"]) == 0
        rows = buf.getvalue().splitlines()
        assert rows[0] == header
        assert len(rows) == 6

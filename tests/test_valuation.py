"""Dual value, optimal controls, and decomposition ingredients."""

import math

import numpy as np
import pytest

from utilsens import (
    HestonParams,
    KimOmbergParams,
    Preferences,
    UnsupportedModelError,
    control_hat_xi,
    control_star_xi,
    dual_value,
    eigenpair,
    f_eval,
    initial_factor_sensitivity,
    kappa_eval,
    validate,
)
from utilsens import valuation as va
from utilsens.eigenpairs import phi_ratios

from conftest import HESTON_SET, KO_SET, draw_heston, draw_ko


def _rk4_beta_gamma(model, t1, h=1e-4):
    """Test-local RK4 for (beta, gamma) at time t1, independent of the library."""
    c, q, pa = model.constants, model.q, model.params
    n = q * (1 - q) * (pa.mu / pa.varsigma) ** 2
    if model.kind == "kim_omberg":
        def rhs(s):
            b, g = s
            return [-c.alpha2 * b * b - 2 * c.alpha1 * b + n,
                    -(c.alpha1 + c.alpha2 * b) * g + c.alpha3 * b]
    else:
        a2h = c.sigma1**2 + c.sigma2**2 / (1 - q)

        def rhs(s):
            b, g = s
            return [-0.5 * a2h * b * b - c.beta1 * b + 0.5 * n,
                    pa.k * pa.m_bar * b]
    y = [0.0, 0.0]
    m = int(round(t1 / h))
    for _ in range(m):
        k1 = rhs(y)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = rhs([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b + 2 * c_ + 2 * d + e)
             for a, b, c_, d, e in zip(y, k1, k2, k3, k4)]
    return y


def test_t0_value_is_one(ko_model, heston_model):
    for m in (ko_model, heston_model):
        res = dual_value(m, None, 0.0)
        assert res.v == 1.0
        assert res.utility == 1.0 / m.p
        assert res.growth_rate_estimate is None


def test_ko_mu_zero_value_is_one_any_T():
    m = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), Preferences(p=-1.0))
    for T in (0.5, 3.0, 20.0):
        assert dual_value(m, None, T).v == pytest.approx(1.0, abs=1e-14)


def test_heston_growth_near_eigenvalue(heston_model):
    lam = eigenpair(heston_model).lam
    g = dual_value(heston_model, None, 30.0).growth_rate_estimate
    assert abs(g - lam) < 0.05 * lam


def test_ou_complete_routed_to_monte_carlo(ou_model):
    with pytest.raises(UnsupportedModelError, match="simulate_phat_value"):
        dual_value(ou_model, None, 1.0)


def test_control_hat_xi_zero_at_maturity(ko_model, heston_model):
    assert control_hat_xi(ko_model, 0.7, 3.0, 3.0) == 0.0
    assert control_hat_xi(heston_model, 0.1, 3.0, 3.0) == 0.0


def test_control_hat_xi_converges_to_star(ko_model, heston_model):
    for m, x in [(ko_model, 0.35), (heston_model, 0.12)]:
        far = control_hat_xi(m, x, 0.0, 60.0)
        star = control_star_xi(m, x)
        assert far == pytest.approx(star, rel=1e-10, abs=1e-12)


def test_control_hat_xi_against_independent_integration(ko_model, heston_model):
    for m, x in [(ko_model, 0.35), (heston_model, 0.12)]:
        b, g = _rk4_beta_gamma(m, 1.5)
        q = m.q
        s2 = m.constants.sigma2
        if m.kind == "kim_omberg":
            expect = s2 / (1 - q) * (b * x + g)
        else:
            expect = s2 / (1 - q) * b * math.sqrt(x)
        assert control_hat_xi(m, x, 0.5, 2.0) == pytest.approx(expect, abs=1e-8)


def test_control_star_matches_phi_ratio(ko_model, heston_model):
    for m, xs in [(ko_model, (-0.5, 0.2, 1.0)), (heston_model, (0.02, 0.1, 0.4))]:
        ep = eigenpair(m)
        for x in xs:
            r1, _ = phi_ratios(ep, x)
            s2x = m.constants.sigma2 * (1.0 if m.kind == "kim_omberg"
                                        else math.sqrt(x))
            assert control_star_xi(m, x) == pytest.approx(
                -s2x * r1 / (1 - m.q), rel=1e-12, abs=1e-15)


def test_control_star_root(ko_model):
    ep = eigenpair(ko_model)
    x0 = -ep.a1 / ep.a2  # root of the linear form B x + C
    assert control_star_xi(ko_model, x0) == pytest.approx(0.0, abs=1e-16)


def test_f_mu_zero_identically_zero():
    prefs = Preferences(p=-1.0)
    ko = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), prefs)
    he = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), prefs)
    for m, x in [(ko, 0.4), (he, 0.1)]:
        for t, T in [(0.0, 1.0), (0.5, 2.0), (2.0, 2.0)]:
            assert f_eval(m, x, t, T) == 0.0


def test_f_at_maturity_equals_star_square(ko_model, heston_model):
    # beta(0) = gamma(0) = 0, so xi_hat vanishes and f = -(q/2)(1-q) xi*^2
    for m, x in [(ko_model, 0.3), (heston_model, 0.15)]:
        q = m.q
        star = control_star_xi(m, x)
        assert f_eval(m, x, 2.0, 2.0) == pytest.approx(
            -0.5 * q * (1 - q) * star**2, rel=1e-12)


def test_f_definition_matches_expansion():
    rng = np.random.default_rng(31)
    for draw in (draw_ko, draw_heston):
        for _ in range(10):
            m = draw(rng)
            x = abs(m.params.chi) + 0.05
            for t, T in [(0.0, 1.0), (0.7, 2.5), (4.0, 5.0)]:
                d = f_eval(m, x, t, T)
                e = va.f_eval_expanded(m, x, t, T)
                assert d == pytest.approx(e, rel=1e-12, abs=1e-15)
                assert d <= 0.0


def test_kappa_mu_zero_is_physical_drift():
    prefs = Preferences(p=-1.0)
    ko = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), prefs)
    he = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), prefs)
    for m, x in [(ko, 0.7), (he, 0.2)]:
        pa = m.params
        assert kappa_eval(m, x, 0.5, 2.0) == pytest.approx(
            pa.k * (pa.m_bar - x), rel=1e-12)


def test_kappa_limit_equals_stationary_drift(ko_model):
    # with beta, gamma at their limits B, C the kappa display collapses to the
    # stationary linear drift k m_bar - alpha2 C - (alpha1 + alpha2 B) x
    c = ko_model.constants
    ep = eigenpair(ko_model)
    B, C = ep.a2, ep.a1
    x = 0.4
    T = 80.0  # coefficients are at their limits to beyond f64 resolution
    val = kappa_eval(ko_model, x, 0.0, T)
    expect = c.alpha3 - c.alpha2 * C - (c.alpha1 + c.alpha2 * B) * x
    assert val == pytest.approx(expect, rel=1e-12)


def test_kappa_display_matches_generic_assembly():
    rng = np.random.default_rng(32)
    for draw in (draw_ko, draw_heston):
        for _ in range(10):
            m = draw(rng)
            x = abs(m.params.chi) + 0.05
            for t, T in [(0.0, 1.0), (0.7, 2.5), (4.9, 5.0)]:
                disp = kappa_eval(m, x, t, T)
                gen = va.kappa_eval_generic(m, x, t, T)
                assert disp == pytest.approx(gen, rel=1e-12, abs=1e-14)


def test_log_value_chi_derivative_matches_fd():
    rng = np.random.default_rng(33)
    for draw in (draw_ko, draw_heston):
        for _ in range(5):
            m = draw(rng)
            chi = m.params.chi
            for T in (1.0, 10.0):
                h = 1e-5 * (1.0 + abs(chi))
                if m.kind == "heston" and chi - h <= 0:
                    continue
                fd = (va.log_dual_value(m, chi + h, T)
                      - va.log_dual_value(m, chi - h, T)) / (2 * h)
                b, g, _ = va.coefficients_at(m, T)
                closed = -b * chi - g if m.kind == "kim_omberg" else -b
                assert fd == pytest.approx(closed, rel=1e-6, abs=1e-12)


def test_growth_gap_decreasing_past_mixing_time(ko_model, heston_model):
    for m in (ko_model, heston_model):
        lam = eigenpair(m).lam
        rate = (2.0 * m.constants.alpha4 if m.kind == "kim_omberg"
                else m.constants.beta2)
        t0 = 5.0 / rate if m.kind == "kim_omberg" else 10.0 / m.constants.beta2
        Ts = np.linspace(t0 + 1.0, t0 + 41.0, 9)
        gaps = [abs(dual_value(m, None, T).growth_rate_estimate - lam)
                for T in Ts]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_log_abs_utility_where_utility_underflows(ko_model, heston_model):
    for m in (ko_model, heston_model):
        res = dual_value(m, None, 1e4)
        assert res.utility == 0.0
        assert math.isfinite(res.log_abs_utility)
        lv = va.log_dual_value(m, m.params.chi, 1e4)
        assert res.log_abs_utility == (1.0 - m.p) * lv - math.log(abs(m.p))


@pytest.mark.parametrize("T", [math.inf, math.nan])
@pytest.mark.parametrize("route", [
    lambda m, T: dual_value(m, None, T),
    va.coefficients_at,
    lambda m, T: initial_factor_sensitivity(m, None, T),
], ids=["dual_value", "coefficients_at", "initial_factor_sensitivity"])
def test_non_finite_horizon_rejected(ko_model, heston_model, route, T):
    for m in (ko_model, heston_model):
        with pytest.raises(ValueError, match="T must be finite"):
            route(m, T)


def test_time_pair_validation(ko_model):
    with pytest.raises(ValueError):
        control_hat_xi(ko_model, 0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        dual_value(ko_model, None, -1.0)

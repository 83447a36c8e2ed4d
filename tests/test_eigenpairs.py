"""Recurrent eigenpairs, log phi and its derivative ratios, and the
ergodic-equation residual."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from utilsens import (
    HestonParams,
    KimOmbergParams,
    OUCompleteParams,
    Preferences,
    eigenpair,
    ValidationError,
    ergodic_residual,
    validate,
)
from utilsens.eigenpairs import phi_log, phi_ratios, residual_grid

from conftest import HESTON_SET, KO_SET, draw_heston, draw_ko


def test_ou_complete_eigenvalue_exact():
    # p = -3 makes sqrt(1-p) = 2, so lambda = b/8 exactly
    m = validate(OUCompleteParams(mu=0.5, b=0.8, varsigma=0.3, s0=1.0),
                 Preferences(p=-3.0))
    assert eigenpair(m).lam == pytest.approx(0.1, abs=1e-16)


def test_mu_zero_eigenpair_trivial():
    prefs = Preferences(p=-1.0)
    ko = eigenpair(validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), prefs))
    assert (ko.lam, ko.a2, ko.a1) == (0.0, 0.0, 0.0)
    he = eigenpair(validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), prefs))
    assert (he.lam, he.a2, he.a1) == (0.0, 0.0, 0.0)
    assert (phi_log(he, 1.7), *phi_ratios(he, 1.7)) == (0.0, 0.0, 0.0)  # phi = 1


def test_heston_eigenvalue_against_root_find_oracle(heston_model):
    # independent route: positive root of the stationary quadratic
    # (alpha2/2) y^2 + beta1 y - (q/2)(1-q) mu^2/varsigma^2 = 0, lam = k m_bar y
    pa = heston_model.params
    q = heston_model.q
    s1 = pa.rho * pa.sigma
    s2 = math.sqrt(1 - pa.rho**2) * pa.sigma
    b1 = pa.k + q * pa.mu * s1 / pa.varsigma
    a2h = s1**2 + s2**2 / (1 - q)
    c0 = 0.5 * q * (1 - q) * (pa.mu / pa.varsigma) ** 2
    root = brentq(lambda y: 0.5 * a2h * y * y + b1 * y - c0, 0.0, 1e3,
                  xtol=1e-16, rtol=8.9e-16)
    lam_oracle = pa.k * pa.m_bar * root
    assert lam_oracle == pytest.approx(0.04975720297974374, rel=1e-13)  # frozen
    assert eigenpair(heston_model).lam == pytest.approx(lam_oracle, rel=1e-12)


def test_ko_slope_equals_quadratic_formula_root():
    # positive root of -alpha2 y^2 - 2 alpha1 y + n = 0 by the quadratic
    # formula (Citardauq branch when alpha1 >= 0, which is the numerically
    # stable way to take the small root of a nearly-degenerate quadratic)
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = draw_ko(rng)
        c, q, pa = m.constants, m.q, m.params
        n = q * (1 - q) * (pa.mu / pa.varsigma) ** 2
        disc = math.sqrt(4 * c.alpha1**2 + 4 * c.alpha2 * n)
        if c.alpha1 >= 0:
            root = 2 * n / (2 * c.alpha1 + disc)
        else:
            root = (-2 * c.alpha1 + disc) / (2 * c.alpha2)
        assert eigenpair(m).a2 == pytest.approx(root, rel=1e-12, abs=1e-15)


def test_ko_eigenpair_identities_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = draw_ko(rng)
        ep = eigenpair(m)
        c, q, pa = m.constants, m.q, m.params
        B, C = ep.a2, ep.a1
        n = q * (1 - q) * (pa.mu / pa.varsigma) ** 2
        scale = max(abs(n), abs(2 * c.alpha1 * B), 1e-30)
        assert abs(-c.alpha2 * B**2 - 2 * c.alpha1 * B + n) / scale < 1e-12
        cons = c.alpha3 * B - C * (c.alpha1 + c.alpha2 * B)
        assert abs(cons) <= 1e-12 * max(abs(c.alpha3 * B), 1.0)
        assert B >= 0.0
        assert ep.lam >= 0.0
        if pa.mu != 0.0:
            assert ep.lam > 0.0


def test_heston_radical_difference_identity():
    # (beta2 - beta1)(beta2 + beta1) = q (1 - q rho^2) mu^2 sigma^2 / varsigma^2,
    # measured relative to the radicand scale beta2^2 (the difference of squares
    # is the only f64-representable form of the identity for tiny mu)
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = draw_heston(rng)
        c, q, pa = m.constants, m.q, m.params
        lhs = c.beta2**2 - c.beta1**2
        rhs = q * (1 - q * pa.rho**2) * (pa.mu * pa.sigma / pa.varsigma) ** 2
        assert abs(lhs - rhs) < 1e-12 * max(c.beta2**2, rhs)
        assert eigenpair(m).a2 == 0.0
        assert eigenpair(m).lam >= 0.0


def test_lambda_invariant_under_mu_rho_sign_flip():
    rng = np.random.default_rng(14)
    for draw, cls in [(draw_ko, KimOmbergParams), (draw_heston, HestonParams)]:
        for _ in range(50):
            m = draw(rng)
            pa = m.params
            flipped = validate(
                cls(mu=-pa.mu, varsigma=pa.varsigma, k=pa.k, m_bar=pa.m_bar,
                    sigma=pa.sigma, rho=-pa.rho, chi=pa.chi), m.prefs)
            assert eigenpair(flipped).lam == pytest.approx(eigenpair(m).lam,
                                                           rel=1e-12)


def test_phi_eval_closed_values():
    from utilsens.eigenpairs import Eigenpair

    # phi = exp(phi_log), phi' = phi * ratio1, phi'' = phi * ratio2
    ep = Eigenpair(lam=0.0, a2=0.0, a1=0.0)
    assert (phi_log(ep, 3.2), *phi_ratios(ep, 3.2)) == (0.0, 0.0, 0.0)
    epb = Eigenpair(lam=0.0, a2=0.0, a1=0.7)
    assert phi_ratios(epb, 1.3)[0] == pytest.approx(-0.7, abs=1e-15)
    epq = Eigenpair(lam=0.0, a2=1.0, a1=0.0)
    assert math.exp(phi_log(epq, 1.0)) == pytest.approx(math.exp(-0.5), rel=1e-15)
    r1, r2 = phi_ratios(epq, 1.0)
    assert r1 == -1.0
    assert r2 == 0.0  # (a2 x + a1)^2 - a2 vanishes at x = 1


def test_phi_eval_overflow_guard():
    from utilsens.eigenpairs import Eigenpair

    # phi itself underflows to 0 at exponent -1600; its log and ratios do not
    ep = Eigenpair(lam=0.0, a2=2.0, a1=0.0)
    assert math.exp(phi_log(ep, -40.0)) == 0.0
    assert phi_log(ep, -40.0) == pytest.approx(-1600.0)
    assert phi_ratios(ep, -40.0) == (80.0, 6398.0)
    logs = phi_log(ep, np.array([-40.0, 0.0, 40.0]))
    assert np.array_equal(logs, [-1600.0, 0.0, -1600.0])


def test_residual_zero_at_mu_zero_factor_models():
    prefs = Preferences(p=-1.5)
    ko = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), prefs)
    he = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), prefs)
    for m, xs in [(ko, (-1.0, 0.0, 2.0)), (he, (0.01, 0.1, 1.0))]:
        ep = eigenpair(m)
        for x in xs:
            assert ergodic_residual(m, ep, x) == 0.0


def test_residual_small_at_reference_points(ko_model, heston_model):
    assert abs(ergodic_residual(ko_model, eigenpair(ko_model),
                                ko_model.params.chi)) < 1e-10
    assert abs(ergodic_residual(heston_model, eigenpair(heston_model),
                                heston_model.params.m_bar)) < 1e-10


def test_residual_grid_property_random_draws():
    rng = np.random.default_rng(15)
    for draw in (draw_ko, draw_heston):
        for _ in range(20):
            m = draw(rng)
            ep = eigenpair(m)
            worst = max(abs(ergodic_residual(m, ep, x))
                        for x in residual_grid(m))
            assert worst < 1e-8


@st.composite
def _admissible_factor_model(draw):
    """A Kim-Omberg or Heston model from the boxes of ``draw_ko`` and
    ``draw_heston``, admissible with the same 0.05 mean-reversion margin."""
    u = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    prefs = Preferences(p=u(-4.0, -0.3))
    common = dict(mu=u(-0.8, 0.8), varsigma=u(0.15, 0.5), rho=u(-0.85, 0.85))
    if draw(st.booleans()):
        params = KimOmbergParams(**common, k=u(0.5, 2.0), m_bar=u(-0.2, 0.4),
                                 sigma=u(0.1, 0.5), chi=u(-0.4, 0.6))
    else:
        k, m_bar = u(0.5, 2.5), u(0.03, 0.2)
        params = HestonParams(**common, k=k, m_bar=m_bar,
                              sigma=u(0.1, 0.95 * math.sqrt(2.0 * k * m_bar)),
                              chi=u(0.02, 0.3))
    try:
        model = validate(params, prefs)
    except ValidationError:
        assume(False)
    c = model.constants
    if model.kind == "kim_omberg":
        margin = c.alpha1 + (c.alpha4 - c.alpha1) / c.alpha2 * params.sigma**2 / 2.0
    else:
        margin = c.beta1
    assume(margin >= 0.05)
    return model


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(model=_admissible_factor_model())
def test_residual_grid_property_hypothesis(model):
    # the ergodic HJB residual stays below 1e-8 on the 101-point grid of any
    # admissible draw, as c01 requires of its seeded draws
    ep = eigenpair(model)
    assert max(abs(ergodic_residual(model, ep, x)) for x in residual_grid(model)) < 1e-8


def test_residual_heston_domain_error(heston_model):
    from utilsens import DomainError

    with pytest.raises(DomainError):
        ergodic_residual(heston_model, eigenpair(heston_model), -0.1)


def test_eigenpair_serialization_keys(tmp_path):
    # the eigenpair JSON payload: its keys, the model kind and only the
    # derived constants defined for that kind
    import io
    import json
    from contextlib import redirect_stdout

    from utilsens.cli import main

    cfg = tmp_path / "heston.json"
    cfg.write_text(json.dumps({"heston": HESTON_SET, "preferences": {"p": -1.0}}))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["eigenpair", "--config", str(cfg)]) == 0
    d = json.loads(buf.getvalue())
    assert list(d) == ["model", "lambda", "a2", "a1", "derived_constants"]
    assert d["model"] == "heston"
    assert set(d["derived_constants"]) == {"sigma1", "sigma2", "beta1", "beta2"}

"""Parameter containers, derived constants and admissibility."""

import math

import numpy as np
import pytest

import utilsens as u
from utilsens import (
    HestonParams,
    KimOmbergParams,
    OUCompleteParams,
    Preferences,
    ValidationError,
    validate,
)
from utilsens import valuation as va
from utilsens.models import (
    SPECS,
    ConfigError,
    bump_params,
    bumped_models,
    parse_model_block,
)
from utilsens.simulation import SimConfig

from conftest import HESTON_SET, KO_SET, OU_SET, draw_heston, draw_ko

_SETS = {"ou_complete": OU_SET, "kim_omberg": KO_SET, "heston": HESTON_SET}


def test_dual_exponent_exact_values():
    assert Preferences(-1.0).q == 0.5
    assert Preferences(-3.0).q == 0.75
    assert Preferences(-0.5).q == pytest.approx(1.0 / 3.0, abs=0, rel=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
def test_dual_exponent_rejects_nonnegative_p(p):
    with pytest.raises(ValidationError) as exc:
        Preferences(p)
    assert exc.value.condition == "risk_exponent"


def test_dual_exponent_round_trip_and_monotone():
    # q = -p/(1-p) is strictly decreasing in p and maps (-inf, 0) onto (0, 1):
    # p -> -inf gives q -> 1, p -> 0- gives q -> 0 (dq/dp = -1/(1-p)^2 < 0)
    rng = np.random.default_rng(1)
    ps = np.sort(-np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 200)))
    qs = np.array([Preferences(p).q for p in ps])
    assert np.all(np.diff(qs) < 0)
    assert np.all((qs > 0.0) & (qs < 1.0))
    assert Preferences(-1e12).q > 1.0 - 1e-11
    assert Preferences(-1e-12).q < 1e-11
    # round trip p = -q/(1-q)
    back = -qs / (1.0 - qs)
    assert np.allclose(back, ps, rtol=1e-13, atol=0)


def test_derive_constants_ko_hand_evaluated():
    # q = 0.5; sigma1 = -0.15; sigma2 = 0.3 sqrt(3)/2; the four alphas follow
    # from their defining formulas, written out independently here.
    prefs = Preferences(p=-1.0)
    c = validate(KimOmbergParams(**KO_SET), prefs).constants
    assert c.sigma1 == pytest.approx(-0.15, abs=1e-15)
    assert c.sigma2 == pytest.approx(0.3 * math.sqrt(0.75), abs=1e-15)
    assert c.alpha1 == pytest.approx(1.0 + 0.5 * 0.5 * (-0.15) / 0.2, abs=1e-15)
    assert c.alpha2 == pytest.approx(0.0225 + 0.0675 / 0.5, abs=1e-15)
    assert c.alpha3 == pytest.approx(0.1, abs=1e-15)
    assert c.alpha4 == pytest.approx(
        math.sqrt(0.8125**2 + 0.25 * 0.1575 * (0.5 / 0.2) ** 2), abs=1e-15
    )


def test_derive_constants_mu_zero_radical_collapses():
    prefs = Preferences(p=-1.0)
    ko = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), prefs).constants
    assert ko.alpha4 == ko.alpha1 == KO_SET["k"]
    he = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), prefs).constants
    assert he.beta2 == he.beta1 == HESTON_SET["k"]


def test_radical_identities_over_random_draws():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m = draw_ko(rng)
        c, q, pa = m.constants, m.q, m.params
        assert c.sigma1**2 + c.sigma2**2 == pytest.approx(pa.sigma**2, rel=1e-14)
        lhs = c.alpha4**2
        rhs = c.alpha1**2 + q * (1 - q) * c.alpha2 * (pa.mu / pa.varsigma) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert c.alpha4 >= abs(c.alpha1)
    for _ in range(1000):
        m = draw_heston(rng)
        c, q, pa = m.constants, m.q, m.params
        lhs = c.beta2**2
        rhs = c.beta1**2 + q * (1 - q * pa.rho**2) * (pa.mu * pa.sigma / pa.varsigma) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert c.beta2 >= abs(c.beta1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, field", [(kind, f) for kind, spec in SPECS.items()
                                         for f in spec.fields])
def test_validate_rejects_non_finite_fields(kind, field, bad):
    params = SPECS[kind].params_type(**{**_SETS[kind], field: bad})
    with pytest.raises(ValidationError) as exc:
        validate(params, Preferences(p=-1.0))
    assert exc.value.condition == "finite"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_preferences_and_sim_config_reject_non_finite(bad):
    with pytest.raises(ValidationError):
        Preferences(p=bad)
    with pytest.raises(ValueError):
        SimConfig(T=bad, n_steps=10, n_paths=200, seed=1)


def test_validate_feller_reject():
    # 2 k m_bar = 0.08 < sigma^2 = 0.09
    with pytest.raises(ValidationError) as exc:
        validate(HestonParams(mu=0.1, varsigma=0.2, k=1.0, m_bar=0.04,
                              sigma=0.3, rho=0.0, chi=0.05), Preferences(p=-1.0))
    assert exc.value.condition == "feller"


def test_validate_heston_accept_mu_zero():
    m = validate(HestonParams(mu=0.0, varsigma=0.2, k=1.0, m_bar=0.05,
                              sigma=0.3, rho=0.0, chi=0.05), Preferences(p=-1.0))
    assert m.kind == "heston"


def test_validate_ko_mean_reversion_reject():
    # hand evaluation gives k + q mu rho sigma / varsigma + B sigma^2/2 = -3.554...
    with pytest.raises(ValidationError) as exc:
        validate(KimOmbergParams(mu=2.0, varsigma=0.1, k=0.3, m_bar=0.1,
                                 sigma=1.0, rho=-0.9, chi=0.0),
                 Preferences(p=-3.0))
    assert exc.value.condition == "mean_reversion"


def test_validate_rejects_degenerate_correlation():
    with pytest.raises(ValidationError):
        validate(KimOmbergParams(**{**KO_SET, "rho": 1.0}), Preferences(p=-1.0))
    with pytest.raises(ValidationError):
        validate(HestonParams(**{**HESTON_SET, "rho": -1.0}), Preferences(p=-1.0))


def test_market_price_of_risk_values(ko_model, heston_model, ou_model):
    assert ko_model.spec.theta(ko_model, 0.0) == 0.0
    he = validate(HestonParams(mu=0.5, varsigma=0.2, k=2.0, m_bar=0.09,
                               sigma=0.3, rho=-0.7, chi=0.04), Preferences(p=-1.0))
    assert he.spec.theta(he, 0.04) == pytest.approx(0.5, abs=1e-15)
    ou = validate(OUCompleteParams(mu=0.1, b=0.5, varsigma=0.2, s0=0.2),
                  Preferences(p=-3.0))
    assert ou.spec.theta(ou, 0.2) == 0.0


def test_market_price_of_risk_heston_domain(heston_model):
    from utilsens import DomainError

    with pytest.raises(DomainError):
        heston_model.spec.theta(heston_model, -0.01)


_CFG = SimConfig(T=1.0, n_steps=20, n_paths=100, seed=1)
_STATE_ROUTES = {
    "dual_value": lambda m, x: u.dual_value(m, x, 1.0),
    "initial_factor_sensitivity": lambda m, x: u.initial_factor_sensitivity(m, x, 1.0),
    "decomposition_check": lambda m, x: u.decomposition_check(m, x, 1.0, _CFG),
    "simulate_phat_value": lambda m, x: u.simulate_phat_value(m, x, 1.0, _CFG),
    "mc_bump_sensitivity": lambda m, x: u.mc_bump_sensitivity(m, x, 1.0, "mu", 1e-3,
                                                              _CFG),
    "kappa_eval": lambda m, x: u.kappa_eval(m, x, 0.0, 1.0),
    "control_hat_xi": lambda m, x: u.control_hat_xi(m, x, 0.0, 1.0),
    "f_eval": lambda m, x: u.f_eval(m, x, 0.0, 1.0),
    "f_eval_expanded": lambda m, x: va.f_eval_expanded(m, x, 0.0, 1.0),
    "kappa_eval_generic": lambda m, x: va.kappa_eval_generic(m, x, 0.0, 1.0),
    "theta": lambda m, x: m.spec.theta(m, x),
    "ergodic_residual": lambda m, x: u.ergodic_residual(m, u.eigenpair(m), x),
}
_OU_ROUTES = ("simulate_phat_value", "mc_bump_sensitivity", "ergodic_residual")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", sorted(_STATE_ROUTES))
def test_non_finite_state_refused(ko_model, heston_model, ou_model, route, x):
    # an explicit initial state goes through models.initial_state, a
    # pointwise state through ModelSpec.scales: both refuse a non-finite one
    # with a DomainError rather than return NaN or inf
    models = (ko_model, heston_model) + ((ou_model,) if route in _OU_ROUTES else ())
    for m in models:
        with pytest.raises(u.DomainError, match="finite"):
            _STATE_ROUTES[route](m, x)


_INITIAL_STATE_ROUTES = ("dual_value", "initial_factor_sensitivity",
                         "decomposition_check", "simulate_phat_value",
                         "mc_bump_sensitivity")


@pytest.mark.parametrize("x", [True, np.array(0.3), np.array([0.2]), "0.2"],
                         ids=["bool", "0d-array", "1d-array", "str"])
@pytest.mark.parametrize("route", _INITIAL_STATE_ROUTES)
def test_explicit_state_must_be_a_real_number(ko_model, heston_model, ou_model, route,
                                              x):
    # models.initial_state applies the horizon's type rule to an explicit
    # state: a bool is no state at 1, and an array or a string is refused by
    # name rather than answered with numpy fields or a bare TypeError
    models = (ko_model, heston_model) + ((ou_model,) if route in _OU_ROUTES else ())
    for m in models:
        with pytest.raises(u.DomainError, match="needs a real number"):
            _STATE_ROUTES[route](m, x)
    # a numpy scalar is a real number, and answers with float fields
    result = u.dual_value(ko_model, np.float64(0.3), 1.0)
    assert result == u.dual_value(ko_model, 0.3, 1.0)
    assert all(type(v) is float for v in vars(result).values())


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, True, "1e-3"])
def test_bump_step_must_be_finite_and_positive(ko_model, h):
    # a zero step would divide by zero and a negative one swap the legs into
    # a negative SE: each is refused, on the library's Monte Carlo route too
    with pytest.raises(ValueError, match="bump step h must be finite and > 0"):
        bumped_models(ko_model, "mu", h)
    with pytest.raises(ValueError, match="bump step h must be finite and > 0"):
        u.mc_bump_sensitivity(ko_model, None, 1.0, "mu", h, _CFG)


def test_accepted_params_pass_downstream_preconditions():
    # validate(accept) implies no domain errors anywhere downstream
    import utilsens as u
    from utilsens import coefficients as co
    from utilsens import valuation as va
    from utilsens.eigenpairs import ergodic_residual, residual_grid

    rng = np.random.default_rng(3)
    for draw in [draw_ko, draw_heston]:
        for _ in range(10):
            m = draw(rng)
            ep = u.eigenpair(m)
            for x in residual_grid(m):
                ergodic_residual(m, ep, x)
                va.control_star_xi(m, x if m.kind == "kim_omberg" else max(x, 0.0))
            co.build_path(m, np.linspace(0.0, 5.0, 11))
            va.dual_value(m, None, 2.0)
            va.control_hat_xi(m, m.params.chi, 0.5, 2.0)
            va.f_eval(m, m.params.chi, 0.5, 2.0)
            va.kappa_eval(m, m.params.chi, 0.5, 2.0)


def test_bump_params_chi_alias_and_unknown():
    p = OUCompleteParams(**{"mu": 0.3, "b": 0.8, "varsigma": 0.4, "s0": 0.5})
    assert bump_params(p, "chi", 0.1).s0 == pytest.approx(0.6)
    with pytest.raises(ConfigError):
        bump_params(p, "k", 0.1)


def test_parse_model_block_unknown_key_named():
    block = dict(KO_SET)
    block["mbar"] = 0.1
    with pytest.raises(ConfigError, match="mbar"):
        parse_model_block("kim_omberg", block)


def test_parse_model_block_missing_key_named():
    block = dict(KO_SET)
    del block["sigma"]
    with pytest.raises(ConfigError, match="sigma"):
        parse_model_block("kim_omberg", block)


def test_only_models_names_the_kinds():
    # every per-kind difference lives in the spec: no other module of the
    # package names a kind constant or branches on ``.kind``
    import ast
    import pathlib

    import utilsens

    kinds = {"OU_COMPLETE", "KIM_OMBERG", "HESTON"}
    offences = []
    for path in sorted(pathlib.Path(utilsens.__file__).parent.glob("*.py")):
        if path.name in ("models.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None))
            if named in kinds:
                offences.append(f"{path.name}:{node.lineno} names {named}")
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in (node.left, *node.comparators)):
                offences.append(f"{path.name}:{node.lineno} compares .kind")
    assert not offences, offences

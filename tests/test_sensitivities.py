"""Long-term sensitivity tables, the FD-of-lambda oracle, and diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from utilsens import (
    HestonParams,
    OUCompleteParams,
    Preferences,
    UnsupportedModelError,
    eigenpair,
    initial_factor_sensitivity,
    lambda_fd,
    long_term_sensitivities,
    validate,
)
from utilsens import models
from utilsens import sensitivities as se
from utilsens.models import ConfigError

from conftest import HESTON_SET, KO_SET, draw_heston, draw_ko


def _rows(report):
    """The report's entries by parameter."""
    return {e.parameter: e for e in report.entries}


def test_ou_complete_rows_exact(ou_model):
    # p = -3: sqrt(1-p) = 2, so the b limit is -1/2 and mu, varsigma are 0
    rep = long_term_sensitivities(ou_model)
    rows = _rows(rep)
    assert rows["b"].closed_form == -0.5
    assert rows["mu"].closed_form == 0.0
    assert rows["varsigma"].closed_form == 0.0
    assert not rep.flagged_parameters()
    ep = eigenpair(ou_model)
    s = ou_model.params.s0
    assert rows["chi"].closed_form == pytest.approx(
        -(1 - ou_model.p) * (ep.a2 * s + ep.a1), rel=1e-14)
    assert rows["chi"].fd_lambda_check is None


def test_heston_m_bar_row(heston_model):
    B = eigenpair(heston_model).a1
    k = heston_model.params.k
    m_bar = _rows(long_term_sensitivities(heston_model))["m_bar"]
    assert m_bar.closed_form == pytest.approx(
        -(1 - heston_model.p) * k * B, rel=1e-14)
    assert m_bar.closed_form < 0.0  # sign -(1-p) sign(B) with mu != 0
    # mu = 0 collapses every row to zero
    m0 = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), Preferences(p=-1.0))
    rep0 = long_term_sensitivities(m0)
    for e in rep0.entries:
        assert e.closed_form == 0.0
    assert not rep0.flagged_parameters()


def test_lambda_fd_exact_for_linear_dependence(heston_model):
    # lambda = k m_bar B is linear in m_bar, so the FD is exact
    fd = lambda_fd(heston_model, "m_bar")
    exact = heston_model.params.k * eigenpair(heston_model).a1
    assert fd.value == pytest.approx(exact, rel=1e-10)


def test_lambda_fd_zero_at_mu_zero_uncorrelated():
    m = validate(HestonParams(**{**HESTON_SET, "mu": 0.0, "rho": 0.0}),
                 Preferences(p=-1.0))
    assert abs(lambda_fd(m, "mu").value) < 1e-12


def test_lambda_fd_two_routes_ko_sigma(ko_model):
    # FD of lambda vs the printed sigma row divided by -(1-p)
    fd = lambda_fd(ko_model, "sigma")
    row = ko_model.spec.sensitivity_rows(ko_model)["sigma"]
    assert row == pytest.approx(-(1 - ko_model.p) * fd.value,
                                rel=1e-8, abs=1e-10)


def test_lambda_fd_unknown_parameter(ko_model, ou_model):
    with pytest.raises(ConfigError):
        lambda_fd(ko_model, "nope")
    # bump_params reads chi as the complete-market s0; the eigenvalue FD
    # must not take that alias
    with pytest.raises(ConfigError):
        lambda_fd(ou_model, "chi")


@pytest.mark.parametrize("name", [1.5, None, np.array(["k"]), np.array(["k", "mu"])])
def test_fd_routes_refuse_a_name_that_is_not_a_string(ko_model, name):
    # refused by the one models-level rule before getattr sees it ("attribute
    # name must be string") or a set is asked to hash it
    refused = pytest.raises(ConfigError, match="parameter name must be a string")
    with refused:
        lambda_fd(ko_model, name)
    with refused:
        se.convergence_diagnostic(ko_model, name, [1.0])


def _counted_validate(monkeypatch) -> list:
    """The calls to ``models.validate`` from here on, which is where
    ``models.bumped_models`` validates each leg."""
    calls = []
    validate_model = models.validate

    def counted(*args):
        calls.append(args)
        return validate_model(*args)

    monkeypatch.setattr(models, "validate", counted)
    # and any direct validation from this module, were one to come back
    monkeypatch.setattr(se, "validate", counted, raising=False)
    return calls


def test_one_validated_pair_per_derivative(ko_model, heston_model, monkeypatch):
    # one validated pair of bumped models per model instance and parameter,
    # whichever of lambda_fd, convergence_diagnostic and
    # long_term_sensitivities asks first
    fresh = [validate(m.params, m.prefs) for m in (ko_model, heston_model)
             for _ in range(3)]
    calls = _counted_validate(monkeypatch)
    for i, name in enumerate(("k", "m_bar")):
        m, alone_fd, alone_diag = fresh[3 * i:3 * i + 3]
        calls.clear()
        lambda_fd(alone_fd, name)
        assert len(calls) == 2
        calls.clear()
        se.convergence_diagnostic(alone_diag, name, [1.0, 10.0])
        assert len(calls) == 2
        calls.clear()
        lambda_fd(m, name)
        se.convergence_diagnostic(m, name, [1.0, 10.0])
        long_term_sensitivities(m)
        assert len(calls) == 2 * len(m.spec.sensitivity_params)
        # each route reads the pair the other computed on the same instance
        calls.clear()
        lambda_fd(alone_diag, name)
        se.convergence_diagnostic(alone_fd, name, [1.0])
        assert len(calls) == 0
        # and a model equal by value validates its own
        twin = validate(m.params, m.prefs)
        assert twin == m
        lambda_fd(twin, name)
        assert len(calls) == 2


def _fd_bits(m, name: str) -> tuple:
    """lambda_fd, one diagnostic row and the report's row for ``name``, as
    hex strings."""
    fd = lambda_fd(m, name)
    row = se.convergence_diagnostic(m, name, [2.0])[0]
    entry = _rows(long_term_sensitivities(m))[name]
    return tuple(map(float.hex, (fd.value, fd.h, row.T, row.value, row.limit, row.gap,
                                 entry.closed_form, entry.fd_lambda_check,
                                 entry.abs_disagreement)))


@pytest.mark.parametrize("kind", ["kim_omberg", "heston"])
def test_memoized_fd_bit_identical_to_a_first_call(kind, ko_model, heston_model):
    # a memo hit returns exactly the bits a fresh validation of the same
    # parameters gives on its first call, for every route and parameter
    rng = np.random.default_rng(32)
    draw = draw_ko if kind == "kim_omberg" else draw_heston
    ref = ko_model if kind == "kim_omberg" else heston_model
    for m in [ref] + [draw(rng) for _ in range(3)]:
        long_term_sensitivities(m)
        for name in m.spec.sensitivity_params:
            se.convergence_diagnostic(m, name, [2.0])
            assert name in m._fd_memo
            memoized = _fd_bits(m, name)
            assert memoized == _fd_bits(validate(m.params, m.prefs), name)
            # and a route that is the first to ask gives the same bits
            fd = lambda_fd(validate(m.params, m.prefs), name)
            row = se.convergence_diagnostic(validate(m.params, m.prefs), name,
                                            [2.0])[0]
            assert (fd.value.hex(), fd.h.hex()) == memoized[:2]
            assert row.limit.hex() == memoized[4]


@pytest.mark.parametrize("kind", ["kim_omberg", "heston"])
def test_models_equal_by_value_keep_their_own_fd_legs(kind, monkeypatch):
    # rho = 0.0 and rho = -0.0 make models that are == and hash alike; each
    # must compute and keep its own legs, so the -0.0 survives in its legs
    params_type, base = ((models.KimOmbergParams, KO_SET) if kind == "kim_omberg"
                         else (HestonParams, HESTON_SET))
    pos, neg = (validate(params_type(**{**base, "rho": r}), Preferences(p=-1.0))
                for r in (0.0, -0.0))
    assert pos == neg and hash(pos) == hash(neg)
    calls = _counted_validate(monkeypatch)
    for name in ("k", "m_bar", "mu"):
        for m, sign in ((pos, 1.0), (neg, -1.0)):
            calls.clear()
            lambda_fd(m, name)
            assert len(calls) == 2
            up, dn, _, _ = m._fd_memo[name]
            assert math.copysign(1.0, up.params.rho) == sign
            assert math.copysign(1.0, dn.params.rho) == sign
        assert pos._fd_memo[name][0] is not neg._fd_memo[name][0]


def test_filling_the_memo_changes_no_model_identity(ko_model):
    twin = validate(ko_model.params, ko_model.prefs)
    before = (repr(ko_model), hash(ko_model), dataclasses.asdict(ko_model))
    long_term_sensitivities(ko_model)
    assert set(ko_model._fd_memo) == set(ko_model.spec.sensitivity_params)
    assert ko_model == twin and hash(ko_model) == hash(twin)
    assert (repr(ko_model), hash(ko_model), dataclasses.asdict(ko_model)) == before
    assert set(dataclasses.asdict(ko_model)) == {
        f.name for f in dataclasses.fields(models.Model)}
    # a replaced model starts with an empty memo
    assert not dataclasses.replace(ko_model)._fd_memo


def test_fd_work_is_independent_of_the_horizon(heston_model, monkeypatch):
    # sweeping 13 horizons on one model validates one pair per sensitivity
    # parameter (k, m_bar, mu, varsigma, rho, sigma), not one per horizon
    calls = _counted_validate(monkeypatch)
    for T in np.geomspace(1.0, 1e3, 13):
        long_term_sensitivities(heston_model)
        se.convergence_diagnostic(heston_model, "m_bar", [float(T)])
    assert len(heston_model.spec.sensitivity_params) == 6
    assert len(calls) == 12


def test_diagnostic_limit_is_the_lambda_fd(ko_model, heston_model):
    for m in (ko_model, heston_model):
        for name in m.spec.sensitivity_params:
            row = se.convergence_diagnostic(m, name, [5.0])[0]
            assert row.limit == -lambda_fd(m, name).value


def test_lambda_fd_shrinks_near_admissibility_boundary():
    # Feller margin smaller than a bump of 2e-9: the step must shrink once
    params = HestonParams(mu=0.1, varsigma=0.3, k=1.0, m_bar=0.045000001,
                          sigma=0.3, rho=0.2, chi=0.05)
    m = validate(params, Preferences(p=-1.0))
    _, _, h = models.bumped_models(m, "m_bar", 2e-9)
    assert h == pytest.approx(2e-10)
    # lambda_fd's own step, 1e-6, is too wide even after the shrink, and a
    # refusal is not memoized: every call is refused
    for _ in range(2):
        with pytest.raises(models.ValidationError):
            lambda_fd(m, "m_bar")
    assert "m_bar" not in m._fd_memo


def test_audit_flags_exactly_the_inconsistent_ko_rows():
    # the Kim-Omberg mu and varsigma closed forms (reproduced verbatim) are
    # inconsistent with the eigenvalue: the audit must flag them and only them
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = draw_ko(rng)
        if abs(m.params.mu) < 0.05 or abs(m.params.m_bar) < 0.02:
            continue
        rep = long_term_sensitivities(m)
        assert rep.flagged_parameters() == ["mu", "varsigma"]


def test_audit_clean_for_heston_and_ou():
    rng = np.random.default_rng(42)
    for _ in range(10):
        m = draw_heston(rng)
        assert long_term_sensitivities(m).flagged_parameters() == []
    for p in (-0.5, -2.0, -5.0):
        m = validate(OUCompleteParams(mu=0.2, b=1.1, varsigma=0.3, s0=0.8),
                     Preferences(p=p))
        assert long_term_sensitivities(m).flagged_parameters() == []


def test_initial_factor_sensitivity_t0_and_limits(ko_model, heston_model):
    r = initial_factor_sensitivity(ko_model, None, 0.0)
    assert r.finite_horizon == 0.0
    # heston limit is chi-independent
    for chi in (0.05, 0.2, 0.4):
        rh = initial_factor_sensitivity(heston_model, chi, 4.0)
        assert rh.long_term_limit == pytest.approx(
            -(1 - heston_model.p) * eigenpair(heston_model).a1, rel=1e-14)


def test_initial_factor_gap_decay_rates(ko_model, heston_model):
    # kim_omberg: the gamma deficit decays at rate alpha4 and dominates when
    # C != 0, so the log-gap slope is -alpha4; heston has no gamma term in the
    # chi-derivative and decays at beta2
    a4 = ko_model.constants.alpha4
    Ts = np.linspace(4.0 / a4, 10.0 / a4, 10)
    gaps = [initial_factor_sensitivity(ko_model, None, T).gap for T in Ts]
    slope = np.polyfit(Ts, np.log(gaps), 1)[0]
    assert slope == pytest.approx(-a4, rel=0.15)

    b2 = heston_model.constants.beta2
    Ts = np.linspace(4.0 / b2, 10.0 / b2, 10)
    gaps = [initial_factor_sensitivity(heston_model, None, T).gap for T in Ts]
    slope = np.polyfit(Ts, np.log(gaps), 1)[0]
    assert slope == pytest.approx(-b2, rel=0.15)


def test_initial_factor_sensitivity_ou_unsupported(ou_model):
    with pytest.raises(UnsupportedModelError):
        initial_factor_sensitivity(ou_model, None, 1.0)


def test_convergence_diagnostic_heston_m_bar(heston_model):
    rows = se.convergence_diagnostic(heston_model, "m_bar",
                                     [5.0, 15.0, 30.0, 50.0])
    limit = -(heston_model.params.k * eigenpair(heston_model).a1)
    assert rows[0].limit == pytest.approx(limit, rel=1e-9)
    gaps = [r.gap for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05 * abs(limit)


def test_convergence_diagnostic_mu_zero_identically_zero():
    m = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), Preferences(p=-1.0))
    for row in se.convergence_diagnostic(m, "m_bar", [1.0, 10.0, 40.0]):
        assert row.value == pytest.approx(0.0, abs=1e-12)
        assert row.limit == pytest.approx(0.0, abs=1e-12)


def test_convergence_diagnostic_ko_k_within_5pct(ko_model):
    row = se.convergence_diagnostic(ko_model, "k", [50.0])[0]
    assert row.gap <= 0.05 * (1.0 + abs(row.limit))


def test_diagnostic_rejects_chi(ko_model):
    with pytest.raises(ConfigError):
        se.convergence_diagnostic(ko_model, "chi", [1.0])

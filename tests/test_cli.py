"""CLI integration: exit codes, schemas, formatting, determinism."""

import contextlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import utilsens
from utilsens.cli import format_float, main, to_csv, to_json
from utilsens.models import SPECS

HESTON_CFG = {
    "heston": {"mu": 0.5, "varsigma": 0.25, "k": 2.0, "m_bar": 0.09,
               "sigma": 0.3, "rho": -0.7, "chi": 0.09},
    "preferences": {"p": -1.0},
    "sim": {"T": 2.0, "n_steps": 200, "n_paths": 2000, "seed": 7,
            "scheme": "full_truncation_euler"},
}
KO_CFG = {
    "kim_omberg": {"mu": 0.5, "varsigma": 0.2, "k": 1.0, "m_bar": 0.1,
                   "sigma": 0.3, "rho": -0.5, "chi": 0.2},
    "preferences": {"p": -1.0},
    "sim": {"T": 2.0, "n_steps": 200, "n_paths": 2000, "seed": 7,
            "scheme": "exact_gaussian"},
}
OU_CFG = {
    "ou_complete": {"mu": 0.3, "b": 0.8, "varsigma": 0.4, "s0": 0.5},
    "preferences": {"p": -3.0},
    "sim": {"T": 1.0, "n_steps": 100, "n_paths": 500, "seed": 3},
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(args):
    """Invoke main() in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_eigenpair_json_schema(tmp_path):
    cfg = _write(tmp_path, HESTON_CFG)
    code, out = _run(["eigenpair", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["model", "lambda", "a2", "a1", "derived_constants"]
    assert payload["a1"] == pytest.approx(0.27642890544302096, rel=1e-15)


def test_eigenpair_csv_one_row(tmp_path):
    cfg = _write(tmp_path, HESTON_CFG)
    code, out = _run(["eigenpair", "--config", cfg, "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert header == "model,lambda,a2,a1,sigma1,sigma2,beta1,beta2"
    payload = json.loads(_run(["eigenpair", "--config", cfg])[1])
    expected = {k: v for k, v in payload.items() if k != "derived_constants"}
    expected.update(payload["derived_constants"])
    assert dict(zip(header.split(","), row.split(","))) == \
        {k: v if isinstance(v, str) else format_float(v) for k, v in expected.items()}


def test_eigenpair_heston_mu_zero(tmp_path):
    cfg_d = {**HESTON_CFG, "heston": {**HESTON_CFG["heston"], "mu": 0.0}}
    code, out = _run(["eigenpair", "--config", _write(tmp_path, cfg_d)])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 0.0 and payload["a1"] == 0.0


def test_unknown_config_key_exit_2(tmp_path, capsys):
    bad = {**HESTON_CFG, "heston": {**HESTON_CFG["heston"], "mbar": 0.1}}
    del bad["heston"]["m_bar"]
    code, _ = _run(["eigenpair", "--config", _write(tmp_path, bad)])
    assert code == 2
    assert "mbar" in capsys.readouterr().err


def test_feller_violating_config_exit_2(tmp_path, capsys):
    # 2 k m_bar = 0.08 < sigma^2 = 0.09
    bad = {**HESTON_CFG, "heston": {**HESTON_CFG["heston"], "k": 1.0,
                                    "m_bar": 0.04, "sigma": 0.3}}
    code, _ = _run(["verify", "--config", _write(tmp_path, bad)])
    assert code == 2
    assert "feller" in capsys.readouterr().err


def test_cli_matches_library_roundtrip(tmp_path):
    # the subcommand is a thin wrapper: every printed number is the library's
    import utilsens as u

    code, out = _run(["eigenpair", "--config", _write(tmp_path, KO_CFG)])
    assert code == 0
    m = u.validate(u.KimOmbergParams(**KO_CFG["kim_omberg"]),
                   u.Preferences(p=-1.0))
    ep = u.eigenpair(m)
    payload = json.loads(out)
    assert payload["model"] == m.kind
    assert payload["lambda"] == ep.lam
    assert payload["a2"] == ep.a2 and payload["a1"] == ep.a1
    assert payload["derived_constants"] == {
        k: v for k, v in vars(m.constants).items() if v is not None}


def test_sensitivities_exit_codes(tmp_path):
    code, out = _run(["sensitivities", "--config", _write(tmp_path, HESTON_CFG)])
    assert code == 0
    rows = json.loads(out)["entries"]
    assert len(rows) == 7
    assert all(not r["flagged"] for r in rows)
    code_ko, _ = _run(["sensitivities", "--config", _write(tmp_path, KO_CFG)])
    assert code_ko == 1  # flagged formulas surface as a verification failure


def test_sensitivities_report_keys_and_csv_header(tmp_path):
    cfg = _write(tmp_path, KO_CFG)
    _, out = _run(["sensitivities", "--config", cfg])
    payload = json.loads(out)
    assert list(payload) == ["model", "entries"]
    assert payload["model"] == "kim_omberg"
    assert [e["parameter"] for e in payload["entries"]] == \
        ["chi", "k", "m_bar", "mu", "varsigma", "rho", "sigma"]
    assert list(payload["entries"][0]) == ["parameter", "closed_form",
                                           "fd_lambda_check", "abs_disagreement",
                                           "flagged"]
    _, out = _run(["sensitivities", "--config", cfg, "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "parameter,closed_form,fd_check,gap"
    assert lines[1].split(",")[2:] == ["", ""]  # chi row has no lambda-FD column


def test_sensitivities_csv_ou(tmp_path):
    ou = {
        "ou_complete": {"mu": 0.3, "b": 0.8, "varsigma": 0.4, "s0": 0.5},
        "preferences": {"p": -3.0},
    }
    code, out = _run(["sensitivities", "--config", _write(tmp_path, ou),
                      "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,closed_form,fd_check,gap"
    b_row = [l for l in lines if l.startswith("b,")][0]
    fields = b_row.split(",")
    assert float(fields[1]) == -0.5
    assert abs(float(fields[2]) + 0.5) < 1e-9
    assert float(fields[3]) < 1e-9


def test_value_and_sweep(tmp_path):
    cfg = dict(HESTON_CFG)
    code, out = _run(["value", "--config", _write(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "chi", "T", "v", "utility", "log_abs_utility",
                            "growth_rate_estimate", "lambda"}
    cfg_sweep = {**cfg, "sweep": {"T_grid": [1.0, 2.0, 4.0]}}
    code, out = _run(["value", "--config", _write(tmp_path, cfg_sweep)])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


def test_ko_value_at_horizon_1e6(tmp_path):
    # the shipped config: its closed value costs the same at any horizon
    shipped = os.path.join(os.path.dirname(__file__), "..", "configs", "kim_omberg.json")
    with open(shipped, encoding="utf-8") as fh:
        cfg = {**json.load(fh), "sweep": {"T_grid": [1e6]}}
    code, out = _run(["value", "--config", _write(tmp_path, cfg)])
    assert code == 0
    assert math.isfinite(json.loads(out)["log_abs_utility"])


def test_ou_value_and_simulate_finite_where_value_underflows(tmp_path):
    # the Monte Carlo value underflows to 0 at T = 1e4; ln v comes from a
    # log-mean-exp of the per-path exponents, so both commands exit 0
    ou = {"ou_complete": {"mu": 0.3, "b": 0.8, "varsigma": 0.4, "s0": 0.5},
          "preferences": {"p": -3.0},
          "sim": {"T": 1.0, "n_steps": 2000, "n_paths": 200, "seed": 7},
          "sweep": {"T_grid": [10000]}}
    cfg = _write(tmp_path, ou)
    with pytest.warns(UserWarning, match="mean-reversion"):
        code, out = _run(["value", "--config", cfg])
        code_sim, out_sim = _run(["simulate", "--config", cfg])
    assert code == 0 and code_sim == 0
    row = json.loads(out)
    assert row["v"] == 0.0
    assert math.isfinite(row["log_abs_utility"]) and row["log_abs_utility"] < -2000.0
    growth = json.loads(out_sim)["rows"][0]["growth_rate_estimate"]
    assert growth == row["growth_rate_estimate"] and math.isfinite(growth)


def test_riccati_csv(tmp_path):
    cfg = {**KO_CFG, "sweep": {"T_grid": [0.5, 1.0, 2.0]}}
    code, out = _run(["riccati", "--config", _write(tmp_path, cfg),
                      "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,beta,gamma,Lambda"
    assert len(lines) == 5


@pytest.mark.parametrize("command, patch", [
    ("eigenpair", {"preferences": {"p": "abc"}}),
    ("eigenpair", {"preferences": {"p": float("-inf")}}),
    ("eigenpair", {"heston": {**HESTON_CFG["heston"], "mu": float("nan")}}),
    ("value", {"sweep": {"T_grid": "abc"}}),
    ("value", {"sweep": {"T_grid": [-1]}}),
    ("value", {"sweep": {"T_grid": [float("inf")]}}),
    ("value", {"sweep": {"values": ["x"]}}),
    ("diagnose", {"sweep": {"parameter": "m_bar", "T_grid": [0, 5]}}),
    ("riccati", {"sweep": {"T_grid": [2.0, 1.0]}}),
    ("simulate", {"sim": {**HESTON_CFG["sim"], "seed": 1.5}}),
    ("simulate", {"sim": {**HESTON_CFG["sim"], "n_steps": 200.5}}),
    ("simulate", {"sim": {**HESTON_CFG["sim"], "n_paths": "2000"}}),
    ("simulate", {"sim": {**HESTON_CFG["sim"], "T": float("nan")}}),
    ("simulate", {"sim": {**HESTON_CFG["sim"], "scheme": "euler"}}),
    ("simulate", {"sim": {**HESTON_CFG["sim"], "T": 1000.0}}),
    # the T = 1 decomposition run passes the floor but warns of visible bias
    pytest.param("verify", {"sim": {**HESTON_CFG["sim"], "n_steps": 10}},
                 marks=pytest.mark.filterwarnings("ignore:n_steps=10")),
    # an empty grid is refused, not read as an absent one
    ("value", {"sweep": {"T_grid": []}}),
    ("simulate", {"sweep": {"T_grid": []}}),
    ("riccati", {"sweep": {"T_grid": []}}),
    # the Gaussian kinds' one scheme is exact_gaussian: euler is no scheme
    # (a patch's None drops the heston block)
    ("simulate", {"heston": None, **KO_CFG,
                  "sim": {**KO_CFG["sim"], "scheme": "euler"}}),
    ("value", {"heston": None, **OU_CFG, "sim": {**OU_CFG["sim"], "scheme": "euler"}}),
    # the model validates, but its residual grid, chi +- 4 stationary sd
    # with sd = 5e307, leaves floating-point range
    pytest.param("verify", {"heston": None, **KO_CFG, "kim_omberg": {
        **KO_CFG["kim_omberg"], "k": 2e-316, "sigma": 1e150, "rho": 0.0}},
        id="verify-residual-grid-overflow"),
    # bytes are the whole file: not UTF-8, and nested past the parser's depth
    pytest.param("verify", b"\xff\xfe{}", id="verify-not-utf8"),
    pytest.param("verify", b"[" * 100000 + b"]" * 100000, id="verify-deep-nesting"),
])
def test_malformed_config_exit_2(tmp_path, capsys, command, patch):
    if isinstance(patch, bytes):
        path = tmp_path / "cfg.json"
        path.write_bytes(patch)
    else:
        cfg = {k: v for k, v in {**HESTON_CFG, **patch}.items() if v is not None}
        path = _write(tmp_path, cfg)
    code, _ = _run([command, "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["value", "diagnose"])
def test_sweep_parameter_checked_at_parse(tmp_path, capsys, command):
    # s0 is the complete-market state field, not a heston parameter: every
    # subcommand refuses it while parsing, before any work is done
    with open(os.path.join(SHIPPED, "heston.json"), encoding="utf-8") as fh:
        cfg = {**json.load(fh), "sweep": {"parameter": "s0", "T_grid": [1.0, 5.0]}}
    code, _ = _run([command, "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert "does not exist for heston" in capsys.readouterr().err


@pytest.mark.parametrize("argv, patch", [
    (["simulate", "--config", "{cfg}", "--seed", "-1"], {}),
    (["simulate", "--config", "{cfg}", "--seed", str(2**64)], {}),
    (["eigenpair", "--config", "{cfg}"], {"output": {"path": ["x"]}}),
    (["eigenpair", "--config", "{cfg}"], {"output": {"path": 1.5}}),
    (["eigenpair", "--config", "{dir}"], {}),
    (["verify", "--config", "{cfg}", "--workers", "0"], {}),
    (["verify", "--config", "{cfg}", "--workers", "-3"], {}),
])
def test_bad_argv_or_output_exit_2(tmp_path, capsys, argv, patch):
    cfg = _write(tmp_path, {**HESTON_CFG, **patch})
    args = [a.format(cfg=cfg, dir=tmp_path) for a in argv]
    code, _ = _run(args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_library_refusal_exits_2(tmp_path, capsys, monkeypatch):
    # the library refuses every bad input with a ValueError, so the CLI maps
    # the whole family to exit 2, not a list of its members
    exported = sorted(n for n in dir(utilsens) if n.endswith("Error"))
    assert exported == ["ConfigError", "DomainError", "UnsupportedModelError",
                        "ValidationError"]
    refusals = [getattr(utilsens, n)("refused") for n in exported
                if n != "ValidationError"]
    refusals += [utilsens.ValidationError("finite", "refused"), ValueError("refused")]
    cfg = _write(tmp_path, HESTON_CFG)
    for exc in refusals:
        assert isinstance(exc, ValueError)

        def refuse(rc, workers, exc=exc):
            raise exc

        monkeypatch.setitem(utilsens.cli._COMMANDS, "eigenpair", refuse)
        assert _run(["eigenpair", "--config", cfg]) == (2, "")
        assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("command, cfg, kind, field, value", [
    ("eigenpair", KO_CFG, "preferences", "p", -1e300),
    ("eigenpair", KO_CFG, "kim_omberg", "mu", 1e200),
    ("eigenpair", KO_CFG, "kim_omberg", "sigma", 1e-200),
    ("sensitivities", KO_CFG, "kim_omberg", "k", 1e9),
    ("value", HESTON_CFG, "preferences", "p", -1e300),
    ("eigenpair", OU_CFG, "ou_complete", "varsigma", 1e-200),
    ("value", OU_CFG, "ou_complete", "mu", 1e200),
    # beta ~ 9e10 and Lambda ~ -2e11 by T = 50: passes held to relative
    # tolerances 1e-12 and 1e-13 differ by far more than TOL_ODE = 1e-8
    ("riccati", KO_CFG, "kim_omberg", "mu", 1e10),
    # numpy refuses the arrays at once (petabytes), so nothing is allocated
    ("simulate", KO_CFG, "sim", "n_steps", 10**15),
    ("simulate", HESTON_CFG, "sim", "n_paths", 10**15),
])
def test_extreme_finite_parameters_exit_2(tmp_path, capsys, command, cfg, kind,
                                          field, value):
    cfg = {**cfg, kind: {**cfg[kind], field: value}}
    code, _ = _run([command, "--config", _write(tmp_path, cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_riccati_fast_mixing_model_exits_0(tmp_path):
    # k = 3000 mixes at rate ~6000: the adaptive oracle settles on the ODE's
    # fixed point, and the closed path matches it
    cfg = {**KO_CFG, "kim_omberg": {**KO_CFG["kim_omberg"], "k": 3000.0}}
    code, out = _run(["riccati", "--config", _write(tmp_path, cfg)])
    assert code == 0
    assert json.loads(out)["oracle_max_abs_diff"] < 1e-10


@pytest.mark.parametrize("command, field, value, exc", [
    ("eigenpair", "m_bar", 1.4e308, "OverflowError"),
    ("sensitivities", "m_bar", 1.4e308, "OverflowError"),
    # alpha4 - alpha1 rounds to 0 in the verbatim Kim-Omberg rows
    ("sensitivities", "mu", 1e-10, "ZeroDivisionError"),
])
def test_arithmetic_error_line_names_command_config_and_type(
        tmp_path, capsys, command, field, value, exc):
    # a bare "(34, 'Numerical result out of range')" names no input
    path = _write(tmp_path, {**KO_CFG, "kim_omberg": {**KO_CFG["kim_omberg"],
                                                      field: value}})
    code, _ = _run([command, "--config", path])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {command} {path}: {exc}: ")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_REFERENCE = {"kim_omberg": KO_CFG["kim_omberg"], "heston": HESTON_CFG["heston"],
              "ou_complete": OU_CFG["ou_complete"]}


@st.composite
def _random_config(draw):
    # each field a multiple of the reference value, the sign kept where the
    # model requires it; then at most one field anywhere in floating-point
    # range, so that draws both pass validation and probe its edges
    kind = draw(st.sampled_from(sorted(_REFERENCE)))
    positive = SPECS[kind].positive
    block = {f: v * draw(st.floats(0.1 if f in positive else -10.0, 10.0))
             for f, v in _REFERENCE[kind].items()}
    if "rho" in block:
        block["rho"] = draw(st.floats(-0.99, 0.99))
    prefs = {"p": -draw(st.floats(0.01, 100.0))}
    extreme = draw(st.sampled_from([None, "p", *block]))
    if extreme is not None:
        (prefs if extreme == "p" else block)[extreme] = draw(_FINITE)
    horizon = st.floats(0.0, 1e4) | st.floats(min_value=0.0, allow_infinity=False)
    horizons = draw(st.lists(horizon, min_size=1, max_size=3))
    return {kind: block, "preferences": prefs, "sweep": {"T_grid": horizons}}


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_random_config())
def test_random_finite_configs_exit_0_1_or_2(tmp_path, capsys, cfg):
    # every finite model and preferences block ends in an answer, a failed
    # verification or a named error: no exception or traceback leaves main
    path = _write(tmp_path, cfg)
    for command in ("eigenpair", "sensitivities", "value", "riccati"):
        code, _ = _run([command, "--config", path])
        assert code in (0, 1, 2), (command, cfg)
        assert "Traceback" not in capsys.readouterr().err, (command, cfg)


def _with_sweep_parameter(cfg):
    kind = next(k for k in cfg if k in SPECS)
    return st.sampled_from(SPECS[kind].sensitivity_params).map(
        lambda name: {**cfg, "sweep": {**cfg["sweep"], "parameter": name}})


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_random_config().flatmap(_with_sweep_parameter))
def test_random_finite_configs_diagnose_exit_0_1_or_2(tmp_path, capsys, cfg):
    code, _ = _run(["diagnose", "--config", _write(tmp_path, cfg)])
    assert code in (0, 1, 2), cfg
    assert "Traceback" not in capsys.readouterr().err, cfg


def test_diagnose_runs_its_monte_carlo_on_the_given_workers(tmp_path, monkeypatch):
    # the complete-market bump legs are stepped on --workers threads
    seen, real = [], utilsens.simulation.mc_bump_sensitivities

    def spy(*args):
        seen.append(args[6])
        return real(*args)

    monkeypatch.setattr(utilsens.simulation, "mc_bump_sensitivities", spy)
    cfg = {**OU_CFG, "sweep": {"parameter": "b", "T_grid": [0.5, 1.0]}}
    code, _ = _run(["diagnose", "--config", _write(tmp_path, cfg), "--workers", "2"])
    assert (code, seen) == (0, [2])


@pytest.mark.parametrize("parameter", ["chi", "s0"])
def test_diagnose_refuses_the_state_under_either_name(tmp_path, capsys, parameter):
    # the initial state has no long-horizon limit to diagnose: its alias and
    # its field name are both refused, before any Monte Carlo state bump
    cfg = {**OU_CFG, "sweep": {"parameter": parameter, "T_grid": [0.5, 1.0]}}
    code, out = _run(["diagnose", "--config", _write(tmp_path, cfg)])
    assert (code, out) == (2, "")
    assert "use initial_factor_sensitivity for the chi derivative" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["value", "simulate", "riccati"])
def test_empty_T_grid_names_the_key(tmp_path, capsys, command):
    # without the refusal, value and simulate ran sim.T and riccati its
    # default 0-50 grid
    with open(os.path.join(SHIPPED, "kim_omberg.json"), encoding="utf-8") as fh:
        cfg = {**json.load(fh), "sweep": {"T_grid": []}}
    code, out = _run([command, "--config", _write(tmp_path, cfg)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: sweep.T_grid ")


def test_riccati_refusal_names_the_cli_route(capsys):
    # the complete-market model has no closed path: the refusal points to the
    # subcommands that reach its value, and to the library route
    code, out = _run(["riccati", "--config", os.path.join(SHIPPED, "ou_complete.json")])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: no closed finite-horizon path for ou_complete; ")
    assert "value or simulate" in err and "simulate_phat_value" in err


@pytest.mark.parametrize("config", ["heston", "kim_omberg", "ou_complete"])
def test_omitted_scheme_runs_the_kinds_first(tmp_path, capsys, config):
    # sim.scheme is optional: a shipped config without it runs the kind's one
    # scheme, spec.scheme, byte for byte as the config that names it (at
    # 2,000 paths, so that the test stays short); any other name, euler
    # included, is exit 2 on an error line that names the kind's scheme
    with open(os.path.join(SHIPPED, f"{config}.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["sim"] = {**cfg["sim"], "n_paths": 2000}
    assert cfg["sim"]["scheme"] == SPECS[config].scheme
    without = {**cfg, "sim": {k: v for k, v in cfg["sim"].items() if k != "scheme"}}
    named = _run(["simulate", "--config", _write(tmp_path, cfg, "named.json")])
    assert named[0] == 0
    assert _run(["simulate", "--config", _write(tmp_path, without)]) == named
    euler = {**cfg, "sim": {**cfg["sim"], "scheme": "euler"}}
    assert _run(["simulate", "--config", _write(tmp_path, euler)]) == (2, "")
    assert capsys.readouterr().err == \
        f"error: sim.scheme must be '{SPECS[config].scheme}' for {config}\n"


def test_diagnose_requires_sweep(tmp_path, capsys):
    code, _ = _run(["diagnose", "--config", _write(tmp_path, HESTON_CFG)])
    assert code == 2


def test_simulate_json(tmp_path):
    code, out = _run(["simulate", "--config", _write(tmp_path, KO_CFG)])
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    res = payload["results"][0]
    assert res["passed"] is True
    assert res["mc_error_term"] > 0


def test_simulate_seed_override(tmp_path):
    cfg = _write(tmp_path, KO_CFG)
    _, out1 = _run(["simulate", "--config", cfg, "--seed", "123"])
    _, out2 = _run(["simulate", "--config", cfg, "--seed", "123"])
    _, out3 = _run(["simulate", "--config", cfg, "--seed", "124"])
    assert out1 == out2
    assert json.loads(out1)["seed"] == 123
    assert out1 != out3


def test_verify_heston_seven_checks(tmp_path):
    cfg = _write(tmp_path, HESTON_CFG)
    code, out = _run(["verify", "--config", cfg])
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 7
    assert all(l.startswith("PASS") for l in lines)


def test_verify_ou_complete_subset(tmp_path):
    # the complete-market model gets the applicable subset of checks
    ou = {
        "ou_complete": {"mu": 0.3, "b": 0.8, "varsigma": 0.4, "s0": 0.5},
        "preferences": {"p": -3.0},
        "sim": {"T": 1.0, "n_steps": 100, "n_paths": 500, "seed": 3},
    }
    code, out = _run(["verify", "--config", _write(tmp_path, ou)])
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split()[1] for l in lines] == [
        "eigenpair_residual_grid", "t0_identities", "sensitivity_formula_audit"]
    assert all(l.startswith("PASS") for l in lines)


def test_verify_small_paths_still_passes(tmp_path):
    # 3-SE acceptance scales with the wide SE bands of a tiny ensemble
    cfg = {**HESTON_CFG,
           "sim": {**HESTON_CFG["sim"], "n_paths": 100, "n_steps": 400}}
    code, out = _run(["verify", "--config", _write(tmp_path, cfg)])
    assert code == 0


def test_verify_t0_identities_evaluates_the_closed_forms(tmp_path, monkeypatch):
    # a closed gamma that is 1e-9 off at t = 0 must fail t0_identities
    spec = SPECS["kim_omberg"]

    def planted(m, t):
        beta, gamma, Lambda = spec.path(m, t)
        return beta, gamma + 1e-9, Lambda

    monkeypatch.setitem(SPECS, "kim_omberg", replace(spec, path=planted))
    cfg = {**KO_CFG, "sim": {**KO_CFG["sim"], "n_paths": 200, "n_steps": 100}}
    code, out = _run(["verify", "--config", _write(tmp_path, cfg)])
    assert code == 1
    assert "FAIL t0_identities" in out.splitlines()


def test_simulate_large_state_exits_cleanly(tmp_path):
    # the closed ratio and the error term overflow a double at chi = 50;
    # the gate compares them on one shifted scale and reports inf as null
    cfg = {**KO_CFG, "kim_omberg": {**KO_CFG["kim_omberg"], "chi": 50.0},
           "sim": {"T": 0.1, "n_steps": 20, "n_paths": 1000, "seed": 1}}
    code, out = _run(["simulate", "--config", _write(tmp_path, cfg)])
    assert code in (0, 1)
    res = json.loads(out)["results"][0]
    assert res["mc_error_term"] is None and res["ratio_gap"] is None
    assert isinstance(res["passed"], bool) and math.isfinite(res["v_closed"])


@pytest.mark.parametrize("n_paths", [
    # odd: 5 path blocks in one workspace at one worker, one block per
    # worker at 2 to 4, the last with an unpaired path, which the halving
    # leg does not use
    utilsens.simulation._BLOCK + 701,
    150,  # the halving leg has 74 paths, 37 pairs of pairs
])
def test_verify_byte_identical_across_workers(tmp_path, n_paths):
    cfg = _write(tmp_path, {**HESTON_CFG,
                            "sim": {**HESTON_CFG["sim"], "n_paths": n_paths}})
    runs = []
    for w in ("1", "2", "3", "4"):
        out_path = tmp_path / f"verify_{w}.json"
        code, _ = _run(["verify", "--config", cfg, "--workers", w,
                        "--out", str(out_path)])
        runs.append((code, out_path.read_bytes()))
    assert runs[0] == runs[1] == runs[2] == runs[3]


def _child_env() -> dict:
    """The environment of a child interpreter that imports the same package
    as the suite, installed or not."""
    src = os.path.dirname(os.path.dirname(utilsens.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path, HESTON_CFG)
    proc = subprocess.run([sys.executable, "-m", "utilsens.cli", "eigenpair",
                           "--config", cfg], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "heston"


def test_only_cli_serializes():
    # the output format lives in cli.py: no other module of the package gives
    # a result type a serialization method or turns a dataclass into a dict
    import ast
    import pathlib

    offences = []
    for path in sorted(pathlib.Path(utilsens.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "as_dict", "to_csv_rows"):
                offences.append(f"{path.name}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.Call) and "asdict" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                offences.append(f"{path.name}:{node.lineno} calls asdict")
    assert not offences, offences


def test_no_one_horizon_engine_call_in_a_loop():
    # one engine pass per command: the one-horizon Monte Carlo calls are
    # cases of the multi-horizon routes, so no module of the package calls
    # one of them once per horizon, in a loop or a comprehension
    import ast
    import pathlib

    one_horizon = ("decomposition_check", "simulate_phat_value", "mc_bump_sensitivity")
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    offences = set()
    for path in sorted(pathlib.Path(utilsens.__file__).parent.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                name = isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                if name in one_horizon:
                    offences.add(f"{path.name}:{node.lineno} calls {name} in a loop")
    assert not offences, sorted(offences)


def test_only_coefficients_reads_the_closed_path():
    # each kind's closed columns are one formula, spec.path, read only by
    # coefficients.py; ModelSpec has no field per closed column
    import ast
    import pathlib

    columns = {f for spec in SPECS.values() for f in spec.path_fields}
    offences = []
    for path in sorted(pathlib.Path(utilsens.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "path"
                    and path.name != "coefficients.py"):
                offences.append(f"{path.name}:{node.lineno} reads .path")
            if isinstance(node, ast.ClassDef) and node.name == "ModelSpec":
                offences += [f"{path.name}:{item.lineno} ModelSpec.{item.target.id}"
                             for item in node.body if isinstance(item, ast.AnnAssign)
                             and item.target.id in columns]
    assert columns == {"beta", "gamma", "Lambda"}
    assert not offences, offences


# independent routes kept on purpose although only tests call them: each
# recomputes a quantity that the library already gets another way
CROSS_ROUTES = ("f_eval", "f_eval_expanded", "kappa_eval", "kappa_eval_generic")


def test_public_functions_are_reached():
    # every public top-level function of the package, and every public method
    # of its classes, is named somewhere other than its own def and the
    # package __init__: in other library code, in the benchmark harness, or
    # in CROSS_ROUTES; one that only tests call is dead
    import ast
    import pathlib

    pkg = pathlib.Path(utilsens.__file__).parent
    harness = pathlib.Path(__file__).parents[1] / "perfbench"
    defined, used = {}, set(CROSS_ROUTES)
    for path in sorted(pkg.glob("*.py")) + sorted(harness.glob("*.py")):
        if path.name == "__init__.py":
            continue
        in_pkg = path.parent == pkg
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            # a class's methods are owners in their own right
            units = ([*top.decorator_list, *top.bases, *top.body]
                     if isinstance(top, ast.ClassDef) else [top])
            for unit in units:
                owner = unit.name if isinstance(unit, ast.FunctionDef) else None
                if in_pkg and owner and not owner.startswith("_"):
                    defined[owner] = f"{path.name}:{unit.lineno}"
                for node in ast.walk(unit):
                    name = node.name if isinstance(node, ast.alias) else (
                        getattr(node, "id", None) or getattr(node, "attr", None))
                    if name and not (in_pkg and name == owner):
                        used.add(name)
    assert set(CROSS_ROUTES) <= set(defined)
    unreached = [f"{where} {name}" for name, where in defined.items()
                 if name not in used]
    assert not unreached, unreached


def test_cli_import_loads_no_heavy_scipy():
    # every CLI run pays for what importing the CLI loads: none of these
    # scipy subpackages, each costly in start-up time and peak memory
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
    probe = ("import sys, utilsens.cli; "
             f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_float_formatting_17_digits():
    x = 1.0 / 3.0
    assert format_float(x) == format(x, ".17g")
    assert float(format_float(x)) == x  # round-trips
    assert format_float(float("nan")) == "null"


def test_to_json_stable_and_parseable():
    payload = {"a": 1.5, "b": [1, 2.25, None, True], "c": {"d": "x"}}
    s = to_json(payload)
    assert json.loads(s) == payload
    assert to_json(payload) == s  # deterministic


def test_to_csv_floats():
    out = to_csv([["h1", "h2"], [0.1, 2]])
    assert out.splitlines()[1].split(",")[0] == format(0.1, ".17g")


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs")


GOLDEN_CASES = [
    ("eigenpair", "heston", 0, "json"),
    ("eigenpair", "kim_omberg", 0, "json"),
    ("eigenpair", "ou_complete", 0, "json"),
    ("sensitivities", "heston", 0, "json"),
    ("sensitivities", "kim_omberg", 1, "json"),  # the audit flags mu and varsigma
    ("sensitivities", "ou_complete", 0, "json"),
    ("sensitivities", "heston", 0, "csv"),
    ("sensitivities", "kim_omberg", 1, "csv"),
    ("sensitivities", "ou_complete", 0, "csv"),
    ("riccati", "heston", 0, "csv"),
    ("riccati", "kim_omberg", 0, "csv"),
    ("value", "heston", 0, "json"),
    ("value", "kim_omberg", 0, "json"),
    ("value", "heston", 0, "csv"),
    ("value", "kim_omberg", 0, "csv"),
]


@pytest.mark.parametrize(
    "command, config, code, fmt", GOLDEN_CASES,
    ids=[f"{c}-{k}-{code}" + ("" if f == "json" else f"-{f}")
         for c, k, code, f in GOLDEN_CASES])
def test_deterministic_output_byte_stable(command, config, code, fmt):
    # closed forms and the eigenvalue FD only, no Monte Carlo or quadrature:
    # any change to these bytes is a change to a deterministic output
    got, out = _run([command, "--config", os.path.join(SHIPPED, f"{config}.json"),
                     "--format", fmt])
    assert got == code
    suffix = "out" if fmt == "json" else fmt
    with open(os.path.join(GOLDEN, f"{command}_{config}.{suffix}"), "rb") as fh:
        assert out.encode() == fh.read()


# (command, config) over a horizon grid: a factor model's decomposition runs,
# the complete-market value legs and, for diagnose, its bump legs
T_GRID_CASES = [("simulate", "heston"), ("simulate", "kim_omberg"),
                ("value", "ou_complete"), ("simulate", "ou_complete"),
                ("diagnose", "ou_complete")]


@pytest.mark.parametrize(
    "command, config", T_GRID_CASES,
    ids=[k if k != "ou_complete" else f"{c}-{k}" for c, k in T_GRID_CASES])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_multi_horizon_simulate_byte_stable(tmp_path, command, config, workers):
    # the shipped config at 2,000 paths x 50 steps over a horizon grid: every
    # horizon's legs (a decomposition run's dt-halving leg included) are one
    # engine pass on one draw, and its bytes are those of one run per horizon,
    # on stdout as JSON and in an --out file as CSV for ou_complete
    with open(os.path.join(SHIPPED, f"{config}.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["sim"] = {**cfg["sim"], "n_paths": 2000, "n_steps": 50}
    cfg["sweep"] = {"T_grid": [1, 5, 10]} if config != "ou_complete" else \
        {"parameter": "b", "T_grid": [0.5, 1, 2]}
    path = _write(tmp_path, cfg)
    # 50 steps are coarse on purpose: a factor model's decomposition legs warn
    # of visible discretization bias, the complete-market value legs do not
    coarse = pytest.warns(UserWarning, match="^n_steps=") \
        if config != "ou_complete" else contextlib.nullcontext()
    with coarse:
        got, out = _run([command, "--config", path, "--workers", workers])
    assert got == 0
    golden = os.path.join(GOLDEN, f"{command}_T_grid_{config}")
    with open(f"{golden}.out", "rb") as fh:
        assert out.encode() == fh.read()
    if config == "ou_complete":
        csv_path = tmp_path / "rows.csv"
        got, out = _run([command, "--config", path, "--workers", workers,
                         "--format", "csv", "--out", str(csv_path)])
        assert (got, out) == (0, "")
        with open(f"{golden}.csv", "rb") as fh:
            assert csv_path.read_bytes() == fh.read()

"""Batch command-line front end; the one owner of the output format.

Subcommands: ``eigenpair``, ``value``, ``riccati``, ``sensitivities``,
``diagnose``, ``simulate``, ``verify``.  Every subcommand reads a JSON config
(one model block, a preferences block, optional sim/sweep/output blocks) and
emits machine-readable JSON or CSV with all floats printed at 17 significant
digits so runs are diffable.

The library returns plain dataclasses and knows nothing of serialization:
each subcommand shapes its result here, once as a JSON payload and once as a
CSV table, and hands both to ``_emit``, the only writer.  A subcommand with
no table (``verify --out``) writes JSON whatever the format.

Exit codes: 0 success; 1 only for a failed check or a flagged row; 2 for
every refused input, on one ``error: `` line.  The library refuses every bad
input with a ``ValueError``, so ``main`` maps that whole family to exit 2 and
restates none of the library's rules; it also maps an arithmetic error (a
finite input whose arithmetic leaves floating-point range), a failed
allocation and an unreadable file, and ``load_config`` turns a config that
cannot be decoded into a ``ConfigError``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import coefficients as coeff
from . import sensitivities as sens
from . import simulation as sim
from . import valuation
from .eigenpairs import eigenpair, ergodic_residual, residual_grid
from .models import (
    MODEL_KINDS,
    ConfigError,
    Model,
    config_block,
    config_number,
    initial_state,
    load_config,
    model_from_config,
)

_TOP_KEYS = MODEL_KINDS + ("preferences", "sim", "sweep", "output")
_SIM_KEYS = ("T", "n_steps", "n_paths", "seed", "scheme")
_SWEEP_KEYS = ("parameter", "T_grid")
_OUTPUT_KEYS = ("path", "format")

VERIFY_T_VALUES = (1.0, 5.0, 10.0)
TWO_ROUTE_T = 2.0
DIAG_T = 50.0
# verify's oracle grid: every 0.1 up to T = 50, then the long horizons
VERIFY_ORACLE_GRID = np.concatenate([np.linspace(0.0, 50.0, 501), [1e2, 1e3, 1e4, 1e6]])


@dataclass(frozen=True)
class RunConfig:
    model: Model
    sim: sim.SimConfig | None
    sweep_parameter: str | None
    sweep_T_grid: list[float] | None
    out_path: str | None
    out_format: str


def parse_run_config(cfg: dict) -> RunConfig:
    unknown = sorted(set(cfg) - set(_TOP_KEYS))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in config")
    model = model_from_config(cfg)
    sim_cfg = None
    if "sim" in cfg:
        block = config_block(cfg["sim"], _SIM_KEYS, "sim")
        missing = [k for k in ("T", "n_steps", "n_paths", "seed") if k not in block]
        if missing:
            raise ConfigError(f"missing key '{missing[0]}' in sim block")
        scheme = block.get("scheme")
        if scheme not in (None, model.spec.scheme):
            raise ConfigError(f"sim.scheme must be '{model.spec.scheme}' for "
                              f"{model.kind}")
        sim_cfg = sim.SimConfig(
            T=config_number(block["T"], "sim.T"),
            n_steps=_config_integer(block["n_steps"], "sim.n_steps"),
            n_paths=_config_integer(block["n_paths"], "sim.n_paths"),
            seed=_config_integer(block["seed"], "sim.seed"),
            scheme=scheme,
        )
    sweep_parameter = sweep_T = None
    if "sweep" in cfg:
        block = config_block(cfg["sweep"], _SWEEP_KEYS, "sweep")
        sweep_parameter = block.get("parameter")
        if sweep_parameter is not None:
            valid = model.spec.sensitivity_params + ("chi", model.spec.state_field)
            if sweep_parameter not in valid:
                raise ConfigError(
                    f"sweep parameter '{sweep_parameter}' does not exist for "
                    f"{model.kind}"
                )
        if "T_grid" in block:
            sweep_T = _config_numbers(block["T_grid"], "sweep.T_grid")
            if not sweep_T or not all(0.0 <= t < math.inf for t in sweep_T):
                raise ConfigError("sweep.T_grid must be a nonempty list of "
                                  "horizons, finite and >= 0")
    out_path = None
    out_format = "json"
    if "output" in cfg:
        block = config_block(cfg["output"], _OUTPUT_KEYS, "output")
        out_path = block.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("output.path must be a string")
        out_format = block.get("format", "json")
        if out_format not in ("json", "csv"):
            raise ConfigError("output format must be 'json' or 'csv'")
    return RunConfig(model=model, sim=sim_cfg, sweep_parameter=sweep_parameter,
                     sweep_T_grid=sweep_T, out_path=out_path, out_format=out_format)


def _config_integer(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer")


def _config_numbers(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return [config_number(v, where) for v in values]


# --- deterministic serialization ----------------------------------------------

def format_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return "null"
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {to_json(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {to_json(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def to_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, (float, np.floating)) else v
             for v in row]
        )
    return buf.getvalue()


def _table(rows: list[dict], header: list[str] | None = None) -> list[list]:
    """``header`` (default the first row's keys), then each row's values under it."""
    header = list(rows[0]) if header is None else header
    return [header] + [[r[k] for k in header] for r in rows]


def _emit(rc: RunConfig, payload: dict, table: list[list] | None = None) -> None:
    """Write ``table`` as CSV if the format is csv and there is a table, else
    ``payload`` as JSON; to ``rc.out_path`` or stdout."""
    if rc.out_format == "csv" and table is not None:
        text = to_csv(table)
    else:
        text = to_json(payload)
    if rc.out_path:
        with open(rc.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# --- subcommands ----------------------------------------------------------------

def cmd_eigenpair(rc: RunConfig, workers: int | None) -> int:
    ep = eigenpair(rc.model)
    constants = {k: v for k, v in asdict(rc.model.constants).items()
                 if v is not None}
    head = {"model": rc.model.kind, "lambda": ep.lam, "a2": ep.a2, "a1": ep.a1}
    _emit(rc, {**head, "derived_constants": constants},
          _table([{**head, **constants}]))
    return 0


def _require_sim(rc: RunConfig) -> sim.SimConfig:
    if rc.sim is None:
        raise ConfigError("this subcommand needs a sim block in the config")
    return rc.sim


def cmd_value(rc: RunConfig, workers: int | None) -> int:
    model = rc.model
    chi = initial_state(model)
    lam = eigenpair(model).lam
    horizons = rc.sweep_T_grid or [_require_sim(rc).T]
    if model.spec.has_path:
        rows = [{"T": T, **asdict(valuation.dual_value(model, chi, T))}
                for T in horizons]
    else:
        _, values = sim.decomposition_checks(model, chi, (), _require_sim(rc), workers,
                                             value_horizons=horizons)
        rows = [{"T": T, **asdict(valuation.ValueResult.of(v, lv, model.p, T)),
                 "mc_se": se} for T, (v, se, lv) in zip(horizons, values)]
    if len(rows) == 1:
        payload = {"model": model.kind, "chi": chi, **rows[0], "lambda": lam}
    else:
        payload = {"model": model.kind, "chi": chi, "lambda": lam, "rows": rows}
    _emit(rc, payload, _table(rows, sorted(rows[0])))
    return 0


def _riccati_grid(rc: RunConfig) -> np.ndarray:
    if rc.sweep_T_grid:
        return np.asarray([0.0] + [t for t in rc.sweep_T_grid if t > 0.0])
    return np.linspace(0.0, 50.0, 501)


def _closed_and_oracle_gap(model: Model, grid: np.ndarray):
    """(closed path, sup over grid and columns of |closed - ODE oracle|)."""
    closed = coeff.build_path(model, grid)
    oracle = coeff.riccati_oracle(model, grid)
    sup = max(float(np.max(np.abs(getattr(closed, f) - getattr(oracle, f))))
              for f in model.spec.path_fields)
    return closed, sup


def cmd_riccati(rc: RunConfig, workers: int | None) -> int:
    model = rc.model
    grid = _riccati_grid(rc)
    closed, sup = _closed_and_oracle_gap(model, grid)
    payload = {
        "model": model.kind,
        "grid": list(grid),
        "beta": list(closed.beta),
        "gamma": list(closed.gamma),
        "Lambda": None if closed.Lambda is None else list(closed.Lambda),
        "oracle_max_abs_diff": sup,
    }
    columns = {"t": closed.grid, "beta": closed.beta, "gamma": closed.gamma}
    if closed.Lambda is not None:
        columns["Lambda"] = closed.Lambda
    _emit(rc, payload, [list(columns)] + [list(r) for r in zip(*columns.values())])
    return 0


def cmd_sensitivities(rc: RunConfig, workers: int | None) -> int:
    report = sens.long_term_sensitivities(rc.model)
    # csv writes a None (no FD column for chi) as an empty field
    table = [["parameter", "closed_form", "fd_check", "gap"]]
    table += [[e.parameter, e.closed_form, e.fd_lambda_check, e.abs_disagreement]
              for e in report.entries]
    _emit(rc, asdict(report), table)
    flagged = report.flagged_parameters()
    if flagged:
        print(f"FLAGGED formulas disagree with the FD oracle: {flagged}",
              file=sys.stderr)
        return 1
    return 0


def cmd_diagnose(rc: RunConfig, workers: int | None) -> int:
    if rc.sweep_parameter is None or not rc.sweep_T_grid:
        raise ConfigError("diagnose needs sweep.parameter and sweep.T_grid")
    rows = [asdict(r) for r in sens.convergence_diagnostic(
        rc.model, rc.sweep_parameter, rc.sweep_T_grid, sim_config=rc.sim,
        workers=workers)]
    _emit(rc, {"model": rc.model.kind, "parameter": rc.sweep_parameter,
               "rows": rows}, _table(rows))
    return 0


def cmd_simulate(rc: RunConfig, workers: int | None) -> int:
    model = rc.model
    cfg = _require_sim(rc)
    chi = initial_state(model)
    horizons = rc.sweep_T_grid or [cfg.T]
    if not model.spec.has_path:
        _, values = sim.decomposition_checks(model, chi, (), cfg, workers,
                                             value_horizons=horizons)
        rows = [{"T": T, "v_estimate": v, "mc_se": se,
                 "growth_rate_estimate": None if T == 0 else -lv / T}
                for T, (v, se, lv) in zip(horizons, values)]
        _emit(rc, {"model": model.kind, "chi": chi, "seed": cfg.seed, "rows": rows},
              _table([{**r, "seed": cfg.seed} for r in rows]))
        return 0
    checks, _ = sim.decomposition_checks(model, chi, horizons, cfg, workers)
    results = [{"T": T, **asdict(r)} for T, r in zip(horizons, checks)]
    _emit(rc, {"model": model.kind, "chi": chi, "seed": cfg.seed, "results": results},
          _table(results, ["T", "v_closed", "skeleton", "mc_error_term", "mc_se",
                           "ratio_gap", "passed", "seed"]))
    return 0 if all(r["passed"] for r in results) else 1


# --- verify ----------------------------------------------------------------------

def _check(name: str, passed: bool, details: dict) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _verify_checks(model: Model, cfg: sim.SimConfig,
                   workers: int | None) -> list[dict]:
    ep = eigenpair(model)
    chi = initial_state(model)
    checks = []

    grid = residual_grid(model)
    max_r = max(abs(ergodic_residual(model, ep, x)) for x in grid)
    checks.append(_check("eigenpair_residual_grid", max_r < 1e-8,
                         {"max_abs_residual": max_r, "n_points": int(grid.size)}))

    if model.spec.has_path:
        _, sup = _closed_and_oracle_gap(model, VERIFY_ORACLE_GRID)
        checks.append(_check("riccati_oracle_agreement", sup < 1e-6,
                             {"sup_abs_diff": sup}))

        res0 = valuation.dual_value(model, chi, 0.0)
        cols0 = coeff.closed_path(model, 0.0).values()
        t0_ok = (res0.v == 1.0 and res0.utility == 1.0 / model.p
                 and all(c == 0.0 for c in cols0))
        checks.append(_check("t0_identities", t0_ok,
                             {"v": res0.v, "utility": res0.utility}))

        # the decomposition runs and the two-route value share one draw
        runs, [(v_hat, se, _)] = sim.decomposition_checks(
            model, chi, VERIFY_T_VALUES, cfg, workers, value_horizons=[TWO_ROUTE_T])
        deco_details = [{"T": T, "ratio_gap": r.ratio_gap, "mc_se": r.mc_se,
                         "passed": r.passed} for T, r in zip(VERIFY_T_VALUES, runs)]
        checks.append(_check("decomposition_identity", all(r.passed for r in runs),
                             {"runs": deco_details}))

        v_closed = valuation.dual_value(model, chi, TWO_ROUTE_T).v
        two_ok = abs(v_hat - v_closed) < 3.0 * se
        checks.append(_check("two_route_value", two_ok,
                             {"T": TWO_ROUTE_T, "mc": v_hat, "closed": v_closed,
                              "mc_se": se}))
    else:
        v0, se0, _ = sim.simulate_phat_value(model, None, 0.0, cfg, workers)
        checks.append(_check("t0_identities", v0 == 1.0 and se0 == 0.0,
                             {"v": v0, "mc_se": se0}))

    report = sens.long_term_sensitivities(model)
    flagged = report.flagged_parameters()
    checks.append(_check(
        "sensitivity_formula_audit", not flagged,
        {"flagged": flagged,
         "rows": [asdict(e) for e in report.entries]}))

    if model.spec.has_path:
        g50 = valuation.dual_value(model, chi, DIAG_T).growth_rate_estimate
        lam = ep.lam
        growth_ok = abs(g50 - lam) <= 0.05 * max(abs(lam), 1e-8)
        row = sens.convergence_diagnostic(model, "m_bar", [DIAG_T])[0]
        diag_ok = row.gap <= 0.05 * max(abs(row.limit), 1e-8)
        checks.append(_check(
            "convergence_diagnostics", growth_ok and diag_ok,
            {"T": DIAG_T, "growth_rate": g50, "lambda": lam,
             "m_bar_value": row.value, "m_bar_limit": row.limit}))
    return checks


def cmd_verify(rc: RunConfig, workers: int | None) -> int:
    cfg = _require_sim(rc)
    checks = _verify_checks(rc.model, cfg, workers)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    all_pass = all(c["passed"] for c in checks)
    payload = {"model": rc.model.kind, "seed": cfg.seed, "checks": checks,
               "all_pass": all_pass}
    if rc.out_path:
        _emit(rc, payload)
    return 0 if all_pass else 1


_COMMANDS = {
    "eigenpair": cmd_eigenpair,
    "value": cmd_value,
    "riccati": cmd_riccati,
    "sensitivities": cmd_sensitivities,
    "diagnose": cmd_diagnose,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utilsens",
        description="Long-horizon optimal-utility values, eigenpairs and "
                    "sensitivities for three closed-form factor models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default=None, choices=["json", "csv"])
        p.add_argument("--seed", default=None, type=int,
                       help="override the sim seed")
        p.add_argument("--workers", default=None, type=int,
                       help="path-simulation workers: shares of the paths, "
                            "at most one per CPU; no output depends on it")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        cfg = load_config(args.config)
        rc = parse_run_config(cfg)
        if args.format:
            rc = replace(rc, out_format=args.format)
        if args.out:
            rc = replace(rc, out_path=args.out)
        if args.seed is not None:
            if rc.sim is None:
                raise ConfigError("--seed given but the config has no sim block")
            rc = replace(rc, sim=replace(rc.sim, seed=args.seed))
        # a numpy overflow raises FloatingPointError, an ArithmeticError
        with np.errstate(over="raise"):
            return _COMMANDS[args.command](rc, args.workers)
    except ArithmeticError as exc:
        # the bare message ("float division by zero") names no input
        print(f"error: {args.command} {args.config}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OSError) as exc:
        # the library refuses every bad input with a ValueError of some kind
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

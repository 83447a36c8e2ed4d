"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import utilsens as u  # noqa: E402
import workloads  # noqa: E402
from draws import DRAWS, MARGIN  # noqa: E402
from tracing import Span  # noqa: E402
from utilsens.models import bump_params, sensitivity_parameters  # noqa: E402


# --- percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(20, 50.0), (40, 75.0), (100, 90.0),
                                    (104, 90.0), (199, 90.0), (200, 95.0),
                                    (600, 95.0), (1000, 99.0)])
def test_tail_is_highest_percentile_with_ten_samples_above(n, pct):
    samples = [float(i) for i in range(n)]
    got_pct, value, count = stats.tail_percentile(samples)
    assert (got_pct, count) == (pct, n)
    assert sum(x > value for x in samples) >= stats.TAIL_MIN_ABOVE


def test_no_tail_from_fewer_than_twenty_samples():
    assert stats.tail_percentile([1.0] * 19) is None
    assert stats.percentile_if_supported(list(range(99)), 90.0) is None
    assert stats.percentile_if_supported(list(range(100)), 90.0) == 89


def test_nearest_rank():
    assert stats.nearest_rank([5.0, 1.0, 3.0], 50.0) == 3.0
    assert stats.nearest_rank([5.0, 1.0, 3.0], 100.0) == 5.0


# --- reference speed -------------------------------------------------------------

def stopped_sampler(times, loops):
    sampler = reference.Sampler(os.getpid())
    sampler.stop()
    sampler.times, sampler.loops = list(times), list(loops)
    return sampler


def test_scale_uses_the_samples_within_the_pad_of_the_interval():
    ref = reference.REF_S
    times = [k / 100 for k in range(100)]
    loops = [2.0 * ref if 30 <= k <= 60 else ref for k in range(100)]
    sampler = stopped_sampler(times, loops)
    assert sampler.scale(0.355, 0.555) == pytest.approx(0.5)
    assert sampler.scale(0.805, 0.905) == pytest.approx(1.0)
    # [0.275, 0.455] takes the samples at 0.26 .. 0.47: 4 at ref, 18 at 2 ref
    assert sampler.scale(0.275, 0.455) == pytest.approx(22 / 40)


def test_scale_widens_to_the_nearest_samples():
    ref = reference.REF_S
    sampler = stopped_sampler([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                              [ref, 2 * ref, 2 * ref, 4 * ref, 4 * ref, ref])
    # nothing within the pad of [2.5, 2.6]: the 4 nearest are at 1, 2, 3, 4
    assert sampler.scale(2.5, 2.6) == pytest.approx(4 / 12)
    assert sampler.scale(-9.0, -8.0) == pytest.approx(4 / 9)
    assert stopped_sampler([0.0], [ref]).scale(5.0, 6.0) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        stopped_sampler([], []).scale(0.0, 1.0)


def test_runnable_cpus_sees_the_running_thread():
    cpus = reference.runnable_cpus(os.getpid())
    assert cpus and set(cpus) <= os.sched_getaffinity(0)


# --- self time with cross-thread spans ------------------------------------------

MAIN, W1, W2 = 1, 2, 3


def span(sid, parent, t0, t1, thread=MAIN, module="simulation", name="f"):
    return Span(sid, parent, module, name, thread, t0, t1)


def test_worker_spans_attach_to_innermost_enclosing_simulation_span():
    spans = [span(0, None, 0.0, 10.0, name="decomposition_check"),
             span(1, 0, 0.5, 9.0, name="simulate_q_paths"),
             span(2, None, 1.0, 5.0, W1, name="normals_for"),
             span(3, None, 3.0, 8.0, W2, name="normals_for"),
             span(4, None, 11.0, 12.0, W1, name="normals_for"),   # outside any call
             span(5, None, 2.0, 3.0, W1, module="valuation")]     # worker, same window
    got = tracing.attribute_orphans(spans, MAIN)
    assert got == {2: 1, 3: 1, 5: 1}


def test_self_time_subtracts_union_of_overlapping_cross_thread_children():
    spans = [span(0, None, 0.0, 10.0), span(1, None, 1.0, 5.0, W1),
             span(2, None, 3.0, 8.0, W2), span(3, 0, 8.5, 9.0)]
    parents = {0: None, 1: 0, 2: 0, 3: 0}
    selfs = tracing.self_times(spans, parents)
    # children cover [1, 8] and [8.5, 9]: 7.5 of the parent's 10 s
    assert selfs[0] == pytest.approx(2.5)
    assert selfs[1] == pytest.approx(4.0) and selfs[2] == pytest.approx(5.0)
    # busy thread-seconds exceed wall time: 2.5 + 4 + 5 + 0.5 > 10
    assert sum(selfs.values()) == pytest.approx(12.0)


def test_covered_clips_to_the_parent_interval():
    assert tracing.covered([(-1.0, 2.0), (1.5, 3.0), (9.0, 20.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([], 0.0, 1.0) == 0.0


# --- work counting ----------------------------------------------------------------

def test_path_step_counts():
    assert workloads.decomposition_path_steps(100_000, 1000) == 200_000_000
    assert workloads.decomposition_path_steps(20_000, 400) == 16_000_000
    assert workloads.decomposition_path_steps(300, 5) == 300 * 5 + 300 * 10
    assert workloads.verify_path_steps(u.HESTON, 20_000, 400) == 56_000_000
    assert workloads.verify_path_steps(u.OU_COMPLETE, 50_000, 2000) == 0


def test_oracle_step_count():
    # exact binary fractions: 2 + 6 steps at h, 4 + 12 at h/2
    assert tracing.oracle_steps([0.0, 0.5, 2.0], 0.25) == 24
    # on the verify grid 0.2 -> 0.30000000000000004 spans just over 100 steps
    grid = np.linspace(0.0, 50.0, 501)
    assert tracing.oracle_steps(grid[2:4], 1e-3) == 101 + 201
    assert tracing.oracle_steps(grid[:2], 1e-3) == 100 + 200


def test_traced_normals_match_counted_path_steps(ko_model):
    """normals_drawn from spans on the pool threads equals the path-step count,
    and every worker-thread span is attributed to a simulation call."""
    n_paths, n_steps = 20_000, 10   # two path blocks, so both workers run
    cfg = u.SimConfig(T=1.0, n_steps=n_steps, n_paths=n_paths, seed=3,
                      scheme="exact_gaussian")
    tracer = tracing.Tracer()
    tracer.install(u)
    try:
        u.decomposition_check(ko_model, None, 1.0, cfg, workers=2)
    finally:
        tracer.uninstall()
    assert u.decomposition_check.__name__ == "decomposition_check"
    assert not hasattr(u.decomposition_check, "__wrapped__")
    m = tracing.layer_metrics(tracer.spans, tracer.main, 2, {})
    assert m["simulation.normals_drawn"] == workloads.decomposition_path_steps(
        n_paths, n_steps)
    orphans = [s for s in tracer.spans if s.thread != tracer.main and s.parent is None]
    assert orphans
    assert set(tracing.attribute_orphans(tracer.spans, tracer.main)) == {
        s.sid for s in orphans}
    # the rest compare traced with untraced passes
    assert set(m) == set(tracing.UNITS) - {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_pct"}


@pytest.fixture
def ko_model():
    return u.validate(u.KimOmbergParams(mu=0.5, varsigma=0.2, k=1.0, m_bar=0.1,
                                        sigma=0.3, rho=-0.5, chi=0.2),
                      u.Preferences(p=-1.0))


# --- Monte Carlo checks -------------------------------------------------------------

def _deco(*runs):
    return {"runs": [{"T": T, "ratio_gap": z * 1e-4, "mc_se": 1e-4, "passed": ok}
                     for T, z, ok in runs]}


def test_mc_verdict_accepts_a_chance_miss_within_the_band():
    two = {"T": 2.0, "mc": 1.0 + 3.4e-4, "closed": 1.0, "mc_se": 1e-4}
    assert workloads.mc_verdict("two_route_value", two) == (None, False)
    assert workloads.mc_verdict("two_route_value", {**two, "mc": 1.0 - 2e-4}) == (None, True)
    assert workloads.mc_verdict("decomposition_identity",
                                _deco((1, 3.4, False), (5, 0.5, True))) == (None, False)
    assert workloads.mc_verdict("decomposition_identity",
                                _deco((1, 2.9, True), (5, 0.5, True))) == (None, True)


@pytest.mark.parametrize("details", [
    {"T": 2.0, "mc": 1.0 + 5.1e-4, "closed": 1.0, "mc_se": 1e-4},  # beyond the band
    {"T": 2.0, "mc": 1.0, "closed": 1.0, "mc_se": 0.0},           # no SE
    {"T": 2.0, "mc": float("nan"), "closed": 1.0, "mc_se": 1e-4},
])
def test_mc_verdict_rejects_a_two_route_gap_outside_the_band(details):
    why, _ = workloads.mc_verdict("two_route_value", details)
    assert why is not None


@pytest.mark.parametrize("run", [(1, 3.4, True),    # verdict against its gap
                                 (1, 1.0, False),   # failed only the dt-halving gate
                                 (1, 5.0, False)])  # beyond the band
def test_mc_verdict_rejects_a_wrong_decomposition_run(run):
    why, ok = workloads.mc_verdict("decomposition_identity", _deco((5, 0.5, True), run))
    assert why is not None and not ok


def _verify_out(tmp_path, passed):
    checks = [{"name": "eigenpair_residual_grid", "passed": True, "details": {}},
              {"name": "riccati_oracle_agreement", "passed": True, "details": {}},
              {"name": "t0_identities", "passed": True, "details": {}},
              {"name": "decomposition_identity", "passed": True,
               "details": _deco((1, 1.0, True), (5, 2.0, True), (10, 0.1, True))},
              {"name": "two_route_value", "passed": passed,
               "details": {"T": 2.0, "mc": 1.00034, "closed": 1.0, "mc_se": 1e-4}},
              {"name": "sensitivity_formula_audit", "passed": True, "details": {}},
              {"name": "convergence_diagnostics", "passed": True, "details": {}}]
    path = tmp_path / "heston.json"
    path.write_text(json.dumps({"checks": checks}))
    printed = "".join(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}\n" for c in checks)
    return printed, str(path)


def test_check_verify_takes_a_chance_miss_with_exit_1(tmp_path):
    printed, path = _verify_out(tmp_path, passed=False)
    assert workloads.check_verify("heston", 1, printed, path) is None
    assert "exit 0" in workloads.check_verify("heston", 0, printed, path)
    # the two-route gap is 3.4 SE, so a PASS verdict is wrong
    printed, path = _verify_out(tmp_path, passed=True)
    assert workloads.check_verify("heston", 0, printed, path) is not None


def test_check_verify_holds_the_deterministic_pattern(tmp_path):
    printed, path = _verify_out(tmp_path, passed=False)
    assert "differs" in workloads.check_verify("kim_omberg", 1, printed, path)
    assert "printed" in workloads.check_verify(
        "heston", 1, printed.replace("FAIL two_route", "PASS two_route"), path)


# --- seeded draws -------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_draws_repeat_exactly_for_a_seed(kind):
    a = [DRAWS[kind](np.random.default_rng(7)) for _ in range(3)]
    b = [DRAWS[kind](np.random.default_rng(7)) for _ in range(3)]
    assert a == b
    rng = np.random.default_rng(7)
    assert DRAWS[kind](rng) != DRAWS[kind](rng)


@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_draws_are_admissible_with_bumps(kind):
    rng = np.random.default_rng(11)
    for _ in range(300):
        model = DRAWS[kind](rng)
        assert u.validate(model.params, model.prefs) == model
        c = model.constants
        if kind == u.HESTON:
            assert c.beta1 >= MARGIN
        elif kind == u.KIM_OMBERG:
            slope = (c.alpha4 - c.alpha1) / c.alpha2
            assert c.alpha1 + slope * model.params.sigma**2 / 2.0 >= MARGIN
        for par in sensitivity_parameters(kind):
            h = 1e-3 * max(abs(getattr(model.params, par)), 1.0)
            for sign in (1.0, -1.0):
                u.validate(bump_params(model.params, par, sign * h), model.prefs)


def test_sweep_and_small_calls_have_a_supported_p90():
    for name in ("horizon_sweep", "mc_small_calls"):
        ops = workloads.WORKLOADS[name](5, "", 2)
        assert stats.percentile_if_supported([0.0] * len(ops), 90.0) is not None

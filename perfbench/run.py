"""Benchmark of utilsens: one workload, measured from outside the library.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify_configs, mc_decomposition, horizon_sweep, mc_small_calls
(see perfbench/README.md).  Every pass of a workload runs in a fresh process
(``worker.py``), one caller in a closed loop with at most 2 simulation
threads.  Passes repeat until ``--seconds`` is used up, after a minimum count
per workload.  End-to-end times are read at a reference speed, from the
host's speed sampled while each pass runs (``reference.py``).  The last line
of standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-module ones from traced passes, each paired with an
untraced pass to measure the tracing overhead.  The lines before it report
every metric with its sample count and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import reference
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 2
SETUP_SAMPLES = 9
DEFAULT_SEED = 20240601  # the shipped configs' own sim seed
# minimum timed passes per run: single passes spread by 10-15% on a shared
# 2-CPU host, so every figure is a median over repeated passes
MIN_PASSES = {"verify_configs": 2, "mc_decomposition": 2, "horizon_sweep": 2,
              "mc_small_calls": 3}
PASS_TIMEOUT_S = 170
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class PassError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_pass(workload: str, seed: int, outdir: Path, trace: bool = False,
             workers: int = WORKERS, setup_only: bool = False) -> dict:
    """Run one pass in a fresh process while sampling the host's speed.

    Adds to the worker's result ``setup_raw_s``, the time from process
    start to the end of its set-up, and ``setup_s``, the same at the
    reference speed, and turns each operation's (start, end) into its
    latency in ms, measured and at the reference speed."""
    outdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", str(outdir),
           "--workers", str(workers), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    log = []
    result = ready = None
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        sampler = reference.Sampler(proc.pid)
        try:
            for line in proc.stdout:
                if line.startswith("BENCH READY"):
                    ready = time.perf_counter()
                elif line.startswith("BENCH RESULT "):
                    result = json.loads(line[len("BENCH RESULT "):])
                else:
                    log.append(line)
            proc.wait(timeout=PASS_TIMEOUT_S)
        finally:
            sampler.stop()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or ready is None or (result is None and not setup_only):
        raise PassError(f"{workload} pass exited {proc.returncode}:\n" + "".join(log[-20:]))
    result = result or {}
    result["setup_raw_s"] = ready - t0
    result["setup_s"] = (ready - t0) * sampler.scale(t0, ready)
    result["ops"] = [(label, 1e3 * (b - a), 1e3 * (b - a) * sampler.scale(a, b), why)
                     for label, a, b, why in result.get("ops", [])]
    return result


def timed_passes(workload: str, seed: int, seconds: float, outdir: Path,
                 trace: bool) -> tuple[list[dict], list[dict]]:
    """(untraced passes, traced passes).  Untraced runs repeat passes while
    the next one is expected to end within ``seconds``; traced runs repeat
    (untraced, traced) pairs the same way."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        sides = (False,)
        if trace:  # alternate which side of a traced pair runs first
            sides = (False, True) if len(plain) % 2 == 0 else (True, False)
        for side in sides:
            runs = traced if side else plain
            name = f"{'traced' if side else 'pass'}{len(runs)}"
            runs.append(run_pass(workload, seed, outdir / name, trace=side))
        unit = time.perf_counter() - t
        done = len(plain) >= (1 if trace else MIN_PASSES[workload])
        if done and time.perf_counter() - start + unit > seconds:
            return plain, traced


def identity_check(seed: int, outdir: Path, first_pass: Path) -> list[str | None]:
    """``verify --out`` bytes with --workers 1 against the first 2-worker pass."""
    single = run_pass("verify_configs", seed, outdir / "workers1", workers=1)
    whys = []
    for label, _, _, why in single["ops"]:
        name = f"{label}.json"
        if why is None and ((outdir / "workers1" / name).read_bytes()
                            != (first_pass / name).read_bytes()):
            why = f"verify --out for {label} differs between 1 and 2 workers"
        whys.append(why)
    return whys


def environment(seed: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            **versions, "git_sha": sha, "seed": seed, "workers": WORKERS, **THREAD_ENV}


def line(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<44} {value:>16.6g} {unit:<8} {note}")


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's median latency (ms) at the reference speed over the
    passes.  Every pass runs the same operation list, in a fresh process
    with a cold cache."""
    return [stats.median(ms) for ms in
            zip(*([ref for _, _, ref, _ in p["ops"]] for p in passes))]


def raw_walls(passes: list[dict]) -> list[float]:
    """Measured seconds of each pass's operations, not scaled."""
    return [sum(ms for _, ms, _, _ in p["ops"]) / 1e3 for p in passes]


def end_to_end(passes: list[dict], setup_only: list[dict]) -> dict:
    lat = op_latencies(passes)
    starts = passes + setup_only
    setups = [p["setup_s"] for p in starts]
    rss = [p["maxrss_mb"] for p in passes]

    def span(xs):
        return f"[{min(xs):.4g}, {max(xs):.4g}]"

    n = len(passes)
    wall = sum(lat) / 1e3
    metrics = {
        "setup_s": (stats.median(setups), "s",
                    f"median of {len(setups)} fresh processes, range {span(setups)}"),
        "wall_s": (wall, "s", f"sum over {len(lat)} operations of each one's "
                              f"median over {n} passes"),
        "op_p50_ms": (stats.median(lat), "ms",
                      f"median of {len(lat)} operations, each a median of {n} passes"),
        "peak_rss_mb": (stats.median(rss), "MB",
                        f"median of {n} pass processes, range {span(rss)}"),
    }
    print("end-to-end metrics (times at the reference speed):")
    for name, (value, unit, note) in metrics.items():
        line(name, value, unit, note)
    p90 = stats.percentile_if_supported(lat, 90.0)
    if p90 is not None:
        line("op_p90_ms", p90, "ms", f"{len(lat)} operations")
    tail = stats.tail_percentile(lat)
    if tail is not None and tail[0] != 90.0:
        line(f"op_p{tail[0]:g}_ms", tail[1], "ms",
             f"highest percentile with >= {stats.TAIL_MIN_ABOVE} of {tail[2]} above")
    if passes[0]["path_steps"]:
        line("path_steps_per_s", passes[0]["path_steps"] / wall, "1/s",
             f"{passes[0]['path_steps']} path-steps over wall_s")
    print("measured times, not scaled:")
    raw = [p["setup_raw_s"] for p in starts]
    line("setup_s", stats.median(raw), "s", f"median of {len(raw)}, range {span(raw)}")
    raw = raw_walls(passes)
    line("wall_s", stats.median(raw), "s", f"median of {n} passes, range {span(raw)}")
    return {k: (v, u) for k, (v, u, _) in metrics.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = list(traced[0]["layers"])
    out = {}
    for name in names:
        out[name] = (stats.median([t["layers"][name] for t in traced]),
                     tracing.UNITS[name])
    untraced = sum(op_latencies(plain)) / 1e3
    with_trace = sum(op_latencies(traced)) / 1e3
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.traced_wall_s"] = (with_trace, "s")
    out["trace.overhead_pct"] = (100.0 * (with_trace / untraced - 1.0), "%")
    print(f"per-module metrics (median of {len(traced)} traced passes; "
          f"overhead against {len(plain)} untraced passes at the reference speed):")
    for name, (value, unit) in out.items():
        line(name, value, unit, "")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "utilsens" / "__init__.py").is_file():
        print(f"error: no utilsens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2

    outdir = ROOT / ".bench_out" / str(os.getpid())
    try:
        plain, traced = timed_passes(args.workload, args.seed, args.seconds, outdir,
                                     bool(args.trace))
        setups = []
        while not args.trace and len(plain) + len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(args.workload, args.seed, outdir / "setup",
                                   setup_only=True))
        whys = [why for p in plain + traced for _, _, _, why in p["ops"]]
        if args.workload == "verify_configs":
            whys += identity_check(args.seed, outdir, outdir / "pass0")
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        if outdir.parent.is_dir() and not any(outdir.parent.iterdir()):
            outdir.parent.rmdir()

    print(f"workload {args.workload}: closed loop, 1 caller, {WORKERS} simulation "
          f"workers, seed {args.seed}")
    print("environment: " + json.dumps(environment(args.seed, plain[0]["versions"])))
    failed = [w for w in whys if w is not None]
    for why in failed:
        print(f"  FAILED: {why}")
    print(f"  error_rate {len(failed) / len(whys):.6g} ({len(failed)} of {len(whys)} "
          "operations failed their output check or raised)")
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setups)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(whys),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

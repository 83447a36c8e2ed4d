"""One pass of a workload in a fresh process; ``run.py`` starts it.

It imports utilsens (from ``src/`` on ``PYTHONPATH``), builds the
workload's inputs (parsing and validating them), prints ``BENCH READY``,
runs every operation once in order and prints ``BENCH RESULT {json}``.
Each operation is reported with its start and end on the ``perf_counter``
clock, which is shared by all processes of the host.
A fresh process per pass starts every pass with an empty coefficient
cache, as a CLI run does.  With ``--trace 1`` the public functions are
wrapped before the set-up and the result carries the per-module metrics;
with ``--setup-only`` it exits after ``BENCH READY``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy
import scipy

import tracing
import utilsens
import workloads


def emit(tag: str, text: str = "") -> None:
    print(f"BENCH {tag} {text}".rstrip(), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(utilsens)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.outdir, args.workers)
    emit("READY")
    if args.setup_only:
        return 0

    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            why = op.run()
        except Exception as exc:  # a raising operation counts as failed
            why = f"{type(exc).__name__}: {exc}"
        results.append((op.label, t0, time.perf_counter(), why))
    payload = {
        "ops": results,
        "path_steps": sum(op.path_steps for op in ops),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        verify_s = ({label: t1 - t0 for label, t0, t1, _ in results}
                    if args.workload == "verify_configs" else {})
        payload["layers"] = tracing.layer_metrics(tracer.spans, tracer.main,
                                                  args.workers, verify_s)
    emit("RESULT", json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload ball-solve --seed 1 --seconds 20 --trace 0

Runs one workload closed-loop in this single process: one operation
after another, whole rounds until ``--seconds`` have passed.  Every
answer is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Scratch outputs (instance documents,
scan CSVs, span dumps) go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a small shared machine the
# default threading made an r=20 ball solve three times slower and noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreter launches per run for ``setup_s``; the median is reported.
SETUP_LAUNCHES = 7

FIRST_ANSWER = """
import schurlift, schurlift.cli
import numpy as np
from schurlift import KernelSpec, np_solve
result = np_solve(KernelSpec.ball(1, 1), [(0.0,)], [np.array([[0.5]])])
print(repr(complex(result.phi((0.3,))[0, 0])))
"""
MOEBIUS_AT_03 = (0.5 + 0.3) / (1 + 0.5 * 0.3)


def setup_seconds() -> float:
    """Median wall time from a fresh interpreter to the first answer."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", FIRST_ANSWER], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(time.perf_counter() - start)
        value = complex(proc.stdout.strip().splitlines()[-1])
        checks.require(abs(value - MOEBIUS_AT_03) <= 1e-12,
                       f"Moebius interpolant gave {value} at 0.3")
    return statistics.median(samples)


def run_rounds(workload, seconds: float, tracer):
    """Repeat the round until ``seconds`` of wall time have passed."""
    times: list[tuple[str, float]] = []  # (size class, seconds) of correct answers
    busy = 0.0
    attempted = failed = rounds = 0
    worst_residual = 0.0
    wrong: list[str] = []
    failures: set[str] = set()
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for op in workload.ops:
            if tracer is not None:
                tracer.op_id = attempted
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # noqa: BLE001 - a raising solve is a counted failure
                out = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op_id = None
            attempted += 1
            busy += elapsed
            reason = op.failure(out)
            if reason is not None:
                failed += 1
                failures.add(f"{op.label}: {reason}")
                continue
            try:
                residual = op.check(out)
            except (checks.CheckFailure, KeyError, TypeError, ValueError) as exc:
                # A malformed output (a missing report field, say) is a wrong answer too.
                wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            if residual is not None:
                worst_residual = max(worst_residual, residual)
            times.append((op.size, elapsed))
        rounds += 1
    for line in sorted(failures):
        print(f"failed: {line}", file=sys.stderr)
    for line in wrong[:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    return {
        "times": times, "busy": busy, "attempted": attempted, "failed": failed,
        "rounds": rounds, "worst_residual": worst_residual, "wrong": wrong,
    }


def end_to_end(res, heavy: str, setup: float) -> dict:
    all_times = [t for _, t in res["times"]]
    heavy_times = [t for size, t in res["times"] if size == heavy]
    digits = 16.0 if res["worst_residual"] <= 0.0 else min(16.0, -math.log10(res["worst_residual"]))
    return {
        "setup_s": (setup, "s"),
        "instances_per_s": (len(all_times) / res["busy"], "1/s"),
        "latency_p50_s": (statistics.median(all_times), "s"),
        "scale_p50_s": (statistics.median(heavy_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits": (digits, "digits"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import schurlift

    os.makedirs(OUT, exist_ok=True)
    setup = setup_seconds()
    rng = np.random.default_rng(args.seed)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    workload = workloads.build(args.workload, schurlift, rng, workdir)

    # Warm numpy's LAPACK paths outside the timed loop.
    schurlift.np_solve(schurlift.KernelSpec.ball(1, 1), [(0.0,)], [np.array([[0.5]])])

    tracer = tracing.Tracer().install() if args.trace else None
    res = run_rounds(workload, args.seconds, tracer)

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        metrics = {name: (value, tracing.LAYER_METRICS[name])
                   for name, value in tracer.layer_metrics(res["rounds"]).items()}
        metrics["trace.instances_per_s"] = (len(res["times"]) / res["busy"], "1/s")
    else:
        metrics = end_to_end(res, workload.heavy, setup)

    print(json.dumps({
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

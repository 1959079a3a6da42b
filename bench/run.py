"""Benchmark entry point for chtoucakit.

    python3 bench/run.py --workload enum|subdiv|fan|algebra --seed N
                         --seconds S --trace 0|1

Run from the root of a checkout. Nothing is installed: each worker puts
the checkout's `src` on its path. Every round is a fresh interpreter
(bench/worker.py), so the program's process-wide caches start cold, as
they do for a CLI user; a run repeats the same round of seeded
operations, one process at a time, while the next round still fits in S
seconds (at least one round), after a few set-up probes.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones:

  setup_s       median over probes and rounds of the time from starting
                the worker to its first timed operation (interpreter,
                imports, input generation)
  wall_s        median over rounds of the wall time of the timed section
  op_p50_ms     median over the round's operations of each operation's
                median latency over rounds
  peak_rss_mib  median over rounds of the peak resident set size, read at
                the end of the timed section

With --trace 1 every round is traced, and the run reports the per-layer
metrics of bench/tracing.py and `trace.overhead_s`, the tracing's
estimated cost within a round (calibrated seconds), each the median over
rounds. Details of
every round go to .bench_out/result-*.json, the spans of the first
traced round to .bench_out/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("enum", "subdiv", "fan", "algebra")
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # fixed hashing, and no thread pools in numpy's linear algebra
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(workload: str, seed: int, mode: str, trace: int = 0, trace_out: str | None = None):
    """Run one worker to completion; returns its record and duration."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--tmpdir", os.path.join(OUT, "tmp")]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    duration = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1]), duration


def op_p50_ms(rounds) -> float:
    per_op = zip(*(r["op_ms"] for r in rounds))
    return statistics.median(statistics.median(lat) for lat in per_op)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "chtoucakit", "__init__.py")):
        print("bench/run.py: no src/chtoucakit next to bench/; run it from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()

    def fits(last: float) -> bool:
        return time.monotonic() - start + last <= args.seconds

    try:
        if args.trace:
            rounds = []
            trace_out = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            while True:
                rec, duration = spawn(args.workload, args.seed, "round", 1,
                                      trace_out if not rounds else None)
                rounds.append(rec)
                if not fits(duration):
                    break
            metrics = {
                name: {"value": statistics.median(r["layers"][name] for r in rounds),
                       "unit": unit(name)}
                for name in rounds[0]["layers"]
            }
            setups = []
        else:
            setups = [spawn(args.workload, args.seed, "probe")[0]["setup_s"]
                      for _ in range(SETUP_PROBES)]
            rounds = []
            while True:
                rec, duration = spawn(args.workload, args.seed, "round")
                rounds.append(rec)
                if not fits(duration):
                    break
            setups += [r["setup_s"] for r in rounds]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
                "op_p50_ms": {"value": op_p50_ms(rounds), "unit": "ms"},
                "peak_rss_mib": {"value": statistics.median(r["rss_mib"] for r in rounds),
                                 "unit": "MiB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"bench/run.py: {e}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "python": sys.version.split()[0],
                   "nproc": os.cpu_count(), "setups": setups, "rounds": rounds,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mean"):
        return metric.rsplit(".", 1)[1].split("_")[0]
    if metric.endswith("_per_cover"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark round in a fresh interpreter, started by run.py.

Usage: worker.py --workload W --seed N --t0 T --mode probe|round
                 --tmpdir DIR [--trace 0|1] [--trace-out PATH]

The interpreter puts the checkout's `src` on the path, imports the
workload and builds its inputs from the seed: that is the set-up, timed
from T (the parent's time.monotonic() just before it started this
process) to the first timed operation. A probe stops there. A round then
times each operation, reads the peak resident set size, checks every
answer against the benchmark's own computations, and prints one JSON
line. Times are calibrated to a reference interpreter speed (speed.py);
the raw ones are kept beside them. With --trace 1 the layers are wrapped
(tracing.py) after the set-up, and the per-layer metrics, with the
tracing's estimated overhead, join the line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "round"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--tmpdir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = importlib.import_module(f"wl_{args.workload}").Workload(args.seed, args.tmpdir)
    ops = workload.ops()
    setup_end = time.monotonic()
    probe = SpeedProbe()
    raw_setup = setup_end - args.t0
    setup = {"setup_s": raw_setup * probe.factor_now(), "raw_setup_s": raw_setup}
    if args.mode == "probe":
        print(json.dumps(setup))
        return 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
        tracer.active = True
        probe.on_sample = tracer.exclude
    probe.start()

    results, spans, failures = [], [], []
    for name, op in ops:
        a = time.monotonic()
        try:
            out = op()
        except Exception:  # an operation that raises counts as failed
            out = None
            failures.append((name, traceback.format_exc(limit=3)))
        spans.append((a, time.monotonic()))
        results.append(out)
    end = time.monotonic()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.sample()
    probe.stop()
    if tracer is not None:
        tracer.active = False

    op_ms = [probe.calibrate(a, b) * 1000 for a, b in spans]
    record = {
        **setup,
        "wall_s": sum(op_ms) / 1000,
        "raw_wall_s": end - spans[0][0] if spans else 0.0,
        "op_ms": op_ms,
        "raw_op_ms": [(b - a) * 1000 for a, b in spans],
        "reference_ms": probe.reference_ms(),
        "rss_mib": rss_mib,
        "attempted": len(ops),
        "failed": len(failures),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        # calibrated like the operations' times
        record["layers"]["trace.overhead_s"] = tracer.overhead_s() * probe.factor_now()
        record["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.dump(args.trace_out)
    for name, tb in failures:
        print(f"operation {name} failed:\n{tb}", file=sys.stderr)
    # a failed operation's result is None; checks speak of the others
    problems = workload.check(results)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    record["correct"] = not problems
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

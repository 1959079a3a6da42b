"""Steadiness check: run each workload repeatedly and report the spread of
every end-to-end metric against its bound in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--first-seed 1000]
                            [--against .bench_out/steady-earlier.json]

For each workload of BENCHMARK.json, run k uses seed first-seed + k and
the run length of BENCHMARK.json, one process at a time. The spread of a
metric is the distance between the first and third quartiles of its
values (statistics.quantiles(values, n=4)) as a share of their median;
it passes when it stays within the metric's bound, and the aim is a
third of the bound. With --against, the medians are also compared with
an earlier set, which they may not exceed by more than the bound. The
failed share of operations must repeat exactly. Results go to
.bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--against")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for k in range(args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(args.first_seed + k),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {args.first_seed + k}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} run {k}: {time.monotonic() - t:.1f}s "
                  + " ".join(f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                   "values": vals}
            if spread > bounds[name]:
                ok = False
            if workload in earlier:
                before = earlier[workload][name]["median"]
                row["vs_earlier"] = med / before - 1
                if med > before * (1 + bounds[name]):
                    ok = False
            rows[name] = row
            flag = "ok" if spread < bounds[name] / 3 else ("within" if spread <= bounds[name] else "OVER")
            extra = f" vs earlier {row['vs_earlier']:+.3f}" if "vs_earlier" in row else ""
            print(f"  {workload:8s} {name:13s} median {med:.4g} spread {spread:.3f} "
                  f"bound {bounds[name]} [{flag}]{extra}")
        report[workload] = rows
        if len(shares) > 1:
            print(f"  {workload}: the failed share differs between runs")
            ok = False
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"{'steady' if ok else 'NOT steady'}; details in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

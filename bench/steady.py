"""Steadiness check: run each workload under several seeds and report spreads.

    python3 bench/steady.py --seeds 10 [--workloads nf-long,dual-tree] [--out bench/baseline.json]

For every end-to-end metric it prints the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.  With --out
the per-seed values and summaries are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"python": sys.version.split()[0], "cpus": os.cpu_count(),
                     "run_seconds": spec["run_seconds"],
                     "seeds": [args.first_seed, args.first_seed + args.seeds - 1], "workloads": {}}
    for wl in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed), "--seconds",
                                         str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        entry = summary["workloads"][wl] = {"attempted": attempted, "failed": failed,
                                            "metrics": {}}
        print(f"{wl}: {attempted} ops attempted, {failed} failed")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                   "values": vs}
            flag = "" if spread <= bounds[m] / 3 else "  <-- above a third of the bound"
            print(f"  {m:12s} median {med:10.4f}  spread {spread:.4f}"
                  f"  (bound {bounds[m]}, third {bounds[m] / 3:.4f}){flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

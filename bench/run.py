"""artinkit benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload nf-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Single process, closed loop, one client.  With --trace 0 the workload runs in
a fresh interpreter with nothing wrapped and the end-to-end metrics of
BENCHMARK.json are reported; setup_s is measured in further fresh
interpreters that only import the package.  Every timing is scaled to a
reference machine speed by a calibration loop timed next to it
(calibrate.py), because the host's own speed drifts; raw values are printed
beside the scaled ones.  With --trace 1 the workload's
first cycles run four times in fresh interpreters, alternately untraced and
traced, and the per-layer metrics are reported; every pass must produce the
same reports byte for byte.  Every op's output is checked against
a truth computed by the benchmark.  The last line of output is one JSON
object: correct, attempted, failed, metrics.

Files: gen.py makes the seeded inputs and their truths (standard library
only), workloads.py turns them into timed ops and checks, child.py runs one
workload in its own interpreter, calibrate.py scales timings to a reference
machine speed, tracer.py wraps the library for the traced
run, steady.py runs every workload under several seeds and reports spreads,
layers.json maps each per-layer metric to the end-to-end metric it should
move, baseline.json holds steady.py's figures for the commit that added the
benchmark, and test_bench.py tests the benchmark (python3 -m pytest bench).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
HASH_SEED = "0"
SETUP_SAMPLES = 15
# untraced and traced passes alternate, so drift in machine speed hits both alike
TRACE_PASSES = ("fixed", "traced", "fixed", "traced")
RUN_LIMIT = 170  # seconds a whole run may take; every child gets what is left
IMPORT_PROBE = (
    "import time, calibrate; before = calibrate.loop_seconds(); t = time.perf_counter(); "
    "import artinkit, artinkit.cli; took = time.perf_counter() - t; "
    "print(took, calibrate.scale(took, before, calibrate.loop_seconds()))"
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    # bytecode is cached next to the sources, as an installed package has it,
    # so setup_s does not depend on how the caller's environment is set
    for name in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def setup_seconds(deadline: float) -> list[tuple[float, float]]:
    """(raw, scaled) import times of the package in fresh interpreters; one
    discarded first sample absorbs bytecode compilation."""
    env = child_env() | {"PYTHONPATH": SRC + os.pathsep + HERE}
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-s", "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=left(deadline),
                              check=True)
        raw, scaled = proc.stdout.split()
        samples.append((float(raw), float(scaled)))
    return samples[1:]


def child(args, mode: str, workdir: str, deadline: float, spans: str | None = None) -> dict:
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--src", SRC]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=left(deadline), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_block(specs, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def timed_run(args, spec, workdir: str, deadline: float) -> dict:
    setup = setup_seconds(deadline)
    res = child(args, "timed", workdir, deadline)
    setup_s = statistics.median(s for _, s in setup)
    metrics = metric_block(spec["end_to_end"], res | {"setup_s": setup_s})
    raw = res["raw"] | {"setup_s": statistics.median(r for r, _ in setup)}
    attempted, failed = res["attempted"], res["failed"]
    print(f"ops: {attempted} attempted in {res['cycles']} cycles, {res['busy_s']:.3f} s of op time;"
          f" {res['beyond_p90']} samples beyond p90")
    print(f"fail_ratio: {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    print(f"machine speed: ops ran {res['speed']:.3f}x the reference machine's time"
          f" (calibrate.py); metrics are scaled to the reference, raw values in brackets")
    for name, m in metrics.items():
        unscaled = f" [raw {raw[name]:.6g}]" if name in raw else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{unscaled}")
    print(f"report_sha256: {res['report_sha256']} over {attempted} reports")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(args, spec, workdir: str, deadline: float) -> dict:
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    passes = [child(args, mode, workdir, deadline, spans if mode == "traced" else None)
              for mode in TRACE_PASSES]
    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    overhead = sum(p["wall_s"] for p in traced) / sum(p["wall_s"] for p in plain)
    metrics = metric_block(spec["per_layer"],
                           traced[0]["layers"] | {"trace.overhead_ratio": overhead})
    same = len({p["report_sha256"] for p in passes}) == 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    walls = {kind: " ".join(f"{p['wall_s']:.3f}" for p in group)
             for kind, group in (("untraced", plain), ("traced", traced))}
    print(f"ops: {passes[0]['attempted']} per pass; untraced {walls['untraced']} s,"
          f" traced {walls['traced']} s; {traced[-1]['spans']} spans in {spans}")
    print(f"fail_ratio: {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    for line in traced[0]["fits"]:
        print(line)
    for name in traced[0]["absent"]:
        print(f"absent: {name} (its metrics read 0)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"report_sha256: {passes[0]['report_sha256']} over {passes[0]['attempted']} reports"
          f" ({'identical' if same else 'DIFFERENT'} in all {len(passes)} passes)")
    return {"correct": failed == 0 and same, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "artinkit", "__init__.py")):
        print(f"no artinkit sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    results = {}
    deadline = time.monotonic() + RUN_LIMIT * len(names)
    for name in names:
        args.workload = name
        print(f"workload: {name} seed: {args.seed} seconds: {args.seconds}"
              f" trace: {args.trace} hash_seed: {HASH_SEED} python: {sys.version.split()[0]}")
        workdir = os.path.join(OUT, f"{name}-seed{args.seed}-{os.getpid()}")
        t0 = time.perf_counter()
        try:
            run = traced_run if args.trace else timed_run
            results[name] = run(args, spec, workdir, deadline)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"benchmark run failed: {exc!r}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"wall: {time.perf_counter() - t0:.1f} s")
    if len(results) == 1:
        (result,) = results.values()
    else:  # one line for all workloads, metrics keyed workload/metric
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh interpreter; started by run.py, never by hand.

Modes:
  timed   closed loop, one client: whole cycles of ops until --seconds of op
          time and at least MIN_OPS ops; each cycle is generated before and
          checked after its ops are timed, and every latency is also scaled
          by the calibration loop run on either side of it (calibrate.py).
  fixed   the first `trace_cycles` cycles of the workload, untraced.
  traced  the same ops with every traced binding wrapped (tracer.py).

Prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate
import tracer as tracing
import workloads

MIN_OPS = 100
MAX_OP_SECONDS = 100.0  # stop early rather than overrun the run's time limit
WARMUP_OPS = 3


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank; q = 0.9 leaves a tenth of the samples above it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def run_ops(ops, results, calibrated: bool = False) -> None:
    """Run ops in order, appending (latency, scaled latency, output or exception).

    With `calibrated` the calibration loop runs before the first op and after
    each op, and the scaled latency uses the loops on either side of the op;
    otherwise the scaled latency is the raw one.
    """
    clock = time.perf_counter
    before = calibrate.loop_seconds() if calibrated else 0.0
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out = exc
            traceback.print_exc()
        latency = clock() - t0
        if calibrated:
            after = calibrate.loop_seconds()
            results.append((latency, calibrate.scale(latency, before, after), out))
            before = after
        else:
            results.append((latency, latency, out))


def check_ops(ops, results, digest) -> int:
    """Check each output against its truth, hash its report; returns failures."""
    failed = 0
    for op, (_, _, out) in zip(ops, results):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            reason = op.check(out)
            digest.update(op.report(out).encode())
        if reason:
            failed += 1
            print(f"FAIL {op.kind} size={op.size}: {reason}", file=sys.stderr)
    return failed


def timed(wl, seconds: float) -> dict:
    run_ops(wl.cycle(-1)[:WARMUP_OPS], [])
    digest = hashlib.sha256()
    raw: list[float] = []
    scaled: list[float] = []
    raw_rates: list[float] = []
    rates: list[float] = []
    failed = 0
    while (sum(raw) < seconds or len(raw) < MIN_OPS) and sum(raw) < MAX_OP_SECONDS:
        ops, results = wl.cycle(len(rates)), []
        run_ops(ops, results, calibrated=True)
        failed += check_ops(ops, results, digest)
        raw += [r[0] for r in results]
        scaled += [r[1] for r in results]
        raw_rates.append(len(ops) / sum(r[0] for r in results))
        rates.append(len(ops) / sum(r[1] for r in results))
    # every cycle runs the same mix, so the median cycle's rate is the
    # throughput least disturbed by a passing stall
    p90 = nearest_rank(scaled, 0.9)
    return {
        "attempted": len(raw),
        "failed": failed,
        "cycles": len(rates),
        "busy_s": sum(raw),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1e3 * nearest_rank(scaled, 0.5),
        "op_p90_ms": 1e3 * p90,
        "beyond_p90": sum(lat > p90 for lat in scaled),
        "raw": {
            "ops_per_s": statistics.median(raw_rates),
            "op_p50_ms": 1e3 * nearest_rank(raw, 0.5),
            "op_p90_ms": 1e3 * nearest_rank(raw, 0.9),
        },
        "speed": sum(raw) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": digest.hexdigest(),
    }


def fixed(wl, traced: bool, spans_path: str | None) -> dict:
    ops = [op for c in range(wl.trace_cycles) for op in wl.cycle(c)]
    results: list = []
    tr = tracing.Tracer() if traced else None
    if tr:
        tr.install()
    try:
        run_ops(ops, results)
    finally:
        if tr:
            tr.restore()
    digest = hashlib.sha256()
    out = {
        "attempted": len(ops),
        "failed": check_ops(ops, results, digest),
        "wall_s": sum(r[0] for r in results),
        "report_sha256": digest.hexdigest(),
    }
    if tr:
        from artinkit import decomposition

        cap = os.environ.get("ARTIN_MAX_CYCLES") or getattr(decomposition, "DEFAULT_CYCLE_CAP", 0)
        graph_ops = sum(op.kind in ("analyze", "aut-gens") for op in ops)
        diagram_ops = sum(op.kind == "disc" for op in ops)
        out["layers"] = tr.metrics(graph_ops, diagram_ops, int(cap))
        out["fits"] = tr.fits()
        out["absent"] = tr.absent
        out["spans"] = len(tr.spans)
        if spans_path:
            tr.write_spans(spans_path)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("timed", "fixed", "traced"))
    p.add_argument("--workdir", required=True)
    p.add_argument("--src", required=True, help="the src directory artinkit must come from")
    p.add_argument("--spans")
    args = p.parse_args()

    import artinkit

    if not os.path.abspath(artinkit.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"artinkit imported from {artinkit.__file__}, not {args.src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.mode == "timed":
        out = timed(wl, args.seconds)
    else:
        out = fixed(wl, args.mode == "traced", args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

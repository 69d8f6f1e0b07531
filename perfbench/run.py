#!/usr/bin/env python3
"""TiFL benchmark: build the driver, run one workload, gate it, report.

    python3 perfbench/run.py --workload million_churn|cnn_sync|tree_durable
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--size full|tiny]

Run from the repository root.  Builds perfbench/ (the driver plus the
library sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then starts one fresh driver process per
invocation until --seconds have passed (at least MIN_REPEATS of them).
With --trace 1 it adds one traced invocation whose nn layers run behind a
timing decorator.

Every invocation at one seed must reproduce the same outputs bit for bit,
the traced one included; one that differs or fails a check of its own is
counted as failed, never dropped.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics are
the end-to-end metrics (medians over the untraced invocations) with
--trace 0, and the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
MIN_REPEATS = 3
INVOCATION_TIMEOUT_S = 150

WORKLOADS = ("million_churn", "cnn_sync", "tree_durable")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "client_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "virtual_tta_s": "virtual_s",
    "final_accuracy": "fraction",
}

NN_LAYERS = ("Conv2D", "MaxPool2D", "Dropout", "Flatten", "Dense")

# Layer metrics read from the untraced invocations (medians), in the order
# the layers sit in the stack.
LAYER_FROM_RUNS = {
    "data.synth_s": "s",
    "fl.population_s": "s",
    "fl.population_rss_mb": "MB",
    "core.profile_tier_s": "s",
    "setup.cpu_s": "s",
    "fl.eval_s": "s",
    "fl.eval_calls": "count",
    "fl.train_s": "s",
    "fl.train_calls": "count",
    "fl.aggregate_s": "s",
    "fl.select_s": "s",
    "fl.loop_other_s": "s",
    "fl.run_cpu_s": "s",
    "tensor.gemm.small_calls": "count",
    "tensor.gemm.stream_calls": "count",
    "tensor.gemm.blocked_calls": "count",
    "tensor.gemm.blocked_share": "fraction",
    "tensor.workspace_bytes": "bytes",
    "util.pool.dispatch_p50_us": "us",
    "util.pool.dispatch_p99_us": "us",
    "util.pool.busy_share": "fraction",
    "host.steal_share": "fraction",
    "sim.events_popped": "count",
    "sim.pop_ns_p50": "ns",
    "sim.schedule_ns_p50": "ns",
    "sim.queue_depth_max": "count",
    "fl.pool.lease_misses": "count",
    "fl.pool.hit_share": "fraction",
    "fl.pool.evictions": "count",
    "fl.pool.peak_live_clients": "count",
    "fl.hier.events": "count",
    "fl.hier.uplinks": "count",
    "fl.hier.downlinks": "count",
    "fl.hier.root_link_bytes": "bytes",
    "fl.checkpoint.writes": "count",
    "fl.checkpoint.bytes": "bytes",
    "fl.checkpoint.write_s": "s",
    "fl.checkpoint.ms_per_write": "ms",
    "sim.fault.lost_updates": "count",
    "sim.fault.dropped_updates": "count",
    "sim.fault.failed_share": "fraction",
}

# Layer metrics of the traced invocation.
LAYER_FROM_TRACE = {}
for _layer in NN_LAYERS:
    LAYER_FROM_TRACE[f"nn.{_layer}.fwd_train_s"] = "s"
    LAYER_FROM_TRACE[f"nn.{_layer}.fwd_eval_s"] = "s"
    LAYER_FROM_TRACE[f"nn.{_layer}.bwd_s"] = "s"
    LAYER_FROM_TRACE[f"nn.{_layer}.calls"] = "count"
LAYER_FROM_TRACE["trace.overhead_s"] = "s"

# Outputs every invocation of one workload at one seed must reproduce.
FINGERPRINT = ("model_hash", "series_hash", "virtual_tta_s", "final_accuracy")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit(f"perfbench: no src/ under {ROOT}; run from a "
                         "checkout of the repository")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise SystemExit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(out, "tifl_bench")


def invoke(exe, args, workdir, traced):
    """One fresh driver process; returns its record, or None if it died."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", "1" if traced else "0",
           "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(cmd)} timed out")
        return None
    if done.returncode != 0 or not done.stdout.strip():
        log(f"perfbench: {' '.join(cmd)} exited {done.returncode}\n"
            f"{done.stderr}")
        return None
    record = json.loads(done.stdout.strip().splitlines()[-1])
    log(f"  trace {int(traced)}: wall {record['wall_s']:.3f} s, "
        f"setup {record['setup_s']:.3f} s, dispatch p50/p99 "
        f"{record['layers']['util.pool.dispatch_p50_us']:.0f}/"
        f"{record['layers']['util.pool.dispatch_p99_us']:.0f} us, steal "
        f"{record['layers']['host.steal_share']:.1%}")
    return record


def gate(records):
    """Per-invocation failure reasons; an empty list means it passed.

    An invocation fails on its own checks (finite weights, target reached
    before the last version, loadable last checkpoint) or when any
    fingerprint differs from the first record's: the seed fixes every
    output bit.  A record of None stands for an invocation that produced no
    output.
    """
    reference = next((r for r in records if r is not None), None)
    reasons = []
    for record in records:
        if record is None:
            reasons.append(["no_output"])
            continue
        failed = list(record["failed_checks"])
        for key in FINGERPRINT:
            if record[key] != reference[key]:
                failed.append(f"{key}_mismatch")
        reasons.append(failed)
    return reasons


def median(values):
    return statistics.median(values) if values else 0.0


def metrics_of(untraced, traced, trace):
    """End-to-end (trace 0) or per-layer (trace 1) metrics by name."""
    if not trace:
        return {name: {"value": median([r[name] for r in untraced]),
                       "unit": unit}
                for name, unit in END_TO_END.items()}
    out = {name: {"value": median([r["layers"][name] for r in untraced]),
                  "unit": unit}
           for name, unit in LAYER_FROM_RUNS.items()}
    for name, unit in LAYER_FROM_TRACE.items():
        if name == "trace.overhead_s":
            value = traced["wall_s"] - median([r["wall_s"] for r in untraced])
        else:
            value = traced["layers"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    exe = build()
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)

    records = []
    start = time.monotonic()
    while (len(records) < MIN_REPEATS or
           time.monotonic() - start < args.seconds):
        records.append(invoke(exe, args, workdir, traced=False))
    traced = invoke(exe, args, workdir, traced=True) if args.trace else None
    everything = records + ([traced] if args.trace else [])

    reasons = gate(everything)
    failed = sum(1 for r in reasons if r)
    for i, why in enumerate(reasons):
        if why:
            log(f"perfbench: invocation {i} failed: {', '.join(why)}")
    untraced = [r for r in records if r is not None]
    if not untraced or (args.trace and traced is None):
        raise SystemExit("perfbench: no invocation produced output")

    metrics = metrics_of(untraced, traced, args.trace)
    for name, metric in metrics.items():
        log(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(everything),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

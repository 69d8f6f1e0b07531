#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

Run from the repository root.  For every workload in BENCHMARK.json it
runs perfbench/run.py with --trace 0 and --trace 1 and asserts that

  * the last stdout line is {"correct", "attempted", "failed", "metrics"},
    the run passed its gate, and every end-to-end (trace 0) or per-layer
    (trace 1) metric BENCHMARK.json names is printed, with its unit, as a
    finite number and nothing else is;
  * the driver's step-by-step timed setup reproduces the bench presets'
    bench::build_scenario / build_virtual_scenario bit for bit;

and that the correctness gate trips when it is fed a mismatched hash.
Exits 0 when every check holds.
"""

import copy
import importlib.util
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def run_benchmark(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def driver_record(exe, workdir, workload, reference_setup):
    cmd = [exe, "--workload", workload, "--seed", "1", "--size", "tiny",
           "--workdir", workdir]
    if reference_setup:
        cmd.append("--reference-setup")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run = load_run_module()
    failures = []

    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = run_benchmark(workload, trace)
            check(result is not None, f"{label}: exits 0 with a result",
                  failures)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly the four keys", failures)
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{label}: gate passed ({result['failed']} of "
                  f"{result['attempted']} failed)", failures)
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  f"{label}: prints exactly the {len(expected[trace])} "
                  "metrics BENCHMARK.json names", failures)
            wrong = [name for name, unit in expected[trace].items()
                     if name not in metrics or
                     metrics[name].get("unit") != unit or
                     not isinstance(metrics[name].get("value"), (int, float))
                     or not math.isfinite(metrics[name]["value"])]
            check(not wrong, f"{label}: every metric has its unit and a "
                  f"finite value {wrong if wrong else ''}", failures)

        exe = run.build()
        workdir = os.path.join(run.build_dir(), "work")
        timed = driver_record(exe, workdir, workload, reference_setup=False)
        preset = driver_record(exe, workdir, workload, reference_setup=True)
        check(all(timed[k] == preset[k] for k in run.FINGERPRINT),
              f"{workload}: timed setup reproduces the bench preset "
              f"({timed['model_hash']} vs {preset['model_hash']})", failures)

        # The gate must trip on a hash that differs within one seed, and
        # count the invocation as failed rather than drop it.
        tampered = copy.deepcopy(timed)
        tampered["model_hash"] = format(int(timed["model_hash"], 16) ^ 1,
                                        "016x")
        reasons = run.gate([timed, tampered, timed])
        check(reasons == [[], ["model_hash_mismatch"], []],
              f"{workload}: gate flags a mismatched model hash", failures)

    print(f"\n{len(failures)} check(s) failed" if failures
          else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

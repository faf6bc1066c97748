#!/usr/bin/env python3
"""Smoke test of the layered benchmark.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at smoke-test scale (--tiny, one
second), untraced and traced, on two seeds. Each run must exit 0, print
the host line, pass the correctness gate with no failed operation, and
report exactly the metrics BENCHMARK.json names, each with its unit. The
second seed must report the same metric names as the first.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
HOST_KEYS = {"nproc", "cpu", "kernel_tier", "build_type", "workload", "seed"}


def run(workload, seed, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def check(workload, seed, trace, spec):
    where = f"{workload} seed={seed} trace={trace}"
    code, lines, stderr = run(workload, seed, trace)
    errors = []
    if code != 0:
        errors.append(f"{where}: exit code {code}\n{stderr[-2000:]}")
        return errors, None
    host = next((json.loads(line)["host"] for line in lines
                 if line.startswith('{"host"')), None)
    if host is None or not HOST_KEYS <= host.keys():
        errors.append(f"{where}: host line missing or incomplete")
    elif host["seed"] != seed or host["workload"] != workload:
        errors.append(f"{where}: host line names another run")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correctness gate failed: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted must be a whole number >= 1")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        if name in wanted and metric.get("unit") != wanted[name]:
            errors.append(f"{where}: {name} unit {metric.get('unit')} "
                          f"!= {wanted[name]}")
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors, sorted(got)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            names = {}
            for seed in SEEDS:
                found, names[seed] = check(workload, seed, trace, spec)
                errors += found
            if names[SEEDS[0]] != names[SEEDS[1]]:
                errors.append(f"{workload} trace={trace}: seeds {SEEDS} "
                              "report different metric names")
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not errors else 'FAILED'}", flush=True)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

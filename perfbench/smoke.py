#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Usage: python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, with the default
seed (so the byte-identity reference is exercised too), and checks that
every run exits 0 with all checks passing and that the metric names and
units it prints are exactly those of BENCHMARK.json.  Also checks that
perfbench/layers.json (the layer -> end-to-end metric -> workload map)
covers the same per-layer metrics and workloads.  Takes about a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_layer_map(spec: dict, layers: dict) -> list[str]:
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    if sorted(layers["workloads"]) != sorted(workloads):
        problems.append("layers.json workloads differ from BENCHMARK.json")
    bench_layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    map_layers = [(m["name"], m["unit"], m["better"]) for m in layers["per_layer"]]
    if bench_layers != map_layers:
        problems.append("layers.json per-layer metrics differ from BENCHMARK.json")
    for m in layers["per_layer"]:
        if not set(m["moves"]) <= e2e or not set(m["on"]) <= set(workloads):
            problems.append(f"{m['name']}: unknown metric or workload in its map entry")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed: {proc.stderr.strip()[-300:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], float) or not math.isfinite(v["value"]):
            problems.append(f"{label}: {k} = {v['value']!r}")
    if not trace and any(v["value"] <= 0 for v in result["metrics"].values()):
        problems.append(f"{label}: an end-to-end metric is not positive")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)
    problems = check_layer_map(spec, layers)
    print(("FAIL" if problems else "PASS") + " layer map")
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(("FAIL" if found else "PASS") + f" {w['name']} trace={trace}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload, in both trace modes, it runs run.py at the tiny input
size and asserts that the last stdout line is the result object, that the
correctness gate passed, and that exactly the metrics BENCHMARK.json names
are printed, each with its unit. It also checks that BENCHMARK.json's
per-layer list matches layers.LAYER_MAP, and that the benchmark exits
non-zero without a result when the program is not next to it.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, expected: dict, label: str):
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1):
        raise AssertionError(f"{label}: gate failed: {result}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            raise AssertionError(f"{label}: {name} unit {m.get('unit')!r}, "
                                 f"expected {expected[name]!r}")
        if not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            raise AssertionError(f"{label}: {name} value {m.get('value')!r}")


def check_layer_map(spec: dict):
    sys.path.insert(0, ROOT)
    from perfbench.layers import LAYER_MAP

    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    mapped = {k: (unit, better) for k, (unit, better, _, _) in
              LAYER_MAP.items()}
    if listed != mapped:
        raise AssertionError(
            f"BENCHMARK.json per_layer differs from LAYER_MAP: "
            f"{sorted(set(listed.items()) ^ set(mapped.items()))}")


def check_refuses_without_program():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark must exit non-zero and print no result."""
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "long_tail", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError("benchmark ran without the program: "
                             f"exit {proc.returncode}, stdout {lines[-1:]}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_layer_map(spec)
    check_refuses_without_program()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, e2e), (1, per_layer)):
            check_result(_run(ROOT, w, trace), expected, f"{w} trace={trace}")
            print(f"ok {w} trace={trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

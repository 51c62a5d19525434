#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on seed 1 and untraced on seed 2,
each with ``--tiny --seconds 1``. Each run must exit 0, pass its checks and
end in one JSON line whose metrics are exactly those BENCHMARK.json names,
with the same units. A copy of BENCHMARK.json and perfbench/ alone, without
``src/``, must exit non-zero and print no result. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(argv, cwd) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = f"{workload} seed {seed} trace {trace}"
            rc, lines = run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {rc}, no JSON result line")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if rc != 0 or set(result) != RESULT_KEYS or not result["correct"]:
                problems.append(f"{label}: exit {rc}, result {lines[-1][:200]}")
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{label}: attempted {result['attempted']}, "
                                f"failed {result['failed']}")
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                problems.append(f"{label}: metrics differ; missing {missing}, extra {extra}")
            print(f"{label}: exit {rc}, {len(units)} metrics", flush=True)

    bare = os.path.join(ROOT, ".bench_work", f"smoke-bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(["perfbench/run.py", "--workload", "train", "--seed", "1",
                         "--seconds", "1", "--trace", "0"], bare)
        if rc == 0 or any(line.startswith("{") for line in lines):
            problems.append(f"bare directory: exit {rc}, output {lines[-1:]}")
        print(f"bare directory: exit {rc}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

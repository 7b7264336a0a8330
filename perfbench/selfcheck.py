"""Tiny-scale self-check of the benchmark: every named metric, with its unit.

Runs each workload of ``BENCHMARK.json`` for one second on BT(256), once
untraced and once traced, and fails unless each run is correct, has no
failed request, and prints exactly the ``end_to_end`` (untraced) or
``per_layer`` (traced) metrics with the units ``BENCHMARK.json`` gives.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "256",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if run.returncode != 0:
        return [f"{workload} trace={trace}: exit {run.returncode}: {run.stderr.strip()[-500:]}"]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: {result['attempted']} attempted, "
                        f"{result['failed']} failed, correct={result['correct']}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        missing = sorted(expected.keys() - got.keys())
        extra = sorted(got.keys() - expected.keys())
        units = sorted(n for n in expected.keys() & got.keys() if expected[n] != got[n])
        problems.append(f"{workload} trace={trace}: missing {missing}, unexpected {extra}, wrong units {units}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        trace: {metric["name"]: metric["unit"] for metric in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check(workload["name"], trace, expected[trace])
    for problem in problems:
        print(problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and asserts that each run exits 0 with a correct result that carries exactly
the metric names BENCHMARK.json declares, each with its declared unit.  Then
runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's files and asserts that it fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_workloads(spec: dict) -> list[str]:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(n for n in set(units) & set(expected[trace])
                               if units[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing} extra {extra} wrong unit {wrong}")
            print(f"selfcheck: {where}: {len(units)} metrics", flush=True)
    return problems


def check_bare(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = HERE / ".selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".selfcheck-*", ".work-*",
                                                          "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print("selfcheck: bare directory fails as it should", flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_workloads(spec) + check_bare(spec)
    for p in problems:
        print(f"selfcheck FAIL: {p}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

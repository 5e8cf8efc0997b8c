"""Smoke test of the benchmark itself.

Run from the checkout root (takes a few minutes)::

    python3 perfbench/smoke.py

Checks, against ``BENCHMARK.json``:

* a one-second run of every workload, untraced and traced, exits 0 and
  prints as its last line a result with every declared metric, by name
  and unit, and no failed operation;
* a figure3 run told to expect a wrong key byte reports every campaign
  as a failed operation (and still exits 0);
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, label: str) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise AssertionError(f"{label}: malformed result {result}")
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    want = {entry["name"]: entry["unit"] for entry in declared}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} != declared {want}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            result = result_of(
                bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace),
                label,
            )
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: failed operations {result}")
            check_metrics(result, declared, label)
            print(f"ok  {label}: {result['attempted']} operations", flush=True)

    label = "figure3-stream expecting key byte 0x00"
    result = result_of(
        bench("--workload", "figure3-stream", "--seed", "7", "--seconds", "1",
              "--trace", "0", "--expect-key-byte", "0x00"),
        label,
    )
    if result["correct"] or result["failed"] != result["attempted"]:
        raise AssertionError(f"{label}: wrong key not reported as failures: {result}")
    print(f"ok  {label}: {result['failed']}/{result['attempted']} failed", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".perfbench-tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "figure3-stream", "--seed", "7", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  a directory without the sources exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

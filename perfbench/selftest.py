"""Self-test of the benchmark: every workload at a reduced size.

    python3 perfbench/selftest.py

Runs each workload untraced and traced on a 40-sample corpus for two
seconds and checks the result line: every metric BENCHMARK.json names is
present, finite and carries its declared unit, and no operation failed.
Then runs each workload with every forward pass made to raise, and checks
that the result line reports each attempted operation as failed and the
run as incorrect. Exits 0 when every run passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def result_line(workload: str, trace: int, *extra: str):
    """Run the benchmark at reduced size; the parsed result, or a problem."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--samples", "40", *extra],
        capture_output=True, text=True, timeout=170, check=False)
    where = " ".join([workload, "--trace", str(trace), *extra])
    if proc.returncode != 0:
        return None, f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, f"{where}: result keys {sorted(result)}"
    return result, where


def check_fault(workload: str) -> list:
    result, where = result_line(workload, 0, "--inject-fault")
    if result is None:
        return [where]
    if not (result["correct"] is False and result["attempted"] >= 1
            and result["failed"] == result["attempted"]):
        return [f"{where}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"]
    return []


def check_run(workload: str, trace: int, declared: list) -> list:
    result, where = result_line(workload, trace)
    if result is None:
        return [where]
    problems = []
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append(f"{where}: metric names {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {value!r} is not finite")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
    if not trace and metrics.get("ok_frac", {}).get("value") != 1.0:
        problems.append(f"{where}: ok_frac is not 1, so failed_frac is not 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    # train_text is not in BENCHMARK.json (see README.md) but stays runnable
    for workload in [w["name"] for w in spec["workloads"]] + ["train_text"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            found = check_run(workload, trace, spec[section])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
        found = check_fault(workload)
        print(f"{workload} --inject-fault: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

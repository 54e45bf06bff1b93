#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
every metric ``BENCHMARK.json`` names is printed with its declared unit,
besides the printed ``error_rate``.  Then corrupts one stored expected
output and checks that the run reports the mismatch: ``error_rate`` above 0
and ``correct`` false.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def run_tiny(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny"])
    text = out.getvalue()
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}\n{text}")
    return json.loads(text.strip().splitlines()[-1]), text


def printed(text: str, name: str, unit: str) -> bool:
    """The human-readable report has a line 'name value unit'."""
    pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
    return re.search(pattern, text, re.MULTILINE) is not None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(run.WORKLOADS)}")

    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, text = run_tiny(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/{trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}/{trace}: failed jobs at the tiny size\n{text}")
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{workload}/{trace}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not printed(text, m["name"], m["unit"]):
                    problems.append(f"{workload}/{trace}: {m['name']} not printed in {m['unit']}")
            if trace == 0 and not printed(text, "error_rate", "ratio"):
                problems.append(f"{workload}: error_rate not printed")
        print(f"selftest: {workload}: metric names and units ok")

    # one corrupted expected output must be caught
    original = workloads.load_expected

    def corrupted(name: str) -> dict:
        table = original(name)
        key = workloads.argv_key(workloads.certify_argv(*workloads.CERTIFY_POOL_TINY[0]))
        table[key] = dict(table[key], stdout=table[key]["stdout"].replace("true", "false", 1))
        return table

    workloads.load_expected = corrupted
    try:
        result, text = run_tiny("certify-families", 0)
    finally:
        workloads.load_expected = original
    rate = re.search(r"^\s+error_rate\s+(\S+)\s+ratio", text, re.MULTILINE)
    if result["correct"] or not result["failed"] or not rate or float(rate.group(1)) <= 0:
        problems.append("a corrupted expected output did not raise error_rate above 0")
    elif "MISMATCH" not in text:
        problems.append("the mismatch was not printed")
    else:
        print(f"selftest: corrupted expected output caught, error_rate {rate.group(1)}")

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

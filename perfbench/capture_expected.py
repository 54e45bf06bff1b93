#!/usr/bin/env python3
"""Write the expected exit code and stdout of every CLI job the benchmark
runs, tiny sizes included, to ``perfbench/expected/<workload>.json``.

    python3 perfbench/capture_expected.py

The stored files were captured once, at the commit that added the benchmark;
later commits must reproduce them byte for byte.  Re-capture only when a
change to the output is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def commands() -> dict[str, list[list[str]]]:
    certify = [workloads.certify_argv(*e)
               for e in workloads.CERTIFY_POOL + workloads.CERTIFY_POOL_TINY]
    linearize = [["linearize", "--example", "ex4.1", "--order", str(order)]
                 for order in (workloads.ROUNDTRIP_ORDER, workloads.ROUNDTRIP_ORDER_TINY)]
    forms = workloads.forms_cli_argvs() + [list(a) for a in workloads.FORMS_CLI_TINY]
    return {
        "certify-families": certify,
        "linearize-roundtrip": linearize,
        "forms-integrability": forms,
    }


def main() -> int:
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for workload, argvs in commands().items():
        table = {}
        for argv in argvs:
            code, out, err = workloads.run_cli(argv)
            if err:
                raise SystemExit(f"{argv}: unexpected stderr {err!r}")
            table[workloads.argv_key(argv)] = {"exit": code, "stdout": out}
        path = os.path.join(workloads.EXPECTED_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(table)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())

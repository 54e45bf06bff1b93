"""The benchmark's own self-test, run as a tier-1 test.

``perfbench/spans.py`` wraps named entry points of the library and the
workloads check every job's output against ``perfbench/expected/``, so a
refactor that drops a wrapped name or changes an output fails here before
any benchmark run.  The self-test takes about ten seconds.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_exits_0():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

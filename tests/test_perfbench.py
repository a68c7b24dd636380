"""The benchmark harness's own tests, run against the library as it stands.

They pin the trace targets the harness patches and the per-pair alignment
calls it counts, so a library change that breaks the benchmark fails here
too.  They run in a subprocess because `perfbench/tests/conftest.py` and
`tests/conftest.py` cannot share one pytest session.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_harness_tests_pass():
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "perfbench/tests"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]

"""The benchmark's output checkers still accept what the library writes."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # one quick scenario per workload, each checker fed clean and perturbed
    # output; writes only under the git-ignored .perfbench_runs/
    run = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr

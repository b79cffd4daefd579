"""The traced benchmark run completes and verifies its payloads.

The span recorder in ``bench/spans.py`` looks up package functions by name,
so renaming or deleting one of them breaks the traced run; this test makes
that a test failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# zero_mode_modules runs the linalg and modfun path, theta_character the
# fock, cohomology and qseries path; capped_derham and torus_sl2 run
# capped and torus cohomology, through the charge's operator
@pytest.mark.parametrize(
    "workload", ["zero_mode_modules", "theta_character", "capped_derham", "torus_sl2"]
)
def test_traced_bench_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "2", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True

"""The committed benchmark still runs against the current code.

`coperbench/run.py` drives `coper` through paths the other tests do not
take: its decode warm-up calls `Transformer.generate_greedy`, its tracer
names methods of the model at import, and its train workloads check the
gradients and the loss of a training pass independently of `coper`'s own
code.  A short run of every workload covers these, along with every
correctness check the benchmark applies to its passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pair-train", "single-train", "pair-decode"])
def test_workload_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "coperbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0

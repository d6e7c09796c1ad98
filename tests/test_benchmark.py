"""The committed benchmark still runs against the current code.

`coperbench/run.py` drives `coper` through paths the other tests do not
take: its decode warm-up calls `Transformer.generate_greedy`, and its tracer
names methods of the model at import.  A short pair-decode run covers both,
along with every correctness check the benchmark applies to its passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pair_decode_run_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "coperbench/run.py", "--workload", "pair-decode", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0

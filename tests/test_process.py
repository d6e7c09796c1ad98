"""What importing `coper` sets up in the process: the COPER_THREADS cap on
BLAS threads, and glibc allocator thresholds under which a repeated training
step reuses its memory instead of faulting it in again.

Each test runs in a fresh interpreter, since both settings act when the
package is first imported.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _python(code: str, **env) -> dict:
    """The JSON object a fresh interpreter prints after running `code`."""
    environ = {k: v for k, v in os.environ.items() if k not in THREAD_VARS and k != "COPER_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                         text=True, timeout=60, check=True)
    return json.loads(out.stdout.splitlines()[-1])


OPENBLAS_THREADS = """
import ctypes, glob, json, os
import coper.cli
import numpy
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.restype = ctypes.c_int
            threads = getter()
print(json.dumps({"threads": threads}))
"""


def test_coper_threads_caps_blas_when_the_cli_is_imported():
    threads = _python(OPENBLAS_THREADS, COPER_THREADS="1")["threads"]
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS, which reports its thread count, is not present")
    assert threads == 1


REPEATED_STEPS = """
import json, resource
import numpy as np
import coper
from coper import autodiff as ad
from coper.model import Transformer
from coper.profiles import get_profile

model = Transformer(get_profile("single-period").settings("desk").model)
rng = np.random.default_rng(0)
tokens = rng.integers(0, model.config.vocab_size, (64, 43))
labels = rng.integers(0, model.config.vocab_size, (64, 43))
mask = np.ones((64, 43), dtype=np.float32)

def step(extents=None, firsts=None):
    with ad.Tape() as tape:
        loss = ad.cross_entropy(model.forward(tokens, extents, firsts), labels, mask)
    tape.backward(loss)

def faults(batches):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for window in batches:
        step(*window)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

step()
repeated = faults([()] * 5)
# Five steps of different packed lengths, each shorter than the warm-up's.
ragged = [rng.integers(lo, 44, 64) for lo in (1, 10, 20, 30, 40)]
assert len({int(e.sum()) for e in ragged}) == 5
# Five more whose last layer reads a different number of tokens each.
read = [(e, rng.integers(0, e)) for e in ragged]
assert len({int((e - f).sum()) for e, f in read}) == 5
print(json.dumps({"repeated": repeated, "ragged": faults([(e,) for e in ragged]),
                  "read": faults(read)}))
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are set only under glibc on Linux")
def test_a_repeated_training_step_does_not_fault():
    # Steps whose packed token count T varies must reuse memory as well, and
    # so must steps whose last layer runs on a varying share of the tokens.
    faults = _python(REPEATED_STEPS)
    assert faults["repeated"] < 1000 and faults["ragged"] < 1000 and faults["read"] < 1000, faults

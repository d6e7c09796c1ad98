"""Composite-periodicity benchmark toolkit.

Generates controlled periodic-sequence corpora with Hollow and
Extrapolation OOD splits, and trains a small decoder-only transformer with
pluggable positional encodings on them (pure numpy, no framework).

Importing the package sets up the whole process (`_set_up_process`):
`COPER_THREADS` caps BLAS threads, and under glibc the allocator's trim
and mmap thresholds are pinned.
"""

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_up_process() -> None:
    """Cap BLAS threads at COPER_THREADS, and keep freed memory mapped.

    The cap must reach the environment before numpy loads BLAS; a thread
    variable that is already set wins.

    Every training or decode step frees and reallocates the same working
    set of large temporaries.  Under glibc's dynamic thresholds each step's
    freed arrays go back to the kernel, and the next step faults them in
    and zeroes them again.  So the heap keeps up to 1 GiB free before it
    trims, and arrays under 32 MiB, glibc's ceiling on 64-bit, come from
    the heap instead of an mmap of their own.  The desk profiles' per-step
    arrays stay well under that: `feed_forward` walks the FFN hidden in
    blocks of about 256 KiB instead of making the whole array, about 25 MB
    for a 128-row teacher-forced batch.
    """
    import ctypes
    import os
    import sys

    cap = os.environ.get("COPER_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)

    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):  # not glibc: its mallopt differs or is absent
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_TRIM_THRESHOLD, 1 << 30), (_M_MMAP_THRESHOLD, 32 << 20)):
        if mallopt(param, value) != 1:
            raise RuntimeError(f"mallopt({param}, {value}) refused")


_set_up_process()

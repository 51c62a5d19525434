"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark was defined on (2 shared x86-64 cores) changes speed
by up to 2x over minutes: a baseline pass took 0.77 s in one stretch and
1.5 s three minutes later. In a 3-minute trial, 30-s medians of that pass
swung by +-23 %, while the same medians divided by the time of a kernel of
this mix, measured around each pass, stayed within +-8 %. ``run.py``
therefore scales each measured time by ``NOMINAL_S / kernel seconds``, which
expresses it at the machine speed at which the kernel takes ``NOMINAL_S``.

The kernel mixes the three kinds of work the workloads do, in about equal
time: small numpy calls from a Python loop (the baseline's per-frame
correlation), float32 mask-and-select over an 8 MB activation (the
ReLU/dropout pair) and a float32 GEMM with conv2's inner dimension. Its code
and inputs are fixed, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the benchmark was defined on; it only sets
# the scale of the reported numbers.
NOMINAL_S = 0.06


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time.

    It builds its inputs afresh and frees them, so it adds nothing to the
    memory the passes use; its own peak (~25 MB) stays below theirs.
    """
    start = time.perf_counter()
    z = np.full(128, 0.5 + 0.5j)
    for _ in range(4000):
        complex(np.mean(z[0:128:2] * z[1:128:2]))
    act = np.full((32, 256, 2, 129), 0.75, dtype=np.float32)
    for _ in range(6):
        np.where(act > 0.5, act, np.float32(0))
    del act
    patches = np.full((1024, 1536), 0.5, dtype=np.float32)
    weights = np.full((80, 1536), 0.25, dtype=np.float32)
    for _ in range(8):
        patches @ weights.T
    return time.perf_counter() - start

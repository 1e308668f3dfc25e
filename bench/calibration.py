"""Machine-speed calibration of the end-to-end timings.

The benchmark machine's speed drifts by 10-50% over tens of seconds (a 2-vCPU
VM whose neighbours' load comes and goes), in process CPU time as much as in
wall time, so runs minutes apart disagree however long each is.  A fixed
kernel of small numpy operations and Python-level loops, which uses no
eigenbound code, is timed before every op.  The op timings are scaled by
`speed()` to what they would be on a machine running the kernel in K_REF_S;
interleaved with the same work, the scaled pass time of the infinite workload
varied 2% between 20-second windows where the raw time varied 16%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

K_REF_S = 0.005


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 2001)
    acc = 0.0
    for k in range(80):
        acc += float(np.cumsum(np.exp(-k * 1e-3 * x) * np.sin(x))[-1])
        acc += sum(i * 0.5 for i in range(200))
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """K_REF_S over the mean kernel time, the top and bottom tenth dropped:
    above 1 when the machine ran faster than the reference."""
    s = sorted(samples)
    cut = len(s) // 10
    return K_REF_S / statistics.fmean(s[cut:len(s) - cut])

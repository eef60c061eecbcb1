"""Machine-speed calibration: times on a steady clock.

The benchmark runs on shared machines whose speed drifts: the same
enumeration can take 40 ms for a minute and 100 ms the next, with no CPU
steal reported, so its process time drifts too. A fixed reference kernel
slows down with it. The worker therefore times the kernel between
operations, and the benchmark reports every time t measured next to a kernel
time k as ``t * REFERENCE_S / k``: seconds on a machine that runs the kernel
in ``REFERENCE_S``. A change to the library moves these times as it moves
the raw ones; a change of the machine's speed moves both t and k and cancels.

The kernel runs no library code, so no change to the library can change its
own cost. Like the workloads, it mixes plain Python with numpy: about two
thirds of its time goes to list indexing, small-integer arithmetic and dict
lookups, as in the coset enumerator, and a third to numpy gathers and sorts
on small integer arrays, as in the permutation and polytope layers. It adds
a fixed 3-5 MB to a worker's peak memory. The garbage collector is off while
it runs, so the live heap a workload leaves behind does not enter its time.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import numpy as np

# About the kernel's time on the machine the benchmark was written on (Xeon,
# 2-core shared VM, Python 3.11, numpy 2.4); its speed drifts there.
REFERENCE_S = 0.015
_SIZE = 4096
_ROUNDS = 3
_ARRAY_SIZE = 1 << 16
_ARRAY_ROUNDS = 6
# Kernel samples on each side of an operation that set its speed factor.
_WINDOW = 2


def reference_kernel() -> int:
    return _list_work() + _array_work()


def _list_work() -> int:
    """Permutation products, a walk through them and a row sort, in lists."""
    rng = random.Random(12345)
    a = list(range(_SIZE))
    rng.shuffle(a)
    b = list(range(_SIZE))
    rng.shuffle(b)
    seen: dict[int, int] = {}
    x = 0
    for _ in range(_ROUNDS):
        c = [a[b[i]] for i in range(_SIZE)]
        for i in range(_SIZE):
            x = c[x] ^ i
            if x not in seen:
                seen[x] = i
        a, b = b, c
        rows = [[c[i], a[i], b[i]] for i in range(0, _SIZE, 2)]
        rows.sort(key=lambda r: (r[1], r[0]))
    return x + len(seen)


def _array_work() -> int:
    """Permutation powers and sorted samples of them, in numpy arrays."""
    x = np.random.default_rng(12345).permutation(_ARRAY_SIZE).astype(np.int32)
    y = np.arange(_ARRAY_SIZE, dtype=np.int32)
    for _ in range(_ARRAY_ROUNDS):
        y = x[y]
        np.unique(y[:_SIZE])
    return int(y[0])


def time_kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        reference_kernel()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def factor(kernel_s: float) -> float:
    """Scale from raw seconds to reference seconds at a kernel time of kernel_s."""
    return REFERENCE_S / kernel_s


def op_factors(kernels: list[float], ops: int) -> list[float]:
    """Speed factor of each operation.

    ``kernels[i]`` was timed just before operation i, and ``kernels[ops]``
    after the last one. Operation i takes the median of the kernel samples
    within ``_WINDOW`` on either side of it, which follows the machine's
    drift over seconds without passing on the noise of a single sample.
    """
    if len(kernels) != ops + 1:
        raise ValueError(f"{len(kernels)} kernel samples for {ops} operations")
    return [factor(statistics.median(kernels[max(0, i - _WINDOW + 1): i + _WINDOW + 1]))
            for i in range(ops)]

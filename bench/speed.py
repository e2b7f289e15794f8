"""Machine-speed probe, so that path times do not follow the host's speed.

On a shared virtual machine the host slows a virtual CPU by up to 1.7x, in
states that last from a second to many minutes (see DESIGN.md, Machine noise).
Run medians of raw wall time moved by more than half of their median between
runs of the same code.  While timed work runs, `SpeedProbe` interrupts it
every PERIOD_S with SIGALRM and times a fixed kernel of the two kinds of work
the library does: small-array numpy calls, and the SVD of a 26 x 26 matrix.  The kernel is the benchmark's own
code and does not depend on the package, so no change to the package moves
it.

`normalize(start, end)` turns the wall time of work between two
`time.perf_counter()` readings into seconds at the reference speed, the speed
at which the kernel takes REF_KERNEL_S: the wall time, less the probe's own
time inside it, times the mean of REF_KERNEL_S / kernel time over the samples
taken from MARGIN_S before the work to MARGIN_S after it.

`speed_now()` runs the kernel back to back for a moment instead, for work
that runs in another process (set-up): the mean of its readings just before
the process starts and just after the work ends stands for the speed during
it.

numpy is imported on first use, not with this module, so that a process
whose set-up time includes importing numpy can import this module first.
"""

from __future__ import annotations

import bisect
import functools
import signal
import statistics
import time

PERIOD_S = 0.1
SPEED_NOW_S = 0.3
# a speed state lasts seconds, so samples just outside a short path still
# tell its speed and average out the kernel's own jitter
MARGIN_S = 0.3
KERNEL_CALLS = 100
KERNEL_SVDS = 3
# the kernel's time at full speed: the 10th percentile of 2,400 samples on a
# 2-vCPU x86_64 VM, Python 3.11, numpy 2.4, one OpenBLAS thread
REF_KERNEL_S = 0.00081


@functools.cache
def _svd_input():
    import numpy as np

    return np.random.default_rng(0).standard_normal((26, 26))


def _kernel() -> None:
    # either half alone left wider path-time spreads on one of the workloads
    # (DESIGN.md): the host slows the two kinds of work by different factors
    import numpy as np

    x = np.full((16, 16), 0.5)
    for _ in range(KERNEL_CALLS):
        x = np.maximum(x * 0.5 + 1.0, 0.0)
        x.sum()
    for _ in range(KERNEL_SVDS):
        np.linalg.svd(_svd_input())


def speed_now() -> float:
    """Mean of REF_KERNEL_S / kernel time over SPEED_NOW_S of kernels."""
    for _ in range(3):  # first-call costs
        _kernel()
    speeds = []
    stop = time.perf_counter() + SPEED_NOW_S
    while time.perf_counter() < stop:
        start = time.perf_counter()
        _kernel()
        speeds.append(REF_KERNEL_S / (time.perf_counter() - start))
    return statistics.fmean(speeds)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdowns(self) -> list[float]:
        """Kernel time over REF_KERNEL_S, per sample."""
        return [(e - s) / REF_KERNEL_S for s, e in zip(self.starts, self.ends)]

    def normalize(self, start: float, end: float) -> float:
        """Seconds at the reference speed of the work timed from start to end."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        probe_s = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = range(bisect.bisect_left(self.starts, start - MARGIN_S),
                     bisect.bisect_right(self.starts, end + MARGIN_S))
        if not near:
            # no sample close by: the nearest one on either side
            near = range(max(lo - 1, 0), min(lo + 1, len(self.starts)))
        speed = statistics.fmean(REF_KERNEL_S / (self.ends[i] - self.starts[i]) for i in near)
        return (end - start - probe_s) * speed

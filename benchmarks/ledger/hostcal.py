"""Host-speed calibration: why the timings here are host-normalised.

On the 2-vCPU sandbox this benchmark was sized on, the *same* pure
Python loop runs up to 1.6x slower for seconds to minutes at a time,
and the real pipeline up to 2x slower (240k identical NASA records:
3.5 s to 7.0 s across 38 back-to-back repetitions, CPU time tracking
wall time — neighbours on the host, not preemption inside the guest).
No statistic taken inside a 10-second run survives a phase that
outlasts the run, so every timed segment is bracketed by a short fixed
**calibration kernel** and its wall time is divided by the kernel's
slowdown against a fixed reference.  Across those 38 repetitions the
raw spread (quartile distance over median) was 36%; divided by an
interleaved kernel, 6-12%.  Heavier kernels were tried and dropped: a
walk over 300k scattered tuples mostly measured the cache the workload
had just evicted, and a pointer chase through a 32 MB buffer tracked the
pipeline no better than small-object churn alone (40 cells, four
workloads: mean spread 5.5% against 5.6%, raw 10%).

The kernel never touches ``src/``: a later change cannot speed it up,
so a real gain still shows one-for-one in the normalised numbers.  It
has two parts because the pipeline is, in this order, an interpreter
loop and an allocator of small short-lived objects.  Each sample runs
the kernel three times and keeps each part's fastest time: the first
pass pays for the caches the workload just evicted, which is the
workload's doing, not the host's.  ``REFERENCE_SECONDS`` are the parts'
times in the sandbox's quiet phases; on another host they only rescale
every timing by one constant.
"""

from __future__ import annotations

import gc
import time

#: Quiet-phase seconds of the two kernel parts on the reference host.
REFERENCE_SECONDS = (0.00240, 0.00244)

_SPIN = 40_000
_CHURN = 3_000
_PASSES = 3


class HostCalibrator:
    """Runs the calibration kernel and keeps every sample."""

    def __init__(self) -> None:
        #: Per sample: the host's slowdown (1.0 = reference host).
        self.samples: list[float] = []

    def sample(self) -> int:
        """One calibration sample; returns its index.

        Automatic collection is paused for the ~17 ms a sample takes: a
        full collection of the deployment's heap triggered by the
        kernel's own allocations would be charged to the host.
        """
        clock = time.perf_counter
        was_enabled = gc.isenabled()
        gc.disable()
        spin = churn = float("inf")
        try:
            for _ in range(_PASSES):
                t0 = clock()
                x = 0
                for i in range(_SPIN):
                    x += i * i % 7
                t1 = clock()
                rows = [
                    ("host%05d.example.com" % i, i * 7919 % 100003, "GET /%d" % i)
                    for i in range(_CHURN)
                ]
                index = {row[1]: row for row in rows}
                rows.sort(key=lambda row: row[1])
                for row in rows:
                    x += len(index[row[1]][0].split("."))
                del rows, index
                t2 = clock()
                spin = min(spin, t1 - t0)
                churn = min(churn, t2 - t1)
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(
            0.5 * spin / REFERENCE_SECONDS[0] + 0.5 * churn / REFERENCE_SECONDS[1]
        )
        return len(self.samples) - 1

    def slowdown(self, *indices: int) -> float:
        """Host slowdown over a segment bracketed by the given samples."""
        return sum(self.samples[index] for index in indices) / len(indices)

    def mean_slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 1.0

"""Host speed, sampled while the program runs, and times normalised by it.

The benchmark's host changes speed by up to a factor of two within
seconds, and everything on a core slows together, though not all code
by the same factor. A ``Sampler`` thread in the measuring process wakes
every ``INTERVAL_S`` and times two small fixed kernels that do not touch
cozero: trial division in Python integers, as in ``numbers.factorize``
(``int``), and rotations of rows of a small numpy array, as in the
Jacobi solver of ``eigen`` (``rows``). A workload is normalised by the
kernel that slows the way its operations do: ``int`` alone, or ``mix``,
the sum of both. The process is pinned to one CPU, so the kernels run
on the core that runs the program. While they run, the program waits
(for the GIL, or for the CPU), so an operation's wall time includes the
sampling; that share is the same in every run.

A timed interval's normalised time is its length in reference seconds:
the wall time times the mean of ``REFERENCE_S[kernel] / sample`` over
the samples taken in it. That is the time it would take on a host that
runs the kernel in ``REFERENCE_S[kernel]`` seconds. A change to the
program changes the wall time and not the kernels, so it shows in full.
"""

from __future__ import annotations

import bisect
import threading
import time

import numpy as np

# median kernel times on the reference machine (2-core Xeon, Python
# 3.11, OpenBLAS pinned to one thread) in its faster state; constants,
# so they only set the scale of the normalised figures
REFERENCE_S = {"int": 0.00009, "mix": 0.0002}
INTERVAL_S = 0.02
# an interval shorter than a few samples apart is normalised by the
# nearest MIN_SAMPLES samples
MIN_SAMPLES = 3

_ROWS = np.add.outer(np.arange(40.0), np.arange(40.0)) % 7.0


def int_kernel() -> int:
    n, p, hits = 999_983 * 1_000_003, 3, 0
    while p < 3_000:
        if n % p == 0:
            hits += 1
        p += 2
    return hits


def rows_kernel() -> float:
    a = _ROWS.copy()
    for p in range(4):
        for q in range(p + 1, 8):
            rp = a[p].copy()
            rq = a[q].copy()
            a[p] = 0.8 * rp - 0.6 * rq
            a[q] = 0.6 * rp + 0.8 * rq
    return float(a[0, 0])


class Sampler(threading.Thread):
    """Times both kernels every INTERVAL_S until stop().

    Samples are (end, int duration, rows duration)."""

    def __init__(self) -> None:
        super().__init__(name="host-speed", daemon=True)
        self.samples: list[tuple[float, float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        clock = time.perf_counter
        while not self._halt.wait(INTERVAL_S):
            start = clock()
            int_kernel()
            middle = clock()
            rows_kernel()
            end = clock()
            self.samples.append((end, middle - start, end - middle))

    def stop(self) -> list[tuple[float, float, float]]:
        self._halt.set()
        self.join()
        return self.samples


class Speed:
    """One kernel's samples in time order, for normalising timed intervals."""

    def __init__(self, samples: list, kernel: str) -> None:
        self.reference = REFERENCE_S[kernel]
        self.samples = sorted((end, a if kernel == "int" else a + b) for end, a, b in samples)
        self.ends = [end for end, _ in self.samples]

    def factor(self, start: float, end: float) -> float:
        """Mean of reference / sample over the samples that ended in [start, end].

        With fewer than MIN_SAMPLES there, the MIN_SAMPLES nearest ones are used."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            before = start - self.ends[lo - 1] if lo > 0 else float("inf")
            after = self.ends[hi] - end if hi < len(self.ends) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        chosen = self.samples[lo:hi]
        return sum(self.reference / d for _, d in chosen) / len(chosen)

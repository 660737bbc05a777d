"""Host-speed calibration.

On a shared host the same code runs at different speeds from one moment
to the next: on the 2-core box this benchmark was built on, fixed kinb
work took anywhere from 1.0x to 1.8x its fastest time, switching within
seconds, and so did any other code run next to it. Medians within a run
cannot remove a drift that lasts as long as the run.

So every timed section of a pass runs between two runs of a fixed kernel
that does not use kinb: an interpreter-bound loop and many numpy calls on
tiny arrays. A section's time in reference seconds is its raw time
divided by

    speed = (kernel time / REFERENCE_S) ** sensitivity

with the kernel time averaged over the runs just before and just after
the section, and REFERENCE_S the kernel's time in the fast state of that
box. The sensitivity is the workload's: log section time against log
kernel time had slopes from 0.55 to 1.0 over about 600 sections. The
simulations, bound by numpy work on larger arrays, slow down less than
the kernel, and 0.7 gave the steadiest medians across runs for all three
(with 1.0 the planar spread doubled); the analysis pass is
interpreter-bound like the kernel, and 1.0 halved its spread against
0.7. Kernels built on a gather or on a 16 MB table tracked no better.
The raw seconds are reported alongside.

The kernel's buffers are tiny; it never raises a pass's peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.080


class Kernel:
    def __init__(self):
        self.mat = np.array([[2.0, 0.3, 0.1], [0.2, 1.5, 0.4], [0.1, 0.2, 1.1]])

    def run(self) -> float:
        """Seconds taken by one run of the kernel."""
        t0 = time.perf_counter()
        acc, seen = 0.0, {}
        for i in range(400_000):
            acc += i * 0.5
            seen[i & 255] = acc
        m = self.mat
        for i in range(4500):
            m[0, 0] = 2.0 + i * 1e-6
            np.abs(np.linalg.inv(m)).sum(axis=0).max()
        return time.perf_counter() - t0


def speed(before: float, after: float, sensitivity: float) -> float:
    """Slowdown of the host over a section against the reference state."""
    return (0.5 * (before + after) / REFERENCE_S) ** sensitivity


class Stopwatch:
    """Times the sections of a pass, each between two kernel runs, and sums
    them in raw and in reference seconds."""

    def __init__(self, kernel: Kernel, sensitivity: float):
        self.kernel = kernel
        self.sensitivity = sensitivity
        self.first = self.last = kernel.run()
        self.kernel_runs = [self.first]
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.sections: list = []

    def time(self, label: str, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            raw = time.perf_counter() - t0
            now = self.kernel.run()
            self.kernel_runs.append(now)
            ref = raw / speed(self.last, now, self.sensitivity)
            self.last = now
            self.raw_s += raw
            self.ref_s += ref
            self.sections.append((label, raw, ref))

"""Host-speed gauge: a fixed reference kernel timed during every pass.

On a shared virtual machine the host's speed moves by tens of percent
over seconds to minutes, far more than the changes the benchmark is
meant to resolve. The gauge times a fixed kernel of small complex numpy
column updates, the same kind of work as the package's hot paths, once
before a pass, every ``INTERVAL_S`` during it (from a SIGALRM handler in
the one benchmark thread) and once after it. A pass's time is then
reported at the reference speed, the speed at which the kernel takes
``REF_KERNEL_S``:

    scaled = (wall - kernel time inside the pass) * REF_KERNEL_S / mean kernel time

The raw wall times stay in the run's diagnostics.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds of one kernel run at the reference speed. Close to the
# kernel's time on an idle 2.1 GHz Xeon vCPU with numpy 2, so scaled
# times read roughly as wall times there.
REF_KERNEL_S = 0.0005
INTERVAL_S = 0.02

_START = (np.arange(64, dtype=complex).reshape(8, 8) + 1j) / 64


def kernel() -> float:
    """Seconds for one run of the reference kernel."""
    start = time.perf_counter()
    a = _START.copy()
    for k in range(60):
        p = k % 7
        cp, cq = a[:, p].copy(), a[:, 7].copy()
        a[:, p] = 0.6 * cp - 0.8j * cq
        a[:, 7] = 0.8 * cp + 0.6j * cq
    return time.perf_counter() - start


def scale(seconds: float, kernel_samples: list[float]) -> float:
    """``seconds`` of work converted to the reference speed.

    The mean, not the median, of the kernel times: a host stall slows
    the work as much as the kernel runs it hits. Scaled by the median,
    pass medians spread about four times as much between runs.
    """
    return seconds * REF_KERNEL_S / statistics.fmean(kernel_samples)


def timed(work):
    """Runs ``work()`` with the kernel timed around and during it.

    Returns ``(result, wall_s, scaled_s)``: the wall time of ``work``
    less the kernel time inside it, and that time at the reference speed.
    """
    samples = [kernel()]
    inside: list[float] = []

    def on_alarm(signum, frame) -> None:
        inside.append(kernel())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        result = work()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    samples += inside
    samples.append(kernel())
    net = wall - sum(inside)
    return result, net, scale(net, samples)

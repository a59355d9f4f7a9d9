"""A fixed reference computation that gauges how fast the host runs.

The benchmark shares a virtual machine with other tenants, and the speed
of the same Python code drifts by 20% or more within seconds and over
minutes.  That drift moves a request's latency and the probe's run time
alike, so while a run measures, a wall-clock timer runs the probe every
PERIOD_S, in the middle of requests as well as between them, and the
end-to-end times are reported at the reference speed:

    time at reference speed = measured time * REFERENCE_S / mean probe time

with the mean taken over the probes that ran during the measured time.

The time the probes take is taken out of every latency and of the run's
wall time.

The probe does what the program does most, a schoolbook convolution of
integer coefficient lists in a pure-Python loop, but it never calls the
program, so a change to the program cannot change the probe.

Set-up time is mostly starting a process and an interpreter, which this
probe tracks poorly; run.py scales set-ups by the time to start a bare
interpreter instead.
"""

from __future__ import annotations

import signal
from time import perf_counter

# About the mean probe time on a 2-vCPU Intel Xeon virtual machine, Python 3.11.7.
REFERENCE_S = 0.001

PERIOD_S = 0.05

_A = [(3**k) * 1234567 for k in range(1, 97)]
_B = [(5**k) * 7654321 - k for k in range(1, 49)]
_EXPECTED = 116037535


def _convolve() -> int:
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    acc = 0
    for c in out:
        acc = (acc * 5 + c) % 1000000007
    return acc


def probe() -> float:
    """Run the reference computation once; returns its duration in seconds."""
    t0 = perf_counter()
    if _convolve() != _EXPECTED:
        raise AssertionError("reference probe computed a wrong result")
    return perf_counter() - t0


class Sampler:
    """Runs the probe from a SIGALRM timer every PERIOD_S of wall time."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent probing so far

    def _tick(self, signum, frame) -> None:
        d = probe()
        self.durations.append(d)
        self.spent += d

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


"""Track how fast the machine runs while the benchmark measures.

On a shared machine the same code runs up to a third faster or slower from
one second to the next, which swamps the differences between two commits.
`SpeedSampler` times a fixed reference kernel every 20 ms of process CPU,
from a SIGPROF handler, so the samples land inside long ops as well as
between them.  The harness subtracts the sampler's own time from every op
and scales the op's CPU and wall times by `REFERENCE_S` over the mean CPU
and wall time of the samples around the op.  A metric then moves with the
program and not with the machine.

The kernel is a frozen copy of the program's hottest work, a truncated
product of sparse series with exact complex-rational coefficients, written
here without importing the program: a change to the program never changes
the reference.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import gcd

# Seconds one run of the reference kernel takes at the reference speed
# (an idle moment of a 2-core x86-64 container).
REFERENCE_S = 0.00045
INTERVAL_S = 0.02


def _norm(a, b, c):
    g = gcd(gcd(a, b), c)
    return (a // g, b // g, c // g) if g > 1 else (a, b, c)


def _series(seed, arity=4, degree=2):
    """Deterministic dense series: {exponent: (re, im, den)}."""
    out = {}
    k = seed
    stack = [()]
    while stack:
        e = stack.pop()
        if len(e) == arity:
            k = (k * 1103515245 + 12345) % 2147483648
            out[e] = _norm(k % 19 - 9, (k >> 8) % 17 - 8, 1 + (k >> 16) % 6)
            continue
        for x in range(degree + 1 - sum(e)):
            stack.append(e + (x,))
    return out


_A = _series(1)
_B = _series(2)


def kernel(A=_A, B=_B, order=4):
    """Truncated product of two term dicts, normalizing every coefficient."""
    out = {}
    for ea, (a1, b1, c1) in A.items():
        room = order - sum(ea)
        for eb, (a2, b2, c2) in B.items():
            if sum(eb) > room:
                continue
            e = tuple(map(sum, zip(ea, eb)))
            t = _norm(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1, c1 * c2)
            acc = out.get(e)
            if acc is not None:
                t = _norm(acc[0] * t[2] + t[0] * acc[2],
                          acc[1] * t[2] + t[1] * acc[2], acc[2] * t[2])
            out[e] = t
    return out


class SpeedSampler:
    """Times `kernel` every INTERVAL_S of process CPU while active.

    Each sample is a (thread CPU, wall) pair.  Thread CPU, because while a
    process-wide CPU timer is armed Linux updates the process CPU clock
    only at scheduler ticks; the thread clock stays exact.
    """

    def __init__(self):
        self.samples = []
        self.spent = (0.0, 0.0)  # CPU and wall seconds spent in the handler
        self._previous = None

    def _on_signal(self, signum, frame):
        self._sample()

    def _sample(self):
        c0, w0 = time.thread_time(), time.perf_counter()
        kernel()
        sample = (time.thread_time() - c0, time.perf_counter() - w0)
        self.samples.append(sample)
        self.spent = (self.spent[0] + sample[0], self.spent[1] + sample[1])

    def top_up(self, n):
        """Take samples directly until there are at least `n`."""
        while len(self.samples) < n:
            self._sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def scale(self, start=0, stop=None):
        """(CPU scale, wall scale): REFERENCE_S over the mean CPU and the
        mean wall time of samples[start:stop], which must not be empty."""
        samples = self.samples[start:stop]
        return (REFERENCE_S / statistics.fmean(c for c, _ in samples),
                REFERENCE_S / statistics.fmean(w for _, w in samples))

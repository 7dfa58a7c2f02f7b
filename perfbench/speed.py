"""Host-speed probe: seconds an invocation would take at a fixed host speed.

On a shared host the same code runs at two speeds about 1.5x apart, and the
host switches between them in spells that last from under a second to about a
minute, so one run's wall times depend on the spells it met.  While an
invocation runs, ``SpeedProbe`` times a fixed reference snippet from a
``SIGALRM`` handler every ``PERIOD_S`` seconds of wall time.  Each workload
names the snippet shaped like its hot path (``workloads.Workload.snippet``),
so that the snippet slows with the host as the workload does: small numpy
calls in a Python loop, or one numpy sort of a large array.  The invocation's
reference-speed time is its wall time, less the time spent in the handler,
times the mean of ``ref_s / sample`` over the samples: the seconds it would
have taken had the host run the snippet in ``ref_s`` throughout.

Python runs signal handlers between bytecodes of the main thread, so a tick
that falls inside a long numpy call waits for it to return.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy

PERIOD_S = 0.05
_RNG = numpy.random.default_rng(0)
_SMALL = _RNG.standard_normal(64)
_LARGE = _RNG.standard_normal(1 << 15)


def _small_calls() -> None:
    for _ in range(100):
        numpy.sort(_SMALL).sum()


def _large_sort() -> None:
    numpy.sort(_LARGE)


# name -> (snippet, ref_s).  ref_s is the snippet's median time on the host
# the benchmark was tuned on (2 vCPUs of an Intel Xeon at 2.0 GHz, Python
# 3.11.7, numpy 2.4.6).  It only sets the scale: reference-speed seconds are
# wall seconds at that host's usual speed.
SNIPPETS = {
    "small-calls": (_small_calls, 0.00042),
    "large-sort": (_large_sort, 0.00033),
}


class SpeedProbe:
    """Context manager that samples the host's speed during one invocation."""

    def __init__(self, snippet: str):
        self.snippet, self.ref_s = SNIPPETS[snippet]
        self.samples: list = []
        self.in_handler = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.snippet()
        self.samples.append(perf_counter() - start)
        if signum is not None:
            self.in_handler += perf_counter() - start

    def __enter__(self):
        self.samples = []
        self.in_handler = 0.0
        # one sample before the timed region, so even a short invocation has one
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, wall: float) -> float:
        """``wall`` seconds, measured inside the context, at the reference speed."""
        speed = statistics.fmean(self.ref_s / s for s in self.samples)
        return (wall - self.in_handler) * speed

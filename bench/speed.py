"""Times at reference speed on a host whose speed drifts.

On a shared host the interpreter's speed drifts by up to 1.5x over tens
of seconds, as other tenants load the same cores.  Longer runs do not
average this out.  A `Speed` samples the speed by timing a fixed kernel:
a sparse product with Fraction coefficients, the same kind of interpreter
work as the program.  Inside the process a SIGALRM handler takes a sample
every INTERVAL_S seconds.  Around a child process the timer is stopped,
so that the handler neither slows the child nor is slowed by it, and
samples are taken just before and just after the child instead.  The
benchmark pins itself and its children to one CPU, so those samples see
the CPU the child ran on.

`timed()` measures a call with the handler's own time taken out;
`scaled()` multiplies it by CAL_REF_S / (mean kernel time of the samples
taken during the call and within WINDOW_S of it).  CAL_REF_S is about the
kernel's median on a 2-vCPU x86-64 VM under Python 3.11, so a time at
reference speed is close to wall time on that machine.
"""

import bisect
import signal
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.0017
INTERVAL_S = 0.1
WINDOW_S = 1.0
MIN_SAMPLES = 5
AROUND_CHILD = 3        # samples just before and just after a child process
KERNEL_INPUT = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(4)}


def kernel():
    out = {}
    for (i1, j1), c1 in KERNEL_INPUT.items():
        for (i2, j2), c2 in KERNEL_INPUT.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


class Speed:
    def __init__(self):
        self.starts = []        # sample start times, increasing
        self.lengths = []       # kernel seconds of each sample
        self.spent = 0.0        # total time inside the handler

    def _sample(self, *_):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.lengths.append(dt)
        self.spent += dt

    def _start_timer(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._start_timer()
        return self

    def __exit__(self, *exc):
        self._stop_timer()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1):
        """CAL_REF_S over the mean kernel time around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:       # too few in the window: nearest samples
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.lengths[lo:hi]
        return CAL_REF_S * len(window) / sum(window)

    def timed(self, fn, child=False):
        """(result, error text or None, raw seconds, (start, end)) of one
        call; `child` marks a call that waits for a child process."""
        if child:
            self._stop_timer()
            for _ in range(AROUND_CHILD):
                self._sample()
        spent0, t0 = self.spent, perf_counter()
        try:
            out, err = fn(), None
        except Exception as ex:          # an op failure is counted, not fatal
            out, err = None, '%s: %s' % (type(ex).__name__, ex)
        t1 = perf_counter()
        raw = (t1 - t0) - (self.spent - spent0)
        if child:
            for _ in range(AROUND_CHILD):
                self._sample()
            self._start_timer()
        return out, err, raw, (t0, t1)

    def scaled(self, raw, span):
        return raw * self.factor(*span)

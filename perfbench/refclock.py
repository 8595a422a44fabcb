"""A reference clock that follows the CPU's speed during a run.

On a shared VM the CPU's speed can change by 2x from one stretch of
seconds to the next (other tenants share its cores), so equal work can take
very different wall times.  While a run is timed, a SIGALRM
handler runs a fixed piece of multiprecision work every INTERVAL seconds and
records how long it took.  Dividing an op's wall time by the median of the
reference samples taken around it gives its cost in reference units
("ref"), which stays put when the whole machine slows down and moves when
the program's own work changes.

The reference work calls mpmath's `libmp` layer directly: it uses the
same kind of Python big-integer arithmetic as the program (a pure integer
loop does not slow down the same way), and its functions take the
precision as an argument and touch no global state, so running them inside
a signal handler cannot disturb the code it interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.2       # seconds between reference samples
MIN_WINDOW = 1.0     # an op shorter than this is judged on this much time
_PREC = 128


def reference_work():
    """A fixed multiprecision workload of a few milliseconds."""
    from mpmath import libmp

    one = libmp.from_int(1)
    tenth = libmp.from_rational(1, 10, _PREC)
    acc = (one, libmp.fzero)
    for i in range(60):
        z = (tenth, libmp.mpf_add(one, libmp.from_int(i), _PREC))
        acc = libmp.mpc_mul(acc, libmp.mpc_exp(z, _PREC), _PREC)
        scale = libmp.mpf_add(libmp.mpc_abs(acc, _PREC), one, _PREC)
        acc = libmp.mpc_div(acc, (scale, libmp.fzero), _PREC)
    return acc


class RefClock:
    def __init__(self):
        self.samples = []   # (start, seconds) of each reference sample

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        reference_work()  # load libmp before the first timed sample
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def unit(self, t0, t1):
        """Median reference sample over [t0, t1], widened to MIN_WINDOW
        around its centre; the nearest sample if none falls inside (there
        is always one: start() takes the first)."""
        pad = max(0.0, (MIN_WINDOW - (t1 - t0)) / 2)
        lo, hi = t0 - pad, t1 + pad
        inside = [s for t, s in self.samples if lo <= t <= hi]
        if inside:
            return statistics.median(inside)
        middle = (t0 + t1) / 2
        return min(self.samples, key=lambda ts: abs(ts[0] - middle))[1]

    def refs(self, t0, t1):
        """Wall time [t0, t1] in reference units."""
        return (t1 - t0) / self.unit(t0, t1)

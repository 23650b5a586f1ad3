"""The machine's CPU speed, sampled next to the timed work.

The CPU speed of a shared host shifts by up to 1.5x in spells of seconds, so
one run's wall time says as much about the host as about the program. A
fixed reference kernel, timed next to the workload, measures that speed; the
end-to-end times are reported at the reference speed, at which the kernel
takes ``REFERENCE_S``:

    time at reference speed = wall time x mean(REFERENCE_S / kernel time)

over the kernel samples taken during that wall time. The kernel is the
benchmark's own code (a few mini-batch steps of a small ReLU network and some
pure-Python arithmetic, the mix the program runs) and imports nothing from
ikann, so a change to the program does not move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the kernel's time at reference speed: about its median on a 2-core Xeon
# host, so that times at reference speed read close to wall times there
REFERENCE_S = 0.008
INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_X = _rng.uniform(-1.0, 1.0, (64, 3))
_Y = _rng.uniform(-1.0, 1.0, (64, 3))
_W1 = _rng.normal(0.0, 0.5, (3, 32))
_W2 = _rng.normal(0.0, 0.5, (32, 3))


def kernel() -> float:
    """A fixed amount of work like the program's: small numpy calls driven
    from Python."""
    a1, a2 = _W1.copy(), _W2.copy()
    total = 0.0
    for _ in range(24):
        for start in range(0, 64, 8):
            x, y = _X[start:start + 8], _Y[start:start + 8]
            pre = np.dot(x, a1)
            h = np.maximum(pre, 0.0)
            err = np.dot(h, a2) - y
            dh = np.where(pre > 0.0, np.dot(err, a2.T), 0.0)
            a2 -= 1e-3 * np.dot(h.T, err)
            a1 -= 1e-3 * np.dot(x.T, dh)
            total += float(np.sum(err * err))
    for i in range(36000):
        total += (i * 7 % 13) * 0.5
    return total


def sample() -> float:
    """Seconds the kernel takes now. A preemption inside it counts, as it
    does for the measured work."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel_times) -> float:
    """Factor that turns wall time into time at reference speed."""
    return statistics.fmean(REFERENCE_S / t for t in kernel_times)


class Sampler:
    """Samples the kernel on entry, every ``INTERVAL_S`` of wall time from a
    timer signal, and on exit, in the main thread while the measured work
    runs there. The cores of a shared host change speed independently, within
    a second, so a sample speaks only for work on its own thread: work done in
    child processes is sampled there (cli_timed.py) and handed in through
    :meth:`adopt`. With ``timer=False`` the sampler takes no samples itself.

    ``paused_s`` is the time the samples took; the caller subtracts it from
    the wall time of the work.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.times = []
        self.paused_s = 0.0

    def take(self, *_signal_args):
        t0 = time.perf_counter()
        self.times.append(sample())
        self.paused_s += time.perf_counter() - t0

    def adopt(self, times, paused_s: float):
        self.times += times
        self.paused_s += paused_s

    def __enter__(self):
        if self.timer:
            self.take()
            self._previous = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self.take()
        return False

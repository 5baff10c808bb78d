"""How fast the interpreter runs right now, from a fixed piece of work.

On a shared machine the same job can run up to 1.9x slower for seconds to
minutes when a neighbour is busy.  The benchmark runs this kernel before
and after every timed call and, from a timer signal, every INTERVAL_S
seconds during it.  It reports times scaled to the speed at which the
kernel takes REF_S seconds:

    adjusted = (measured - time spent in the kernel) * REF_S / mean kernel time

The kernel does the kind of work liecg does (Fraction arithmetic, dicts
keyed by tuples, string formatting) and touches no liecg code, so a change
to the program cannot move it.  The measured seconds are kept next to the
adjusted ones in the result file.
"""

import signal
import time
from fractions import Fraction

# the kernel's time on an idle core of a 2-core Xeon (Sapphire Rapids
# class), Python 3.11; adjusted times read as seconds on that machine
REF_S = 0.0052
INTERVAL_S = 0.1


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1200):
        f = Fraction(i % 97 + 1, i % 13 + 1)
        acc += f * f
        table[(i % 50, i % 7)] = acc
        if i % 8 == 0:
            table[str(i)] = "%d/%d" % (acc.numerator % 1000, acc.denominator % 1000)
    return acc


def sample():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Kernel samples taken from SIGALRM while a timed call runs.

    The handler runs in the main thread between bytecodes, so the call is
    paused while the kernel runs; `stop` returns the samples, whose sum the
    caller subtracts from the call's time.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.samples

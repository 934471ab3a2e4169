"""A CPU clock in reference seconds, steady on a machine shared with others.

On a virtual machine whose cores are shared with other tenants, the same
Python work takes up to 40-50% more CPU time while a neighbour is busy, in
phases that last from seconds to many minutes.  Neither wall time nor CPU
time tells a slower program from a busier machine.  This clock samples the
core's current speed instead: every PERIOD_S of process CPU time (SIGPROF
from ITIMER_PROF) it times a fixed pure-Python loop, and scales the CPU time
of the interval just ended by REFERENCE_S over the loop's time, averaged
over the interval's two ends.  A reading is therefore the main thread's CPU
seconds as they would be on a core where the loop takes REFERENCE_S, the
loop's own time left out.  A program that does less work reads less; a
busier or faster machine reads about the same.

REFERENCE_S is close to the loop's time on an idle core of a 2-vCPU KVM
guest (Intel Xeon, Sapphire Rapids, CPython 3.11), so there readings are
close to plain CPU seconds.  On that guest, 27 searches of
``flower_family(13)`` spread over ten minutes took 6.3-10.9 s of CPU time
and read 5.4-6.0 s on this clock.  Other tenants' load slows the loop a
little less than it slows the library: a splice-chain search that took 25%
more CPU time still read about 6% more.  Sampling costs about 1.3% of CPU
time, which the readings leave out.

CPU time is the thread's (CLOCK_THREAD_CPUTIME_ID): on Linux the process
CPU clock only advances at scheduler ticks while ITIMER_PROF is armed.  The
measured code must therefore run on the main thread, which is where
SIGPROF handlers run in Python.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
REFERENCE_S = 250e-6

_SMALL = {i: i for i in range(64)}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _step(p: _Pair, x: int) -> tuple[int, int]:
    return (p.a + x, p.b ^ x)


def _loop() -> int:
    """Integer arithmetic, small dict and set operations, calls, attribute
    reads and tuples: the kinds of work the library's inner loops do, so
    that other tenants' load slows this loop about as much as the library
    (a loop of arithmetic alone left twice the spread)."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    for i in range(1000):
        s += _SMALL[i & 63]
    seen = set()
    for i in range(300):
        seen.add(i * 3)
    p = _Pair(3, 5)
    kept = []
    for i in range(400):
        t = _step(p, i)
        if t[0] & 1:
            kept.append(t)
    return s + len(seen) + len(kept)


def _time_loop() -> float:
    start = time.thread_time()
    _loop()
    return time.thread_time() - start


class RefClock:
    """Reference seconds of the main thread since process start, once
    ``start`` has been called; CPU time before ``start`` (interpreter start
    up) is scaled by the first speed sample."""

    def __init__(self) -> None:
        self.ticks = 0
        self.loop_s = 0.0
        self.total = 0.0
        self.last = 0.0

    def start(self) -> None:
        self.loop_s = min(_time_loop() for _ in range(3))
        self.last = time.thread_time()
        self.total = self.last * REFERENCE_S / self.loop_s
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        elapsed = time.thread_time() - self.last
        loop_s = _time_loop()
        self.total += elapsed * REFERENCE_S / ((self.loop_s + loop_s) / 2)
        self.loop_s = loop_s
        self.ticks += 1
        self.last = time.thread_time()

    def now(self) -> float:
        # A tick can run between any two bytecodes; read again if one did.
        while True:
            ticks = self.ticks
            value = self.total + (time.thread_time() - self.last) * REFERENCE_S / self.loop_s
            if ticks == self.ticks:
                return value

"""A CPU clock that discounts the changing speed of a shared machine.

The small virtual machines the benchmark runs on switch between a fast and a
slow speed, up to 1.8x apart, within tens of milliseconds, and the share of
slow time drifts over minutes (see README.md, "Steadiness"); the host also
takes the CPU away now and then (steal).  Raw times then spread across runs
of the same code by more than any useful bound.

`SpeedClock` reads the CPU time of the calling thread (the worker has one),
which leaves out steal, and scales it by the machine's speed as measured
while the workload runs: an ITIMER_PROF timer interrupts the worker after
every `INTERVAL_S` seconds of CPU time and times a fixed pure-Python probe
(`probe()`: f-strings, Fractions, sorting and sets, the kind of bookkeeping
the library does; it calls nothing from the library, so a change to the
library cannot change the probe).  Between probes the clock advances by the
CPU time used, times `REFERENCE_PROBE_S` over the time of the probe that
ends the stretch: it reads CPU seconds on a machine on which one probe takes
`REFERENCE_PROBE_S`.  Time spent in probes is left out.  When the machine
slows down the probe slows about as much as the workloads' own code, so a
repetition reads about the same whichever state it ran in.

Only the end-to-end worker modes use the clock; a traced run measures raw
time, because a probe that fires inside a span would be counted as the
span's own time.
"""

import signal
import time
from fractions import Fraction

# CPU seconds between probes.  The machine's speed changes within tens of
# milliseconds: on recorded runs, probing every 20 ms rather than every 50 ms
# narrowed the spread of one repeated run from 5% to 3.5% of its median
INTERVAL_S = 0.02
PROBE_ROUNDS = 10
# the probe time that defines one reference second: about the probe time
# (0.4 ms of CPU) on the 2-vCPU Xeon VM the benchmark was sized on, in its
# fast state
REFERENCE_PROBE_S = 0.00042
# shorter probe readings are misreadings (see SpeedClock._tick)
MIN_PROBE_S = REFERENCE_PROBE_S / 4


def probe():
    total = 0
    for i in range(PROBE_ROUNDS):
        items = [(f"c{(i * j) % 97}", Fraction(j, i + 1), (j, -j)) for j in range(12)]
        items.sort()
        seen = {key for key, _, _ in items}
        total += len(seen) + sum(x for _, x, _ in items).denominator % 7
    return total


class SpeedClock:
    """CPU time in reference seconds.  `start()` installs the timer, `now()`
    reads the clock and `stop()` removes the timer."""

    def __init__(self):
        self.probes = []  # CPU seconds of each probe
        # reference seconds up to the end of the last probe, the CPU time
        # there and the current scale: one tuple, so that a probe firing
        # inside now() leaves it a consistent state
        self._state = None

    def _probe(self):
        # thread time: while ITIMER_PROF is armed the process CPU clock only
        # advances at scheduler ticks, too coarse to time a probe
        c0 = time.thread_time()
        probe()
        c1 = time.thread_time()
        self.probes.append(c1 - c0)
        return c0, c1, c1 - c0

    def _tick(self, signum, frame):
        reference, last, scale = self._state
        c0, c1, probe_s = self._probe()
        # now and then the thread clock misses a probe and reads it as 0 (or
        # nearly): no real speed is several times the fast state's, so such
        # a reading keeps the last scale
        if probe_s > MIN_PROBE_S:
            scale = REFERENCE_PROBE_S / probe_s
        # the stretch since the last probe ran at the speed just measured
        self._state = (reference + (c0 - last) * scale, c1, scale)

    def start(self):
        probe()  # the first call is slower: it warms up the probe's code
        while True:
            _, c1, probe_s = self._probe()
            if probe_s > MIN_PROBE_S:
                break
        self._state = (0.0, c1, REFERENCE_PROBE_S / probe_s)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def now(self):
        reference, last, scale = self._state
        return reference + (time.thread_time() - last) * scale

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

"""Machine speed sampling, so timings can be put on one scale.

On a shared virtual machine the same pure-Python loop can run twice as
fast in one second as in the next, as other tenants come and go, and the
slow and fast phases last from seconds to minutes. A time measured on
such a machine says as much about the neighbours as about the program.

``Sampler`` measures the machine's speed while the program runs: a
real-time interval timer interrupts the process every ``INTERVAL_S``
seconds, and the signal handler times a fixed probe loop on the same core,
at that moment. ``Sampler.clock`` is a clock that runs at the reference
speed, the speed at which one probe takes ``REFERENCE_PROBE_S``: the time
from the end of one probe to the start of the next counts as

    gap * REFERENCE_PROBE_S / probe

where ``probe`` is the duration of the earlier probe, and time spent in
probes does not count. A probe that was interrupted reads long, so its
gap counts for little; the next probe corrects the speed.

Python runs signal handlers between bytecodes of the main thread, so a
long call into C (``json.loads`` of a big text) delays a probe; the gap
before it counts at the speed the previous probe measured. Child
processes do not inherit the timer.

The vCPUs of a shared host speed up and slow down independently, and a
waiting parent is woken on the same one most of the time. So while work
runs in child processes on every core (the sweep), ``spread`` makes the
probes take the cores in turn, moving the idle main thread to each.
"""

from __future__ import annotations

import bisect
import os
import signal
import time

INTERVAL_S = 0.01
PROBE_ITERATIONS = 400
# The probe's duration at the reference speed, a fixed unit: a little under
# the fastest probes seen on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11.7 (0.11 ms), so scaled seconds read close to that machine's
# wall seconds in its fastest phases.
REFERENCE_PROBE_S = 100e-6


def probe() -> int:
    """A fixed mix of integer, tuple and dict work, like the package's."""
    p = 100003
    x = 3
    seen = {}
    for i in range(PROBE_ITERATIONS):
        x = x * 7 % p
        key = (x & 63, i & 7)
        seen[key] = seen.get(key, 0) + x
    return len(seen)


class Sampler:
    """Probes the machine's speed while a piece of work runs."""

    def __init__(self):
        # For each probe: the perf_counter reading at its end, and the
        # clock, the probe seconds so far and its CPU seconds at that time.
        self.ends: list[float] = []
        self.marks: list[tuple[float, float, float]] = []
        self.cores: list[int] = []
        self._previous = None

    def _record(self, t0: float, t1: float, cpu: float) -> None:
        if self.ends:
            scaled, probes, last = self.marks[-1]
            scaled += (t0 - self.ends[-1]) * REFERENCE_PROBE_S / last
        else:
            scaled, probes = 0.0, 0.0
        self.marks.append((scaled, probes + t1 - t0, cpu))
        self.ends.append(t1)

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        if self.cores:
            allowed = os.sched_getaffinity(0)
            core = self.cores[len(self.ends) % len(self.cores)]
            os.sched_setaffinity(0, {core})
        # The probe's speed is its CPU time: waiting for a core that a
        # sweep worker holds is not slowness of the machine.
        c0 = time.thread_time()
        probe()
        cpu = time.thread_time() - c0
        if self.cores:
            os.sched_setaffinity(0, allowed)
        self._record(t0, time.perf_counter(), cpu)

    def spread(self, on: bool) -> None:
        """Probe every core in turn (on), or where the main thread runs."""
        self.cores = sorted(os.sched_getaffinity(0)) if on else []

    def start(self) -> None:
        """Probe once at once, then every ``INTERVAL_S`` seconds."""
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self, t: float | None = None) -> float:
        """The reference-speed clock at ``perf_counter`` reading ``t``,
        now by default. Before the first probe it runs at that probe's
        speed."""
        if t is None:
            t = time.perf_counter()
        i = max(bisect.bisect_right(self.ends, t) - 1, 0)
        scaled, _, last = self.marks[i]
        return scaled + (t - self.ends[i]) * REFERENCE_PROBE_S / last

    def probe_seconds(self, start: float, end: float) -> float:
        """Seconds spent in the probes that ended in ``(start, end]``."""
        return self._probes_by(end) - self._probes_by(start)

    def _probes_by(self, t: float) -> float:
        i = bisect.bisect_right(self.ends, t) - 1
        return self.marks[i][1] if i >= 0 else 0.0

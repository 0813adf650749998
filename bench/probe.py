"""A fixed piece of work that tells how fast the machine is running.

The sandbox shares its physical cores with other tenants.  Timed in
3 ms pieces the machine shows two states, undisturbed and contended,
that alternate every few milliseconds with a duty cycle that drifts
over minutes; interpreter-bound code runs 1.65 times slower in the
contended state, big-integer arithmetic 1.2 times.  The same pass of
the same code therefore takes anything from 1.0 to 1.7 times its
undisturbed time, CPU time inflates with it, and no amount of
repetition inside one run averages a minutes-long drift away.

So a pass samples a probe from an interval timer all through its timed
region, and ``bench.run`` reports the pass's times as they would read
on a machine that runs the probe in its reference time: measured time
x reference / mean probe time.  The time the sampling itself takes is
kept apart (``wall_s``, ``cpu_s``) and left out of the pass's own.

The probes are frozen here, away from ``src/``, so that no change to
the program can move them.  There are two because the two kinds of
work feel the contention differently; a workload names the one its
time is mostly spent like (``Workload.probe``).  See bench/README.md
for how closely the passes follow them.
"""

from __future__ import annotations

import gc
import signal
from hashlib import sha256
from heapq import heappop, heappush
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["INTERVAL_S", "PROBES", "Prober", "speed"]

#: Seconds between two probe samples of a pass.  A sample takes about
#: half a millisecond, so sampling costs the pass about 5% more wall.
INTERVAL_S = 0.01

_MERSENNE_127 = (1 << 127) - 1
_MODULUS_512 = (1 << 511) + 0x1234567 * (1 << 200) + 187
_BASE_512 = (1 << 510) + 0xABCDEF12345 * (1 << 100) + 3


class _Message:
    __slots__ = ("src", "dst", "kind", "body")

    def __init__(self, src: int, dst: int, kind: int, body: int) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.body = body


def _interpreter() -> None:
    """What the simulator's passes spend their time on, in miniature:
    small objects through a heap, dict counters under tuple keys,
    small-integer products and a few SHA-256 digests."""
    queue: List[Tuple[int, int, _Message]] = []
    seen: Dict[Tuple[int, int], int] = {}
    product = 1
    for i in range(300):
        message = _Message(i % 61, (i * 7) % 61, i & 3, product & 0xFFFF)
        heappush(queue, ((i * 7919) % 1009, i, message))
        key = (message.src, message.kind)
        seen[key] = seen.get(key, 0) + 1
        product = product * (i | 1) % _MERSENNE_127
        if not i & 15:
            product ^= sha256(b"%d" % product).digest()[0]
    while queue:
        message = heappop(queue)[2]
        key = (message.dst, message.kind)
        seen[key] = seen.get(key, 0) + message.body


def _bigint() -> None:
    """One 512-bit modular exponentiation: what hashing and prime
    testing at the paper's sizes are made of."""
    pow(_BASE_512, _MODULUS_512 - 2, _MODULUS_512)


#: Probe name -> (the work, seconds it takes on the reference machine).
#: The reference machine is this sandbox in its undisturbed state (the
#: lower mode of some 10^4 samples).  A constant, not a per-run
#: minimum: while other tenants are busy a run may never see the
#: machine undisturbed.
PROBES: Dict[str, Tuple[Callable[[], None], float]] = {
    "interpreter": (_interpreter, 0.00047),
    "bigint": (_bigint, 0.00060),
}


class Prober:
    """Probe samples taken from an interval timer while a pass runs.

    The handler runs in the main thread between two bytecodes of
    whatever the pass is executing, so the samples see the machine as
    the pass's own code does.  Workers and daemons the pass starts do
    not inherit the timer.  A prober that is not ``enabled`` never
    samples (a traced pass: its layer numbers are never scaled).
    """

    def __init__(self, kind: str, enabled: bool = True) -> None:
        self.enabled = enabled
        self._work = PROBES[kind][0]
        self._busy = False
        self.samples: List[float] = []
        #: what the sampling itself cost, to be left out of the pass
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def start(self) -> None:
        if not self.enabled:
            return
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self, _signum: int, _frame: Any) -> None:
        if self._busy:  # the timer fired again inside the handler
            return
        self._busy = True
        wall, cpu = perf_counter(), process_time()
        # The probe allocates; a collection it triggered would walk the
        # program's heap and be timed as the machine's slowness.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._work()
            self.samples.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.wall_s += perf_counter() - wall
            self.cpu_s += process_time() - cpu
            self._busy = False


def speed(kind: str, samples: List[float]) -> float:
    """The machine's speed while ``samples`` were taken, 1.0 being the
    reference machine's; 1.0 also for a pass that took none."""
    if not samples:
        return 1.0
    return PROBES[kind][1] * len(samples) / sum(samples)

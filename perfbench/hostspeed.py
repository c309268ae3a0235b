"""A fixed probe that tracks the speed of a shared host while ops run.

The reference host's speed drifts by tens of percent over minutes with
neighbouring load, and process CPU time drifts with it, so raw wall times of
runs taken a few minutes apart disagree by more than any useful bound. The
benchmark therefore times a small fixed probe every PERIOD_S seconds, from a
SIGALRM handler, inside the ops themselves, and reports its end-to-end times
scaled to the probe's speed:

    scaled = raw * REFERENCE_S / (mean probe time over the same span)

The probe uses nothing from the package, so a change to the package moves a
scaled time exactly as much as the raw one, while a slow spell of the host
slows the probe in the same instant and cancels out. The time the handler
takes is counted and left out of the rounds' wall times.

Neighbouring load slows kinds of work unequally, so each workload's probe
mixes the kinds of work its own ops do (PROBES). Both run dict
lookups and inserts, small-int arithmetic and trial division, which stay in
the core's caches. `memory` adds random reads in tables too wide for them,
like the sieve and the factorization cache of `search` and `cycles`;
`bigint` adds squaring, Fermat tests and trial division modulo a 67-bit
number, like the aliquot sequences and primality tests of `bignum`. Fitted
against per-round op times, the chosen probes had slopes of 0.88-1.13; the
cache-resident part alone had 0.46-0.84, and on `bignum` the `memory` probe
scattered 1.6 times as much about the fit as the `bigint` one.

The mean probe time is used, not the median. A wall time adds up every slow
spell and every stall, and a probe that lands in one is lengthened by the
same share on average, so the mean moves with the wall time. The median
ignores the tail the wall time pays for; with it, the per-run ratio of
`cycles` wall time to probe time spread half as much again.

Interval timers are not inherited across fork, so pool workers never run the
probe. While an op's own pool runs, the probe is paused: it would compete
with the workers for the CPUs and read the load of the benchmark itself.
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager
from statistics import fmean

# The probe's time on the reference host (2 vCPUs, CPython 3.11.7) in a
# steady spell; it only sets the scale of the reported seconds.
REFERENCE_S = 0.003
PERIOD_S = 0.1

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
WIDE_BITS = 18  # the wide tables hold 2**18 entries, ~25 MB in all
MODULUS = (1 << 66) + 1155  # odd, 67 bits


class Tables:
    """The probe's data: a small dict that stays in the core's caches and,
    for the `memory` probe, a dict and an array too wide for them."""

    def __init__(self, wide: bool) -> None:
        size = 1 << WIDE_BITS if wide else 0
        self.small: dict = {}
        self.wide = {k: k ^ 0x2AAAA for k in range(size)}
        self.words = array("q", range(size * 4))
        self.at = 1


def cache_resident(tables: Tables) -> int:
    total = 0
    small = tables.small
    for i in range(1500):
        key = (i * 2654435761) & 0xFFFF
        total += small.get(key, 0) + i * i % 7
        small[key ^ 0x5A5A] = i
    for n in range(100_003, 100_153):
        rem, s = n, 1
        for p in _PRIMES:
            if p * p > rem:
                break
            if rem % p == 0:
                power = acc = 1
                while rem % p == 0:
                    rem //= p
                    power *= p
                    acc += power
                s *= acc
        if rem > 1:
            s *= rem + 1
        total += s - n
    return total


def wide_reads(tables: Tables) -> int:
    total = 0
    wide, words = tables.wide, tables.words
    mask, at = (1 << WIDE_BITS) - 1, tables.at
    for _ in range(1600):
        at = (at * 1103515245 + 12345) & 0x3FFFFFFF
        total += wide[at & mask] + words[at >> 10]
    tables.at = at
    return total


def bigint(tables: Tables) -> int:
    n = MODULUS
    x = y = 2
    total = 0
    for _ in range(800):
        x = (x * x + 1) % n
        y = (y * y + 1) % n
        y = (y * y + 1) % n
        total += (x - y) % 97
    for a in (2, 3, 5, 7):
        total += pow(a, n - 1, n) & 1
    for p in range(3, 600, 2):
        total += n % p == 0
    return total


# probe kind -> (needs the wide tables, parts run in turn)
PROBES = {
    "memory": (True, (wide_reads, cache_resident)),
    "bigint": (False, (cache_resident, bigint)),
}


class HostClock:
    """Probe samples over the rounds; `scale` turns a raw time into a scaled one."""

    def __init__(self, kind: str = "memory") -> None:
        self.wide, self.parts = PROBES[kind]
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the handler took, probe included
        self.paused = False
        self._busy = False
        self._tables: Tables | None = None

    def _tick(self, signum, frame) -> None:
        if self.paused or self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        for part in self.parts:
            part(self._tables)
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    @contextmanager
    def running(self):
        if self._tables is None:
            self._tables = Tables(self.wide)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def pause(self, paused: bool = True):
        before, self.paused = self.paused, paused or self.paused
        try:
            yield
        finally:
            self.paused = before

    def probe_s(self) -> float:
        """Mean probe time; a run too short for the timer to fire probes once now."""
        if not self.samples:
            if self._tables is None:
                self._tables = Tables(self.wide)
            self._tick(signal.SIGALRM, None)
        return fmean(self.samples)

    def scale(self, seconds: float, probe_s: float | None = None) -> float:
        """`seconds` at the reference speed, by `probe_s` or else by the run's mean probe time."""
        return seconds * REFERENCE_S / (probe_s or self.probe_s())

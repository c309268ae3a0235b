"""Amicable and betrothed pair checks, bounded searches, and result audits.

A pair (m, n) is amicable when s(m) = n and s(n) = m with m != n, and
betrothed when s(m) = n + 1 and s(n) = m + 1. Searches anchor on the smaller
member m <= limit in one `SieveTable`. Partners beyond the limit are checked
by the split of `SieveTable.s`: over the uint32 numpy table `_array_s` tests
sigma(n) = m + n + shift on int64 arrays, and over the `array('I')` table
`SieveTable.s` is called once per partner. Every hit is
re-verified against `sigma_brute` before it is reported; a disagreement raises
VerificationFailed, which `python -O` does not remove.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .divisor import SieveTable, _array_s, aliquot_s, build_sieve, sigma_brute
from .errors import VerificationFailed, need_int

# Block size of the numpy scan, so its temporaries stay a few blocks' worth.
_CHUNK = 1 << 16


class PairKind(str, Enum):
    AMICABLE = "Amicable"
    BETROTHED = "Betrothed"
    NEITHER = "Neither"


class GuardFailure(str, Enum):
    ZERO_MEMBER = "ZeroMember"
    EQUAL_MEMBERS = "EqualMembers"


class Oracle(str, Enum):
    SIEVE = "Sieve"


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of checking one candidate pair.

    s values are recorded even when a guard demotes the verdict to Neither;
    s is total, with s(0) = 0 by convention.
    """

    m: int
    n: int
    kind: PairKind
    s_m: int
    s_n: int
    guard_failures: tuple[GuardFailure, ...] = ()


def _guards(m: int, n: int) -> tuple[GuardFailure, ...]:
    failures = []
    if m == 0 or n == 0:
        failures.append(GuardFailure.ZERO_MEMBER)
    if m == n:
        failures.append(GuardFailure.EQUAL_MEMBERS)
    return tuple(failures)


def _check(m: int, n: int, shift: int, kind: PairKind) -> PairVerdict:
    """Check s(m) = n + shift and s(n) = m + shift. Guard failures force Neither."""
    failures = _guards(m, n)
    s_m = aliquot_s(m)
    s_n = aliquot_s(n)
    hit = not failures and s_m == n + shift and s_n == m + shift
    return PairVerdict(m, n, kind if hit else PairKind.NEITHER, s_m, s_n, failures)


def check_amicable(m: int, n: int) -> PairVerdict:
    """Check s(m) = n and s(n) = m. Guard failures force Neither."""
    return _check(m, n, 0, PairKind.AMICABLE)


def check_betrothed(m: int, n: int) -> PairVerdict:
    """Check s(m) = n + 1 and s(n) = m + 1. Guard failures force Neither."""
    return _check(m, n, 1, PairKind.BETROTHED)


def is_amicable_number(n: int) -> int | None:
    """The amicable partner of n, or None.

    Computes m = s(n) and accepts it only when m is nonzero, distinct from n,
    and maps back: s(m) = n. Primes, 1, 0, and perfect numbers all yield None.
    """
    partner = aliquot_s(n)
    if partner == 0 or partner == n:
        return None
    return partner if aliquot_s(partner) == n else None


@dataclass(frozen=True)
class SearchReport:
    """Pairs found below a limit plus audit fields computed over them.

    min_gcd is 0 when no pair was found. `oracle` names the source of the
    scan's s-values; the sieve table is the only one, but the field stays so
    that exports keep their `"oracle":"Sieve"` and `oracle=Sieve` bytes.
    """

    limit: int
    pairs: tuple[tuple[int, int], ...]
    all_even: bool
    min_gcd: int
    oracle: Oracle


@dataclass(frozen=True)
class AuditResult:
    all_even: bool
    min_gcd: int
    coprime_found: bool


# Table handed to forked workers via the pool initializer.
_WORKER_TABLE: SieveTable | None = None


def _worker_init(table: SieveTable) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _scan(lo: int, hi: int, table: SieveTable, shift: int) -> list[tuple[int, int]]:
    """Pairs (m, n) with lo <= m < hi, m < n, s(m) = n + shift and s(n) = m + shift.

    On a numpy table the in-table test runs vectorized over blocks of at most
    _CHUNK values of m, so temporaries stay a few blocks' worth. The m whose
    partner lies past the limit are held across blocks; once they number
    _CHUNK // 4, and after the last block, their partners are re-read from the
    table and settled in one call of `_array_s`, which tests the scan's
    condition s(n) = m + shift as sigma(n) = m + n + shift by the split of
    `SieveTable.s` on int64 arrays, and drops a partner as soon as that
    target is out of reach. So the kernel's per-prime steps are shared by many
    lookups, while no call takes _CHUNK // 4 + _CHUNK values or more. On the
    stdlib `array('I')` table the loop reads it directly and calls `table.s`
    for each partner past the limit. uint32 reads widen to int64 before a
    shift is subtracted. Pairs come out as Python ints, in no particular order.
    """
    s_values = table.s_values
    limit = table.limit
    lookup = table.s
    found = []
    if not hasattr(s_values, "dtype"):  # only the numpy table has a dtype
        for m in range(lo, hi):
            n = s_values[m] - shift
            if n > m and (s_values[n] if n <= limit else lookup(n)) == m + shift:
                found.append((m, n))
        return found
    import numpy as np

    far, held = [], 0  # the m whose partner lies past the limit, not yet settled
    for start in range(lo, hi, _CHUNK):
        ms = np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
        ns = s_values[start : start + len(ms)].astype(np.int64) - shift
        inside = np.flatnonzero((ns > ms) & (ns <= limit))
        inside = inside[s_values[ns[inside]] == ms[inside] + shift]
        found += zip(ms[inside].tolist(), ns[inside].tolist())
        far.append(ms[ns > limit])
        held += len(far[-1])
        del ms, ns, inside  # the block's arrays go before the kernel makes its own
        if held >= _CHUNK // 4 or start + _CHUNK >= hi:
            m = np.concatenate(far)
            n = s_values[m].astype(np.int64) - shift
            hit = np.flatnonzero(_array_s(np, table, n, m + n + shift))
            found += zip(m[hit].tolist(), n[hit].tolist())
            far, held = [], 0
    return found


def _scan_chunk(job: tuple[int, int, int]) -> list[tuple[int, int]]:
    lo, hi, shift = job
    return _scan(lo, hi, _WORKER_TABLE, shift)


def _run_scan(limit, table, shift, parallel, workers):
    if not parallel:
        return _scan(2, limit + 1, table, shift)
    import multiprocessing

    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    step = max(1, (limit - 1) // (workers * 4) + 1)
    jobs = [(lo, min(lo + step, limit + 1), shift) for lo in range(2, limit + 1, step)]
    with multiprocessing.Pool(workers, initializer=_worker_init, initargs=(table,)) as pool:
        parts = pool.map(_scan_chunk, jobs)
    return [pair for part in parts for pair in part]


def _search(limit, shift, parallel=False, workers=None) -> SearchReport:
    need_int(limit, 2, "search limit must be at least 2")
    if workers is not None:
        need_int(workers, 1, "a parallel search needs at least one worker")
    table = build_sieve(limit, array=True)
    pairs = sorted(_run_scan(limit, table, shift, parallel, workers))
    for m, n in pairs:
        # sigma(m) = sigma(n) = m + n + shift restates both scan conditions
        if sigma_brute(m) != m + n + shift or sigma_brute(n) != m + n + shift:
            raise VerificationFailed(f"oracle disagreement on candidate pair ({m}, {n})")
    facts = _facts(pairs)
    return SearchReport(limit, tuple(pairs), facts.all_even, facts.min_gcd, Oracle.SIEVE)


def search_amicable(
    limit: int,
    *,
    parallel: bool = False,
    workers: int | None = None,
) -> SearchReport:
    """All amicable pairs (m, n) with m < n and m <= limit.

    The scan reads one table from `build_sieve(limit, array=True)`: a uint32
    numpy array when numpy is installed, a stdlib `array('I')` otherwise, 4
    bytes per entry either way. The sieve budget caps it where Robin's bound
    keeps s below 2**32, so a limit of 932277513 or more raises LimitTooLarge
    before anything is allocated. Partners past the limit are checked by the
    split of `SieveTable.s`: the numpy scan tests sigma(n) = m + n on int64
    arrays (`divisor._array_s`), the `array('I')` scan calls `SieveTable.s`
    for each.
    Each hit is re-verified with sigma_brute, raising VerificationFailed on a
    disagreement.
    `parallel` partitions the scan range across `workers` processes (default:
    the CPU count, at most 8); the merged result is sorted, so output does not
    depend on scheduling. The pool does not pay at 10^6 on 2 cores; it is kept
    for perfbench's pool op, and the CLI does not offer it.
    """
    return _search(limit, 0, parallel, workers)


def search_betrothed(limit: int) -> SearchReport:
    """All betrothed pairs (m, n) with m < n and m <= limit.

    Same serial scan and double-checking as `search_amicable`, with the
    shifted condition s(m) = n + 1, s(n) = m + 1.
    """
    return _search(limit, 1)


def _facts(pairs) -> AuditResult:
    """Parity and gcd facts over a list of pairs."""
    gcds = [gcd(m, n) for m, n in pairs]
    return AuditResult(
        all_even=all(m % 2 == 0 and n % 2 == 0 for m, n in pairs),
        min_gcd=min(gcds, default=0),
        coprime_found=any(g == 1 for g in gcds),
    )


def audit(report: SearchReport) -> AuditResult:
    """Recompute parity and gcd facts from the report's pairs.

    Everything is derived from the listed pairs themselves, never copied from
    the report's own flags, so this doubles as a consistency check.
    """
    return _facts(report.pairs)

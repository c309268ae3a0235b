"""Aliquot sequences and sociable cycles.

Iterating n, s(n), s(s(n)), ... either reaches 0, sticks at a perfect number,
falls into a cycle, or keeps going past whatever practical cap was set. A
sociable cycle is a cycle of length at least two; amicable pairs are exactly
the cycles of length two, and length-one loops are reported as fixed points,
never as cycles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum

from .divisor import _TYPECODE, SieveTable, aliquot_s, build_sieve
from .errors import BadParameter, VerificationFailed, need_int


class AliquotOutcome(str, Enum):
    REACHED_ZERO = "ReachedZero"
    FIXED_POINT = "FixedPoint"
    ENTERED_CYCLE = "EnteredCycle"
    CEILING_EXCEEDED = "CeilingExceeded"
    STEPS_EXHAUSTED = "StepsExhausted"


@dataclass(frozen=True)
class AliquotResult:
    """Trajectory of an aliquot sequence and how it terminated.

    trajectory[i + 1] = s(trajectory[i]) everywhere. On FixedPoint the
    repeated value is not appended again; on EnteredCycle the trajectory ends
    with the last new value and `cycle` is its suffix starting at
    `entry_index`. A value that broke the ceiling is kept in the trajectory.
    """

    start: int
    trajectory: tuple[int, ...]
    outcome: AliquotOutcome
    fixed_point: int | None = None
    cycle: tuple[int, ...] | None = None
    entry_index: int | None = None


# s(0) = s(1) = 0; SieveTable.s splits every larger n into its power of 2, its
# 1000-smooth odd part and its rough part, and takes sigma of each on its own
_UNIT_TABLE = SieveTable(array(_TYPECODE, [0, 0]))


def _walk(
    start: int, max_steps: int, ceiling: int, table: SieveTable, flags, stops_past, known_next
):
    """Iterate s from `start`: (trajectory list, outcome, cycle entry index or None).

    The one loop over s, shared by `aliquot_sequence` and `find_cycles`. The
    list follows `AliquotResult`; values past the table come from `table.s`.
    `flags` is a bytearray with one slot per index 0..table.limit: 0 for a
    value of unknown end, 1 for a known end, 2 for a value on this walk's
    own path. The walk writes 2 into the slot of each of its values within
    the table, `start` included, and leaves them so: the caller resets them.
    Past the table, `stops_past` is a set of values of known end, and the
    walk keeps its own values in a set of its own. When the next value is
    of known end, the walk returns at once with outcome None, leaving that
    value off the list; when it is on the path, the walk has entered a
    cycle, found by `path.index`. `start` itself is never tested.
    `known_next` maps values past table.limit to their s-value; the walk
    reads it before calling `table.s` and never writes to it.
    """
    s_values, limit, lookup = table.s_values, table.limit, table.s
    path = [start]
    own_past = set()
    if start <= limit:
        flags[start] = 2
    else:
        own_past.add(start)
    current = start
    for _ in range(max_steps):
        # past the table s(n) >= 1, so `or` falls through to table.s only on a miss
        nxt = s_values[current] if current <= limit else known_next.get(current) or lookup(current)
        if nxt == current:
            return path, AliquotOutcome.FIXED_POINT, None
        if nxt == 0:
            path.append(0)
            return path, AliquotOutcome.REACHED_ZERO, None
        if nxt <= limit:
            flag = flags[nxt]
            if flag:
                if flag == 1:
                    return path, None, None
                return path, AliquotOutcome.ENTERED_CYCLE, path.index(nxt)
            flags[nxt] = 2
        elif nxt in stops_past:
            return path, None, None
        elif nxt in own_past:
            return path, AliquotOutcome.ENTERED_CYCLE, path.index(nxt)
        else:
            own_past.add(nxt)
        path.append(nxt)
        if nxt > ceiling:
            return path, AliquotOutcome.CEILING_EXCEEDED, None
        current = nxt
    return path, AliquotOutcome.STEPS_EXHAUSTED, None


def aliquot_sequence(start: int, max_steps: int = 100, ceiling: int = 10**15) -> AliquotResult:
    """Iterate s from `start` for at most `max_steps` applications.

    Each step is `SieveTable.s` on a two-slot table, which strips the primes
    below 1000 and factorizes only a rough cofactor. Each call passes the
    walk a fresh two-slot flag table, since the walk marks slot 1 when it
    passes 1.
    """
    need_int(start, 1, "aliquot sequences start at an integer of 1 or above")
    need_int(max_steps, 1, "max_steps must be at least 1")
    need_int(ceiling, start, "ceiling must not be below the starting value")
    trajectory, outcome, entry = _walk(
        start, max_steps, ceiling, _UNIT_TABLE, bytearray(2), frozenset(), {}
    )
    fixed = trajectory[-1] if outcome is AliquotOutcome.FIXED_POINT else None
    cycle = None if entry is None else tuple(trajectory[entry:])
    return AliquotResult(start, tuple(trajectory), outcome, fixed, cycle, entry)


@dataclass(frozen=True)
class CycleCheck:
    """Verdict with the first violated condition, if any."""

    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_cycle(members: list[int] | tuple[int, ...]) -> CycleCheck:
    """Check the sociable-cycle conditions in order.

    Length at least two, all members nonzero, no repeats, and s maps each
    member to the next with wraparound. The verdict is truthy on success.
    A negative or non-integer member, or an argument that is not a sequence
    of members, raises BadParameter before any verdict.
    """
    try:
        members = tuple(members)
    except TypeError:
        kind = type(members).__name__
        raise BadParameter(f"verify_cycle expects a sequence of members, got {kind}") from None
    for v in members:
        need_int(v, 0, "verify_cycle expects nonnegative integer members")
    if len(members) < 2:
        return CycleCheck(False, "length below 2")
    if any(v == 0 for v in members):
        return CycleCheck(False, "zero member")
    if len(set(members)) != len(members):
        return CycleCheck(False, "repeated member")
    count = len(members)
    for i, v in enumerate(members):
        expected = members[(i + 1) % count]
        if aliquot_s(v) != expected:
            return CycleCheck(False, "s(%d) != %d" % (v, expected))  # a bool as digits
    return CycleCheck(True)


@dataclass(frozen=True)
class SociableCycle:
    members: tuple[int, ...]
    length: int


def _canonical(cycle: list[int]) -> tuple[int, ...]:
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


def find_cycles(limit: int, max_len: int) -> list[SociableCycle]:
    """Sociable cycles reachable from starts up to `limit` within `max_len` steps.

    Each start runs `_walk` over one sieve to `limit`, abandoned once a value
    passes 64 * limit; values beyond the sieve come from `SieveTable.s`. Each
    cycle is reported once, rotated so its minimum comes first, and
    re-verified by `verify_cycle` on the `aliquot_s` route, raising
    VerificationFailed if that fails. Output is sorted, hence deterministic.

    Walks stop at values whose end is already known. A flag per table slot
    marks them in the table with 1, and a set holds them past it: a flagged
    start is skipped, a walk stops at a value flagged 1 or one in the set,
    and every walk that does not run out of steps flags the in-table members
    of its path 1 and adds the others to the set. While it runs, a walk flags
    its own in-table values 2, so a repeat among them shows in the same
    table; after it, its 2s become 1s, or 0s if it ran out of steps, so
    between walks every flag is 0 or 1. The trajectory of a known value
    reaches 0 or a perfect number, enters a cycle already found, or passes
    64 * limit before any repeat; a repeat through the new walk's own prefix
    would have closed the earlier walk first. So a walk that reaches a known
    value cannot add a cycle, whatever its step budget. A walk that ran out
    of steps proves nothing about other budgets, so its values stay unknown.
    Most starts settle in one step: when s(start) is already known, the start
    is flagged at once, as the walk would do after returning [start] with
    outcome None.

    A walk that ran out of steps still leaves facts behind: each of its
    values past the table, but its last, is mapped to the next value on its
    path, and later walks read that map before `SieveTable.s`. The map
    changes no walk's path or outcome, only where its successors come from,
    so each value past the table is looked up once.
    """
    need_int(limit, 2, "cycle search limit must be at least 2")
    need_int(max_len, 2, "cycles have length at least 2")

    table = build_sieve(limit)
    s_values = table.s_values
    bound = 64 * limit
    found: set[tuple[int, ...]] = set()
    dead = bytearray(limit + 1)
    dead_past: set[int] = set()
    next_past: dict[int, int] = {}
    for start in range(2, limit + 1):
        if dead[start]:
            continue
        nxt = s_values[start]
        # dead[start] is 0, so a perfect start, its own successor, walks
        if dead[nxt] if nxt <= limit else nxt in dead_past:
            dead[start] = 1
            continue
        path, outcome, entry = _walk(start, max_len, bound, table, dead, dead_past, next_past)
        if entry is not None:
            # a fixed point has no entry, so the cycle has at least two members
            found.add(_canonical(path[entry:]))
        if outcome is AliquotOutcome.STEPS_EXHAUSTED:
            for value in path:
                if value <= limit:
                    dead[value] = 0
            # the last value's successor was never computed
            for value, successor in zip(path, path[1:]):
                if value > limit:
                    next_past[value] = successor
        else:
            for value in path:
                if value <= limit:
                    dead[value] = 1
                else:
                    dead_past.add(value)

    cycles = []
    for members in sorted(found):
        check = verify_cycle(members)
        if not check.ok:
            raise VerificationFailed(f"cycle {members} failed re-verification: {check.failure}")
        cycles.append(SociableCycle(members, len(members)))
    return cycles

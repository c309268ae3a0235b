"""Aliquot sequences and sociable cycles.

Iterating n, s(n), s(s(n)), ... either reaches 0, sticks at a perfect number,
falls into a cycle, or keeps going past whatever practical cap was set. A
sociable cycle is a cycle of length at least two; amicable pairs are exactly
the cycles of length two, and length-one loops are reported as fixed points,
never as cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .divisor import aliquot_s, build_sieve
from .errors import BadParameter, VerificationFailed


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


def aliquot_sequence(start: int, max_steps: int = 100, ceiling: int = 10**15) -> AliquotResult:
    """Iterate s from `start` for at most `max_steps` applications."""
    if start < 1:
        raise BadParameter("aliquot sequences start at 1 or above")
    if max_steps < 1:
        raise BadParameter("max_steps must be at least 1")
    if ceiling < start:
        raise BadParameter("ceiling must not be below the starting value")

    trajectory = [start]
    index = {start: 0}
    current = start
    for _ in range(max_steps):
        nxt = aliquot_s(current)
        if nxt == current:
            return AliquotResult(
                start, tuple(trajectory), AliquotOutcome.FIXED_POINT, fixed_point=current
            )
        if nxt == 0:
            trajectory.append(0)
            return AliquotResult(start, tuple(trajectory), AliquotOutcome.REACHED_ZERO)
        if nxt in index:
            entry = index[nxt]
            return AliquotResult(
                start,
                tuple(trajectory),
                AliquotOutcome.ENTERED_CYCLE,
                cycle=tuple(trajectory[entry:]),
                entry_index=entry,
            )
        trajectory.append(nxt)
        if nxt > ceiling:
            return AliquotResult(start, tuple(trajectory), AliquotOutcome.CEILING_EXCEEDED)
        index[nxt] = len(trajectory) - 1
        current = nxt
    return AliquotResult(start, tuple(trajectory), AliquotOutcome.STEPS_EXHAUSTED)


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
    """
    members = tuple(members)
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
            return CycleCheck(False, f"s({v}) != {expected}")
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

    Trajectory values are allowed to wander up to 64 * limit before a start is
    abandoned. Values beyond the sieve come from `SieveTable.s`. Each cycle is
    reported once, rotated so its minimum comes first, and re-verified through
    `verify_cycle`, raising VerificationFailed if that fails. Output is
    sorted, hence deterministic.
    """
    if limit < 2:
        raise BadParameter("cycle search limit must be at least 2")
    if max_len < 2:
        raise BadParameter("cycles have length at least 2")

    table = build_sieve(limit)
    s_values = table.s_values
    lookup = table.s
    bound = 64 * limit

    found: set[tuple[int, ...]] = set()
    for start in range(2, limit + 1):
        path = [start]
        index = {start: 0}
        current = start
        for _ in range(max_len):
            nxt = s_values[current] if current <= limit else lookup(current)
            if nxt == current or nxt == 0 or nxt > bound:
                break
            if nxt in index:
                # nxt != current, so the cycle has at least two members
                found.add(_canonical(path[index[nxt]:]))
                break
            index[nxt] = len(path)
            path.append(nxt)
            current = nxt

    cycles = []
    for members in sorted(found):
        check = verify_cycle(members)
        if not check.ok:
            raise VerificationFailed(f"cycle {members} failed re-verification: {check.failure}")
        cycles.append(SociableCycle(members, len(members)))
    return cycles

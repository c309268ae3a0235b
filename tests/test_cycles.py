"""Aliquot sequences and sociable cycles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amicable.cycles as cycles_module
from amicable import (
    AliquotOutcome,
    AliquotResult,
    BadParameter,
    aliquot_s,
    aliquot_sequence,
    find_cycles,
    verify_cycle,
)

POULET = (12496, 14288, 15472, 14536, 14264)


def test_aliquot_reaches_zero():
    r = aliquot_sequence(12)
    assert r.trajectory == (12, 16, 15, 9, 4, 3, 1, 0)
    assert r.outcome is AliquotOutcome.REACHED_ZERO
    assert r.cycle is None and r.fixed_point is None


def test_aliquot_prime_goes_to_zero_in_two_steps():
    r = aliquot_sequence(97)
    assert r.trajectory == (97, 1, 0)
    assert r.outcome is AliquotOutcome.REACHED_ZERO


def test_aliquot_sequence_keeps_no_state_between_calls():
    # the walk flags slot 1 of its two-slot flag table when it passes 1; a table shared
    # across calls would read that flag as a repeat on the next walk through 1
    aliquot_sequence(1)
    assert aliquot_sequence(97).trajectory == (97, 1, 0)


def test_aliquot_fixed_point():
    r = aliquot_sequence(6)
    assert r.outcome is AliquotOutcome.FIXED_POINT
    assert r.fixed_point == 6
    assert r.trajectory == (6,)


def test_aliquot_fixed_point_reached_from_tail():
    r = aliquot_sequence(95)
    assert r.trajectory == (95, 25, 6)
    assert r.outcome is AliquotOutcome.FIXED_POINT
    assert r.fixed_point == 6


def test_aliquot_enters_cycle():
    r = aliquot_sequence(220)
    assert r.outcome is AliquotOutcome.ENTERED_CYCLE
    assert r.trajectory == (220, 284)
    assert r.cycle == (220, 284)
    assert r.entry_index == 0


def test_aliquot_trajectory_links():
    from amicable import aliquot_s

    r = aliquot_sequence(30, max_steps=100)
    assert r.outcome is AliquotOutcome.REACHED_ZERO
    for a, b in zip(r.trajectory, r.trajectory[1:]):
        assert aliquot_s(a) == b


def test_aliquot_steps_exhausted():
    r = aliquot_sequence(30, max_steps=3)
    assert r.outcome is AliquotOutcome.STEPS_EXHAUSTED
    assert r.trajectory == (30, 42, 54, 66)


def test_aliquot_ceiling_exceeded():
    r = aliquot_sequence(30, max_steps=50, ceiling=100)
    assert r.outcome is AliquotOutcome.CEILING_EXCEEDED
    # the offending value is kept as the last entry
    assert r.trajectory == (30, 42, 54, 66, 78, 90, 144)


def sequence_by_aliquot_s(start, steps, ceiling):
    # the AliquotResult conventions, with every step computed from the factorization
    trajectory = [start]
    for _ in range(steps):
        current, nxt = trajectory[-1], aliquot_s(trajectory[-1])
        if nxt == current:
            return AliquotResult(start, tuple(trajectory), AliquotOutcome.FIXED_POINT, current)
        if nxt == 0:
            return AliquotResult(start, (*trajectory, 0), AliquotOutcome.REACHED_ZERO)
        if nxt in trajectory:
            entry = trajectory.index(nxt)
            cycle = tuple(trajectory[entry:])
            return AliquotResult(
                start, tuple(trajectory), AliquotOutcome.ENTERED_CYCLE, None, cycle, entry
            )
        trajectory.append(nxt)
        if nxt > ceiling:
            return AliquotResult(start, tuple(trajectory), AliquotOutcome.CEILING_EXCEEDED)
    return AliquotResult(start, tuple(trajectory), AliquotOutcome.STEPS_EXHAUSTED)


@st.composite
def walks(draw):
    start = draw(st.integers(1, 10**7))
    # a ceiling near the start is the one a walk can break within 40 steps
    ceiling = draw(st.integers(start, 10**15) | st.integers(start, 2 * start))
    return start, draw(st.integers(1, 40)), ceiling


@settings(max_examples=100, deadline=None)
@given(walks())
def test_aliquot_sequence_matches_walk_by_aliquot_s(walk):
    assert vars(aliquot_sequence(*walk)) == vars(sequence_by_aliquot_s(*walk))


P60 = 2**60 + 33  # the least prime above 2**60
SEMIPRIME = 4294967311 * 4294967357  # the two least primes above 2**32

# (start, steps, ceiling): one case per outcome below 10**7, then starts past
# 2**64: a prime, 2**10 times a prime, and a semiprime whose step needs factorize
EXPLICIT_WALKS = [
    (6, 5, 6),
    (12496, 40, 10**15),
    (30, 50, 100),
    (30, 50, 144),  # 144 is on the trajectory, and a value equal to the ceiling is allowed
    (30, 3, 10**15),
    (2**64 + 13, 40, 2**64 + 13),
    (2**10 * P60, 20, 2**10 * P60),
    (2**10 * P60, 20, 10**30),
    (SEMIPRIME, 40, SEMIPRIME),
]


def test_explicit_walks_match_aliquot_s_and_reach_every_outcome():
    outcomes = set()
    for walk in EXPLICIT_WALKS:
        expected = sequence_by_aliquot_s(*walk)
        assert vars(aliquot_sequence(*walk)) == vars(expected), walk
        outcomes.add(expected.outcome)
    assert outcomes == set(AliquotOutcome)


def test_verify_cycle_accepts_known_cycles():
    assert verify_cycle(POULET).ok
    assert verify_cycle([220, 284]).ok
    assert verify_cycle((1184, 1210)).ok


def test_verify_cycle_rotation_invariant():
    for shift in range(len(POULET)):
        rotated = POULET[shift:] + POULET[:shift]
        assert verify_cycle(rotated).ok


def test_verify_cycle_rejections_name_first_failure():
    assert not verify_cycle([6])
    assert verify_cycle([6]).failure == "length below 2"
    assert verify_cycle([0, 0]).failure == "zero member"
    assert verify_cycle([220, 284, 220, 284]).failure == "repeated member"
    check = verify_cycle([220, 285])
    assert not check.ok and check.failure.startswith("s(")
    # reversed order breaks the mapping even though the set is right
    assert not verify_cycle(POULET[::-1]).ok


@pytest.mark.parametrize("members", [[-1], [-5, 0], [-5, -5], [-5, 3], [1.5], 220, None])
def test_verify_cycle_refuses_a_negative_or_float_member_or_a_bare_value(members):
    # a negative or float member is outside s's domain, however short the list or whatever
    # it holds; so is a bare int or None where the sequence of members belongs
    with pytest.raises(BadParameter):
        verify_cycle(members)


def test_find_cycles_frozen_examples():
    assert find_cycles(100, 5) == []
    cycles = find_cycles(300, 2)
    assert [c.members for c in cycles] == [(220, 284)]
    assert cycles[0].length == 2


def test_find_cycles_canonical_and_deterministic():
    first = find_cycles(1300, 2)
    second = find_cycles(1300, 2)
    assert first == second
    for c in first:
        assert c.members[0] == min(c.members)
        assert c.length == len(c.members)
        assert verify_cycle(c.members).ok


def cycles_by_aliquot_s(limit, max_len):
    # the walk of find_cycles with every step computed from the factorization
    found = set()
    for start in range(2, limit + 1):
        path = [start]
        index = {start: 0}
        for _ in range(max_len):
            nxt = aliquot_s(path[-1])
            if nxt == path[-1] or nxt == 0 or nxt > 64 * limit:
                break
            if nxt in index:
                cycle = path[index[nxt]:]
                if len(cycle) >= 2:
                    pivot = cycle.index(min(cycle))
                    found.add(tuple(cycle[pivot:] + cycle[:pivot]))
                break
            index[nxt] = len(path)
            path.append(nxt)
    return sorted(found)


def test_find_cycles_matches_walk_by_aliquot_s():
    cycles = find_cycles(20_000, 30)
    assert [c.members for c in cycles] == cycles_by_aliquot_s(20_000, 30)
    assert len(cycles) == 10


# walks that run out of steps must not mark their values: if they did, the
# first three examples would lose (1184, 1210), then (2620, 2924), then Poulet's
# 5-cycle. At the small limits below them most values lie past the table, so
# the set of known values there and the one-step settling of starts do most of
# the stopping: (250, 30) loses (220, 284) if a start settles on any successor
# past the table, and (1190, 3) loses (1184, 1210) if the set takes the values
# of walks that ran out of steps
@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3000), st.integers(2, 40))
@example(1500, 2)
@example(3000, 3)
@example(13_000, 5)
@example(60, 30)
@example(250, 30)
@example(300, 40)
@example(1190, 3)
def test_find_cycles_matches_walk_by_aliquot_s_on_drawn_bounds(limit, max_len):
    assert [c.members for c in find_cycles(limit, max_len)] == cycles_by_aliquot_s(limit, max_len)


def test_find_cycles_stops_at_values_with_known_end(monkeypatch):
    # every start walked in full would sum to 250,222 path entries at this bound
    walked = []
    walk = cycles_module._walk

    def counting_walk(*args):
        result = walk(*args)
        walked.append(len(result[0]))
        return result

    monkeypatch.setattr(cycles_module, "_walk", counting_walk)
    assert len(find_cycles(20_000, 30)) == 10
    assert sum(walked) < 100_000


def test_find_cycles_looks_up_known_values_past_the_table_once(monkeypatch):
    # every value past the table is looked up once: the set of known values
    # stops walks that would repeat a walk that ended, and the successor map
    # serves the values of walks that ran out of steps. Without the map this
    # bound makes 10,634 lookups past the table for 7,349 distinct values
    past = []
    lookup = cycles_module.SieveTable.s

    def counting_lookup(table, n):
        if n > table.limit:
            past.append(n)
        return lookup(table, n)

    monkeypatch.setattr(cycles_module.SieveTable, "s", counting_lookup)
    assert len(find_cycles(20_000, 30)) == 10
    assert len(past) == len(set(past))

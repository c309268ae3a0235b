"""Pair checks, searches, and audits."""

import random
import sys
import tracemalloc
from math import gcd, isqrt

import pytest

from amicable import (
    BadParameter,
    GuardFailure,
    LimitTooLarge,
    Oracle,
    PairKind,
    audit,
    check_amicable,
    check_betrothed,
    is_amicable_number,
    search_amicable,
    search_betrothed,
)


def s_oracle(n):
    if n <= 1:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total - n


def enumerate_pairs(limit, shift):
    """Pairs (m, n) with m <= limit, m < n, s(m) = n + shift, s(n) = m + shift, by s_oracle."""
    expected = []
    for m in range(2, limit + 1):
        n = s_oracle(m) - shift
        if n > m and s_oracle(n) == m + shift:
            expected.append((m, n))
    return expected


# Both searches at 20000, frozen from enumerate_pairs(20000, shift).
PAIRS_AT_20000 = {
    search_amicable: (
        (220, 284), (1184, 1210), (2620, 2924), (5020, 5564),
        (6232, 6368), (10744, 10856), (12285, 14595), (17296, 18416),
    ),
    search_betrothed: (
        (48, 75), (140, 195), (1050, 1925), (1575, 1648),
        (2024, 2295), (5775, 6128), (8892, 16587), (9504, 20735),
    ),
}


def test_check_amicable_frozen_examples():
    assert check_amicable(220, 284).kind is PairKind.AMICABLE
    assert check_amicable(1184, 1210).kind is PairKind.AMICABLE
    assert check_amicable(220, 285).kind is PairKind.NEITHER
    assert check_amicable(48, 75).kind is PairKind.NEITHER


def test_check_amicable_records_aliquot_sums():
    v = check_amicable(220, 284)
    assert (v.s_m, v.s_n) == (284, 220)
    assert v.guard_failures == ()


def test_check_amicable_guards():
    v = check_amicable(6, 6)
    assert v.kind is PairKind.NEITHER
    assert v.guard_failures == (GuardFailure.EQUAL_MEMBERS,)
    assert (v.s_m, v.s_n) == (6, 6)  # perfect number, still Neither

    v = check_amicable(0, 284)
    assert v.guard_failures == (GuardFailure.ZERO_MEMBER,)
    assert (v.s_m, v.s_n) == (0, 220)

    v = check_amicable(0, 0)
    assert set(v.guard_failures) == {GuardFailure.ZERO_MEMBER, GuardFailure.EQUAL_MEMBERS}
    assert (v.s_m, v.s_n) == (0, 0)


def test_check_amicable_symmetric():
    rng = random.Random(808)
    samples = [(220, 284), (1184, 1210), (48, 75), (6, 6), (0, 3)]
    samples += [(rng.randrange(5000), rng.randrange(5000)) for _ in range(200)]
    for m, n in samples:
        assert check_amicable(m, n).kind == check_amicable(n, m).kind


def test_check_betrothed_frozen_examples():
    assert check_betrothed(48, 75).kind is PairKind.BETROTHED
    assert check_betrothed(140, 195).kind is PairKind.BETROTHED
    assert check_betrothed(220, 284).kind is PairKind.NEITHER
    v = check_betrothed(48, 75)
    assert (v.s_m, v.s_n) == (76, 49)


def test_check_betrothed_guards_match_amicable_guards():
    assert check_betrothed(5, 5).guard_failures == (GuardFailure.EQUAL_MEMBERS,)
    assert check_betrothed(0, 5).guard_failures == (GuardFailure.ZERO_MEMBER,)


def test_is_amicable_number():
    assert is_amicable_number(284) == 220
    assert is_amicable_number(220) == 284
    assert is_amicable_number(1184) == 1210
    assert is_amicable_number(97) is None  # prime
    assert is_amicable_number(1) is None
    assert is_amicable_number(0) is None
    assert is_amicable_number(6) is None  # perfect, not amicable
    assert is_amicable_number(12) is None


def test_search_amicable_frozen_small_limits():
    assert search_amicable(200).pairs == ()
    assert search_amicable(300).pairs == ((220, 284),)
    assert search_amicable(1300).pairs == ((220, 284), (1184, 1210))


def test_search_amicable_finds_partner_beyond_limit():
    # 220 <= limit < 284: the partner lies past the limit and is still found
    assert search_amicable(250).pairs == ((220, 284),)


def test_search_amicable_all_even_true_below_12285():
    report = search_amicable(11_000)
    assert report.all_even is True
    assert report.min_gcd == 2


def test_search_matches_enumeration_and_reports_the_sieve():
    report = search_amicable(2500)
    assert list(report.pairs) == enumerate_pairs(2500, 0)
    assert report.oracle is Oracle.SIEVE


def test_search_parallel_matches_serial():
    serial = search_amicable(2500)
    parallel = search_amicable(2500, parallel=True, workers=3)
    assert serial == parallel


def test_search_betrothed_frozen_limits():
    assert search_betrothed(40).pairs == ()
    assert search_betrothed(100).pairs == ((48, 75),)
    assert search_betrothed(200).pairs == ((48, 75), (140, 195))
    assert search_betrothed(2100).pairs == (
        (48, 75),
        (140, 195),
        (1050, 1925),
        (1575, 1648),
        (2024, 2295),
    )


def test_search_betrothed_completeness_against_double_loop():
    assert list(search_betrothed(1200).pairs) == enumerate_pairs(1200, 1)


def test_search_betrothed_matches_enumeration_and_takes_no_pool_arguments():
    expected = enumerate_pairs(500, 1)
    assert list(search_betrothed(500).pairs) == expected
    # the betrothed search has no pool: only search_amicable takes parallel
    for kwargs in ({"parallel": True}, {"workers": 2}):
        with pytest.raises(TypeError):
            search_betrothed(100, **kwargs)


@pytest.mark.parametrize("search", [search_amicable, search_betrothed])
def test_search_engines_agree_at_20000(monkeypatch, search):
    # partners past 20000 come from the table plus trial division; the sieve
    # table is a numpy array when numpy imports and a list when it does not;
    # only the amicable search has a pool
    pooled = search is search_amicable
    sieve = search(20_000)
    assert sieve.pairs == PAIRS_AT_20000[search]
    reports = [search(20_000, parallel=True, workers=2)] if pooled else []
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now fails
    reports.append(search(20_000))
    if pooled:
        reports.append(search(20_000, parallel=True, workers=2))
    for report in [sieve, *reports]:
        assert report == sieve
        assert all(type(x) is int for pair in report.pairs for x in pair)


def test_search_refuses_the_method_keyword_a_limit_past_the_cap_and_no_workers():
    # a limit below 2 fails the gate, whose least value test_contract.py pins
    for search in (search_amicable, search_betrothed):
        with pytest.raises(TypeError):
            search(100, method="direct")  # the direct route is gone
    # the search table is held to the exactness cap, refused before it is
    # allocated, and worker counts are checked before any table is built
    tracemalloc.start()
    try:
        with pytest.raises(LimitTooLarge, match="the exactness cap of 4-byte entries"):
            search_amicable(932_277_513)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for workers in (0, -1):
        with pytest.raises(BadParameter, match="at least one worker"):
            search_amicable(1000, parallel=True, workers=workers)


def test_audit_fields():
    report = search_amicable(2000)
    result = audit(report)
    assert result.all_even is True
    assert result.min_gcd == min(gcd(m, n) for m, n in report.pairs)
    assert result.coprime_found is False

    empty = search_amicable(200)
    result = audit(empty)
    assert result.all_even is True  # vacuous
    assert result.min_gcd == 0
    assert result.coprime_found is False


def test_audit_betrothed_parity_is_mixed():
    report = search_betrothed(200)
    result = audit(report)
    assert result.all_even is False
    assert result.min_gcd == 3
    assert result.coprime_found is False

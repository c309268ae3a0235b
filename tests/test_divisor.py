"""Divisor engine: sigma, the aliquot map, sieving, classification."""

import random
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import amicable.divisor
import amicable.numeric
from amicable import (
    BadParameter,
    Classification,
    LimitTooLarge,
    SieveTable,
    ZeroInput,
    aliquot_s,
    build_sieve,
    classify,
    factorize,
    sigma,
    sigma_brute,
)


def sigma_oracle(n):
    # independent enumeration, written fresh here rather than imported
    if n == 0:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def test_sigma_frozen_examples():
    assert sigma(12) == 28
    assert sigma(2**5) == 63
    assert sigma(1) == 1
    assert sigma(0) == 0
    assert sigma(220) == 504
    assert sigma(284) == 504
    assert sigma(48) == 124
    assert sigma(75) == 124
    assert sigma(360) == 1170


def test_sigma_rejects_negative():
    with pytest.raises(BadParameter):
        sigma(-1)


def test_sigma_brute_matches_examples():
    assert sigma_brute(12) == 28
    assert sigma_brute(71) == 72
    assert sigma_brute(0) == 0
    assert sigma_brute(1) == 1


def test_oracle_equivalence_to_1e4():
    table = build_sieve(10_000)
    for n in range(1, 10_001):
        brute = sigma_brute(n)
        assert sigma(n) == brute
        assert table.s_values[n] == brute - n


def test_sigma_multiplicative_on_coprime_pairs():
    from math import gcd

    rng = random.Random(551)
    checked = 0
    while checked < 100:
        m = rng.randrange(2, 30_000)
        n = rng.randrange(2, 30_000)
        if gcd(m, n) != 1:
            continue
        assert sigma(m * n) == sigma(m) * sigma(n)
        checked += 1


def test_sigma_powers_of_two():
    for e in range(0, 61):
        assert sigma(2**e) == 2 ** (e + 1) - 1


def test_aliquot_prime_law():
    # s(p) = 1 for the first 1000 primes
    primes = []
    n = 2
    while len(primes) < 1000:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    for p in primes:
        assert aliquot_s(p) == 1


def test_aliquot_conventions():
    assert aliquot_s(0) == 0
    assert aliquot_s(1) == 0
    assert aliquot_s(220) == 284
    assert aliquot_s(284) == 220
    assert aliquot_s(12) == 16


def test_build_sieve_values():
    table = build_sieve(300)
    assert table.limit == 300
    assert len(table.s_values) == 301
    assert table.s_values[0] == 0
    assert table.s_values[1] == 0
    assert table.s_values[220] == 284
    assert table.s_values[284] == 220
    assert table.s_values[(6)] == 6
    # spot-check every slot against the enumeration oracle
    for n in range(1, 301):
        assert table.s_values[n] == sigma_oracle(n) - n


def test_build_sieve_limit_one():
    table = build_sieve(1)
    assert table.s_values.tolist() == [0, 0]


def test_build_sieve_rejects_bad_limits(monkeypatch):
    with pytest.raises(BadParameter):
        build_sieve(0)
    monkeypatch.setenv("AMICABLE_SIEVE_BUDGET", "1000")
    # the budget holds for both storages
    for array in (False, True):
        with pytest.raises(LimitTooLarge):
            build_sieve(10_000, array=array)
        assert build_sieve(999, array=array).limit == 999
    with pytest.raises(TypeError):
        build_sieve(10_000, 1000)  # the budget is no longer an argument
    for bad in ("abc", "1e6", " "):
        monkeypatch.setenv("AMICABLE_SIEVE_BUDGET", bad)
        with pytest.raises(BadParameter, match=f"AMICABLE_SIEVE_BUDGET={bad!r}"):
            build_sieve(100)


def test_build_sieve_budget_env_override(monkeypatch):
    monkeypatch.setenv("AMICABLE_SIEVE_BUDGET", "100")
    with pytest.raises(LimitTooLarge):
        build_sieve(5000)
    monkeypatch.setenv("AMICABLE_SIEVE_BUDGET", "6000")
    assert build_sieve(5000).limit == 5000


def additive_sieve(limit):
    # reference construction: add each d to the slot of every proper multiple of d
    s_values = [0] * (limit + 1)
    for d in range(1, limit // 2 + 1):
        for multiple in range(2 * d, limit + 1, d):
            s_values[multiple] += d
    return s_values


def test_build_sieve_equals_additive_sieve_small_limits():
    for limit in range(1, 65):
        assert build_sieve(limit).s_values.tolist() == additive_sieve(limit), limit


def test_build_sieve_equals_additive_sieve_at_2e5():
    assert build_sieve(200_000).s_values.tolist() == additive_sieve(200_000)


def primes_above(n, count):
    found = []
    while len(found) < count:
        n += 1
        if sigma_oracle(n) == n + 1:
            found.append(n)
    return found


# rough parts: none, a prime, a product of two primes, and a prime past 1000**2
ROUGH_PARTS = (1, 1009, 1009 * 1013, 999983)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_lookup_beyond_limit_matches_oracles(data):
    limit = data.draw(st.integers(1, 3000), label="limit")
    table = build_sieve(limit)
    n = data.draw(st.integers(limit + 1, 64 * limit), label="n")
    assert table.s(n) == aliquot_s(n) == sigma_brute(n) - n
    # the rough tail: k * p * q with primes p, q above 1000 reaches the rho splitter
    # (q stays below 2**24 so rho finds it quickly; p reaches past 2**32)
    p = sympy.nextprime(data.draw(st.integers(1000, 2**40), label="p"))
    q = sympy.nextprime(data.draw(st.integers(1000, 2**24), label="q"))
    n = data.draw(st.integers(1, 10**4), label="k") * p * q
    assert table.s(n) == aliquot_s(n) == sympy.divisor_sigma(n) - n
    # 2**a * 3**b * 997**c * q: the odd part, its 1000-smooth part and its rough part q
    # each fall inside or past the limit
    a = data.draw(st.integers(0, 70), label="a")
    b = data.draw(st.integers(0, 25), label="b")
    c = data.draw(st.integers(0, 4), label="c")
    q = data.draw(st.sampled_from(ROUGH_PARTS), label="q")
    n = 2**a * 3**b * 997**c * q
    assert table.s(n) == SieveTable(1, [0, 0]).s(n) == aliquot_s(n) == sympy.divisor_sigma(n) - n


def test_table_lookup_inside_limit_reads_table():
    table = build_sieve(500)
    assert [table.s(n) for n in range(501)] == table.s_values.tolist()
    with pytest.raises(BadParameter):
        table.s(-1)
    # past the limit, s reads sigma(1) from slot 1, so a table must hold it
    with pytest.raises(BadParameter):
        SieveTable(0, [0])


def test_table_lookup_explicit_cases(monkeypatch):
    limit = 1000
    table = build_sieve(limit)
    fermat_calls, rho_calls = [], []
    fermat_factor = amicable.numeric._fermat_factor
    brent_factor = amicable.numeric._brent_factor
    monkeypatch.setattr(amicable.numeric, "_fermat_factor", lambda n: fermat_calls.append(n) or fermat_factor(n))
    monkeypatch.setattr(amicable.numeric, "_brent_factor", lambda n: rho_calls.append(n) or brent_factor(n))
    lookup = table.s

    assert lookup(limit + 1) == sigma_oracle(limit + 1) - (limit + 1)
    for p in primes_above(limit, 8) + primes_above(10**6, 4):
        assert lookup(p) == 1
        assert lookup(2 * p) == sigma_oracle(2 * p) - 2 * p
    for k in range(10, 90):
        assert lookup(2**k) == 2**k - 1
    for k in range(7, 60):
        assert lookup(3**k) == (3 ** (k + 1) - 1) // 2 - 3**k
    # a prime cofactor above 2**64, decided by the probabilistic test
    m89 = 2**89 - 1
    assert lookup(3 * m89) == 4 * (m89 + 1) - 3 * m89
    assert fermat_calls == rho_calls == []

    # cofactors with two or more prime factors above 1000. The stages split a piece with
    # primes from two stages, or a square; Fermat sees only the pieces they cannot split:
    # squarefree products of one stage's primes, and pieces with no prime below 2**16.
    # Fermat splits those whose factors it meets at its first square root, such as close
    # primes or squares, and rho sees only the rest
    rough = [
        1009 * 1013, 1009**2, 2 * 1009 * 1013, 12 * 1013 * 1019, 1009 * 1013 * 1019,
        1009 * 4099, 4093 * 4099 * 16411, 16381**2 * 65521,
        65537 * 65539, 1009 * 65537 * 65539, 65537**2, 4099 * 16411 * 65537,
    ]
    for n in rough:
        assert lookup(n) == sympy.divisor_sigma(n) - n
    assert fermat_calls == [
        1009 * 1013, 1009 * 1013, 1013 * 1019, 1009 * 1013 * 1019, 1013 * 1019,
        65537 * 65539, 65537 * 65539, 65537**2,
    ]
    assert rho_calls == []
    fermat_calls.clear()
    # one-stage products and 2**16-rough pieces whose factors Fermat misses
    rough = [
        1009 * 3001, 1013 * 2003 * 3001, 4111 * 9001, 16411 * 40009,
        65537 * 100003, 1009 * 65537 * 100003, 100003 * 1000003,
    ]
    for n in rough:
        assert lookup(n) == sympy.divisor_sigma(n) - n
    missed = [
        1009 * 3001, 1013 * 2003 * 3001, 2003 * 3001, 4111 * 9001, 16411 * 40009,
        65537 * 100003, 65537 * 100003, 100003 * 1000003,
    ]
    assert fermat_calls == rho_calls == missed

    # a rough cofactor is prime-tested once, not again through sigma and factorize
    tested = []
    is_prime = amicable.numeric.is_prime
    monkeypatch.setattr(amicable.numeric, "is_prime", lambda n: tested.append(n) or is_prime(n))
    factorize.cache_clear()
    n = 2 * 1009 * 1013
    assert SieveTable(1, [0, 0]).s(n) == sigma_oracle(n) - n
    assert tested == [1009 * 1013]
    # so is each piece the stages split off: 4093 is below 1000**2, 4099 * 16411 is not
    tested.clear()
    n = 2 * 4093 * 4099 * 16411
    assert SieveTable(1, [0, 0]).s(n) == sympy.divisor_sigma(n) - n
    assert tested == [4093 * 4099 * 16411, 4099 * 16411]


def test_table_lookup_peels_twos_smooth_and_rough_parts(monkeypatch):
    limit = 20_000
    tables = [build_sieve(limit), build_sieve(limit, array=True), SieveTable(1, [0, 0])]
    split = []
    split_rough = amicable.divisor._split_rough
    monkeypatch.setattr(amicable.divisor, "_split_rough", lambda n: split.append(n) or split_rough(n))

    def check(n, rough_past_limit):
        want = aliquot_s(n)
        assert want == sympy.divisor_sigma(n) - n, n
        split.clear()
        assert tables[0].s(n) == want, n
        # only a rough part past the limit goes to the rho splitter
        assert split == rough_past_limit, n
        assert [table.s(n) for table in tables[1:]] == [want, want], n

    for k in range(15, 90):
        check(2**k, [])  # the odd part is 1
    check(2**20 * 19997, [])  # the odd part is in the table
    check(3**10 * 5 * 19997, [])  # the smooth part past the limit, the rough part inside it
    check(2 * 3**10 * 5**7 * 997**2, [])  # the smooth part past the limit, a rough part of 1
    check(3**10 * 997**3 * 1009, [])
    check(15 * 1009 * 1013, [1009 * 1013])  # the smooth part inside, the rough part past it
    check(2**5 * 15 * 999983, [999983])
    check(3**12 * 999983**2, [999983**2])  # both past the limit
    for a in (0, 1, 14, 64):
        for b in (0, 1, 9, 20):
            for c in (0, 1, 3):
                for q in ROUGH_PARTS:
                    check(2**a * 3**b * 997**c * q, [q] if q > limit else [])


def test_classify_frozen_examples():
    assert classify(220).tag is Classification.ABUNDANT
    assert classify(284).tag is Classification.DEFICIENT
    assert classify(6).tag is Classification.PERFECT
    assert classify(28).tag is Classification.PERFECT
    assert classify(1).tag is Classification.DEFICIENT
    assert classify(945).tag is Classification.ABUNDANT
    result = classify(220)
    assert (result.n, result.s_value) == (220, 284)


def test_classify_zero_rejected():
    with pytest.raises(ZeroInput):
        classify(0)


def test_classify_matches_definition_on_range():
    for n in range(1, 2000):
        r = classify(n)
        s = sigma_oracle(n) - n
        if s == n:
            assert r.tag is Classification.PERFECT
        elif s > n:
            assert r.tag is Classification.ABUNDANT
        else:
            assert r.tag is Classification.DEFICIENT

"""Generation rules: doubling, Euler's two-exponent rule, breeder construction."""

from dataclasses import fields, replace
from math import gcd

import pytest
import sympy

from amicable import (
    BadParameter,
    BorhoHypothesis,
    PairKind,
    borho_candidate,
    borho_structure_check,
    check_amicable,
    euler_candidate,
    search_amicable,
    sigma,
    thabit_candidate,
    verify_pair_by_sigma,
)


def test_thabit_k1_is_the_classical_pair():
    c = thabit_candidate(1)
    assert (c.p, c.q, c.r) == (5, 11, 71)
    assert c.p_prime and c.q_prime and c.r_prime
    assert c.pair == (220, 284)
    assert c.verified
    assert c.primality_mode == "deterministic"


def test_thabit_k2_rejected_by_composite_r():
    c = thabit_candidate(2)
    assert (c.p, c.q, c.r) == (11, 23, 287)
    assert c.p_prime and c.q_prime
    assert not c.r_prime  # 287 = 7 * 41
    assert c.pair is None
    assert not c.verified


def test_thabit_numbers_match_the_doubling_formulas():
    # thabit_candidate runs Euler's rule at (k, k + 1); check it against
    # p = 3*2^k - 1, q = 3*2^(k+1) - 1, r = 9*2^(2k+1) - 1 written out here.
    for k in range(1, 65):
        c = thabit_candidate(k)
        assert (c.k, c.p, c.q) == (k, 3 * 2**k - 1, 3 * 2 ** (k + 1) - 1)
        assert c.r == 9 * 2 ** (2 * k + 1) - 1
        if c.pair is not None:
            assert c.pair == (2 ** (k + 1) * c.p * c.q, 2 ** (k + 1) * c.r)


def test_thabit_sigma_side_split():
    # sigma of the p*q member factors as sigma(2^(k+1)) * (p+1) * (q+1)
    for k in (1, 3, 6):
        c = thabit_candidate(k)
        m = c.pair[0]
        assert sigma(2 ** (k + 1)) * (c.p + 1) * (c.q + 1) == sigma(m)


def test_euler_1_8_pair():
    c = euler_candidate(1, 8)
    assert c.a == 129
    assert (c.p, c.q, c.r) == (257, 33023, 8520191)
    assert c.p_prime and c.q_prime and c.r_prime
    assert c.pair == (2172649216, 2181168896)
    assert c.verified
    assert c.primality_mode == "deterministic"


def test_euler_2_3_rejected_like_thabit_k2():
    c = euler_candidate(2, 3)
    assert (c.p, c.q, c.r) == (11, 23, 287)
    assert c.pair is None


def test_euler_reduces_to_thabit_when_exponents_adjacent():
    for m in range(1, 21):
        e = euler_candidate(m, m + 1)
        t = thabit_candidate(m)
        assert e.a == 3
        assert (e.p, e.q, e.r) == (t.p, t.q, t.r)
        assert e.pair == t.pair
        assert e.verified == t.verified


def test_verified_generator_pairs_pass_both_checks():
    pairs = [thabit_candidate(k).pair for k in (1, 3, 6)]
    pairs.append(euler_candidate(1, 8).pair)
    for m, n in pairs:
        assert check_amicable(m, n).kind is PairKind.AMICABLE
        assert verify_pair_by_sigma(m, n)


def test_verify_pair_by_sigma_examples_and_guards():
    assert verify_pair_by_sigma(220, 284)
    assert verify_pair_by_sigma(2620, 2924)
    assert not verify_pair_by_sigma(220, 285)
    with pytest.raises(BadParameter):
        verify_pair_by_sigma(6, 6)


def test_borho_worked_example_rejects():
    c = borho_candidate(3, 4, 1)
    assert c.t == 11  # 4 + sigma(4)
    assert (c.p1, c.p2) == (54, 384)
    assert c.hypothesis.t_prime
    assert not c.hypothesis.p1_prime  # 54 = 2 * 3**3
    assert not c.hypothesis.breeder_amicable  # (12, 18) is not amicable
    assert not c.hypothesis.coprime_au_p1  # gcd(12, 54) = 6
    assert c.hypothesis.coprime_au_t
    assert not c.hypothesis.coprime_a_p2  # gcd(3, 384) = 3
    assert not c.hypothesis.satisfied
    assert c.pair is None and not c.verified


def test_borho_breeds_from_220_284():
    # (220, 284) = (4 * 55, 4 * 71) with sigma(55) = 72 = 71 + 1, so t = 55 + 72 = 127
    c = borho_candidate(4, 55, 2)
    assert (c.t, c.p1, c.p2) == (127, 903223, 65032127)
    assert c.hypothesis.satisfied
    assert c.pair == (3204978428740, 4195612705532)
    assert c.verified
    m, n = c.pair
    assert sympy.divisor_sigma(m) == sympy.divisor_sigma(n) == m + n


def test_borho_hypothesis_suffices_for_breeders_below_a_million():
    # every pair below 10**6 in both orders, as (a*u, a*p) for each divisor a of its gcd
    candidates = [
        borho_candidate(a, m // a, n)
        for pair in search_amicable(10**6).pairs
        for m, partner in (pair, pair[::-1])
        for a in sympy.divisors(gcd(m, partner))
        for n in range(1, 6)
    ]
    satisfied = [c for c in candidates if c.hypothesis.satisfied]
    assert (4, 55, 2) in {(c.a, c.u, c.n) for c in satisfied}
    for c in satisfied:
        m, n = c.pair
        assert sympy.divisor_sigma(m) == sympy.divisor_sigma(n) == m + n
        assert c.verified


def test_borho_hypothesis_needs_all_seven_conjuncts():
    names = [f.name for f in fields(BorhoHypothesis)]
    assert len(names) == 7
    every = BorhoHypothesis(**dict.fromkeys(names, True))
    assert every.satisfied
    for name in names:
        assert not replace(every, **{name: False}).satisfied


def test_borho_breeder_needs_prime_p_coprime_to_a(monkeypatch):
    # every breeder pair reads as amicable, so only p = sigma(u) - 1 and gcd(a, u*p) decide
    monkeypatch.setattr("amicable.generators.check_amicable", lambda m, n: check_amicable(220, 284))
    assert borho_candidate(3, 2, 1).hypothesis.breeder_amicable  # p = 2, gcd(3, 4) = 1
    assert not borho_candidate(5, 4, 1).hypothesis.breeder_amicable  # p = 6, gcd(5, 4*6) = 1
    assert not borho_candidate(2, 2, 1).hypothesis.breeder_amicable  # gcd(2, 2*2) = 2


def test_borho_breeder_guard_equal_members():
    # u = 1 makes p = sigma(1) - 1 = 0, so the breeder check meets the zero member of (220, 0)
    c = borho_candidate(220, 1, 1)
    assert not c.hypothesis.breeder_amicable
    assert c.pair is None


def test_borho_structure_worked_examples():
    assert borho_structure_check(3, 4, 1)
    assert borho_structure_check(1, 1, 1)
    assert borho_structure_check(2, 9, 2)


def test_borho_structure_values():
    c = borho_candidate(2, 9, 2)
    assert c.t == 22  # 9 + sigma(9)
    assert (c.p1, c.p2) == (4839, 62919)
    # construction identities, recomputed here from scratch
    assert c.p1 + 1 == 22**2 * 10
    assert c.p2 + 1 == (c.p1 + 1) * (22 - 9)


def test_candidate_primality_mode_goes_probabilistic_for_huge_members():
    c = euler_candidate(29, 40)
    assert c.r >= 2**64
    assert c.primality_mode == "probabilistic"
    # the primality gates themselves are still reported
    assert c.p_prime and c.q_prime and c.r_prime

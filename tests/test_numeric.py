"""Numeric core: gcd, primality, factorization."""

import random
from math import isqrt, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import amicable.numeric
from amicable import (
    Factorization,
    FactorBudgetExceeded,
    PRIME_DETERMINISTIC_BOUND,
    ZeroInput,
    aliquot_sequence,
    euler_candidate,
    factorize,
    gcd,
    is_prime,
    prime_test_mode,
    sigma,
    thabit_candidate,
)


def trial_division_is_prime(n):
    # independent oracle
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_gcd_frozen_examples():
    assert gcd(220, 284) == 4
    assert gcd(7, 0) == 7
    assert gcd(48, 75) == 3
    assert gcd(0, 0) == 0
    assert gcd(0, 9) == 9


def test_gcd_divides_both_and_is_greatest():
    rng = random.Random(4001)
    for _ in range(500):
        a = rng.randrange(1_000_000)
        b = rng.randrange(1_000_000)
        g = gcd(a, b)
        if a == b == 0:
            assert g == 0
            continue
        assert a % g == 0 and b % g == 0
    # any common divisor divides the gcd
    for _ in range(500):
        d = rng.randrange(1, 1000)
        a = d * rng.randrange(1, 1000)
        b = d * rng.randrange(1, 1000)
        assert gcd(a, b) % d == 0


def test_is_prime_frozen_examples():
    assert is_prime(71)
    assert not is_prime(287)  # 7 * 41
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert is_prime(2**61 - 1)


def test_is_prime_agrees_with_trial_division_to_1e5():
    for n in range(2, 100_001):
        assert is_prime(n) == trial_division_is_prime(n), n


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, a):
    # one Miller-Rabin round, written fresh here rather than imported
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# The least strong pseudoprime to the first k prime bases, with k the length of the
# prefix of MR_BASES it passes, so a table of witness tiers one base short admits it.
# 341550071728321 is the least for both 7 and 8 bases, so it passes base 19 as well;
# 3825123056546413051, below 2**64, passes every base but 37.
LEAST_STRONG_PSEUDOPRIMES = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 8), (3825123056546413051, 11),
)


def test_is_prime_strong_pseudoprimes_rejected():
    # strong pseudoprimes to small bases; all composite
    for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 52633, 3215031751):
        assert not is_prime(n), n
    for n, k in LEAST_STRONG_PSEUDOPRIMES:
        assert [strong_probable_prime(n, a) for a in MR_BASES[: k + 1]] == [True] * k + [False], n
        assert not is_prime(n), n
    # the least composites that pass the first twelve and the first thirteen prime
    # bases: only the strong Lucas stage rejects them
    for n in (318665857834031151167461, 3317044064679887385961981):
        assert all(strong_probable_prime(n, a) for a in MR_BASES), n
        assert not is_prime(n), n
    assert 318665857834031151167461 == 399165290221 * 798330580441


# Jaeschke's shorter base sets (Math. Comp. 61 (1993)), each with the least composite
# that passes all of its bases: 2131 * 4261, 48781 * 97561 and 611557 * 1834669.
JAESCHKE_SETS = (
    (9080191, (31, 73)), (4759123141, (2, 7, 61)), (1122004669633, (2, 13, 23, 1662803)),
)
TIER_BOUNDS = sorted([n for n, _ in LEAST_STRONG_PSEUDOPRIMES] + [n for n, _ in JAESCHKE_SETS])


def test_is_prime_tier_table_follows_the_pseudoprimes():
    tiers = amicable.numeric._MR_TIERS
    # each bound is composite and passes every base of its row, so the row can reach no further
    for bound, bases in tiers:
        assert not sympy.isprime(bound), bound
        assert all(strong_probable_prime(bound, a) for a in bases), (bound, bases)
    # the bounds increase and so do the base counts, so no later row covers one with as few bases
    assert all(lo < hi for (lo, _), (hi, _) in zip(tiers, tiers[1:]))
    assert all(len(lo) < len(hi) for (_, lo), (_, hi) in zip(tiers, tiers[1:]))
    # a row is one of Jaeschke's sets, or the first k prime bases up to the least strong
    # pseudoprime to them
    for bound, bases in tiers:
        k = len(bases)
        assert (bound, bases) in JAESCHKE_SETS or (
            bases == MR_BASES[:k] and bound == next(n for n, j in LEAST_STRONG_PSEUDOPRIMES if j >= k)
        ), (bound, bases)
    # the last bound passes eleven bases, so all twelve run from it up to 2**64
    assert amicable.numeric._MR_BASES == MR_BASES
    assert tiers[-1][0] == LEAST_STRONG_PSEUDOPRIMES[-1][0]
    assert LEAST_STRONG_PSEUDOPRIMES[-1][1] + 1 == len(MR_BASES)


def test_is_prime_matches_sympy_in_every_tier():
    rng = random.Random(20260)
    for lo, hi in zip([37 * 37] + TIER_BOUNDS, TIER_BOUNDS + [2**64, 2**80]):
        for _ in range(300):
            n = rng.randrange(lo, hi) | 1
            assert is_prime(n) == sympy.isprime(n), n
        # a product of two primes above 37 reaches the Miller-Rabin rounds
        for _ in range(20):
            p = sympy.nextprime(rng.randrange(isqrt(lo), isqrt(hi)))
            q = sympy.nextprime(rng.randrange(lo // p, hi // p))
            assert not is_prime(p * q), (p, q)


def test_is_prime_matches_sympy_around_each_tier_bound():
    for bound in TIER_BOUNDS:
        for n in range(bound - 4, bound + 5, 2):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_values_against_independent_oracle():
    rng = random.Random(90210)
    for _ in range(200):
        bits = rng.choice((65, 80, 128, 160))
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_perfect_squares():
    # squares of primes just above 2**32 land above 2**64
    for p in (4294967311, 4294967357, 4294967371):
        assert is_prime(p)
        assert not is_prime(p * p)


def test_is_prime_and_sigma_around_the_regime_switch():
    # every odd n within 1000 of 2**64, where is_prime switches regimes
    odd = range(2**64 - 999, 2**64 + 1001, 2)
    for n in odd:
        assert is_prime(n) == sympy.isprime(n), n
    for n in odd[::28]:
        assert sigma(n) == sympy.divisor_sigma(n), n


def test_prime_test_mode_boundary():
    assert prime_test_mode(2**64 - 59) == "deterministic"
    assert prime_test_mode(2**64) == "probabilistic"
    assert prime_test_mode(2**64 + 13) == "probabilistic"
    assert PRIME_DETERMINISTIC_BOUND == 2**64


def test_factorize_frozen_examples():
    assert factorize(220).factors == ((2, 2), (5, 1), (11, 1))
    assert factorize(284).factors == ((2, 2), (71, 1))
    assert factorize(1).factors == ()
    assert factorize(1).value == 1
    assert factorize(228).factors == ((2, 2), (3, 1), (19, 1))


def test_factorize_rejects_zero_and_negatives():
    # a negative n fails the gate, whose least value test_contract.py pins
    with pytest.raises(ZeroInput):
        factorize(0)


def test_factorize_reconstruction_to_1e5():
    for n in range(1, 100_001):
        f = factorize(n)
        assert f.value == n
        assert f.reconstruct() == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in f.factors)
        assert (n == 1) == (f.factors == ())


def test_factorize_large_composites():
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(2**40 * 3**5).factors == ((2, 40), (3, 5))
    # the shape sigma verification meets on Euler-rule pairs
    big_p = 2**29 * 2049 - 1
    big_q = 2**40 * 2049 - 1
    f = factorize(2**40 * big_p * big_q)
    assert f.factors == ((2, 40), (big_p, 1), (big_q, 1))


def test_factorize_random_against_independent_oracle():
    rng = random.Random(7321)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        assert dict(f.factors) == sympy.factorint(n), n


def test_factorization_type_is_value_like():
    a = Factorization(((2, 2), (5, 1), (11, 1)), 220)
    assert a == factorize(220)


# The gcd stages of the rough splitter, rebuilt here from sympy: the primes in
# (1000, 2**12), (2**12, 2**14) and (2**14, 2**16).
STAGES = [list(sympy.primerange(lo + 1, hi)) for lo, hi in ((1000, 2**12), (2**12, 2**14), (2**14, 2**16))]
STAGE_PRODUCTS = [prod(stage) for stage in STAGES]
# the primes on each side of every stage edge, and primes past the last stage
EDGE_PRIMES = (1009, 1013, 4093, 4099, 16381, 16411, 65521, 65537, 65539, 2**20 + 7, 2**24 + 43)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(EDGE_PRIMES), st.integers(1, 3)), min_size=1, max_size=4))
def test_split_rough_matches_factorint_across_stage_edges(powers):
    n = prod(p**e for p, e in powers)
    assert amicable.numeric._split_rough(n) == sympy.factorint(n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_split_rough_matches_factorint_on_one_stage_products(data):
    # squarefree products of one stage's primes: every stage gcd is 1 or n, so rho splits them
    stage = data.draw(st.sampled_from(STAGES), label="stage")
    primes = data.draw(st.lists(st.sampled_from(stage), min_size=2, max_size=4, unique=True), label="primes")
    n = prod(primes)
    assert n >= 10**6
    assert amicable.numeric._split_rough(n) == sympy.factorint(n)


def test_rho_sees_only_pieces_the_stages_cannot_split(monkeypatch):
    seen = []
    brent_factor = amicable.numeric._brent_factor
    monkeypatch.setattr(amicable.numeric, "_brent_factor", lambda n: seen.append(n) or brent_factor(n))
    rng = random.Random(1515)
    for _ in range(12):
        aliquot_sequence(rng.randrange(10**6, 10**7, 2), 60, 10**20)
    assert len(seen) >= 10
    for v in seen:
        assert all(gcd(product, v) in (1, v) for product in STAGE_PRODUCTS), v


def one_step_brent(n, budget):
    """Brent rho with q reduced after every step: the reference `_brent_factor` must match.

    Returns the factor (None where the budget stops it), the least budget under
    which it returns, the r of its last round, whether it replayed a batch, and
    its last polynomial constant.
    """
    spent, need, c, replayed = 0, 0, 1, False
    while True:
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        m = 128
        while g == 1:
            need = max(need, spent + 2 * r)
            if spent + 2 * r > budget:
                return None, need, r, replayed, c
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            spent += r + min(k, r)
            r <<= 1
        if g != n:
            return g, need, r >> 1, replayed, c
        replayed = True
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
            spent += 1
        if g != n:
            return g, need, r >> 1, replayed, c
        c += 1


def test_batched_rho_matches_the_one_step_loop(monkeypatch):
    # 21 and 85 split in the rounds r = 1 and r = 2, whose lengths are not multiples of
    # 4; 49 splits there after a replay and 25 after c is bumped. Then semiprimes whose
    # least factor has 17-32 bits: 68473 * 95177 replays its last batch, 99487 * 137941
    # and 17589071 * 18610763 bump c.
    inputs = [21, 85, 49, 25, 68473 * 95177, 99487 * 137941, 17589071 * 18610763]
    rng = random.Random(3030)
    for bits in range(17, 33):
        p = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
        inputs.append(p * sympy.nextprime(p + rng.randrange(1, 1 << 20)))
    paths = []
    for n in inputs:
        factor, need, r, replayed, c = one_step_brent(n, amicable.numeric._RHO_BUDGET)
        paths.append((r, replayed, c))
        assert amicable.numeric._brent_factor(n) == factor, n
        # the budget stops both loops at the same round: with one step less than the
        # one-step loop needs, both raise, and with what it needs both return
        monkeypatch.setattr(amicable.numeric, "_RHO_BUDGET", need - 1)
        assert one_step_brent(n, need - 1)[0] is None
        with pytest.raises(FactorBudgetExceeded, match=str(n)):
            amicable.numeric._brent_factor(n)
        monkeypatch.setattr(amicable.numeric, "_RHO_BUDGET", need)
        assert amicable.numeric._brent_factor(n) == factor, n
        monkeypatch.undo()
    assert {r for r, _, _ in paths} >= {1, 2, 128, 4096}
    assert any(replayed and c == 1 for _, replayed, c in paths)
    assert any(c > 1 for _, _, c in paths)


# a 120-bit semiprime whose least factor has 60 bits: rho needs about 2**30 steps on it
SEMIPRIME_FACTORS = (1000000000000000003, 1100000000000000063)
SEMIPRIME = prod(SEMIPRIME_FACTORS)


def test_rho_budget_overrun_raises_and_names_the_cofactor(monkeypatch):
    assert all(sympy.isprime(p) and p.bit_length() == 60 for p in SEMIPRIME_FACTORS)
    assert SEMIPRIME.bit_length() == 120
    monkeypatch.setattr(amicable.numeric, "_RHO_BUDGET", 1 << 12)
    with pytest.raises(FactorBudgetExceeded, match=str(SEMIPRIME)):
        factorize(SEMIPRIME)
    # the first step of the walk needs the semiprime's factors
    with pytest.raises(FactorBudgetExceeded, match=str(SEMIPRIME)):
        aliquot_sequence(SEMIPRIME, 10, 10**40)
    # a factor within the budget is still found
    assert factorize(65537 * 65539).factors == ((65537, 1), (65539, 1))


def test_fermat_runs_once_before_rho_and_the_budget_still_stops_the_semiprime(monkeypatch):
    # Fermat runs once on the piece before rho does; its multipliers, powers of 2,
    # do not split a semiprime whose factors have the ratio 11/10, so rho still
    # spends its 2**18 steps
    tried = []
    fermat_factor = amicable.numeric._fermat_factor
    monkeypatch.setattr(amicable.numeric, "_fermat_factor", lambda n: tried.append(n) or fermat_factor(n))
    monkeypatch.setattr(amicable.numeric, "_RHO_BUDGET", 1 << 18)
    with pytest.raises(FactorBudgetExceeded, match=str(SEMIPRIME)):
        factorize(SEMIPRIME)
    assert tried == [SEMIPRIME]


def test_euler_29_40_verifies_within_two_to_the_seventeen_rho_steps(monkeypatch):
    # its 92-bit cofactor p*q, with q + 1 = 2**11 * (p + 1), takes rho about 2**20
    # steps; the Fermat step on 2**13 * p*q splits it at once
    monkeypatch.setattr(amicable.numeric, "_RHO_BUDGET", 1 << 17)
    factorize.cache_clear()
    assert euler_candidate(29, 40).verified


def test_generator_sweep_makes_no_rho_call(monkeypatch):
    # every Euler pair up to n = 40 and Thabit's rule up to k = 300: the stages split
    # what trial division leaves, and Fermat splits the rules' cofactors p*q, the
    # 92-bit one of Euler (29, 40) included, so rho is never asked
    seen = []
    brent_factor = amicable.numeric._brent_factor
    monkeypatch.setattr(amicable.numeric, "_brent_factor", lambda n: seen.append(n) or brent_factor(n))
    factorize.cache_clear()
    for n in range(2, 41):
        for m in range(1, n):
            euler_candidate(m, n)
    for k in range(1, 301):
        thabit_candidate(k)
    assert seen == []


@settings(max_examples=40, deadline=None)
@given(st.integers(2**19, 2**48 - 2**24), st.integers(1, 16))
def test_factorize_matches_factorint_on_the_rules_cofactor_shape(start, j):
    # p * q with q + 1 = 2**j * (p + 1): Euler's rule builds it with j = n - m,
    # Thabit's with j = 1. Past 32 bits, p walks on to a prime whose q is prime,
    # as in the rules: a composite q loses its small factors first, and p times
    # the rest has no such shape and may need more steps than rho's budget.
    p = sympy.nextprime(start)
    while p.bit_length() > 32 and not sympy.isprime(2**j * (p + 1) - 1):
        p = sympy.nextprime(p)
    n = p * (2**j * (p + 1) - 1)
    assert dict(factorize(n).factors) == sympy.factorint(n)

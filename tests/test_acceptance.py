"""Acceptance suite.

Each test exercises one numbered criterion end to end and prints a single
summary line of the form

    [acceptance] criterion N: PASS ...
    [acceptance] criterion N: FAIL ...

before asserting, so a plain `pytest tests/test_acceptance.py -s` doubles as a
human-readable report.  Time budgets are part of each criterion.

Criterion 6's parity clause requires the two members of every returned pair
to have the same parity.  For an amicable pair sigma(m) = sigma(n) = m + n, so
a mixed-parity pair needs sigma(m) and sigma(n) odd, which happens only when
each member is a square or twice a square; no such pair is known.  The clause
also requires the odd-odd pair (12285, 14595), which lies below 20000, so a
search that drops odd pairs fails the criterion.
"""

import random
from math import gcd
from time import perf_counter

from amicable import (
    COPRIME_PRODUCT_SEARCH_BOUND,
    Classification,
    PairKind,
    borho_structure_check,
    build_sieve,
    check_amicable,
    check_betrothed,
    classify,
    euler_candidate,
    euler_identity_check,
    find_cycles,
    search_amicable,
    search_betrothed,
    sigma,
    sigma_brute,
    thabit_candidate,
    thabit_identity_check,
    verify_cycle,
)

HISTORICAL = [(220, 284), (1184, 1210), (2620, 2924), (5020, 5564), (17296, 18416)]
ODD_PAIR = (12285, 14595)
POULET = [12496, 14288, 15472, 14536, 14264]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_historical_pairs():
    t0 = perf_counter()
    bad = [p for p in HISTORICAL if check_amicable(*p).kind is not PairKind.AMICABLE]
    elapsed = perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(1, ok, f"5 historical pairs verified in {elapsed:.2f}s (budget 1s)")


def test_criterion_2_thabit_sweep():
    t0 = perf_counter()
    candidates = {k: thabit_candidate(k) for k in range(1, 10)}
    verified = {k for k, c in candidates.items() if c.verified}
    problems = []
    if verified != {1, 3, 6}:
        problems.append(f"verified at k={sorted(verified)}")
    expected = {1: (220, 284), 3: (17296, 18416), 6: (9363584, 9437056)}
    for k, pair in expected.items():
        if candidates[k].pair != pair:
            problems.append(f"k={k} pair {candidates[k].pair}")
    if candidates[2].r != 287 or candidates[2].r_prime or candidates[2].pair is not None:
        problems.append("k=2 not rejected on composite r=287")
    elapsed = perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _report(2, ok, f"doubling-rule sweep k=1..9 in {elapsed:.2f}s (budget 1s)" + (
        "; " + "; ".join(problems) if problems else ""
    ))


def test_criterion_3_euler_rule():
    t0 = perf_counter()
    c = euler_candidate(1, 8)
    elapsed = perf_counter() - t0
    ok = c.verified and c.pair == (2172649216, 2181168896) and elapsed < 5.0
    _report(3, ok, f"two-exponent (1,8) -> {c.pair} in {elapsed:.2f}s (budget 5s)")


def test_criterion_3_long_euler_29_40():
    t0 = perf_counter()
    c = euler_candidate(29, 40)
    elapsed = perf_counter() - t0
    expected = (
        2724918040393706557785752240819405848576,
        2724918040396184856306258038787235905536,
    )
    ok = (
        c.verified
        and c.pair == expected
        and c.primality_mode == "probabilistic"
        and c.p_prime and c.q_prime and c.r_prime
        and elapsed < 60.0
    )
    _report(3, ok, f"(long) two-exponent (29,40) verified in {elapsed:.2f}s (budget 60s)")


def test_criterion_4_poulet_cycle():
    t0 = perf_counter()
    check = verify_cycle(POULET)
    found = find_cycles(13000, 5)
    discovered = any(c.members == tuple(POULET) for c in found)
    elapsed = perf_counter() - t0
    ok = check.ok and discovered and elapsed < 30.0
    _report(4, ok, f"5-cycle verified and discovered by search in {elapsed:.2f}s (budget 30s)")


def test_criterion_5_betrothed():
    t0 = perf_counter()
    checks_ok = (
        check_betrothed(48, 75).kind is PairKind.BETROTHED
        and check_betrothed(140, 195).kind is PairKind.BETROTHED
    )
    report = search_betrothed(200)
    elapsed = perf_counter() - t0
    ok = checks_ok and report.pairs == ((48, 75), (140, 195)) and elapsed < 5.0
    _report(5, ok, f"both pairs checked and found by search(200) in {elapsed:.2f}s (budget 5s)")


def test_criterion_6_search_soundness_and_parity():
    t0 = perf_counter()
    report = search_amicable(20_000)
    pairs = set(report.pairs)
    problems = []

    missing = [p for p in HISTORICAL if p not in pairs]
    if missing:
        problems.append(f"missing historical pairs {missing}")
    for m, n in report.pairs:
        sig = sigma_brute(m)
        if sig != sigma_brute(n) or sig != m + n:
            problems.append(f"({m},{n}) fails independent re-verification")
    bad_gcd = [(m, n) for m, n in report.pairs if gcd(m, n) < 2]
    if bad_gcd:
        problems.append(f"gcd below 2 on {bad_gcd}")
    mixed = [(m, n) for m, n in report.pairs if (m - n) % 2]
    if mixed:
        problems.append(f"mixed-parity pairs: {mixed}")
    if ODD_PAIR not in pairs:
        problems.append(f"odd-odd pair {ODD_PAIR} missing")

    elapsed = perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report(6, ok, f"search(20000), {len(pairs)} pairs, {elapsed:.2f}s (budget 30s)" + (
        "; " + "; ".join(problems) if problems else ""
    ))


def test_criterion_7_oracle_equivalence():
    t0 = perf_counter()
    limit = 10**5
    table = build_sieve(limit)
    mismatch = None
    for n in range(1, limit + 1):
        a = sigma(n)
        if a != sigma_brute(n) or a != table.s_values[n] + n:
            mismatch = n
            break
    powers_ok = all(sigma(2**n) == 2 ** (n + 1) - 1 for n in range(61))

    rng = random.Random(20260817)
    coprime_ok = True
    count = 0
    while count < 500:
        m = rng.randrange(2, 30_000)
        n = rng.randrange(2, 30_000)
        if gcd(m, n) != 1:
            continue
        count += 1
        if sigma(m * n) != sigma(m) * sigma(n):
            coprime_ok = False
            break

    elapsed = perf_counter() - t0
    ok = mismatch is None and powers_ok and coprime_ok and elapsed < 60.0
    _report(7, ok, f"three sigma computations agree on 1..{limit}, "
            f"power and coprime laws hold, {elapsed:.2f}s (budget 60s)")


def test_criterion_8_identity_suites():
    t0 = perf_counter()
    thabit_ok = all(thabit_identity_check(k) for k in range(1, 65))
    euler_ok = all(
        euler_identity_check(m, n) for n in range(2, 33) for m in range(1, n)
    )
    rng = random.Random(1636)
    borho_ok = all(
        borho_structure_check(rng.randrange(1, 400), rng.randrange(1, 1500), rng.randrange(1, 4))
        for _ in range(200)
    )
    elapsed = perf_counter() - t0
    ok = thabit_ok and euler_ok and borho_ok and elapsed < 10.0
    _report(8, ok, f"algebraic identities hold across all grids in {elapsed:.2f}s (budget 10s)")


def test_criterion_9_structural_properties():
    t0 = perf_counter()
    report = search_amicable(20_000)
    problems = []

    for m, n in report.pairs:
        a, b = check_amicable(m, n), check_amicable(n, m)
        if a.kind is not b.kind or a.kind is not PairKind.AMICABLE:
            problems.append(f"symmetry broken at ({m},{n})")
    rng = random.Random(500)
    for _ in range(200):
        m, n = rng.randrange(0, 3000), rng.randrange(0, 3000)
        if check_amicable(m, n).kind is not check_amicable(n, m).kind:
            problems.append(f"symmetry broken at random ({m},{n})")

    for m, n in report.pairs:
        if classify(m).tag is not Classification.ABUNDANT:
            problems.append(f"smaller member {m} not abundant")
        if classify(n).tag is not Classification.DEFICIENT:
            problems.append(f"larger member {n} not deficient")

    cycle_sets = {frozenset(c.members) for c in find_cycles(20_000, 2)}
    pair_sets = {frozenset(p) for p in report.pairs}
    if cycle_sets != pair_sets:
        problems.append("length-2 cycles disagree with the amicable search")

    elapsed = perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report(9, ok, f"symmetry, abundance split, 2-cycle correspondence, "
            f"{elapsed:.2f}s (budget 30s)" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_10_large_bound_is_metadata():
    ok = (
        COPRIME_PRODUCT_SEARCH_BOUND == 10**65
        and isinstance(COPRIME_PRODUCT_SEARCH_BOUND, int)
    )
    _report(10, ok, "coprime-product search bound 10^65 carried as metadata only")

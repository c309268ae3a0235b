"""Integer primitives: gcd, primality, and factorization.

All functions work on Python's native arbitrary-precision integers, so there
is no overflow to worry about anywhere in the package. Primality testing is
deterministic below 2**64 (Miller-Rabin with as many of the first twelve prime
bases as the size of n needs) and switches to a Baillie-PSW style combination
(all twelve bases plus a strong Lucas test) above that bound;
`prime_test_mode` reports which regime applies to a value.

Factorization trial-divides by the primes below 1000, then splits the rough
cofactor: composite pieces meet staged gcds with the products of the primes
in (1000, 2**12), (2**12, 2**14) and (2**14, 2**16), and only what those
cannot split meets Fermat's method on 2**j * n once, and only what that
cannot split goes to Brent's rho. Rho has a step budget per number, so a
cofactor with two large prime factors raises FactorBudgetExceeded instead of
running without end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import BadParameter, FactorBudgetExceeded, ZeroInput

__all__ = [
    "gcd",
    "is_prime",
    "prime_test_mode",
    "factorize",
    "Factorization",
    "PRIME_DETERMINISTIC_BOUND",
]

# Below this bound the fixed witness set is a proven primality test.
PRIME_DETERMINISTIC_BOUND = 1 << 64

# The first twelve primes decide primality for every n < 318665857834031151167461
# ~ 3.18 * 10**23 (Sorenson and Webster; 3.3 * 10**24 needs base 41 as well),
# comfortably covering the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (psi_k, k): below psi_k, the least strong pseudoprime to the first k prime
# bases, those k bases decide primality (Pomerance, Selfridge and Wagstaff,
# Math. Comp. 35 (1980); Jaeschke, Math. Comp. 61 (1993)). psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, so 8, 10 and 11 bases never pay; from psi_9 up all
# twelve run.
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)


def _sieve_primes(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(compress(range(limit + 1), flags))


_TRIAL_LIMIT = 1000
_TRIAL_PRIMES = _sieve_primes(_TRIAL_LIMIT)

# A composite rough piece meets the primes in (1000, 2**12), (2**12, 2**14)
# and (2**14, 2**16) before Brent rho, one stage at a time. Each stage's
# product has about four times the bits of the one before (4,431, 17,641 and
# 70,576), so a piece with a small factor pays only for the small products.
_STAGE_EDGES = (_TRIAL_LIMIT, 1 << 12, 1 << 14, 1 << 16)

# Steps of f that Brent rho may spend on one number, over all its polynomial
# constants. The heaviest known inputs, the aliquot inputs of the `bignum`
# benchmark, need at most 52,990 (the Euler (29, 40) cofactor never reaches
# rho: Fermat splits it first).
_RHO_BUDGET = 1 << 24


def _mr_composite_witness(a: int, d: int, s: int, n: int) -> bool:
    """True when base a proves n composite (n - 1 = d * 2**s, d odd)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd and positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _half_mod(x: int, n: int) -> int:
    # division by 2 modulo odd n
    x %= n
    if x & 1:
        x += n
    return (x >> 1) % n


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameter choice.

    Assumes n is odd, larger than the trial-division primes, and has already
    survived the Miller-Rabin rounds.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) % n != 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    # U_1 = 1, V_1 = P = 1; walk the bits of d below the leading one.
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = _half_mod(U + V, n), _half_mod(D * U + V, n)
            qk = qk * Q % n

    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test for nonnegative integers.

    Deterministic for n < 2**64: Miller-Rabin with the first k prime bases,
    k chosen from n by `_MR_TIERS` (four bases below 3.2 * 10**9, all twelve
    from 3.8 * 10**18). Larger inputs get all twelve rounds plus a strong
    Lucas test; no counterexample to that combination is known, but the
    verdict is formally probabilistic, which callers can surface via
    `prime_test_mode`.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 37 * 37:
        # no factor <= 37 and below 37**2, hence prime
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = _MR_BASES
    for bound, k in _MR_TIERS:
        if n < bound:
            bases = _MR_BASES[:k]
            break
    for a in bases:
        if _mr_composite_witness(a, d, s, n):
            return False
    if n < PRIME_DETERMINISTIC_BOUND:
        return True
    return _strong_lucas_prp(n)


def prime_test_mode(n: int) -> str:
    """'deterministic' when `is_prime(n)` is a proof, 'probabilistic' otherwise."""
    return "deterministic" if n < PRIME_DETERMINISTIC_BOUND else "probabilistic"


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition with primes strictly increasing.

    `factors` is a tuple of (prime, exponent) pairs; the empty tuple encodes
    the factorization of 1.
    """

    factors: tuple[tuple[int, int], ...]
    value: int

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _fermat_factor(n: int) -> int:
    """A proper factor of odd n by Fermat's method on 2**j * n, j = 0 ... bits(n)/2, or 1.

    Each j tries only a = ceil(sqrt(2**j * n)) and asks whether a*a - 2**j * n
    is a square b*b. For n = p*q with q + 1 = 2**d * (p + 1), as Euler's and
    Thabit's rules build, j = d + 2 gives a = 2**d * p + q and b = 2**d - 1
    (Lehman, Math. Comp. 28 (1974)), so gcd(a - b, n) = p.
    """
    for j in range(n.bit_length() // 2 + 1):
        m = n << j
        a = isqrt(m - 1) + 1
        gap = a * a - m
        b = isqrt(gap)
        if b * b == gap:
            g = gcd(a - b, n)
            if 1 < g < n:
                return g
    return 1


def _brent_factor(n: int) -> int:
    """A nontrivial factor of odd composite n via Brent's cycle-finding rho.

    Deterministic: the polynomial constant starts at 1 and is bumped whenever
    a round degenerates, so repeated runs split identically. Steps of f are
    counted over all constants. A round of r takes r steps to move x and at
    most r more in gcd batches; it starts only when those 2r steps fit in
    `_RHO_BUDGET`. So no step pays for the check, and rho passes the budget
    by at most the one batch a degenerate round replays. When a round does
    not fit, FactorBudgetExceeded names n.
    """
    budget = _RHO_BUDGET
    spent = 0
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        m = 128
        while g == 1:
            if spent + 2 * r > budget:
                raise FactorBudgetExceeded(f"no factor of {n} found in {budget} Brent rho steps")
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
            return g
        # batched gcd overshot; replay one step at a time (within the last batch)
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
            spent += 1
        if g != n:
            return g
        c += 1


@lru_cache(maxsize=None)
def _stage_products() -> tuple[int, ...]:
    """The product of the primes of each stage between `_STAGE_EDGES`, built on first use."""
    primes = _sieve_primes(_STAGE_EDGES[-1])
    return tuple(
        prod(p for p in primes if lo < p < hi) for lo, hi in zip(_STAGE_EDGES, _STAGE_EDGES[1:])
    )


def _split_rough(n: int) -> dict[int, int]:
    """{prime: exponent} of n, which is 1, prime, or free of prime factors below 1000.

    A piece below 1000**2 is prime, and so is one that passes `is_prime`;
    each piece is prime-tested once. A composite piece v meets the stages
    first: gcd(P % v, v) with the product P of each stage's primes, smallest
    stage first, up to the first gcd other than 1. A proper divisor d splits
    v into d and v // d. A piece that no stage divides, or that is made only
    of one stage's primes (the gcd is v), meets `_fermat_factor`, and one
    that Fermat cannot split goes to Brent rho.
    """
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        # a piece is prime or free of prime factors below _TRIAL_LIMIT: below its square, prime
        if v < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        for product in _stage_products():
            d = gcd(product % v, v)
            if d != 1:
                break
        if d == 1 or d == v:
            d = _fermat_factor(v)
        if d == 1:
            d = _brent_factor(v)
        stack.append(d)
        stack.append(v // d)
    return counts


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Canonical factorization of n >= 1.

    Trial division by primes below 1000 first; the rough cofactor that
    remains goes to `_split_rough`, which splits composite pieces by the
    staged gcds, then Fermat's method, then Brent's rho until every piece
    passes `is_prime`.
    Raises ZeroInput for n = 0, BadParameter for negative n, and
    FactorBudgetExceeded when one piece needs more than `_RHO_BUDGET` rho
    steps.
    """
    if not isinstance(n, int):
        raise BadParameter(f"factorize expects an integer, got {type(n).__name__}")
    if n < 0:
        raise BadParameter("factorize expects a nonnegative integer")
    if n == 0:
        raise ZeroInput("0 has no prime factorization")
    counts: dict[int, int] = {}
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    counts.update(_split_rough(rem))  # rem has no prime already in counts
    return Factorization(tuple(sorted(counts.items())), n)

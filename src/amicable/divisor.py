"""Divisor sums, the aliquot map, bulk sieving, and abundance classification.

Three routes to the divisor sum are kept side by side on purpose: `sigma`
multiplies geometric-series terms off the factorization, `sigma_brute`
enumerates divisors directly, and `build_sieve` tabulates s(n) for a whole
range. The sieve fills a stdlib `array('I')`, its odd slots by a
least-prime-factor recurrence, each odd n from n // p for its least prime
factor p, and its even slots 2**a * m from the odd slots m by one `map`
pipeline per power of 2, or, when the caller asks for one and numpy imports,
a uint32 numpy array by adding divisor pairs d + n // d over cache-sized
segments; only the pair searches ask, so only they import numpy. Either
storage holds 4 bytes per entry, which Robin's bound keeps exact within the
sieve budget. `SieveTable.s`, the s-value engine
of `find_cycles`, `aliquot_sequence` and the `array('I')` search scan, extends
a table past its limit by splitting n into its power of 2, an odd part made of
the primes below 1000 (found by gcds with their product) and a rough rest,
reading each from the table when it fits; a rough rest past the table goes
once to the splitter `_split_rough`, which prime-tests each piece at most once
and peels primes below 2**16 off a composite piece by staged gcds before it
calls Brent rho. The numpy search scan settles its partners past the table in
batches with `_array_s`, which tests the scan's condition sigma(n) = m + n +
shift instead of computing s(n): the same split on int64 arrays, the power of
2, then trial division of the odd part by the table's own primes, each part's
sigma dividing the target, until the rest fits the table or must be a prime,
or a bound on sigma of the rest shows that the target is out of reach.
`sigma`, `aliquot_s` and `factorize` keep plain trial division, an independent
route. Searches re-verify their hits through the brute route and cycles
through `aliquot_s`, so a defect in one path cannot silently corrupt results.
"""

from __future__ import annotations

from array import array as pyarray
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from math import gcd, isqrt, prod
from operator import add, mul

from .errors import BadParameter, LimitTooLarge, ZeroInput, need_int
from .numeric import _TRIAL_PRIMES, _sieve_primes, _split_rough, factorize

__all__ = [
    "sigma",
    "sigma_brute",
    "aliquot_s",
    "build_sieve",
    "SieveTable",
    "classify",
    "NumberClass",
    "Classification",
    "DEFAULT_SIEVE_BUDGET",
]

# Entry budget of the 4-byte sieve tables. Robin's unconditional bound
# sigma(n) < n (e**gamma ln ln n + 0.6483 / ln ln n), n >= 3, keeps s(n) below
# 2**32 for n <= 932277512 and no further.
DEFAULT_SIEVE_BUDGET = 932_277_513
# The stdlib table's typecode: "I" has 4 bytes almost everywhere, but Python promises 2.
_TYPECODE = next(code for code in "IL" if pyarray(code).itemsize >= 4)


def _sigma_of_powers(factors) -> int:
    """sigma of the product of p**e over (p, e) pairs, each term by Horner's rule."""
    total = 1
    for p, e in factors:
        term = 1
        for _ in range(e):
            term = term * p + 1
        total *= term
    return total


def sigma(n: int) -> int:
    """Sum of all positive divisors of n, with sigma(0) = 0 by convention.

    Each prime power contributes 1 + p + ... + p**e (`_sigma_of_powers`).
    """
    need_int(n, 0, "sigma expects a nonnegative integer")
    if n == 0:
        return 0
    return _sigma_of_powers(factorize(n).factors)


def sigma_brute(n: int) -> int:
    """Divisor sum by direct enumeration up to sqrt(n); oracle for `sigma`."""
    need_int(n, 0, "sigma_brute expects a nonnegative integer")
    if n == 0:
        return 0
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            q = n // d
            if q != d:
                total += q
    return total


def aliquot_s(n: int) -> int:
    """s(n) = sigma(n) - n, so s(0) = s(1) = 0; `sigma` refuses a negative or non-integer n."""
    return sigma(n) - n


# The odd trial primes and their product, whose gcd with a number holds each
# of its odd prime factors below 1000 once.
_ODD_TRIAL_PRIMES = _TRIAL_PRIMES[1:]
_ODD_TRIAL_PRODUCT = prod(_ODD_TRIAL_PRIMES)


@dataclass
class SieveTable:
    """Aliquot sums for every index up to `limit`; treat as read-only.

    `s_values` is a stdlib `array('I')`, or a uint32 numpy array when built
    by `build_sieve(limit, array=True)` with numpy installed; both cost 4 bytes
    per entry, and `s` returns a Python int for both. The searches and
    `find_cycles` build one with `build_sieve`; `aliquot_sequence` walks a
    two-slot table holding [0, 0], so all its work is in `s`. `s` is the one
    scalar s-value engine: the `array('I')` search scan calls it for each
    partner past the table, while the numpy scan tests sigma(n) = m + n +
    shift for those partners in arrays with `_array_s`, by the same split and
    without computing s(n). The limit is the storage's last index,
    len(s_values) - 1, so a storage of fewer than two slots raises
    BadParameter: `s` reads sigma(1) = 1 from slot 1.
    """

    s_values: pyarray  # typecode "I" (see _TYPECODE), or a numpy.ndarray of uint32
    limit: int = field(init=False)

    def __post_init__(self):
        self.limit = len(self.s_values) - 1
        if self.limit < 1:
            raise BadParameter("a SieveTable needs slots 0 and 1, so a limit of at least 1")

    def s(self, n: int) -> int:
        """s(n) for any n >= 0, equal to `aliquot_s(n)`: every aliquot step's engine.

        Up to the limit this reads the table. Beyond it, n = 2**k * m with m
        odd, and sigma(2**k) = 2**(k + 1) - 1; m is read from the table when
        it is within the limit. Otherwise repeated gcds with the product of
        the odd primes below 1000 split m into a smooth part, made of those
        primes, and a rough part, free of them. Each part within the limit is
        read from the table; a smooth part beyond it is trial-divided until it
        is used up or tabulated, and a rough part beyond it goes once to the
        splitter `_split_rough`, which prime-tests each piece at most once
        and tries staged gcds before Brent rho. s(n) is the product of the
        three sigma values, minus n.
        """
        s_values = self.s_values
        limit = self.limit
        if n <= limit:
            if n < 0:
                raise BadParameter("s expects a nonnegative integer")
            return int(s_values[n])
        twos = (n & -n).bit_length() - 1
        known = (2 << twos) - 1  # sigma of the parts taken so far
        odd = n >> twos
        if odd <= limit:
            return known * (int(s_values[odd]) + odd) - n
        rough = odd
        g = gcd(odd, _ODD_TRIAL_PRODUCT)
        while g != 1:
            rough //= g
            g = gcd(rough, g)
        smooth = odd // rough
        if smooth > limit:
            for p in _ODD_TRIAL_PRIMES:
                if p * p > smooth:
                    break  # smooth is a prime beyond the limit
                if smooth % p == 0:
                    smooth //= p
                    term = p + 1
                    while smooth % p == 0:
                        smooth //= p
                        term = term * p + 1
                    known *= term
                    if smooth <= limit:
                        break
        known *= int(s_values[smooth]) + smooth if smooth <= limit else smooth + 1
        if rough <= limit:
            return known * (int(s_values[rough]) + rough) - n
        return known * _sigma_of_powers(_split_rough(rough).items()) - n


def build_sieve(limit: int, *, array: bool = False) -> SieveTable:
    """Tabulate s(n) for all n <= limit, 4 bytes per entry in either storage.

    The stdlib table is filled in one `array('I')`, odd slots first. A
    first pass writes p into the odd slots p*p, p*p + 2p, ... for the odd
    primes p up to sqrt(limit), largest first, so every odd composite slot
    ends up holding its least prime factor and an odd prime's slot keeps 0.
    The second runs the odd n upwards: with p the least prime factor of n
    and m = n // p, sigma(n) is (p + 1) * sigma(m), minus p * sigma(m // p)
    when p divides m, so s(n) is (p + 1) * s(m) + m, or
    (p + 1) * s(m) - p * s(m // p); both slots are odd, below n and already
    final. An odd prime gets s = 1, and slots 0 and 1 hold 0. Then each even
    n = 2**a * m, m odd, comes from the odd slot m, since sigma(2**a) =
    2**(a + 1) - 1 is coprime to m: s(n) = sigma(2**a) * s(m) +
    (sigma(2**a) - 2**a) * m. One pipeline of `map` calls per a fills the
    slots 2**a, 3 * 2**a, ... from a copy of the odd slots they read, so no
    Python-level loop visits an even slot; the largest copy and its result
    are a quarter of the table each. Each slot holds s(n) < 2**32, by
    Robin's bound within the default budget.

    With `array=True` the table is a uint32 numpy array filled by divisor
    pairs in `_array_sieve`, or the `array('I')` above when numpy does not
    import. The two storages fill by two identities on purpose: numpy adds a
    whole slice of pairs in one call, while in pure Python, element by element,
    the pair sieve took more than twice as long as this recurrence at 10**6.
    Raises LimitTooLarge before allocating when limit + 1 entries exceed
    DEFAULT_SIEVE_BUDGET, 932277513, the 4-byte exactness cap, so every limit
    from 932277513 up is refused; and BadParameter when limit is not an
    integer of at least 1.
    """
    need_int(limit, 1, "sieve limit must be an integer of at least 1")
    if limit + 1 > DEFAULT_SIEVE_BUDGET:
        raise LimitTooLarge(
            f"sieve of {limit + 1} entries exceeds the budget of {DEFAULT_SIEVE_BUDGET},"
            " the exactness cap of 4-byte entries"
        )
    if array:
        try:
            import numpy
        except ImportError:
            pass
        else:
            return SieveTable(_array_sieve(numpy, limit))
    s = pyarray(_TYPECODE, [0]) * (limit + 1)
    for p in reversed(_sieve_primes(isqrt(limit))[1:]):
        s[p * p :: 2 * p] = pyarray(_TYPECODE, [p]) * ((limit - p * p) // (2 * p) + 1)
    # Odd slots below n hold s, odd slots from n up their least prime factor (0 at a prime).
    for n in range(3, limit + 1, 2):
        p = s[n]
        if p:
            m = n // p
            if m % p:
                s[n] = (p + 1) * s[m] + m
            else:
                s[n] = (p + 1) * s[m] - p * s[m // p]
        else:
            s[n] = 1
    two = 2
    while two <= limit:
        # the odd m with two * m <= limit are 1, 3, ..., 2 * count - 1
        count = (limit // two + 1) // 2
        sig, k = 2 * two - 1, two - 1
        terms = map(mul, repeat(sig, count), s[1 : 2 * count : 2])
        s[two :: 2 * two] = pyarray(_TYPECODE, map(add, terms, range(k, 2 * k * count, 2 * k)))
        two *= 2
    return SieveTable(s)


def _segment(limit: int) -> int:
    """Slots per segment of `_array_sieve`.

    2**19 slots are 2 MiB of uint32; of 2**17 to 2**20 slots it was the
    fastest at 10**6 and 10**7 on a Xeon with 2 MiB of L2 cache per core. From
    limit 67108864 up, 64 * isqrt(limit) is larger, so that every d still
    adds at least 64 slots per slice and the calls stay few.
    """
    return max(1 << 19, 64 * isqrt(limit))


def _array_sieve(np, limit: int):
    """The table of `build_sieve` on a uint32 numpy array, by divisor pairs.

    The proper divisors of n other than 1 come in pairs d < k = n // d, so
    d < sqrt(n), plus d alone when n = d * d. So every slot from 2 up starts
    at 1, each square d * d gets d, and for each d from 2 to isqrt(limit) the
    slots d * k with k > d get d + k, one strided slice per d per segment of
    `_segment(limit)` slots, so that a segment stays in cache while every d
    passes over it. Each value a slot holds on the way is a sum of distinct
    proper divisors of n, so at most s(n) < 2**32: the fill runs in uint32,
    with no wider temporary and no division of a slot value.
    """
    s = np.ones(limit + 1, dtype=np.uint32)
    s[:2] = 0
    root = isqrt(limit)
    roots = np.arange(2, root + 1, dtype=np.uint32)
    s[roots * roots] += roots
    seg = _segment(limit)
    for lo in range(0, limit + 1, seg):
        hi = min(lo + seg, limit + 1)
        for d in range(2, root + 1):
            if d * (d + 1) >= hi:
                break
            k = max(d + 1, -(-lo // d))  # the least k > d with d * k in [lo, hi)
            s[d * k : hi : d] += np.arange(d + k, d + (hi - 1) // d + 1, dtype=np.uint32)
    return s


def _array_s(np, table: SieveTable, ns, need):
    """bool array telling, for int64 arrays ns and need, whether sigma(n) == need.

    The scan's condition s(n) = m + shift is sigma(n) = m + n + shift, so the
    kernel tests that target and never computes s(n). It runs the split of
    `SieveTable.s` for 1 <= n < (limit + 1)**2: the power of 2 is the low set
    bit, the odd rest is trial-divided by the table's own odd primes (the
    slots holding s = 1) in increasing order, and each part stripped, 2**a or
    p**e, divides `need` by its sigma (Horner's rule); a sigma that does not
    divide it refutes n, and `need` becomes -1. At checkpoints, when p has
    grown by half since the last one, a value settles when its rest fits the
    table, sigma(rest) = s(rest) + rest, since the rest is coprime to what
    was stripped, or is below p**2, so that it is a prime with sigma = rest + 1;
    the table holds every prime up to the square root of a rest, since a
    search's partners are below 6 * limit, which is below (limit + 1)**2 from
    limit 5 up, and no partner of a smaller limit passes it. A rest
    still past the limit stays only while
    0 <= need - rest - 1 <= (2**k - 2) * (rest // q), with q = max(p, 3) and
    k the largest j with q**j <= the largest rest, and otherwise settles
    False (the bound admits need = rest + 1). The bound holds because
      the rest is odd, above 1, free of primes below p: sigma >= rest + 1, = iff prime;
      tau(rest) <= 2**Omega(rest) <= 2**k, since q**Omega(rest) <= rest;
      each divisor other than 1 and the rest is rest // e for some e >= q.
    So a prime rest whose target is not rest + 1 is dropped a few primes in,
    where trial division would prove it prime only at its square root. A pending rest is at least p**2 = q**2,
    so k >= 2, and the bound is tested as gap // (2**k - 2) <= rest // q,
    the same inequality with no product to overflow. Everything is int64:
    partners are s-values of a table within the default budget, so below
    2**32, and sigma(n) < 2**35 by Robin's bound (see DEFAULT_SIEVE_BUDGET).
    """
    s_values, limit = table.s_values, table.limit
    low = ns & -ns
    part = 2 * low - 1  # sigma(2**a)
    need = np.where(need % part == 0, need // part, -1)  # the target of sigma(rest), or -1
    rest = ns // low
    out = np.zeros(len(ns), dtype=bool)
    where = np.arange(len(ns))
    bound = min(isqrt(int(rest.max(initial=0))), limit)
    primes = (np.flatnonzero(s_values[3 : bound + 1 : 2] == 1) * 2 + 3).tolist()
    last = 0  # the prime at the last checkpoint, which is exact at any prime
    for p in primes + [bound + 1]:  # past the last prime, every rest below (bound + 1)**2 is prime
        if 2 * p >= 3 * last or p > bound:
            last = p
            pending = rest >= max(limit + 1, p * p)
            if pending.any():  # never a rest within the limit: rest 1 has sigma 1 < 1 + 1
                q, k, top = max(p, 3), 1, int(rest.max())  # the last round's p may be 1 or 2
                while q ** (k + 1) <= top:
                    k += 1
                gap = need - rest - 1
                pending &= (gap >= 0) & (gap // (2**k - 2) <= rest // q)
            if not pending.all():
                done = np.flatnonzero(~pending)
                r = rest[done]
                fits = r <= limit
                out[where[done]] = need[done] == np.where(fits, s_values[np.where(fits, r, 0)] + r, r + 1)
                keep = np.flatnonzero(pending)
                rest, need, where = rest[keep], need[keep], where[keep]
            if p > bound or not len(rest):
                break
        hit = np.flatnonzero(rest % p == 0)
        if len(hit):
            r, term = rest[hit] // p, np.full(len(hit), p + 1, dtype=ns.dtype)
            again = np.flatnonzero(r % p == 0)
            while len(again):
                r[again] //= p
                term[again] = term[again] * p + 1
                again = again[r[again] % p == 0]
            rest[hit] = r
            t, left = np.divmod(need[hit], term)
            need[hit] = np.where(left, -1, t)
    return out


class Classification(str, Enum):
    DEFICIENT = "Deficient"
    PERFECT = "Perfect"
    ABUNDANT = "Abundant"


@dataclass(frozen=True)
class NumberClass:
    tag: Classification
    n: int
    s_value: int


def classify(n: int) -> NumberClass:
    """Deficient, perfect, or abundant according to s(n) versus n.

    `aliquot_s` runs first, so `sigma`'s gate sees a non-integer before the
    zero test does.
    """
    s = aliquot_s(n)
    if n == 0:
        raise ZeroInput("0 is not classified")
    if s == n:
        tag = Classification.PERFECT
    elif s > n:
        tag = Classification.ABUNDANT
    else:
        tag = Classification.DEFICIENT
    return NumberClass(tag, n, s)

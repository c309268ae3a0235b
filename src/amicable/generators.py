"""Classical constructions of amicable pairs and their algebraic identities.

Three parametrized rules are implemented:

* the doubling rule of Thabit ibn Qurra (9th century): for k >= 1 take
  p = 3*2**k - 1, q = 3*2**(k+1) - 1, r = 9*2**(2k+1) - 1; when all three are
  prime, (2**(k+1)*p*q, 2**(k+1)*r) is amicable;
* Euler's two-exponent generalization (1747): for 1 <= m < n take
  a = 2**(n-m) + 1, p = 2**m*a - 1, q = 2**n*a - 1, r = 2**(n+m)*a**2 - 1;
  when all three are prime, (2**n*p*q, 2**n*r) is amicable; n - m = 1 gives
  back the doubling rule, which is how `thabit_candidate` evaluates it;
* the breeder construction (Borho, Math. Comp. 26, 1972; Borho and Hoffmann,
  Math. Comp. 46, 1986): from a breeder, an amicable pair (a*u, a*p) with
  p = sigma(u) - 1 prime and gcd(a, u*p) = 1, and t = u + sigma(u), form
  p1 = t**n*(u+1) - 1 and p2 = t**n*(u+1)*(t-u) - 1; when t, p1 and p2 are
  primes coprime to the cofactors, (a*u*t**n*p1, a*t**n*p2) is amicable.

Every candidate records its primality gates; a constructed pair is always
re-verified numerically through sigma before `verified` is set.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from math import gcd

from .divisor import sigma, sigma_brute
from .errors import BadParameter, need_int
from .numeric import is_prime, prime_test_mode
from .pairs import PairKind, check_amicable


def verify_pair_by_sigma(m: int, n: int) -> bool:
    """True when sigma(m) = sigma(n) = m + n, the amicable-pair criterion."""
    need_int(m, 1, "pair members must be positive")
    need_int(n, 1, "pair members must be positive")
    if m == n:
        raise BadParameter("pair members must be distinct")
    total = m + n
    return sigma(m) == total and sigma(n) == total


def _euler_numbers(m: int, n: int) -> tuple[int, int, int, int]:
    """(a, p, q, r) of Euler's rule at integers 1 <= m < n, the one gate of its domain."""
    need_int(m, 1, "Euler's rule needs m >= 1")
    need_int(n, m + 1, "Euler's rule needs m < n")
    a = (1 << (n - m)) + 1
    p = (1 << m) * a - 1
    q = (1 << n) * a - 1
    r = (1 << (n + m)) * a * a - 1
    return a, p, q, r


def _borho_numbers(a: int, u: int, n: int) -> tuple[int, int, int, int]:
    """(t, t**n, p1, p2) of the breeder construction at integers a, u, n >= 1."""
    for v in (a, u, n):
        need_int(v, 1, "the breeder construction needs a, u, n >= 1")
    t = u + sigma(u)
    tn = t**n
    p1 = tn * (u + 1) - 1
    p2 = (p1 + 1) * (t - u) - 1
    return t, tn, p1, p2


@dataclass(frozen=True)
class ThabitCandidate:
    k: int
    p: int
    q: int
    r: int
    p_prime: bool
    q_prime: bool
    r_prime: bool
    primality_mode: str
    pair: tuple[int, int] | None
    verified: bool


def thabit_candidate(k: int) -> ThabitCandidate:
    """Evaluate the doubling rule at shift k >= 1: Euler's rule at (k, k + 1)."""
    need_int(k, 1, "the doubling rule needs k >= 1")
    c = euler_candidate(k, k + 1)
    return ThabitCandidate(
        k, c.p, c.q, c.r, c.p_prime, c.q_prime, c.r_prime, c.primality_mode, c.pair, c.verified
    )


@dataclass(frozen=True)
class EulerCandidate:
    m: int
    n: int
    a: int
    p: int
    q: int
    r: int
    p_prime: bool
    q_prime: bool
    r_prime: bool
    primality_mode: str
    pair: tuple[int, int] | None
    verified: bool


def euler_candidate(m: int, n: int) -> EulerCandidate:
    """Evaluate Euler's rule at exponents 1 <= m < n.

    The classical statement takes 1 < m, but m = 1 is accepted here: the
    construction and its sigma identities hold verbatim, and the known
    working instance (1, 8) uses it. `_euler_numbers` refuses any other (m, n).
    """
    a, p, q, r = _euler_numbers(m, n)
    p_prime, q_prime, r_prime = is_prime(p), is_prime(q), is_prime(r)
    pair = None
    verified = False
    if p_prime and q_prime and r_prime:
        scale = 1 << n
        pair = (scale * p * q, scale * r)
        verified = verify_pair_by_sigma(*pair)
    mode = prime_test_mode(max(p, q, r))
    return EulerCandidate(m, n, a, p, q, r, p_prime, q_prime, r_prime, mode, pair, verified)


@dataclass(frozen=True)
class BorhoHypothesis:
    """The seven conjuncts gating the breeder construction."""

    breeder_amicable: bool
    t_prime: bool
    p1_prime: bool
    p2_prime: bool
    coprime_au_t: bool
    coprime_au_p1: bool
    coprime_a_p2: bool

    @property
    def satisfied(self) -> bool:
        return all(astuple(self))


@dataclass(frozen=True)
class BorhoCandidate:
    a: int
    u: int
    n: int
    t: int
    p1: int
    p2: int
    hypothesis: BorhoHypothesis
    primality_mode: str
    pair: tuple[int, int] | None
    verified: bool


def borho_candidate(a: int, u: int, n: int) -> BorhoCandidate:
    """Evaluate the breeder construction at (a, u, n), all at least 1.

    t = u + sigma(u), so the factor t - u = sigma(u) of p2 + 1 is at least 1.
    The breeder conjunct holds when (a*u, a*p) is amicable, p = sigma(u) - 1 is
    prime and gcd(a, u*p) = 1; the pair is formed only when all seven
    conjuncts hold.
    """
    t, tn, p1, p2 = _borho_numbers(a, u, n)
    p = t - u - 1
    hypothesis = BorhoHypothesis(
        breeder_amicable=check_amicable(a * u, a * p).kind is PairKind.AMICABLE
        and is_prime(p)
        and gcd(a, u * p) == 1,
        t_prime=is_prime(t),
        p1_prime=is_prime(p1),
        p2_prime=is_prime(p2),
        coprime_au_t=gcd(a * u, t) == 1,
        coprime_au_p1=gcd(a * u, p1) == 1,
        coprime_a_p2=gcd(a, p2) == 1,
    )
    pair = None
    verified = False
    if hypothesis.satisfied:
        pair = (a * u * tn * p1, a * tn * p2)
        verified = verify_pair_by_sigma(*pair)
    mode = prime_test_mode(max(t, p1, p2))
    return BorhoCandidate(a, u, n, t, p1, p2, hypothesis, mode, pair, verified)


def thabit_identity_check(k: int) -> bool:
    """Exact check of (p + 1)(q + 1) = r + 1 for the doubling rule at k."""
    need_int(k, 1, "the doubling rule needs k >= 1")
    return euler_identity_check(k, k + 1)


def euler_identity_check(m: int, n: int) -> bool:
    """Exact check of (p + 1)(q + 1) = r + 1 for Euler's rule at (m, n)."""
    _, p, q, r = _euler_numbers(m, n)
    return (p + 1) * (q + 1) == r + 1


def borho_structure_check(a: int, u: int, n: int) -> bool:
    """Check the breeder construction's shape against independent recomputation.

    Verifies t = u + sigma(u), t**n, p1 + 1 = t**n * (u + 1) and
    p2 + 1 = (p1 + 1) * (t - u): every factor of the pair
    (a*u*t**n*p1, a*t**n*p2) that `borho_candidate` assembles. The cross-check
    recomputes sigma(u) through divisor enumeration and the power t**n by
    repeated multiplication.
    """
    t, tn, p1, p2 = _borho_numbers(a, u, n)
    power = 1
    for _ in range(n):
        power *= t
    return (
        t == u + sigma_brute(u)
        and tn == power
        and p1 + 1 == power * (u + 1)
        and p2 + 1 == (p1 + 1) * (t - u)
    )

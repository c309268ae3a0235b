"""Classical constructions of amicable pairs and their algebraic identities.

Three parametrized rules are implemented:

* the doubling rule of Thabit ibn Qurra (9th century): for k >= 1 take
  p = 3*2**k - 1, q = 3*2**(k+1) - 1, r = 9*2**(2k+1) - 1; when all three are
  prime, (2**(k+1)*p*q, 2**(k+1)*r) is amicable;
* Euler's two-exponent generalization (1747): for 1 <= m < n take
  a = 2**(n-m) + 1, p = 2**m*a - 1, q = 2**n*a - 1, r = 2**(n+m)*a**2 - 1;
  when all three are prime, (2**n*p*q, 2**n*r) is amicable; n - m = 1 gives
  back the doubling rule, which is how `thabit_candidate` evaluates it;
* the breeder construction of Borho and Hoffmann (1986): from a pair
  (a*u, a) and t = sigma(u), form p1 = t**n*(u+1) - 1 and
  p2 = t**n*(u+1)*(t-u) - 1, giving the candidate pair
  (a*u*t**n*p1, a*t**n*p2) under a sevenfold hypothesis.

Every candidate records its primality gates; a constructed pair is always
re-verified numerically through sigma before `verified` is set. Candidates
whose natural-number subtraction clamped at zero are flagged degenerate and
never reach the primality gate.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from math import gcd

from .divisor import sigma, sigma_brute
from .errors import BadParameter, DegenerateSubtraction
from .numeric import is_prime, prime_test_mode
from .pairs import PairKind, check_amicable


def verify_pair_by_sigma(m: int, n: int) -> bool:
    """True when sigma(m) = sigma(n) = m + n, the amicable-pair criterion."""
    if m < 1 or n < 1:
        raise BadParameter("pair members must be positive")
    if m == n:
        raise BadParameter("pair members must be distinct")
    total = m + n
    return sigma(m) == total and sigma(n) == total


def _euler_numbers(m: int, n: int) -> tuple[int, int, int, int]:
    """(a, p, q, r) of Euler's rule at exponents (m, n)."""
    a = (1 << (n - m)) + 1
    p = (1 << m) * a - 1
    q = (1 << n) * a - 1
    r = (1 << (n + m)) * a * a - 1
    return a, p, q, r


def _borho_numbers(a: int, u: int, n: int) -> tuple[int, int, int, int, bool]:
    """(t, t**n, p1, p2, degenerate) of the breeder construction at (a, u, n)."""
    if a < 1 or u < 1 or n < 1:
        raise BadParameter("the breeder construction needs a, u, n >= 1")
    t = sigma(u)
    if t < u:
        raise DegenerateSubtraction(f"sigma({u}) = {t} falls below u")
    tn = t**n
    p1 = tn * (u + 1) - 1
    degenerate = t == u
    p2 = 0 if degenerate else (p1 + 1) * (t - u) - 1
    return t, tn, p1, p2, degenerate


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
    if k < 1:
        raise BadParameter("the doubling rule needs k >= 1")
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
    working instance (1, 8) uses it.
    """
    if m < 1:
        raise BadParameter("Euler's rule needs m >= 1")
    if m >= n:
        raise BadParameter("Euler's rule needs m < n")
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
    degenerate_subtraction: bool
    hypothesis: BorhoHypothesis
    primality_mode: str
    pair: tuple[int, int] | None
    verified: bool


def borho_candidate(a: int, u: int, n: int) -> BorhoCandidate:
    """Evaluate the breeder construction at (a, u, n), all at least 1.

    The subtraction t - u is only evaluated for t >= u (DegenerateSubtraction
    otherwise). When t = u the p2 formula would dip below zero; the value
    clamps to 0, the candidate is flagged degenerate, p1 and p2 skip the
    primality gate, and no pair is formed.
    """
    t, tn, p1, p2, degenerate = _borho_numbers(a, u, n)
    hypothesis = BorhoHypothesis(
        breeder_amicable=check_amicable(a * u, a).kind is PairKind.AMICABLE,
        t_prime=is_prime(t),
        p1_prime=False if degenerate else is_prime(p1),
        p2_prime=False if degenerate else is_prime(p2),
        coprime_au_t=gcd(a * u, t) == 1,
        coprime_au_p1=gcd(a * u, p1) == 1,
        coprime_a_p2=gcd(a, p2) == 1,
    )
    pair = None
    verified = False
    if not degenerate and hypothesis.satisfied:
        pair = (a * u * tn * p1, a * tn * p2)
        verified = verify_pair_by_sigma(*pair)
    mode = prime_test_mode(max(t, p1, p2))
    return BorhoCandidate(a, u, n, t, p1, p2, degenerate, hypothesis, mode, pair, verified)


def thabit_identity_check(k: int) -> bool:
    """Exact check of (p + 1)(q + 1) = r + 1 for the doubling rule at k."""
    if k < 1:
        raise BadParameter("the doubling rule needs k >= 1")
    return euler_identity_check(k, k + 1)


def euler_identity_check(m: int, n: int) -> bool:
    """Exact check of (p + 1)(q + 1) = r + 1 for Euler's rule at (m, n)."""
    if m < 1 or m >= n:
        raise BadParameter("Euler's rule needs 1 <= m < n")
    _, p, q, r = _euler_numbers(m, n)
    return (p + 1) * (q + 1) == r + 1


def borho_structure_check(a: int, u: int, n: int) -> bool:
    """Check the breeder construction's shape against independent recomputation.

    Verifies p1 + 1 = t**n * (u + 1), the p2 identity with the truncation
    boundary handled exactly (p2 = 0 when t = u, else
    p2 + 1 = (p1 + 1) * (t - u)), and the assembled products
    M = a*u*t**n*p1, N = a*t**n*p2. The cross-check recomputes t through
    divisor enumeration and the power t**n by repeated multiplication.
    """
    t, _, p1, p2, degenerate = _borho_numbers(a, u, n)
    if sigma_brute(u) != t:
        return False
    M = a * u * t**n * p1
    N = a * t**n * p2

    tn = 1
    for _ in range(n):
        tn *= t
    if p1 + 1 != tn * (u + 1):
        return False
    if degenerate:
        if p2 != 0:
            return False
    elif p2 + 1 != (p1 + 1) * (t - u):
        return False
    if M != a * u * tn * p1 or N != a * tn * p2:
        return False
    return True

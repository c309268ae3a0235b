"""Independent checks of every op's output, run outside the timed region.

Nothing here calls the package. Divisor sums come from `sympy.divisor_sigma`
and primality from `sympy.isprime`; candidate parameters are recomputed from
the classical formulas; the JSON of seeded aliquot sequences is rebuilt by an
encoder of our own; every other op's JSON export must match the SHA-256
pinned in `digests.json` at the seed commit (regenerate with
`python3 perfbench/pin_digests.py` only when an output change is intended).
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

from sympy import divisor_sigma, isprime

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

# Results of the seed commit, keyed like `Op.key`.
EXPECTED_COUNT = {
    "search_amicable/1000000": 42,
    "search_betrothed/1000000": 17,
    "search_amicable_parallel/1000000": 42,
    "find_cycles/200000/30": 27,
    "search_amicable/20000": 8,
    "search_betrothed/20000": 8,
    "search_amicable_parallel/20000": 8,
    "find_cycles/20000/30": 10,
}
EULER_VERIFIED = {(1, 2), (3, 4), (6, 7), (1, 8), (29, 40)}
THABIT_VERIFIED = {1, 3, 6}
POULET_CYCLE = (12496, 14288, 15472, 14536, 14264)
LONG_CYCLE_START, LONG_CYCLE_LENGTH = 14316, 28

DETERMINISTIC_BOUND = 2**64


def s(n: int) -> int:
    return int(divisor_sigma(n)) - n if n > 0 else 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


class Oracle:
    """Checks one round of outputs; `check` returns a failure reason per op, or None."""

    def __init__(self, seed: int, step_samples: int, digests: dict[str, str]) -> None:
        self.rng = random.Random(f"oracle-{seed}")
        self.step_samples = step_samples
        self.digests = digests

    def check(self, ops, outputs) -> list[str | None]:
        steps = self._sample_steps(ops, outputs)
        serial = {op.args: out for op, out in zip(ops, outputs) if op.kind == "search_amicable"}
        reasons = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                reasons.append("op raised")
                continue
            result, data = out
            reason = self._check_one(op, result, data, steps.get(i, ()))
            if reason is None and op.kind == "search_amicable_parallel":
                twin = serial.get(op.args)
                if twin is None or twin[1] != data:
                    reason = "parallel result differs from the serial one"
            reasons.append(reason)
        return reasons

    def _sample_steps(self, ops, outputs) -> dict[int, list[int]]:
        candidates = [
            (i, j)
            for i, (op, out) in enumerate(zip(ops, outputs))
            if op.kind == "aliquot_sequence" and out is not None
            for j in range(len(out[0].trajectory) - 1)
        ]
        chosen: dict[int, list[int]] = {}
        for i, j in self.rng.sample(candidates, min(self.step_samples, len(candidates))):
            chosen.setdefault(i, []).append(j)
        return chosen

    def _check_one(self, op, result, data, steps) -> str | None:
        if op.kind == "aliquot_sequence":
            reason = check_sequence(op.args, result, steps)
            if reason is None and data != sequence_json(result):
                reason = "JSON export differs from the independent encoding"
            return reason
        pinned = self.digests.get(op.key)
        if pinned is None:
            return f"no digest pinned for {op.key}"
        if sha256(data) != pinned:
            return "JSON export differs from the seed commit"
        if op.kind in ("search_amicable", "search_amicable_parallel"):
            return check_search(op.key, op.args[0], result, shift=0)
        if op.kind == "search_betrothed":
            return check_search(op.key, op.args[0], result, shift=1)
        if op.kind == "find_cycles":
            return check_cycles(op.key, *op.args, result)
        if op.kind == "euler_candidate":
            m, n = op.args
            return check_candidate(result, m, n, (m, n) in EULER_VERIFIED, {"m": m, "n": n})
        if op.kind == "thabit_candidate":
            (k,) = op.args
            return check_candidate(result, k, k + 1, k in THABIT_VERIFIED, {"k": k})
        return f"no check for {op.kind}"


def check_search(key: str, limit: int, report, shift: int) -> str | None:
    pairs = list(report.pairs)
    if report.limit != limit:
        return "wrong limit"
    if pairs != sorted(set(pairs)):
        return "pairs not sorted and distinct"
    for m, n in pairs:
        if not 2 <= m < n or m > limit:
            return f"pair ({m}, {n}) out of range"
        if s(m) != n + shift or s(n) != m + shift:
            return f"pair ({m}, {n}) fails the divisor_sigma check"
    if len(pairs) != EXPECTED_COUNT.get(key):
        return f"{len(pairs)} pairs, expected {EXPECTED_COUNT.get(key)}"
    if report.all_even != all(m % 2 == 0 and n % 2 == 0 for m, n in pairs):
        return "all_even is wrong"
    if report.min_gcd != min((gcd(m, n) for m, n in pairs), default=0):
        return "min_gcd is wrong"
    return None


def check_cycles(key: str, limit: int, max_len: int, cycles) -> str | None:
    members = [c.members for c in cycles]
    if members != sorted(set(members)):
        return "cycles not sorted and distinct"
    for c in cycles:
        ring = c.members
        if c.length != len(ring) or len(ring) < 2 or len(set(ring)) != len(ring):
            return f"malformed cycle {ring[:3]}..."
        if ring[0] != min(ring):
            return f"cycle {ring[:3]}... not rotated to its minimum"
        for i, v in enumerate(ring):
            if s(v) != ring[(i + 1) % len(ring)]:
                return f"cycle {ring[:3]}... fails the divisor_sigma check at {v}"
    if len(cycles) != EXPECTED_COUNT.get(key):
        return f"{len(cycles)} cycles, expected {EXPECTED_COUNT.get(key)}"
    if limit >= POULET_CYCLE[0] and POULET_CYCLE not in members:
        return "Poulet's 5-cycle missing"
    if limit >= LONG_CYCLE_START and not any(
        ring[0] == LONG_CYCLE_START and len(ring) == LONG_CYCLE_LENGTH for ring in members
    ):
        return "the 28-cycle from 14316 is missing"
    return None


def check_sequence(args, result, steps) -> str | None:
    start, max_steps, ceiling = args
    t = result.trajectory
    outcome = result.outcome.value
    if result.start != start or t[0] != start or len(t) > max_steps + 1:
        return "trajectory does not start at the start or is too long"
    for j in steps:
        if s(t[j]) != t[j + 1]:
            return f"step {j} fails the divisor_sigma check"
    body = t[:-1] if outcome in ("ReachedZero", "CeilingExceeded") else t
    if len(set(body)) != len(body) or any(v > ceiling for v in body):
        return "trajectory repeats a value or passes the ceiling early"
    cycle_fields = (result.cycle, result.entry_index)
    if outcome == "EnteredCycle":
        entry = result.entry_index
        ok = (
            result.fixed_point is None
            and isinstance(entry, int)
            and result.cycle == t[entry:]
            and s(t[-1]) == t[entry]
        )
    elif cycle_fields != (None, None):
        ok = False
    elif outcome == "FixedPoint":
        ok = result.fixed_point == t[-1] and s(t[-1]) == t[-1]
    elif result.fixed_point is not None:
        ok = False
    elif outcome == "ReachedZero":
        ok = t[-1] == 0 and len(t) >= 2 and t[-2] == 1
    elif outcome == "CeilingExceeded":
        ok = t[-1] > ceiling
    elif outcome == "StepsExhausted":
        ok = len(t) == max_steps + 1
    else:
        ok = False
    return None if ok else f"outcome {outcome} inconsistent with the trajectory"


def sequence_json(result) -> bytes:
    def opt(v):
        return None if v is None else str(v)

    obj = {
        "start": str(result.start),
        "trajectory": [str(v) for v in result.trajectory],
        "outcome": result.outcome.value,
        "fixed_point": opt(result.fixed_point),
        "cycle": None if result.cycle is None else [str(v) for v in result.cycle],
        "entry_index": opt(result.entry_index),
    }
    return json.dumps(obj, separators=(",", ":")).encode()


def check_candidate(c, m: int, n: int, listed: bool, params: dict) -> str | None:
    """Euler's rule at (m, n); Thābit's doubling rule at k is the case (k, k + 1)."""
    a = 2 ** (n - m) + 1
    p, q, r = 2**m * a - 1, 2**n * a - 1, 2 ** (n + m) * a * a - 1
    if any(getattr(c, name) != value for name, value in params.items()):
        return "parameters echoed wrongly"
    if (c.p, c.q, c.r) != (p, q, r) or getattr(c, "a", a) != a:
        return "p, q or r differs from the formula"
    flags = (isprime(p), isprime(q), isprime(r))
    if (c.p_prime, c.q_prime, c.r_prime) != flags:
        return "a primality flag disagrees with sympy.isprime"
    mode = "deterministic" if max(p, q, r) < DETERMINISTIC_BOUND else "probabilistic"
    if c.primality_mode != mode:
        return "wrong primality mode"
    if not all(flags):
        return None if c.pair is None and not c.verified and not listed else "pair without primes"
    pair = (2**n * p * q, 2**n * r)
    # sigma is multiplicative and p < q, r are odd primes
    sigma_m = (2 ** (n + 1) - 1) * (p + 1) * (q + 1)
    sigma_n = (2 ** (n + 1) - 1) * (r + 1)
    amicable = sigma_m == sigma_n == sum(pair)
    if c.pair != pair or c.verified != amicable or amicable != listed:
        return "pair or verified flag wrong"
    return None

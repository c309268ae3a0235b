"""Per-layer metrics of one traced round, read from its `Tracer`.

All values are per round, i.e. per pass over the workload's ops. On `search`
a round holds two serial searches, so for example `pairs.partner_lookups`
is 2 x 62,105 at 10**6. Layers a workload does not exercise read 0.
"""

from __future__ import annotations

SERIAL_SEARCHES = ("op:search_amicable", "op:search_betrothed")
CANDIDATE_OPS = ("op:euler_candidate", "op:thabit_candidate")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "divisor.build_sieve_s": ("s", "lower"),
    "divisor.sieve_mb": ("MB", "lower"),
    "pairs.partner_lookups": ("count", "lower"),
    "pairs.partner_s": ("s", "lower"),
    "pairs.scan_self_s": ("s", "lower"),
    "pairs.pool_s": ("s", "lower"),
    "pairs.parallel_speedup": ("ratio", "higher"),
    "pairs.verify_calls": ("count", "higher"),
    "pairs.verify_s": ("s", "lower"),
    "numeric.factorize_calls": ("count", "lower"),
    "numeric.factorize_hit_ratio": ("ratio", "higher"),
    "numeric.factorize_self_s": ("s", "lower"),
    "numeric.is_prime_calls.deterministic": ("count", "lower"),
    "numeric.is_prime_calls.probabilistic": ("count", "lower"),
    "numeric.is_prime_s": ("s", "lower"),
    "cycles.beyond_steps": ("count", "lower"),
    "cycles.walk_self_s": ("s", "lower"),
    "cycles.verify_s": ("s", "lower"),
    "cycles.sequence_self_s": ("s", "lower"),
    "generators.candidates": ("count", "higher"),
    "generators.verified": ("count", "higher"),
    "generators.verify_pair_s": ("s", "lower"),
    "catalog.export_s": ("s", "lower"),
    "catalog.export_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def round_metrics(tracer, cache_hits: int, cache_misses: int, outputs) -> dict[str, float]:
    """Everything in PER_LAYER except the sieve probe and the overhead, which need other runs."""
    t = tracer
    spans = {name: t.named(name) for name in {span[0] for span in t.spans}}

    def ids(*names):
        return {i for name in names for i in spans.get(name, ())}

    def total(name):
        return sum(t.duration(i) for i in ids(name))

    def self_total(*names):
        return sum(t.self_time(i) for i in ids(*names))

    searches = ids(*SERIAL_SEARCHES)
    partner_n, partner_s, _ = t.calls("divisor.aliquot_s", searches)
    amicable = ids("op:search_amicable")
    _, amicable_partner_s, _ = t.calls("divisor.aliquot_s", amicable)
    pool_s = self_total("op:search_amicable_parallel")
    serial_scan_s = self_total("op:search_amicable") + amicable_partner_s
    verify_n, verify_s, _ = t.calls("divisor.sigma_brute", ids(*SERIAL_SEARCHES, "op:search_amicable_parallel"))
    factorize_n, _, factorize_self = t.calls("numeric.factorize")
    det_n, det_s, _ = t.calls("numeric.is_prime.deterministic")
    prob_n, prob_s, _ = t.calls("numeric.is_prime.probabilistic")
    beyond_n, _, _ = t.calls("divisor.aliquot_s", ids("op:find_cycles", "cycles.verify_cycle"))
    lookups = cache_hits + cache_misses
    return {
        "divisor.build_sieve_s": total("divisor.build_sieve"),
        "pairs.partner_lookups": partner_n,
        "pairs.partner_s": partner_s,
        "pairs.scan_self_s": self_total(*SERIAL_SEARCHES),
        "pairs.pool_s": pool_s,
        "pairs.parallel_speedup": serial_scan_s / pool_s if pool_s else 0.0,
        "pairs.verify_calls": verify_n,
        "pairs.verify_s": verify_s,
        "numeric.factorize_calls": factorize_n,
        "numeric.factorize_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "numeric.factorize_self_s": factorize_self,
        "numeric.is_prime_calls.deterministic": det_n,
        "numeric.is_prime_calls.probabilistic": prob_n,
        "numeric.is_prime_s": det_s + prob_s,
        "cycles.beyond_steps": beyond_n,
        "cycles.walk_self_s": self_total("op:find_cycles"),
        "cycles.verify_s": total("cycles.verify_cycle"),
        "cycles.sequence_self_s": self_total("op:aliquot_sequence"),
        "generators.candidates": len(ids(*CANDIDATE_OPS)),
        "generators.verified": sum(
            1 for out in outputs if out is not None and getattr(out[0], "verified", False) is True
        ),
        "generators.verify_pair_s": total("generators.verify_pair_by_sigma"),
        "catalog.export_s": total("catalog.export_report"),
        "catalog.export_bytes": sum(len(out[1]) for out in outputs if out is not None),
    }

"""Workload definitions: sizes, seeded inputs and the ops each workload runs.

An op is one public-API call followed by `export_report(result, "json")`,
both inside the timed region, because `--format json` users pay for the
export too. Every op starts from a cold `factorize` cache, because every CLI
invocation does. The seed chooses the bignum starts (and the oracle's step
sample); the package only ever sees the generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("search", "cycles", "bignum")

SIZES = {
    "full": {
        "search_limit": 10**6,
        "cycles_limit": 2 * 10**5,
        "max_len": 30,
        "starts": 2000,
        "start_range": (10**6, 10**7),
        "max_steps": 60,
        "ceiling": 10**20,
        "euler_n": 40,
        "thabit_k": 300,
        "step_samples": 128,
    },
    # For the self-test: every code path, a second or two per workload.
    "tiny": {
        "search_limit": 20000,
        "cycles_limit": 20000,
        "max_len": 30,
        "starts": 40,
        "start_range": (10**6, 10**7),
        "max_steps": 60,
        "ceiling": 10**20,
        "euler_n": 10,
        "thabit_k": 12,
        "step_samples": 16,
    },
}

POOL_WORKERS = 2

# The host probe (hostspeed.py) whose mix of work matches each workload's ops.
PROBE = {"search": "memory", "cycles": "memory", "bignum": "bigint"}


@dataclass(frozen=True)
class Op:
    """`kind` names the public function; `args` are exactly what it receives."""

    kind: str
    args: tuple
    kwargs: tuple = ()

    @property
    def key(self) -> str:
        parts = [self.kind, *map(str, self.args)]
        return "/".join(parts)


def make_ops(workload: str, seed: int, size: dict, nproc: int) -> list[Op]:
    if workload == "search":
        limit = size["search_limit"]
        workers = min(POOL_WORKERS, nproc)
        return [
            Op("search_amicable", (limit,)),
            Op("search_betrothed", (limit,)),
            Op("search_amicable_parallel", (limit,), (("parallel", True), ("workers", workers))),
        ]
    if workload == "cycles":
        return [Op("find_cycles", (size["cycles_limit"], size["max_len"]))]
    if workload == "bignum":
        rng = random.Random(seed)
        lo, hi = size["start_range"]
        ops = [
            Op("aliquot_sequence", (rng.randrange(lo, hi, 2), size["max_steps"], size["ceiling"]))
            for _ in range(size["starts"])
        ]
        top = size["euler_n"]
        ops += [Op("euler_candidate", (m, n)) for n in range(2, top + 1) for m in range(1, n)]
        ops += [Op("thabit_candidate", (k,)) for k in range(1, size["thabit_k"] + 1)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def resolve(package, op: Op):
    """The package function an op calls."""
    if op.kind == "search_amicable_parallel":
        return package.search_amicable
    return getattr(package, op.kind)

"""Benchmark of the amicable toolkit through its public API.

    python3 perfbench/run.py --workload {search,cycles,bignum} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout: the package is imported from `src/` there
and nowhere else. After one warm-up round, a run repeats the workload's ops
in rounds until the next round would end past `--seconds`, checks every
output against the oracle (outside the timed region), prints one
`name value unit` line per metric and ends with one JSON line. With
`--trace 0` that line holds the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics, measured by a traced run whose first round is
untraced, so the difference is the tracing overhead. A full record, spans
included, goes to `perfbench/results/`.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

from hostspeed import HostClock
from layers import PER_LAYER, round_metrics
from spans import Tracer
from workloads import PROBE, SIZES, WORKLOADS, make_ops, resolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up (a fresh import plus input generation) is timed SETUP_FIRST times at
# start-up, then again between ops whenever SETUP_INTERVAL_S has passed.
SETUP_FIRST = 5
SETUP_INTERVAL_S = 1.0
SETUP_GROUPS = 5

# name -> unit, in report order; each is reported on every workload. Both
# times are scaled to the reference host speed (hostspeed.py).
END_TO_END = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


@dataclass
class Round:
    wall: float
    op_times: list[float]
    outputs: list | None  # (result, export bytes) or None per op; first round only
    changed: list[int]  # ops whose export differs from the first round's, or raised
    cache_hits: int = 0
    cache_misses: int = 0
    tracer: Tracer | None = None
    probe_s: float | None = None  # mean host probe time during the round
    probe_n: int = 0  # host probes during the round


def is_package_module(name: str) -> bool:
    return name == "amicable" or name.startswith("amicable.")


def fresh_import():
    """Import `amicable` from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if is_package_module(n)]:
        del sys.modules[name]
    try:
        package = importlib.import_module("amicable")
    except ImportError as exc:
        raise SetupError(f"cannot import amicable from {SRC}: {exc}") from exc
    origin = Path(package.__file__).resolve().parent
    if origin != SRC / "amicable":
        raise SetupError(f"amicable was imported from {origin}, not from {SRC}")
    return package


class SetupClock:
    """Times set-up again and again, spread over the whole run.

    The reference host's speed changes in spells of seconds. A 30 ms import
    sees one spell, so back-to-back samples all land in the same one and the
    run's figure jumps between a fast and a slow level. Spread samples follow
    the run's mix of spells instead. The figure is the median of SETUP_GROUPS
    means, each over every SETUP_GROUPS-th sample. `host` probes the host's
    speed during the measured untraced rounds; it is paused while set-up is
    timed.
    """

    def __init__(self, workload: str, seed: int, size: dict) -> None:
        self.inputs = (workload, seed, size, os.cpu_count() or 1)
        self.samples: list[float] = []
        self.host = HostClock(PROBE[workload])
        self.last = 0.0

    def sample(self) -> float:
        """Time one set-up in a throwaway import; returns the time it took away from the run."""
        kept = {name: module for name, module in sys.modules.items() if is_package_module(name)}
        start = time.perf_counter()
        with self.host.pause():
            fresh_import()
            make_ops(*self.inputs)
            self.samples.append(time.perf_counter() - start)
        for name in [n for n in sys.modules if is_package_module(n)]:
            del sys.modules[name]
        sys.modules.update(kept)  # the run keeps using the modules it started with
        gc.collect()
        self.last = time.perf_counter()
        return self.last - start

    def sample_if_due(self) -> float:
        if time.perf_counter() - self.last < SETUP_INTERVAL_S:
            return 0.0
        return self.sample()

    def value(self) -> float:
        groups = [self.samples[i::SETUP_GROUPS] for i in range(SETUP_GROUPS)]
        return median(fmean(group) for group in groups if group)


def setup(workload: str, seed: int, size: dict):
    package = fresh_import()
    ops = make_ops(workload, seed, size, os.cpu_count() or 1)
    clock = SetupClock(workload, seed, size)
    for _ in range(SETUP_FIRST):
        clock.sample()
    return package, ops, clock


def run_op(fn, op, export, clear):
    clear()
    result = fn(*op.args, **dict(op.kwargs))
    return result, export(result, "json")


def run_round(package, ops, tracer=None, clock=None, reference=None) -> Round:
    """One pass over the ops. Later rounds only record where they differ from `reference`.

    The time the host probe takes, and the time set-up samples take, are left
    out of the op times and the round's wall time.
    """
    factorize = package.numeric.factorize  # the cached function itself; tracing wraps its callers
    export = package.export_report
    runners = {}
    if tracer is not None:
        export = tracer.span("catalog.export_report", export)
        runners = {kind: tracer.span("op:" + kind, run_op) for kind in {op.kind for op in ops}}
    fns = [resolve(package, op) for op in ops]
    outputs, changed, op_times = [], [], []
    hits = misses = setup_spent = 0
    host = clock.host if clock is not None else HostClock()  # an idle one when untimed
    gc.collect()
    start, probed, first_sample = time.perf_counter(), host.spent, len(host.samples)
    for i, (op, fn) in enumerate(zip(ops, fns)):
        runner = runners.get(op.kind, run_op)
        t0, h0 = time.perf_counter(), host.spent
        try:
            with host.pause(bool(dict(op.kwargs).get("parallel"))):
                out = runner(fn, op, export, factorize.cache_clear)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            out = None
        op_times.append(time.perf_counter() - t0 - (host.spent - h0))
        if reference is None:
            outputs.append(out)
        elif out is None or reference[i] is None or out[1] != reference[i][1]:
            changed.append(i)
        info = factorize.cache_info()
        hits += info.hits
        misses += info.misses
        if clock is not None:
            setup_spent += clock.sample_if_due()
    wall = time.perf_counter() - start - setup_spent - (host.spent - probed)
    samples = host.samples[first_sample:]
    probe_s = fmean(samples) if samples else None
    return Round(wall, op_times, outputs if reference is None else None, changed, hits, misses,
                 tracer, probe_s, len(samples))


def run_rounds(package, ops, seconds: float, trace: bool, clock: SetupClock):
    """(first round, measured rounds, peak RSS in MB after the first round).

    The first round is a warm-up: its outputs are kept and checked in full,
    and peak RSS is read after it, as a CLI user running one op per process
    would see it. Measured rounds follow until the next one would end past
    `seconds`. An untraced run times set-up between the measured rounds' ops
    and probes the host's speed during them; the probe's tables are built
    after peak RSS is read, and the warm-up takes no set-up samples, whose
    throwaway imports would add to it. A traced run's measured rounds are traced, and
    its untraced first round is the base of the tracing overhead.
    """
    begin = time.perf_counter()
    first = run_round(package, ops)
    rss = peak_rss_mb()
    rounds: list[Round] = []
    with contextlib.nullcontext() if trace else clock.host.running():
        while not rounds or time.perf_counter() - begin + rounds[-1].wall <= seconds:
            if trace:
                tracer = Tracer()
                with tracer.installed(package):
                    rounds.append(run_round(package, ops, tracer, reference=first.outputs))
            else:
                rounds.append(run_round(package, ops, clock=clock, reference=first.outputs))
    return first, rounds, rss


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def sieve_mb(package, workload: str, size: dict) -> float:
    """Memory held by the table of one extra, untimed `build_sieve` at the workload's limit.

    The list plus each distinct int object in it, by `sys.getsizeof`. Nothing
    else the build allocates survives it, so this is its peak up to allocator
    slack. tracemalloc would read the peak directly but slows the build about
    twenty-fold (55 s at 10**6).
    """
    limit = {"search": size["search_limit"], "cycles": size["cycles_limit"]}.get(workload)
    if limit is None:
        return 0.0
    values = package.build_sieve(limit).s_values
    seen = set()
    total = sys.getsizeof(values)
    for v in values:
        if id(v) not in seen:
            seen.add(id(v))
            total += sys.getsizeof(v)
    return total / 2**20


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the 99th of 2,000 values has 20 beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def workload_details(workload: str, ops, rounds: list[Round], first) -> dict[str, tuple[float, str]]:
    """The named end-to-end figures of each workload, medians over rounds."""
    def op_median(kind):
        return median(sum(t for op, t in zip(ops, r.op_times) if op.kind == kind) for r in rounds)

    if workload == "search":
        return {
            "amicable_s": (op_median("search_amicable"), "s"),
            "betrothed_s": (op_median("search_betrothed"), "s"),
            "parallel_s": (op_median("search_amicable_parallel"), "s"),
        }
    if workload == "cycles":
        return {"cycles_s": (op_median("find_cycles"), "s")}
    seq = [i for i, op in enumerate(ops) if op.kind == "aliquot_sequence"]
    steps = sum(len(first[i][0].trajectory) - 1 for i in seq if first[i] is not None)
    seq_times = [[r.op_times[i] for i in seq] for r in rounds]
    return {
        "steps_per_s": (median(steps / sum(ts) for ts in seq_times), "1/s"),
        "seq_p50_ms": (median(percentile(ts, 50) for ts in seq_times) * 1e3, "ms"),
        "seq_p99_ms": (median(percentile(ts, 99) for ts in seq_times) * 1e3, "ms"),
        "generate_s": (
            op_median("euler_candidate") + op_median("thabit_candidate"), "s"
        ),
        "steps": (steps, "count"),
        "sequences": (len(seq), "count"),
    }


def check(ops, rounds: list[Round], seed: int, size: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): rounds[0] is checked, later rounds must repeat its bytes."""
    from oracle import Oracle, load_digests  # sympy is imported only after the timed rounds

    reasons = Oracle(seed, size["step_samples"], load_digests()).check(ops, rounds[0].outputs)
    attempted = failed = 0
    notes = [f"{op.key}: {why}" for op, why in zip(ops, reasons) if why]
    for r in rounds:
        changed = set(r.changed)
        for i, op in enumerate(ops):
            attempted += 1
            if reasons[i] or i in changed:
                failed += 1
                if not reasons[i]:
                    notes.append(f"{op.key}: output changed between rounds")
    return attempted, failed, notes


def as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    size = SIZES[args.size]

    sys.path.insert(0, str(SRC))
    try:
        package, ops, clock = setup(args.workload, args.seed, size)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    first, rounds, rss = run_rounds(package, ops, args.seconds, bool(args.trace), clock)
    untraced = [first] if args.trace else rounds
    details = workload_details(args.workload, ops, untraced, first.outputs)

    if args.trace:
        per_round = [
            round_metrics(r.tracer, r.cache_hits, r.cache_misses, first.outputs) for r in rounds
        ]
        metrics = {name: (median(m[name] for m in per_round), PER_LAYER[name][0])
                   for name in per_round[0]}
        metrics["divisor.sieve_mb"] = (sieve_mb(package, args.workload, size), "MB")
        metrics["trace.overhead_s"] = (median(r.wall for r in rounds) - first.wall, "s")
        metrics = {name: metrics[name] for name in PER_LAYER}
    else:
        wall, setup_s = median(r.wall for r in rounds), clock.value()
        details["wall_s"] = (wall, "s")
        details["raw_setup_s"] = (setup_s, "s")
        details["host_probe_ms"] = (clock.host.probe_s() * 1e3, "ms")
        details["host_samples"] = (len(clock.host.samples), "count")
        values = {
            "scaled_wall_s": median(clock.host.scale(r.wall, r.probe_s) for r in rounds),
            "setup_s": clock.host.scale(setup_s),
            "peak_rss_mb": rss,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    attempted, failed, notes = check(ops, [first] + rounds, args.seed, size)
    details["fail_frac"] = (failed / attempted, "ratio")
    for note in notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(),
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "round_probe_ms": [r.probe_s and r.probe_s * 1e3 for r in rounds],
        "round_probes": [r.probe_n for r in rounds],
        "untraced_wall_s": first.wall,
        "attempted": attempted,
        "failed": failed,
        "failures": notes,
        "details": as_json(details),
        "metrics": as_json(metrics),
        "pool_worker_spans": "not collected",
    }
    print(
        f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
        f"rounds={len(rounds)} nproc={record['nproc']} python={record['python']} "
        f"commit={record['commit'][:12]}"
    )
    for name, (value, unit) in {**details, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        record["spans"] = [r.tracer.dump() for r in rounds]
    out = out_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

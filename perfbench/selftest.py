"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

1. Runs every workload at `--size tiny`, untraced and traced, and requires a
   correct result whose metrics are exactly those BENCHMARK.json names, each
   with its unit, plus the named per-workload figures on stdout.
2. Hands the oracle planted wrong results, built as new objects from real
   ones (the package itself is not patched), and requires each to count as
   a failed op.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, where it must fail without printing a result.

Exits 0 when everything holds; prints each problem otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

from run import ROOT, SRC, HERE, Round, check, fresh_import, run_round
from workloads import SIZES, WORKLOADS, Op, make_ops

DETAILS = {
    "search": ("amicable_s", "betrothed_s", "parallel_s", "fail_frac"),
    "cycles": ("cycles_s", "fail_frac"),
    "bignum": ("steps_per_s", "seq_p50_ms", "seq_p99_ms", "generate_s", "fail_frac"),
}
TIMEOUT_S = 180


def run_bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result['failed']} of {result['attempted']}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
            printed = {line.split()[0] for line in lines[:-1]}
            missing = [name for name in DETAILS[workload] if name not in printed]
            if missing:
                problems.append(f"{where}: named figures not printed: {missing}")
    return problems


def planted(package) -> tuple[list[Op], list, list[tuple[str, list]]]:
    """(ops, good outputs, [(description, outputs where exactly one is wrong)])."""
    size = SIZES["tiny"]
    ops = make_ops("search", 5, size, 2) + make_ops("cycles", 5, size, 2) + make_ops("bignum", 5, size, 2)
    good = run_round(package, ops, None).outputs
    export = package.export_report

    def swap(index, result, data=None):
        outputs = list(good)
        outputs[index] = (result, export(result, "json") if data is None else data)
        return outputs

    def first(kind):
        return next(i for i, op in enumerate(ops) if op.kind == kind)

    amicable, par, cyc = first("search_amicable"), first("search_amicable_parallel"), first("find_cycles")
    seq, euler = first("aliquot_sequence"), first("euler_candidate")
    report = good[amicable][0]
    wrong_pair = dataclasses.replace(report, pairs=((220, 285),) + report.pairs[1:])
    cycles = good[cyc][0]
    trajectory = good[seq][0].trajectory
    bad_step = dataclasses.replace(
        good[seq][0], trajectory=trajectory[:1] + (trajectory[1] + 2,) + trajectory[2:]
    )
    candidate = good[euler][0]
    return ops, good, [
        ("a wrong pair in a search report", swap(amicable, wrong_pair)),
        ("a parallel result that differs from the serial one", swap(par, wrong_pair)),
        ("a missing cycle", swap(cyc, cycles[1:])),
        ("a wrong aliquot step", swap(seq, bad_step)),
        ("a flipped primality flag",
         swap(euler, dataclasses.replace(candidate, p_prime=not candidate.p_prime))),
        ("export bytes that differ from the pinned digest",
         swap(amicable, report, good[amicable][1] + b" ")),
    ]


def check_planted() -> list[str]:
    sys.path.insert(0, str(SRC))
    package = fresh_import()
    ops, good, cases = planted(package)
    size = dict(SIZES["tiny"])
    # sample every aliquot step, so a planted wrong one is among them
    size["step_samples"] = sum(len(out[0].trajectory) for op, out in zip(ops, good)
                               if op.kind == "aliquot_sequence")
    times = [0.0] * len(ops)
    problems = []
    for what, outputs in cases:
        attempted, failed, _ = check(ops, [Round(0.0, times, outputs, [])], 5, size)
        if failed == 0:
            problems.append(f"planted {what}: not counted as failed ({attempted} attempted)")
    rounds = [Round(0.0, times, good, []), Round(0.0, times, None, [0])]
    attempted, failed, _ = check(ops, rounds, 5, size)
    if failed != 1:
        problems.append(f"a later round that changed one output: {failed} failed, expected 1")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "search", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without src/ the benchmark exited {proc.returncode} and printed {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_metrics(spec) + check_planted() + check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 on success, 1 when a check or verification came out negative,
2 on usage errors (bad arguments, out-of-domain values, unsupported formats).
Output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .catalog import export_report, verify_catalog
from .cycles import aliquot_sequence, find_cycles, verify_cycle
from .divisor import aliquot_s, classify, sigma
from .errors import ToolkitError
from .generators import borho_candidate, euler_candidate, thabit_candidate
from .pairs import PairKind, audit, check_amicable, check_betrothed, search_amicable, search_betrothed


def _member_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def _bool_word(flag: bool) -> str:
    return "true" if flag else "false"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="amicable",
        description="Divisor sums, amicable and betrothed pairs, aliquot cycles, "
        "and the classical pair-generating rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents, summary):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("sigma", _cmd_divisor_sum, [common], "divisor sum of N")
    p.add_argument("n", type=int)

    p = command("s", _cmd_divisor_sum, [common], "proper-divisor sum of N")
    p.add_argument("n", type=int)

    p = command("classify", _cmd_classify, [common], "deficient, perfect, or abundant")
    p.add_argument("n", type=int)

    p = command("check-pair", _cmd_check_pair, [common], "test a pair of numbers")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--betrothed", action="store_true", help="test the betrothed condition")

    p = command("search", _cmd_search, [common], "find all pairs up to a limit")
    p.add_argument("--max", type=int, required=True, dest="limit")
    p.add_argument("--betrothed", action="store_true", help="search betrothed pairs")

    p = command("aliquot", _cmd_aliquot, [common], "iterate the aliquot sequence")
    p.add_argument("n", type=int)
    p.add_argument("--max-steps", type=int, default=100)
    p.add_argument("--ceiling", type=int, default=10**15)

    p = command("cycles", _cmd_cycles, [common], "search sociable cycles")
    p.add_argument("--max", type=int, required=True, dest="limit")
    p.add_argument("--max-len", type=int, required=True)

    p = command("cycle-verify", _cmd_cycle_verify, [common], "verify a claimed cycle")
    p.add_argument("members", type=_member_list, help="comma-separated members, in order")

    # Only the rule subparsers take --format: an option given to `generate`
    # itself would be overwritten by the rule subparser's default.
    p = command("generate", _cmd_generate, [], "run a generation rule")
    rule = p.add_subparsers(dest="rule", required=True)

    g = rule.add_parser("thabit", parents=[common], help="doubling rule")
    pick = g.add_mutually_exclusive_group(required=True)
    pick.add_argument("--k", type=int)
    pick.add_argument("--k-max", type=int)

    g = rule.add_parser("euler", parents=[common], help="two-exponent rule")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)

    g = rule.add_parser("borho", parents=[common], help="breeder construction")
    g.add_argument("--a", type=int, required=True)
    g.add_argument("--u", type=int, required=True)
    g.add_argument("--n", type=int, required=True)

    command("verify-known", _cmd_verify_known, [common], "re-verify the built-in catalog")

    p = command("audit", _cmd_audit, [common], "search then audit parity and gcds")
    p.add_argument("--max", type=int, required=True, dest="limit")

    return parser


def _emit(args, payload, text_lines) -> None:
    """Print `text_lines`, or `payload` exported in the requested format."""
    if args.format == "text":
        for line in text_lines:
            print(line)
    else:
        sys.stdout.write(export_report(payload, args.format).decode())
        if args.format == "json":
            sys.stdout.write("\n")


def _cmd_divisor_sum(args) -> int:
    function = sigma if args.command == "sigma" else aliquot_s
    value = function(args.n)
    _emit(args, {"n": args.n, args.command: value}, [value])
    return 0


def _cmd_classify(args) -> int:
    result = classify(args.n)
    _emit(args, result, [result.tag.value])
    return 0


def _cmd_check_pair(args) -> int:
    checker = check_betrothed if args.betrothed else check_amicable
    verdict = checker(args.m, args.n)
    lines = [verdict.kind.value]
    if verdict.guard_failures:
        lines.append("guards: " + ", ".join(g.value for g in verdict.guard_failures))
    _emit(args, verdict, lines)
    wanted = PairKind.BETROTHED if args.betrothed else PairKind.AMICABLE
    return 0 if verdict.kind is wanted else 1


def _cmd_search(args) -> int:
    searcher = search_betrothed if args.betrothed else search_amicable
    report = searcher(args.limit)
    lines = [f"{m} {n}" for m, n in report.pairs]
    lines.append(
        f"pairs={len(report.pairs)} all_even={_bool_word(report.all_even)} "
        f"min_gcd={report.min_gcd} oracle={report.oracle.value}"
    )
    _emit(args, report, lines)
    return 0


def _cmd_aliquot(args) -> int:
    result = aliquot_sequence(args.n, args.max_steps, args.ceiling)
    lines = [" ".join(str(v) for v in result.trajectory)]
    tail = f"outcome: {result.outcome.value}"
    if result.fixed_point is not None:
        tail += f" {result.fixed_point}"
    if result.cycle is not None:
        tail += " [" + " ".join(str(v) for v in result.cycle) + f"] entry={result.entry_index}"
    lines.append(tail)
    _emit(args, result, lines)
    return 0


def _cmd_cycles(args) -> int:
    cycles = find_cycles(args.limit, args.max_len)
    lines = [" ".join(str(v) for v in c.members) for c in cycles]
    lines.append(f"cycles={len(cycles)}")
    _emit(args, cycles, lines)
    return 0


def _cmd_cycle_verify(args) -> int:
    check = verify_cycle(args.members)
    if check.ok:
        line = f"valid cycle of length {len(args.members)}"
    else:
        line = f"not a cycle: {check.failure}"
    _emit(args, {"members": args.members, "ok": check.ok, "failure": check.failure}, [line])
    return 0 if check.ok else 1


def _describe_flag(value: int, flag: bool) -> str:
    return f"{value} ({'prime' if flag else 'composite'})"


def _verdict_tail(c) -> str:
    """The shared end of a Thabit, Euler or Borho line: the pair's fate."""
    if c.pair is None:
        return " -> rejected"
    status = "verified" if c.verified else "NOT verified"
    return f" -> pair ({c.pair[0]}, {c.pair[1]}) {status}"


def _pqr_line(lead: str, c) -> str:
    """A Thabit or Euler line: its lead, the three primes p, q, r, the tail."""
    return (
        f"{lead} p={_describe_flag(c.p, c.p_prime)}, "
        f"q={_describe_flag(c.q, c.q_prime)}, r={_describe_flag(c.r, c.r_prime)}"
    ) + _verdict_tail(c)


def _borho_line(c) -> str:
    head = f"a={c.a} u={c.u} n={c.n}: t={c.t}, p1={c.p1}, p2={c.p2}"
    if c.pair is None:
        failed = [name for name, ok in asdict(c.hypothesis).items() if not ok]
        head += "; failed: " + ", ".join(failed)
    return head + _verdict_tail(c)


def _cmd_generate(args) -> int:
    if args.rule == "thabit" and args.k_max is not None:
        # --k-max 0 runs k = 0 alone, so thabit_candidate rejects it as --k 0 does
        candidates = [thabit_candidate(k) for k in range(min(1, args.k_max), args.k_max + 1)]
        _emit(args, candidates, [_pqr_line(f"k={c.k}:", c) for c in candidates])
        return 0 if any(c.verified for c in candidates) else 1
    if args.rule == "thabit":
        c = thabit_candidate(args.k)
        line = _pqr_line(f"k={c.k}:", c)
    elif args.rule == "euler":
        c = euler_candidate(args.m, args.n)
        line = _pqr_line(f"m={c.m} n={c.n}: a={c.a},", c)
    else:
        c = borho_candidate(args.a, args.u, args.n)
        line = _borho_line(c)
    _emit(args, c, [line])
    return 0 if c.verified else 1


def _cmd_verify_known(args) -> int:
    results = verify_catalog()
    lines = [
        f"{'ok' if ok else 'FAIL'} {entry.kind.value} "
        f"{','.join(str(v) for v in entry.members)} ({entry.attribution})"
        for entry, ok in results
    ]
    lines.append(f"verified {sum(ok for _, ok in results)}/{len(results)} entries")
    _emit(args, [{"entry": entry, "ok": ok} for entry, ok in results], lines)
    return 0 if all(ok for _, ok in results) else 1


def _cmd_audit(args) -> int:
    report = search_amicable(args.limit)
    result = audit(report)
    line = (
        f"pairs={len(report.pairs)} all_even={_bool_word(result.all_even)} "
        f"min_gcd={result.min_gcd} coprime_found={_bool_word(result.coprime_found)}"
    )
    _emit(args, {"limit": args.limit, "pairs": len(report.pairs), **asdict(result)}, [line])
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

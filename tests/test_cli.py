"""End-to-end command-line checks through the argparse entry point.

The golden corpus (`test_cli_golden.py`) holds argv -> exit code and stdout.
These tests keep what it cannot hold: stderr bytes, faults monkeypatched into
the library, the environment, where argparse takes an option, determinism
across runs, `python -m amicable`, and invocations the corpus lacks. A CLI
invocation whose stdout is fixed belongs in the corpus, and a behaviour a
numbered acceptance criterion checks is not repeated here.
"""

import json
import subprocess
import sys

import amicable.numeric
from amicable.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_s_command(capsys):
    code, out, _ = invoke(capsys, "s", "1")
    assert (code, out) == (0, "0\n")


def test_classify_command(capsys):
    code, out, _ = invoke(capsys, "classify", "12", "--format", "json")
    assert (code, out) == (0, '{"tag":"Abundant","n":"12","s_value":"16"}\n')
    code, out, _ = invoke(capsys, "classify", "28")
    assert (code, out) == (0, "Perfect\n")


def test_check_pair_exit_codes(capsys):
    # a true amicable pair still fails the betrothed check
    code, _, _ = invoke(capsys, "check-pair", "220", "284", "--betrothed")
    assert code == 1


def test_search_json_output(capsys):
    code, out, _ = invoke(capsys, "search", "--max", "1300", "--format", "json")
    assert code == 0
    assert out == (
        '{"limit":"1300","pairs":[{"m":"220","n":"284"},{"m":"1184","n":"1210"}],'
        '"all_even":true,"min_gcd":"2","oracle":"Sieve"}\n'
    )


def test_search_csv_output(capsys):
    code, out, _ = invoke(capsys, "search", "--max", "1300", "--format", "csv")
    assert code == 0
    assert out == "m,n,kind,gcd,parity\n220,284,Amicable,4,even\n1184,1210,Amicable,2,even\n"


def test_search_betrothed(capsys):
    code, out, _ = invoke(capsys, "search", "--max", "2100", "--betrothed")
    assert code == 0
    assert out == (
        "48 75\n140 195\n1050 1925\n1575 1648\n2024 2295\n"
        "pairs=5 all_even=false min_gcd=1 oracle=Sieve\n"
    )


def test_output_is_deterministic_across_runs(capsys):
    seen = set()
    for _ in range(3):
        _, out, _ = invoke(capsys, "search", "--max", "1300", "--format", "json")
        seen.add(out)
    assert len(seen) == 1


def test_aliquot_outputs(capsys):
    code, out, _ = invoke(capsys, "aliquot", "220")
    assert (code, out) == (0, "220 284\noutcome: EnteredCycle [220 284] entry=0\n")
    code, out, _ = invoke(capsys, "aliquot", "30", "--max-steps", "3")
    assert (code, out) == (0, "30 42 54 66\noutcome: StepsExhausted\n")
    code, out, _ = invoke(capsys, "aliquot", "95")
    assert (code, out) == (0, "95 25 6\noutcome: FixedPoint 6\n")


def test_aliquot_json(capsys):
    code, out, _ = invoke(capsys, "aliquot", "95", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "start": "95",
        "trajectory": ["95", "25", "6"],
        "outcome": "FixedPoint",
        "fixed_point": "6",
        "cycle": None,
        "entry_index": None,
    }


def test_cycle_verify(capsys):
    code, out, _ = invoke(capsys, "cycle-verify", "12496,14288,15472,14536,14264")
    assert (code, out) == (0, "valid cycle of length 5\n")
    code, out, _ = invoke(capsys, "cycle-verify", "220,284", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"members": ["220", "284"], "ok": True, "failure": None}


def test_generate_thabit_sweep(capsys):
    code, out, _ = invoke(capsys, "generate", "thabit", "--k-max", "4")
    assert code == 0
    assert out.splitlines() == [
        "k=1: p=5 (prime), q=11 (prime), r=71 (prime) -> pair (220, 284) verified",
        "k=2: p=11 (prime), q=23 (prime), r=287 (composite) -> rejected",
        "k=3: p=23 (prime), q=47 (prime), r=1151 (prime) -> pair (17296, 18416) verified",
        "k=4: p=47 (prime), q=95 (composite), r=4607 (composite) -> rejected",
    ]


def test_generate_borho_breeds_from_220_284(capsys):
    code, out, _ = invoke(capsys, "generate", "borho", "--a", "4", "--u", "55", "--n", "2")
    assert code == 0
    assert out == (
        "a=4 u=55 n=2: t=127, p1=903223, p2=65032127"
        " -> pair (3204978428740, 4195612705532) verified\n"
    )


def test_generate_unverified_pair_is_marked(capsys, monkeypatch):
    # A constructed pair whose sigma re-check fails is still printed, marked NOT verified.
    monkeypatch.setattr("amicable.generators.verify_pair_by_sigma", lambda m, n: False)
    code, out, _ = invoke(capsys, "generate", "thabit", "--k", "1")
    assert code == 1
    assert out == (
        "k=1: p=5 (prime), q=11 (prime), r=71 (prime) -> pair (220, 284) NOT verified\n"
    )
    code, out, _ = invoke(capsys, "generate", "euler", "--m", "1", "--n", "8")
    assert code == 1
    assert out.endswith(" -> pair (2172649216, 2181168896) NOT verified\n")


def test_audit_command(capsys):
    code, out, _ = invoke(capsys, "audit", "--max", "1300", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "limit": "1300",
        "pairs": "2",
        "all_even": True,
        "min_gcd": "2",
        "coprime_found": False,
    }


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "nonsense")[0] == 2


def test_domain_errors_exit_two_with_message(capsys):
    # argparse takes any integer, so a negative one meets the library's gate too
    for argv, err in (
        (["search", "--max", "1"], "search limit must be at least 2"),
        (["aliquot", "0"], "aliquot sequences start at an integer of 1 or above"),
        (["generate", "thabit", "--k", "0"], "the doubling rule needs k >= 1"),
        (["generate", "euler", "--m", "3", "--n", "3"], "Euler's rule needs m < n"),
        (["sigma", "-5"], "sigma expects a nonnegative integer"),
        (["check-pair", "-5", "3"], "sigma expects a nonnegative integer"),
        (["search", "--max", "-5"], "search limit must be at least 2"),
        (["aliquot", "5", "--max-steps", "-1"], "max_steps must be at least 1"),
        (["cycle-verify", "5,-1"], "verify_cycle expects nonnegative integer members"),
        (["generate", "thabit", "--k-max", "-3"], "the doubling rule needs k >= 1"),
    ):
        assert invoke(capsys, *argv) == (2, "", f"error: {err}\n"), argv


def test_rho_budget_overrun_exits_two_and_names_the_number(capsys, monkeypatch):
    # a 120-bit semiprime of two 60-bit primes, past a small step budget for Brent rho
    n = 1000000000000000003 * 1100000000000000063
    monkeypatch.setattr(amicable.numeric, "_RHO_BUDGET", 1 << 12)
    code, out, err = invoke(capsys, "sigma", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: no factor of {n} found in 4096 Brent rho steps\n"


def test_the_sieve_budget_variable_is_ignored(capsys, monkeypatch):
    # the environment is no input: a malformed value of the old budget variable changes nothing
    monkeypatch.setenv("AMICABLE_SIEVE_BUDGET", "abc")
    code, out, _ = invoke(capsys, "search", "--max", "1300")
    assert (code, out) == (0, "220 284\n1184 1210\npairs=2 all_even=true min_gcd=2 oracle=Sieve\n")


def test_generate_thabit_k_max_zero_is_rejected_like_k_zero(capsys):
    expected = invoke(capsys, "generate", "thabit", "--k", "0")
    assert expected == (2, "", "error: the doubling rule needs k >= 1\n")
    assert invoke(capsys, "generate", "thabit", "--k-max", "0") == expected


def test_csv_rejected_outside_pair_reports(capsys):
    for argv in (
        ["sigma", "220", "--format", "csv"],
        ["classify", "12", "--format", "csv"],
        ["aliquot", "12", "--format", "csv"],
        ["cycles", "--max", "300", "--max-len", "2", "--format", "csv"],
        ["generate", "thabit", "--k", "1", "--format", "csv"],
        ["verify-known", "--format", "csv"],
        ["audit", "--max", "300", "--format", "csv"],
    ):
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_generate_takes_format_only_after_the_rule(capsys):
    # Given to `generate` itself, --format used to be overwritten by the rule
    # subparser's default and the command silently printed text.
    code, out, err = invoke(capsys, "generate", "--format", "json", "thabit", "--k", "1")
    assert (code, out) == (2, "")
    assert "amicable generate: error:" in err
    code, out, _ = invoke(capsys, "generate", "thabit", "--k", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rule"] == "thabit"


def test_parallel_accepted_by_no_subcommand(capsys):
    for argv in (
        ["sigma", "220"],
        ["s", "220"],
        ["classify", "12"],
        ["check-pair", "220", "284"],
        ["aliquot", "12"],
        ["cycles", "--max", "300", "--max-len", "2"],
        ["cycle-verify", "220,284"],
        ["generate", "thabit", "--k", "1"],
        ["generate", "euler", "--m", "1", "--n", "8"],
        ["generate", "borho", "--a", "3", "--u", "4", "--n", "1"],
        ["verify-known"],
        ["search", "--max", "1300"],
        ["audit", "--max", "1300"],
    ):
        code, out, err = invoke(capsys, *argv, "--parallel")
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --parallel" in err, argv


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "amicable", "check-pair", "220", "284"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Amicable\n"

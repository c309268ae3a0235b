"""Re-verification of search and cycle results survives `python -O`.

`-O` strips `assert` statements, so each check must raise on its own. Every
case runs in a fresh interpreter under `-O` with one oracle answering 0, on
every input or only on one member of the first pair, and must raise
VerificationFailed instead of returning results. An oracle wrong on one
member alone fails only the check of that member, so a search that re-checks
just one of the two is caught.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import amicable

SRC = str(Path(amicable.__file__).resolve().parent.parent)

SCRIPT = """
import sys
if not sys.flags.optimize:
    sys.exit("not running under -O")
import amicable
real = getattr(amicable.{module}, "{name}")
setattr(amicable.{module}, "{name}", lambda n: 0 if {wrong} else real(n))
try:
    result = amicable.{call}
except amicable.VerificationFailed as exc:
    print("raised:", exc)
else:
    print("returned:", result)
"""


AMICABLE = "oracle disagreement on candidate pair (220, 284)"
BETROTHED = "oracle disagreement on candidate pair (48, 75)"


@pytest.mark.parametrize(
    "module, name, wrong, call, message",
    [
        ("pairs", "sigma_brute", "True", "search_amicable(2000)", AMICABLE),
        ("pairs", "sigma_brute", "n == 220", "search_amicable(2000)", AMICABLE),
        ("pairs", "sigma_brute", "n == 284", "search_amicable(2000)", AMICABLE),
        ("pairs", "sigma_brute", "True", "search_betrothed(2000)", BETROTHED),
        ("pairs", "sigma_brute", "n == 48", "search_betrothed(2000)", BETROTHED),
        ("pairs", "sigma_brute", "n == 75", "search_betrothed(2000)", BETROTHED),
        (
            "cycles",
            "aliquot_s",
            "True",
            "find_cycles(2000, 5)",
            "cycle (220, 284) failed re-verification: s(220) != 284",
        ),
    ],
    ids=[
        "search_amicable",
        "search_amicable-smaller",
        "search_amicable-larger",
        "search_betrothed",
        "search_betrothed-smaller",
        "search_betrothed-larger",
        "find_cycles",
    ],
)
def test_broken_oracle_raises_under_optimize(module, name, wrong, call, message):
    env = {**os.environ, "PYTHONPATH": SRC}
    script = SCRIPT.format(module=module, name=name, wrong=wrong, call=call)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"raised: {message}\n"


def test_verification_failed_is_a_toolkit_error():
    assert issubclass(amicable.VerificationFailed, amicable.ToolkitError)

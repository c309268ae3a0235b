"""Re-verification of search and cycle results survives `python -O`.

`-O` strips `assert` statements, so each check must raise on its own. Every
case runs in a fresh interpreter under `-O` with one oracle replaced by a
function that always answers 0, and must raise VerificationFailed instead of
returning results.
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
setattr(amicable.{module}, "{name}", lambda n: 0)
try:
    result = amicable.{call}
except amicable.VerificationFailed as exc:
    print("raised:", exc)
else:
    print("returned:", result)
"""


@pytest.mark.parametrize(
    "module, name, call, message",
    [
        (
            "pairs",
            "sigma_brute",
            "search_amicable(2000)",
            "oracle disagreement on candidate pair (220, 284)",
        ),
        (
            "pairs",
            "sigma_brute",
            "search_betrothed(2000)",
            "oracle disagreement on candidate pair (48, 75)",
        ),
        (
            "cycles",
            "aliquot_s",
            "find_cycles(2000, 5)",
            "cycle (220, 284) failed re-verification: s(220) != 284",
        ),
    ],
    ids=["search_amicable", "search_betrothed", "find_cycles"],
)
def test_broken_oracle_raises_under_optimize(module, name, call, message):
    env = {**os.environ, "PYTHONPATH": SRC}
    script = SCRIPT.format(module=module, name=name, call=call)
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

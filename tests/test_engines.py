"""The two table storages: the int64 numpy sieve against the stdlib
`array('q')` sieve, which storage the pair searches scan, the array kernel
that settles the numpy scan's partners past the table against `SieveTable.s`,
the type of a table lookup on either, the code paths that must never import
numpy, and the search pool under the spawn and forkserver start methods. That
every engine gives the same search report is checked in test_pairs.py.

Tests of the numpy kernel skip when numpy is not installed; the stdlib-engine
checks run either way.
"""

import importlib.util
import multiprocessing
import os
import subprocess
import sys
from array import array as stdarray
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import amicable
from amicable import SieveTable, aliquot_s, build_sieve, search_amicable, search_betrothed
from amicable.divisor import _CHUNK, _array_s, _array_sieve

SRC = str(Path(amicable.__file__).resolve().parent.parent)

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy is not installed"
)


# -- the kernel ---------------------------------------------------------------


@needs_numpy
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000))
def test_array_sieve_equals_stdlib_sieve(limit):
    assert build_sieve(limit, array=True).s_values.tolist() == build_sieve(limit).s_values.tolist()


@needs_numpy
@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 211])
def test_array_sieve_at_the_square_root_boundary(p):
    # primes up to isqrt(limit) take the power passes, the rest the cofactor pass
    for limit in (p * p - 1, p * p, p * p + 1):
        expected = build_sieve(limit).s_values.tolist()
        assert build_sieve(limit, array=True).s_values.tolist() == expected


@needs_numpy
def test_array_sieve_equals_stdlib_sieve_at_2e5():
    table = build_sieve(200_000, array=True)
    assert table.s_values.dtype.name == "int64"
    assert table.s_values.tolist() == build_sieve(200_000).s_values.tolist()


@needs_numpy
def test_array_sieve_intermediates_never_exceed_sigma():
    # Run the kernel in int16: every sigma(n) up to 9239 is below 2**15, so the
    # table comes out right only if no intermediate slot value exceeds its
    # sigma(n); a multiply before the divide of a prime-power pass wraps.
    import numpy

    class Int16Numpy:
        int64 = numpy.int16

        def __getattr__(self, name):
            return getattr(numpy, name)

    limit = 9239
    assert _array_sieve(Int16Numpy(), limit).tolist() == build_sieve(limit).s_values.tolist()


def test_array_request_without_numpy_gives_the_stdlib_table(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now fails
    table = build_sieve(300, array=True)
    assert type(table.s_values) is stdarray and table.s_values.typecode == "q"
    assert table.s_values == build_sieve(300).s_values


# -- partner lookups past the table -------------------------------------------


def array_s(table, ns):
    import numpy

    return _array_s(numpy, table, numpy.array(ns, dtype=numpy.int64)).tolist()


@pytest.fixture
def table_s_calls(monkeypatch):
    """The arguments of every `SieveTable.s` call made while the test runs."""
    calls = []
    lookup = SieveTable.s
    monkeypatch.setattr(SieveTable, "s", lambda table, n: calls.append(n) or lookup(table, n))
    return calls


@needs_numpy
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_array_s_equals_table_s(data):
    limit = data.draw(st.integers(2, 3000), label="limit")
    table = build_sieve(limit, array=True)
    ns = data.draw(st.lists(st.integers(limit + 1, 8 * limit), min_size=1, max_size=40), label="ns")
    assert array_s(table, ns) == [table.s(n) for n in ns]


@needs_numpy
@pytest.mark.parametrize("limit", [2, 3, 30, 1000, 3000])
def test_array_s_explicit_cases(limit):
    table = build_sieve(limit, array=True)
    above = list(sympy.primerange(1000, 1100))
    ns = [2**k for k in range(1, 45)]
    ns += [p**e for p in (3, 5, 7, 31, 991, 997) for e in range(2, 12) if p**e < 2**45]
    ns += [p * q for p, q in zip(above, reversed(above))] + [6 * p * q for p, q in zip(above, above[1:])]
    ns = [n for n in ns if n > limit]
    assert array_s(table, ns) == [table.s(n) for n in ns] == [aliquot_s(n) for n in ns]


@needs_numpy
def test_array_s_hands_rests_past_a_tiny_table_to_table_s(table_s_calls):
    # no prime above 30 is in the table, so an odd rest past 31**2 free of the
    # primes up to 30 can only be settled by the scalar lookup
    ns = [2**40 + k for k in range(-64, 64)] + [2**10 * 1000003 * 1000033]
    expected = [aliquot_s(n) for n in ns]
    assert array_s(build_sieve(30, array=True), ns) == expected
    assert table_s_calls and all(n % 2 and n > 31**2 for n in table_s_calls)


@needs_numpy
def test_searches_settle_partners_past_the_table_in_arrays(table_s_calls):
    # each search has 6,212 partners past the table, all settled in arrays
    assert len(search_amicable(10**5).pairs) == 13
    assert len(search_betrothed(10**5).pairs) == 9
    assert table_s_calls == []


@needs_numpy
def test_numpy_scan_settles_every_far_partner_in_bounded_batches(monkeypatch):
    # the m with partners past the table are held across blocks: every partner
    # reaches the kernel once, in the order of m, in batches of at least
    # _CHUNK // 4 (all but the last) and under one block more than that. 13
    # blocks give three batches, the last one short: a count not reset after a
    # batch shows as a short middle one, and a scan with no final settle misses
    # the last partners
    limit = 13 * _CHUNK
    s_values = build_sieve(limit).s_values
    batches = []
    settle = amicable.pairs._array_s
    monkeypatch.setattr(
        amicable.pairs, "_array_s", lambda np, table, ns: batches.append(ns.tolist()) or settle(np, table, ns)
    )
    for shift, search in ((0, search_amicable), (1, search_betrothed)):
        batches.clear()
        search(limit)
        sizes = [len(batch) for batch in batches]
        assert len(sizes) > 1 and min(sizes[:-1]) >= _CHUNK // 4, sizes
        assert max(sizes) < _CHUNK // 4 + _CHUNK, sizes
        far = [s_values[m] - shift for m in range(2, limit + 1) if s_values[m] - shift > limit]
        assert [n for batch in batches for n in batch] == far, search.__name__


# -- searches and types -------------------------------------------------------


@needs_numpy
def test_searches_scan_an_array_table(monkeypatch):
    storages = []
    original = amicable.pairs.build_sieve

    def recorder(*args, **kwargs):
        table = original(*args, **kwargs)
        storages.append(type(table.s_values).__name__)
        return table

    monkeypatch.setattr(amicable.pairs, "build_sieve", recorder)
    search_amicable(2000)
    search_betrothed(2000)
    assert storages == ["ndarray", "ndarray"]


@pytest.mark.parametrize("array", [False, pytest.param(True, marks=needs_numpy)])
def test_table_lookups_are_python_ints(array):
    limit = 1000
    table = build_sieve(limit, array=array)
    if array:
        assert table.s_values.dtype.name == "int64"
    else:
        assert type(table.s_values) is stdarray and table.s_values.typecode == "q"
    # inside the table, at its edge, past it (prime, shrinking into the table, rough)
    for n in (0, 1, 2, 220, limit - 1, limit, limit + 1, 1009, 2 * 997, 1009 * 1013):
        value = table.s(n)
        assert type(value) is int, (n, type(value))
        assert value == amicable.aliquot_s(n)


# -- where numpy may be imported ----------------------------------------------


def run_python(script, timeout=120):
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cycles_and_bignum_paths_never_import_numpy():
    out = run_python(
        "import sys\n"
        "import amicable\n"
        "amicable.find_cycles(2000, 30)\n"
        "amicable.aliquot_sequence(10**6 + 2, 20)\n"
        "amicable.euler_candidate(2, 3)\n"
        "amicable.thabit_candidate(4)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False\n"


def test_search_without_numpy_gives_the_same_bytes():
    # the last line says whether numpy is installed and whether it was imported
    script = (
        "import importlib.util, sys\n"
        "{block}"
        "import amicable\n"
        "print(amicable.export_report(amicable.search_amicable(20000)).decode())\n"
        "print(importlib.util.find_spec('numpy') is not None, 'numpy' in sys.modules)\n"
    )
    blocked = run_python(script.format(block="sys.modules['numpy'] = None\n")).split("\n")
    plain = run_python(script.format(block="")).split("\n")
    assert blocked[0] == plain[0]
    assert blocked[1] == "False True"  # present, but as None: the import failed
    assert plain[1] in ("True True", "False False")


# -- the pool under other start methods ----------------------------------------


@pytest.mark.parametrize("start", ["spawn", "forkserver"])
def test_pool_matches_serial_under_start_method(start):
    # spawn is the default on macOS and Windows: workers import the package
    # afresh and receive the table by pickling, not by fork
    if start not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start} is not available on this platform")
    out = run_python(
        "import multiprocessing\n"
        f"multiprocessing.set_start_method({start!r})\n"
        "import amicable\n"
        "serial = amicable.search_amicable(20000)\n"
        "assert amicable.search_amicable(20000, parallel=True, workers=2) == serial\n"
        "print(len(serial.pairs))\n"
    )
    assert out == "8\n"

"""The two table storages: the uint32 numpy sieve against the stdlib
`array('I')` sieve, both against the bytes of the int64 tables they replaced,
which storage the pair searches scan, the array kernel that settles the numpy
scan's partners past the table against `SieveTable.s`, the type of a table
lookup on either, the code paths that must never import numpy, and the
search pool under the spawn and forkserver start methods. That every engine
gives the same search report is checked in test_pairs.py.

Tests of the numpy kernel skip when numpy is not installed; the stdlib-engine
checks run either way.
"""

import hashlib
import importlib.util
import itertools
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from array import array as stdarray
from math import isqrt
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import amicable
from amicable import SieveTable, aliquot_s, build_sieve, search_amicable, search_betrothed
from amicable.divisor import _array_s, _array_sieve, _segment
from amicable.pairs import _CHUNK

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
    # the array fill adds d at the square d*d and d + k at each d*k, k > d, for d
    # up to isqrt(limit); a limit at p*p is the first whose fill takes d = p, for
    # its square alone, since p*(p + 1) lies past it
    for limit in (p * p - 1, p * p, p * p + 1):
        expected = build_sieve(limit).s_values.tolist()
        assert build_sieve(limit, array=True).s_values.tolist() == expected


@needs_numpy
def test_array_sieve_equals_stdlib_sieve_at_2e5():
    table = build_sieve(200_000, array=True)
    assert table.s_values.dtype.name == "uint32"
    assert table.s_values.tolist() == build_sieve(200_000).s_values.tolist()


@needs_numpy
def test_array_sieve_is_exact_in_int16():
    # Store the table in int16 and add the divisor pairs in it too: every sigma(n)
    # up to 9239 is below 2**15, so every final slot fits. Each value a slot holds
    # on the way is 1 plus some distinct divisors of n below n, so at most s(n),
    # and no sum needs a wider type than the final one. So a storage only has to
    # hold the final s-values, which is what lets the uint32 table reach as far as
    # Robin's bound keeps s below 2**32.
    import numpy

    class Int16Numpy:
        int64 = uint32 = numpy.int16

        def __getattr__(self, name):
            return getattr(numpy, name)

    limit = 9239
    assert _array_sieve(Int16Numpy(), limit).tolist() == build_sieve(limit).s_values.tolist()


@needs_numpy
def test_array_sieve_holds_one_table_and_a_few_blocks():
    # a 4-byte table, the isqrt(limit) roots of its squares, and one uint32 slice
    # of pairs at a time, at most half a segment; an 8-byte table, or a
    # whole-table temporary, would lift the peak past 3/4 of 8 bytes per entry
    import numpy  # noqa: F401  (its import allocates; keep it out of the trace)

    tracemalloc.start()
    try:
        build_sieve(10**6, array=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 8 * (10**6 + 1)


@needs_numpy
def test_array_sieve_equals_stdlib_sieve_at_segment_edges():
    # the array fill runs over segments of _segment(limit) slots; a limit at k
    # segments, one below or one above, ends the last one a slot short, full, or
    # one slot long. One more limit puts a square d*d on the first slot of a
    # later segment, where d's pairs start at d*(d + 1)
    import numpy

    seg = _segment(1)
    limits = [k * seg + delta for k in (1, 2, 3) for delta in (-1, 0, 1)]
    square = next(k * seg for k in itertools.count(1) if isqrt(k * seg) ** 2 == k * seg)
    limits.append(square + seg // 2)
    assert all(_segment(limit) == seg for limit in limits)
    expected = numpy.asarray(build_sieve(max(limits)).s_values)
    for limit in limits:
        assert numpy.array_equal(build_sieve(limit, array=True).s_values, expected[: limit + 1]), limit


# sha256 of the table to 10**6 as little-endian int64, the storage of both tables
# before they were narrowed to 4 bytes
TABLE_1E6_SHA256 = "99f70d95db4990adf42796857e585d4b5d33e064f81f9009d97491314b0e39d5"


@pytest.mark.parametrize("array", [False, pytest.param(True, marks=needs_numpy)])
def test_narrow_tables_hold_the_int64_bytes(array):
    s_values = build_sieve(10**6, array=array).s_values
    wide = s_values.astype("<i8") if array else stdarray("q", s_values)
    if not array and sys.byteorder == "big":
        wide.byteswap()
    assert hashlib.sha256(wide.tobytes()).hexdigest() == TABLE_1E6_SHA256


def test_array_request_without_numpy_gives_the_stdlib_table(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now fails
    table = build_sieve(300, array=True)
    assert type(table.s_values) is stdarray and table.s_values.typecode == "I"
    assert table.s_values == build_sieve(300).s_values


# -- partner lookups past the table -------------------------------------------


def array_s(table, ns):
    """Check `_array_s` on ns against `table.s`: true at sigma(n), false just beside it."""
    import numpy

    sigmas = [table.s(n) + n for n in ns]
    ns = numpy.array(ns, dtype=numpy.int64)
    for delta in (0, -2, -1, 1, 2):
        need = numpy.array([v + delta for v in sigmas], dtype=numpy.int64)
        assert _array_s(numpy, table, ns, need).tolist() == [delta == 0] * len(ns), delta


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
    # `_array_s` takes n below (limit + 1)**2, as every search partner is
    limit = data.draw(st.integers(2, 3000), label="limit")
    table = build_sieve(limit, array=True)
    top = min(8 * limit, (limit + 1) ** 2 - 1)
    ns = data.draw(st.lists(st.integers(limit + 1, top), min_size=1, max_size=40), label="ns")
    array_s(table, ns)


@needs_numpy
@pytest.mark.parametrize("limit", [2, 3, 30, 1000, 3000, 100_000])
def test_array_s_explicit_cases(limit):
    table = build_sieve(limit, array=True)
    above = list(sympy.primerange(1000, 1100))
    ns = [2**k for k in range(1, 45)]
    ns += [p**e for p in (3, 5, 7, 31, 991, 997) for e in range(2, 12) if p**e < 2**45]
    ns += [p * q for p, q in zip(above, reversed(above))] + [6 * p * q for p, q in zip(above, above[1:])]
    ns = [n for n in ns if limit < n < (limit + 1) ** 2]
    assert [table.s(n) for n in ns] == [aliquot_s(n) for n in ns]
    array_s(table, ns)


@needs_numpy
def test_array_s_drops_prime_partners_once_the_target_is_out_of_reach():
    # sigma(p) = p + 1 is far below p // 2 + p + 1, and the checkpoint bound sees it
    # by p = 29; proving each p prime would take every table prime up to sqrt(p),
    # about 225 calls of flatnonzero for this batch
    import numpy

    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(numpy, name)

        def flatnonzero(self, a):
            calls.append(len(a))
            return numpy.flatnonzero(a)

    table = build_sieve(10**6, array=True)
    ns = numpy.array(list(itertools.islice(sympy.primerange(2_000_000, 3_000_000), 1000)), dtype=numpy.int64)
    assert not _array_s(CountingNumpy(), table, ns, ns // 2 + ns + 1).any()
    assert len(calls) <= 30, len(calls)


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
    batches, targets = [], []
    settle = amicable.pairs._array_s

    def recorder(np, table, ns, need):
        batches.append(ns.tolist())
        targets.extend((need - ns).tolist())
        return settle(np, table, ns, need)

    monkeypatch.setattr(amicable.pairs, "_array_s", recorder)
    for shift, search in ((0, search_amicable), (1, search_betrothed)):
        batches.clear()
        targets.clear()
        search(limit)
        sizes = [len(batch) for batch in batches]
        assert len(sizes) > 1 and min(sizes[:-1]) >= _CHUNK // 4, sizes
        assert max(sizes) < _CHUNK // 4 + _CHUNK, sizes
        far = [m for m in range(2, limit + 1) if s_values[m] - shift > limit]
        assert [n for batch in batches for n in batch] == [s_values[m] - shift for m in far], search.__name__
        # each partner n of m is tested against sigma(n) = m + n + shift
        assert targets == [m + shift for m in far], search.__name__


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
        assert table.s_values.dtype.name == "uint32"
    else:
        assert type(table.s_values) is stdarray and table.s_values.typecode == "I"
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

"""Catalog contents, self-test, and serialization round-trips."""

import json
import random

import pytest

from amicable import (
    AliquotResult,
    EntryKind,
    KnownEntry,
    PairVerdict,
    SearchReport,
    SociableCycle,
    UnsupportedFormat,
    aliquot_sequence,
    borho_candidate,
    candidate_from_json,
    check_amicable,
    check_betrothed,
    euler_candidate,
    export_report,
    find_cycles,
    from_json,
    known_catalog,
    search_amicable,
    search_betrothed,
    thabit_candidate,
)

EXPECTED_AMICABLE = [
    (220, 284),
    (1184, 1210),
    (2620, 2924),
    (5020, 5564),
    (17296, 18416),
    (9363584, 9437056),
    (2172649216, 2181168896),
]


def test_catalog_contents_exact():
    entries = known_catalog()
    amicable = [e.members for e in entries if e.kind is EntryKind.AMICABLE_PAIR]
    betrothed = [e.members for e in entries if e.kind is EntryKind.BETROTHED_PAIR]
    cycles = [e.members for e in entries if e.kind is EntryKind.SOCIABLE_CYCLE]
    assert amicable == [tuple(p) for p in EXPECTED_AMICABLE]
    assert betrothed == [(48, 75), (140, 195)]
    assert cycles == [(12496, 14288, 15472, 14536, 14264)]
    assert len(entries) == 10


def test_pair_verdict_json_shape():
    blob = export_report(check_amicable(220, 284))
    assert blob.startswith(b'{"m":"220","n":"284","kind":"Amicable"')
    data = json.loads(blob)
    assert data == {
        "m": "220",
        "n": "284",
        "kind": "Amicable",
        "s_m": "284",
        "s_n": "220",
        "guard_failures": [],
    }


def test_empty_search_report_json_shape():
    blob = export_report(search_amicable(200))
    assert blob.startswith(b'{"limit":"200","pairs":[]')
    data = json.loads(blob)
    assert list(data) == ["limit", "pairs", "all_even", "min_gcd", "oracle"]
    assert data["all_even"] is True
    assert data["min_gcd"] == "0"
    assert data["oracle"] == "Sieve"


def _walk_leaves(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _walk_leaves(v)
    elif isinstance(node, list):
        for v in node:
            yield from _walk_leaves(v)
    else:
        yield node


def test_every_number_serialized_as_decimal_string():
    reports = [
        check_amicable(220, 284),
        check_amicable(6, 6),
        search_amicable(20_000),
        aliquot_sequence(2**61, ceiling=2**70),  # values beyond 2**53
        find_cycles(13_000, 5)[0],
        thabit_candidate(2),
        euler_candidate(29, 40),
        borho_candidate(3, 4, 1),
        known_catalog(),
    ]
    for report in reports:
        for leaf in _walk_leaves(json.loads(export_report(report))):
            assert leaf is None or isinstance(leaf, (str, bool)), (report, leaf)


def test_export_is_byte_deterministic():
    for report in (search_amicable(1300), check_betrothed(48, 75), known_catalog()):
        assert export_report(report) == export_report(report)
        assert export_report(report, "json") == export_report(report)


def test_round_trip_random_search_reports():
    rng = random.Random(31415)
    for _ in range(100):
        limit = rng.randrange(2, 2500)
        report = search_amicable(limit) if rng.random() < 0.7 else search_betrothed(limit)
        assert from_json(export_report(report), SearchReport) == report


def test_round_trip_other_report_kinds():
    verdicts = [
        check_amicable(220, 284),
        check_amicable(0, 0),
        check_betrothed(48, 75),
        check_betrothed(220, 284),
    ]
    for v in verdicts:
        assert from_json(export_report(v), PairVerdict) == v

    rng = random.Random(999)
    for _ in range(40):
        r = aliquot_sequence(rng.randrange(1, 3000), max_steps=30, ceiling=10**9)
        assert from_json(export_report(r), AliquotResult) == r

    cycle = find_cycles(300, 2)[0]
    assert from_json(export_report(cycle), SociableCycle) == cycle

    assert from_json(export_report(known_catalog()), list[KnownEntry]) == known_catalog()

    for cand in (thabit_candidate(3), euler_candidate(2, 3), borho_candidate(3, 4, 1)):
        assert candidate_from_json(export_report(cand)) == cand


def test_csv_export_for_pair_reports():
    blob = export_report(search_amicable(1300), "csv")
    assert blob == (
        b"m,n,kind,gcd,parity\n"
        b"220,284,Amicable,4,even\n"
        b"1184,1210,Amicable,2,even\n"
    )
    blob = export_report(check_betrothed(48, 75), "csv")
    assert blob == b"m,n,kind,gcd,parity\n48,75,Betrothed,3,mixed\n"


def test_csv_rejected_for_non_pair_reports():
    with pytest.raises(UnsupportedFormat):
        export_report(aliquot_sequence(12), "csv")
    with pytest.raises(UnsupportedFormat):
        export_report(thabit_candidate(1), "csv")


def test_unknown_format_rejected():
    with pytest.raises(UnsupportedFormat):
        export_report(search_amicable(200), "xml")


def test_unserializable_object_rejected():
    with pytest.raises(UnsupportedFormat):
        export_report(object())

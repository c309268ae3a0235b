"""The type-driven JSON codec: round-trips for every report type, and shapes
that follow the field types rather than the values."""

import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amicable import (
    AliquotOutcome,
    AliquotResult,
    AuditResult,
    BorhoCandidate,
    BorhoHypothesis,
    Classification,
    EntryKind,
    EulerCandidate,
    GuardFailure,
    KnownEntry,
    NumberClass,
    Oracle,
    PairKind,
    PairVerdict,
    SearchReport,
    SociableCycle,
    ThabitCandidate,
    UnsupportedFormat,
    build_sieve,
    borho_candidate,
    candidate_from_json,
    euler_candidate,
    export_report,
    factorize,
    from_json,
    to_jsonable,
)

big = st.integers(0, 2**200)
flag = st.booleans()
optional_big = st.none() | big
pair = st.tuples(big, big)
members = st.lists(big, max_size=6).map(tuple)
two_members = st.tuples(big, big)
mode = st.sampled_from(["deterministic", "probabilistic"])
entries = st.builds(
    KnownEntry,
    kind=st.sampled_from(EntryKind), members=two_members | members,
    attribution=st.text(), source=st.text(),
)

REPORTS = st.one_of(
    st.builds(
        PairVerdict,
        m=big, n=big, kind=st.sampled_from(PairKind), s_m=big, s_n=big,
        guard_failures=st.lists(st.sampled_from(GuardFailure), max_size=2).map(tuple),
    ),
    st.builds(
        SearchReport,
        limit=big, pairs=st.lists(pair, max_size=4).map(tuple), all_even=flag,
        min_gcd=big, oracle=st.sampled_from(Oracle),
    ),
    st.builds(AuditResult, all_even=flag, min_gcd=big, coprime_found=flag),
    st.builds(
        AliquotResult,
        start=big, trajectory=members, outcome=st.sampled_from(AliquotOutcome),
        fixed_point=optional_big, cycle=st.none() | two_members | members,
        entry_index=optional_big,
    ),
    st.builds(SociableCycle, members=two_members | members, length=big),
    st.builds(NumberClass, tag=st.sampled_from(Classification), n=big, s_value=big),
    entries,
)

CANDIDATES = st.one_of(
    st.builds(
        ThabitCandidate,
        k=big, p=big, q=big, r=big, p_prime=flag, q_prime=flag, r_prime=flag,
        primality_mode=mode, pair=st.none() | pair, verified=flag,
    ),
    st.builds(
        EulerCandidate,
        m=big, n=big, a=big, p=big, q=big, r=big, p_prime=flag, q_prime=flag,
        r_prime=flag, primality_mode=mode, pair=st.none() | pair, verified=flag,
    ),
    st.builds(
        BorhoCandidate,
        a=big, u=big, n=big, t=big, p1=big, p2=big,
        hypothesis=st.builds(
            BorhoHypothesis,
            breeder_amicable=flag, t_prime=flag, p1_prime=flag, p2_prime=flag,
            coprime_au_t=flag, coprime_au_p1=flag, coprime_a_p2=flag,
        ),
        primality_mode=mode, pair=st.none() | pair, verified=flag,
    ),
)


@settings(max_examples=300, deadline=None)
@given(REPORTS | CANDIDATES)
def test_round_trip_every_report_type(report):
    assert from_json(export_report(report), type(report)) == report


@settings(max_examples=150, deadline=None)
@given(CANDIDATES)
def test_candidate_rule_tag_picks_the_type(candidate):
    blob = export_report(candidate)
    assert json.loads(blob)["rule"] == {
        ThabitCandidate: "thabit", EulerCandidate: "euler", BorhoCandidate: "borho",
    }[type(candidate)]
    assert list(json.loads(blob))[0] == "rule"
    assert candidate_from_json(blob) == candidate


@settings(max_examples=50, deadline=None)
@given(st.lists(entries, max_size=4))
def test_round_trip_entry_lists(catalog):
    assert from_json(export_report(catalog), list[KnownEntry]) == catalog


def test_shape_follows_the_field_type_not_the_value():
    # A 2-member sequence stays a list; only a field typed tuple[int, int] is an {m, n} object.
    assert export_report(SociableCycle((220, 284), 2)) == (
        b'{"members":["220","284"],"length":"2"}'
    )
    result = AliquotResult(
        220, (220, 284), AliquotOutcome.ENTERED_CYCLE, cycle=(220, 284), entry_index=0
    )
    assert export_report(result) == (
        b'{"start":"220","trajectory":["220","284"],"outcome":"EnteredCycle",'
        b'"fixed_point":null,"cycle":["220","284"],"entry_index":"0"}'
    )
    report = SearchReport(300, ((220, 284),), True, 4, Oracle.SIEVE)
    assert export_report(report) == (
        b'{"limit":"300","pairs":[{"m":"220","n":"284"}],"all_even":true,'
        b'"min_gcd":"4","oracle":"Sieve"}'
    )


def test_plain_payloads_encode_by_value():
    payload = {"n": 2**70, "ok": True, "failure": None, "members": [220, 284],
               "entry": KnownEntry(EntryKind.AMICABLE_PAIR, (220, 284), "a", "b")}
    assert to_jsonable(payload) == {
        "n": str(2**70), "ok": True, "failure": None, "members": ["220", "284"],
        "entry": {"kind": "AmicablePair", "members": ["220", "284"],
                  "attribution": "a", "source": "b"},
    }


def test_unknown_candidate_rule_rejected():
    for blob in (b'{"rule":"fermat"}', b'{"k":"1"}'):
        with pytest.raises(UnsupportedFormat):
            candidate_from_json(blob)


@dataclass(frozen=True)
class Tally:
    counts: dict[str, int]


@dataclass(frozen=True)
class Measure:
    n: int
    ratio: float


def test_other_dataclasses_are_refused():
    # Only report classes are records: a dict or float field has no rule, and
    # Factorization's (prime, exponent) factors are not {"m", "n"} pairs.
    others = (Tally({"a": 1}), Measure(1, 0.5), factorize(12), build_sieve(10))
    for value in others:
        with pytest.raises(UnsupportedFormat, match="no serialization defined for"):
            export_report(value)
        with pytest.raises(UnsupportedFormat):
            to_jsonable({"value": value})
        with pytest.raises(UnsupportedFormat):
            from_json(b"{}", type(value))
    for raw, cls in ((b"{}", dict[str, int]), (b"0.5", float), (b"[]", tuple[int, str])):
        with pytest.raises(UnsupportedFormat):
            from_json(raw, cls)


VERDICT = '"m":"1","n":"2","s_m":"0","s_n":"0","guard_failures":[]'


@pytest.mark.parametrize(
    "decode, raw",
    [
        (candidate_from_json, b"[1]"),
        (candidate_from_json, b'{"rule":"thabit"}'),
        (lambda raw: from_json(raw, PairVerdict), b'{"m":"1"}'),
        (lambda raw: from_json(raw, PairVerdict), b"not json"),
        (lambda raw: from_json(raw, PairVerdict), ('{"kind":"Bogus",' + VERDICT + "}").encode()),
        (
            lambda raw: from_json(raw, SearchReport),
            b'{"limit":"x","pairs":[],"all_even":true,"min_gcd":"0","oracle":"Sieve"}',
        ),
        (
            lambda raw: from_json(raw, SearchReport),
            b'{"limit":"5","pairs":[],"all_even":"yes","min_gcd":"0","oracle":"Sieve"}',
        ),
        (
            lambda raw: from_json(raw, SearchReport),
            b'{"limit":5.7,"pairs":[],"all_even":true,"min_gcd":"0","oracle":"Sieve"}',
        ),
        (
            # the per-number "direct" search route was removed; its tag no longer decodes
            lambda raw: from_json(raw, SearchReport),
            b'{"limit":"5","pairs":[],"all_even":true,"min_gcd":"0","oracle":"Direct"}',
        ),
        (
            lambda raw: from_json(raw, PairVerdict),
            ('{"kind":"Amicable",' + VERDICT + ',"bogus":1}').encode(),
        ),
        (
            lambda raw: from_json(raw, SearchReport),
            b'{"limit":"5","pairs":[{"m":"1","n":"2","x":"3"}],"all_even":true,"min_gcd":"0",'
            b'"oracle":"Sieve"}',
        ),
        (
            # an Euler export retagged as Borho's rule is not an EulerCandidate
            lambda raw: from_json(raw, EulerCandidate),
            export_report(euler_candidate(2, 4)).replace(b'"rule":"euler"', b'"rule":"borho"'),
        ),
        (
            # breeder exports lost their degenerate_subtraction key; one that has it no longer decodes
            candidate_from_json,
            export_report(borho_candidate(3, 4, 1)).replace(
                b',"hypothesis"', b',"degenerate_subtraction":false,"hypothesis"'
            ),
        ),
        # nesting deeper than the parser's recursion limit
        (lambda raw: from_json(raw, SearchReport), b"[" * 100000),
        (candidate_from_json, b'{"rule":' * 50000),
    ],
    ids=[
        "list", "missing-field", "missing-member", "not-json", "unknown-kind", "bad-int",
        "string-as-bool", "float-as-int", "retired-oracle", "extra-key", "extra-pair-key",
        "wrong-rule", "retired-breeder-flag", "deep-list", "deep-candidate",
    ],
)
def test_malformed_json_raises_unsupported_format(decode, raw):
    with pytest.raises(UnsupportedFormat, match="malformed") as caught:
        decode(raw)
    # the original error stays attached as the cause
    cause = caught.value.__cause__
    assert isinstance(cause, (AttributeError, KeyError, RecursionError, ValueError))

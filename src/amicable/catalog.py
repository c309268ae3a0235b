"""Known-value catalog and report serialization.

The catalog pins the classical reference values the rest of the package is
measured against: five historical amicable pairs, the Paganini and Euler-rule
pairs, the two smallest betrothed pairs, and Poulet's five-cycle. A self-test
re-verifies every entry from scratch.

Serialization notes. JSON is the round-trippable format, produced by one
codec that follows each report class's dataclass fields and their type hints
(resolved on first use and cached per class), not the runtime values:

* `int` becomes a decimal string, so values above 2**53 survive any JSON
  reader; `bool`, `str` and None pass through; an Enum becomes its value;
* a nested dataclass becomes a nested object, and `tuple[int, ...]` and
  lists become JSON lists, whatever their length;
* a field hinted `tuple[int, int]` becomes {"m": ..., "n": ...};
* keys follow field order, and the three generator candidates lead with a
  "rule" key ("thabit", "euler", "borho") that `candidate_from_json` reads
  back to pick the type.

Plain dicts and lists of such values encode the same way (ints by value).
Other dataclasses, and field hints outside these rules, raise
UnsupportedFormat.
Output is compact, hence byte-deterministic. `from_json(raw, cls)` is the
inverse for any report class `cls` or `list[KnownEntry]`, and accepts only
what the encoder writes: a record or pair must be an object with exactly its
keys, a candidate's "rule" must be its own class's tag, an int field must
hold a decimal string, a bool or str field a JSON bool or string, a sequence
field a JSON list; anything else raises UnsupportedFormat. CSV is defined for
pair-shaped reports only (one row per pair, columns m,n,kind,gcd,parity).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
import typing
from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd

from .cycles import AliquotResult, SociableCycle, verify_cycle
from .divisor import NumberClass
from .errors import UnsupportedFormat
from .generators import BorhoCandidate, BorhoHypothesis, EulerCandidate, ThabitCandidate
from .pairs import AuditResult, PairKind, PairVerdict, SearchReport, check_amicable, check_betrothed

# Exhaustive computational searches of the literature have pushed the least
# possible member product of a coprime amicable pair beyond this bound.
# Metadata only: nothing in this package asserts or re-derives it.
COPRIME_PRODUCT_SEARCH_BOUND = 10**65


class EntryKind(str, Enum):
    AMICABLE_PAIR = "AmicablePair"
    BETROTHED_PAIR = "BetrothedPair"
    SOCIABLE_CYCLE = "SociableCycle"


@dataclass(frozen=True)
class KnownEntry:
    kind: EntryKind
    members: tuple[int, ...]
    attribution: str
    source: str


_CATALOG = (
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (220, 284),
        "Pythagoras", "known to the Pythagorean school, ca. 500 BC",
    ),
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (1184, 1210),
        "Paganini", "found by the sixteen-year-old Niccolo Paganini, 1866",
    ),
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (2620, 2924),
        "Euler", "from Euler's 1747 catalogue",
    ),
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (5020, 5564),
        "Euler", "from Euler's 1747 catalogue",
    ),
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (17296, 18416),
        "Fermat", "announced by Fermat, 1636; the doubling rule at k = 3",
    ),
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (9363584, 9437056),
        "Descartes", "announced by Descartes, 1638; the doubling rule at k = 6",
    ),
    KnownEntry(
        EntryKind.AMICABLE_PAIR, (2172649216, 2181168896),
        "Euler", "Euler's two-exponent rule at (m, n) = (1, 8)",
    ),
    KnownEntry(
        EntryKind.BETROTHED_PAIR, (48, 75),
        "classical", "smallest betrothed pair",
    ),
    KnownEntry(
        EntryKind.BETROTHED_PAIR, (140, 195),
        "classical", "second smallest betrothed pair",
    ),
    KnownEntry(
        EntryKind.SOCIABLE_CYCLE, (12496, 14288, 15472, 14536, 14264),
        "Poulet", "found by Paul Poulet, 1918; smallest cycle of length 5",
    ),
)


def known_catalog() -> list[KnownEntry]:
    """The reference entries, in catalog order."""
    return list(_CATALOG)


def verify_catalog() -> list[tuple[KnownEntry, bool]]:
    """Re-verify each entry from first principles; self-test for the catalog."""
    results = []
    for entry in _CATALOG:
        if entry.kind is EntryKind.AMICABLE_PAIR:
            m, n = entry.members
            ok = check_amicable(m, n).kind is PairKind.AMICABLE
        elif entry.kind is EntryKind.BETROTHED_PAIR:
            m, n = entry.members
            ok = check_betrothed(m, n).kind is PairKind.BETROTHED
        else:
            ok = verify_cycle(entry.members).ok
        results.append((entry, ok))
    return results


# ---------------------------------------------------------------------------
# JSON codec. The shape of each value follows its field's type hint, resolved
# on first use and cached per class, so one encoder and one decoder serve
# every report type.

# What the encoder writes for an int: ASCII digits with an optional minus sign.
_DECIMAL = re.compile(r"-?[0-9]+")

# The candidate types carry a leading "rule" key naming their generator;
# candidate_from_json reads it back to choose the type.
_RULES = {"thabit": ThabitCandidate, "euler": EulerCandidate, "borho": BorhoCandidate}

# The classes the codec encodes as records. Other dataclasses are refused:
# their hints need not mean what the rules say (Factorization's
# (prime, exponent) factors are not {"m", "n"} pairs).
_REPORTS = frozenset({
    PairVerdict, SearchReport, AuditResult, AliquotResult, SociableCycle,
    NumberClass, KnownEntry, BorhoHypothesis, *_RULES.values(),
})


@cache
def _fields(cls: type) -> tuple[str | None, tuple[tuple[str, object], ...]]:
    """The rule tag of a report class and its (field name, type hint) pairs, in order."""
    hints = typing.get_type_hints(cls)
    rule = next((tag for tag, ruled in _RULES.items() if ruled is cls), None)
    return rule, tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


@cache
def _shape(hint) -> tuple[str, object]:
    """How values of a type hint are encoded: a shape name and its argument."""
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if type(None) in args and len(args) == 2:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return "optional", inner
    if hint == tuple[int, int]:
        return "pair", None
    if origin is list or (origin is tuple and args[1:] == (...,)):
        return origin.__name__, args[0]
    if hint in _REPORTS:
        return "record", hint
    if isinstance(hint, type) and issubclass(hint, Enum):
        return "enum", hint
    if hint is int:
        return "int", None
    if hint in (bool, str):
        return "plain", None
    raise UnsupportedFormat(f"no serialization defined for {getattr(hint, '__name__', hint)}")


def _encode(value, hint) -> object:
    shape, arg = _shape(hint)
    if shape == "int":
        return "%d" % value  # the digits, also of a bool, which passes every integer gate
    if shape == "optional":
        return None if value is None else _encode(value, arg)
    if shape == "pair":
        return {"m": "%d" % value[0], "n": "%d" % value[1]}
    if shape in ("tuple", "list"):
        if arg is int:
            return ["%d" % item for item in value]  # the "int" shape's digits, without a call per item
        return [_encode(item, arg) for item in value]
    if shape == "record":
        rule, fields = _fields(arg)
        out = {} if rule is None else {"rule": rule}
        for name, field_hint in fields:
            out[name] = _encode(getattr(value, name), field_hint)
        return out
    if shape == "enum":
        return value.value
    return value


def _decode_int(data) -> int:
    """An int from the encoder's decimal string; other JSON values are refused."""
    if not (isinstance(data, str) and _DECIMAL.fullmatch(data)):
        raise ValueError(f"expected a decimal string, got {data!r}")
    return int(data)


def _require_keys(data, keys: set[str]) -> None:
    """Refuse anything but a JSON object with exactly these keys."""
    if not isinstance(data, dict) or data.keys() != keys:
        raise ValueError(f"expected an object with keys {sorted(keys)}, got {data!r}")


def _decode(data, hint) -> object:
    shape, arg = _shape(hint)
    if shape == "optional":
        return None if data is None else _decode(data, arg)
    if shape == "int":
        return _decode_int(data)
    if shape == "pair":
        _require_keys(data, {"m", "n"})
        return (_decode_int(data["m"]), _decode_int(data["n"]))
    if shape in ("tuple", "list"):
        if not isinstance(data, list):
            raise ValueError(f"expected a list, got {data!r}")
        items = [_decode(item, arg) for item in data]
        return tuple(items) if shape == "tuple" else items
    if shape == "record":
        rule, fields = _fields(arg)
        keys = {name for name, _ in fields}
        _require_keys(data, keys if rule is None else keys | {"rule"})
        # an untagged record has no "rule" key (no report class has such a field)
        if data.get("rule") != rule:
            raise ValueError(f"expected rule {rule!r}, got {data['rule']!r}")
        return arg(**{name: _decode(data[name], field_hint) for name, field_hint in fields})
    if shape == "enum":
        return hint(data)
    if not isinstance(data, hint):
        raise ValueError(f"expected {hint.__name__}, got {data!r}")
    return data


def to_jsonable(report) -> object:
    """The JSON-ready form of a report object, or of a dict or list holding them.

    Report objects are encoded by their field types; plain ints become
    decimal strings and bools, strings and None pass through. Anything else,
    other dataclasses included, raises UnsupportedFormat.
    """
    if type(report) in _REPORTS:
        return _encode(report, type(report))
    if isinstance(report, dict):
        return {key: to_jsonable(value) for key, value in report.items()}
    if isinstance(report, (list, tuple)):
        return [to_jsonable(item) for item in report]
    if report is None or isinstance(report, (bool, str)):
        return report
    if isinstance(report, int):
        return str(report)
    raise UnsupportedFormat(f"no serialization defined for {type(report).__name__}")


def _csv_rows(report) -> list[tuple[int, int]]:
    if isinstance(report, PairVerdict):
        return [(report.m, report.n)]
    if isinstance(report, SearchReport):
        return list(report.pairs)
    raise UnsupportedFormat(
        f"CSV is defined for pair reports only, not {type(report).__name__}"
    )


def _pair_kind(m: int, n: int) -> str:
    if check_amicable(m, n).kind is PairKind.AMICABLE:
        return PairKind.AMICABLE.value
    if check_betrothed(m, n).kind is PairKind.BETROTHED:
        return PairKind.BETROTHED.value
    return PairKind.NEITHER.value


def _parity(m: int, n: int) -> str:
    if m % 2 == 0 and n % 2 == 0:
        return "even"
    if m % 2 == 1 and n % 2 == 1:
        return "odd"
    return "mixed"


def export_report(report, fmt: str = "json") -> bytes:
    """Serialize a report to bytes; formats are 'json' and 'csv'."""
    if fmt == "json":
        return json.dumps(to_jsonable(report), separators=(",", ":")).encode()
    if fmt == "csv":
        rows = _csv_rows(report)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "n", "kind", "gcd", "parity"])
        for m, n in rows:
            kind = report.kind.value if isinstance(report, PairVerdict) else _pair_kind(m, n)
            # the digits, also of a bool member, as the JSON encoder writes them
            writer.writerow(["%d" % m, "%d" % n, kind, gcd(m, n), _parity(m, n)])
        return buf.getvalue().encode()
    raise UnsupportedFormat(f"unknown format {fmt!r}")


# Raised by malformed input: JSONDecodeError is a ValueError, too-deep nesting a RecursionError
_MALFORMED = (AttributeError, KeyError, RecursionError, TypeError, ValueError)


def from_json(raw: bytes | str, cls):
    """Rebuild a report exported as JSON; `cls` is its class or `list[KnownEntry]`."""
    try:
        return _decode(json.loads(raw), cls)
    except _MALFORMED as exc:
        raise UnsupportedFormat(f"malformed JSON: {exc!r}") from exc


def candidate_from_json(raw: bytes | str):
    """Rebuild a generator candidate; the 'rule' field picks the type."""
    try:
        data = json.loads(raw)
        rule = data.get("rule")
        if rule not in _RULES:
            raise UnsupportedFormat(f"unknown candidate rule {rule!r}")
        return _decode(data, _RULES[rule])
    except _MALFORMED as exc:
        raise UnsupportedFormat(f"malformed candidate JSON: {exc!r}") from exc

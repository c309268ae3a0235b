"""One contract for every integer parameter of the public API.

Each public callable's integer parameters get each hostile value in turn, in
an otherwise valid call. The policy, one gate in `errors.need_int`: an int
passes, a bool as the int it is; a float (7.0 and 0.0 included), a str, None,
an unhashable list and a numpy integer raise BadParameter naming the type
received. So a non-int case raises that, and an int case either raises a
ToolkitError or returns what the call with int(value) returns, and exports the
same bytes.

Each integer parameter's least value is pinned too: one less raises
BadParameter, and the least itself passes the gate, so a loosened or
tightened bound fails here. An int row below the least must raise
BadParameter, not just any ToolkitError.
"""

import dataclasses

import pytest

import amicable
from amicable import (
    BadParameter,
    PairVerdict,
    SearchReport,
    ToolkitError,
    UnsupportedFormat,
    export_report,
    from_json,
)

try:
    import numpy
except ImportError:
    numpy = None

# a small valid call of each public callable with integer parameters
CALLS = {
    "aliquot_s": dict(n=12),
    "aliquot_sequence": dict(start=12, max_steps=10, ceiling=10**6),
    "borho_candidate": dict(a=4, u=55, n=2),
    "borho_structure_check": dict(a=4, u=55, n=2),
    "build_sieve": dict(limit=30),
    "check_amicable": dict(m=220, n=284),
    "check_betrothed": dict(m=48, n=75),
    "classify": dict(n=12),
    "euler_candidate": dict(m=1, n=8),
    "euler_identity_check": dict(m=1, n=8),
    "factorize": dict(n=220),
    "find_cycles": dict(limit=300, max_len=2),
    "is_amicable_number": dict(n=220),
    "is_prime": dict(n=97),
    "prime_test_mode": dict(n=97),
    "search_amicable": dict(limit=300, workers=1),
    "search_betrothed": dict(limit=100),
    "sigma": dict(n=12),
    "sigma_brute": dict(n=12),
    "thabit_candidate": dict(k=3),
    "thabit_identity_check": dict(k=3),
    "verify_cycle": dict(first=220, second=284),
    "verify_pair_by_sigma": dict(m=220, n=284),
}
# the least int each gate takes in its call above; is_prime and
# prime_test_mode take any int
LEAST = {
    "aliquot_s": dict(n=0),
    "aliquot_sequence": dict(start=1, max_steps=1, ceiling=12),  # ceiling >= start
    "borho_candidate": dict(a=1, u=1, n=1),
    "borho_structure_check": dict(a=1, u=1, n=1),
    "build_sieve": dict(limit=1),
    "check_amicable": dict(m=0, n=0),
    "check_betrothed": dict(m=0, n=0),
    "classify": dict(n=0),  # 0 passes the gate and raises ZeroInput
    "euler_candidate": dict(m=1, n=2),  # n > m = 1
    "euler_identity_check": dict(m=1, n=2),
    "factorize": dict(n=0),  # as classify
    "find_cycles": dict(limit=2, max_len=2),
    "is_amicable_number": dict(n=0),
    "search_amicable": dict(limit=2, workers=1),
    "search_betrothed": dict(limit=2),
    "sigma": dict(n=0),
    "sigma_brute": dict(n=0),
    "thabit_candidate": dict(k=1),
    "thabit_identity_check": dict(k=1),
    "verify_cycle": dict(first=0, second=0),
    "verify_pair_by_sigma": dict(m=1, n=1),
}
# None is the documented default of these (the CPU count, at most 8)
NONE_IS_DEFAULT = {("search_amicable", "workers")}
# verify_cycle takes its integers as the members of one list
ADAPTERS = {"verify_cycle": lambda first, second: amicable.verify_cycle([first, second])}
# public callables with no integer parameter
NO_INTEGERS = {
    "audit", "candidate_from_json", "export_report", "from_json", "known_catalog",
    "to_jsonable", "verify_catalog",
}
# Out of scope: gcd is the stdlib's math.gcd, and SieveTable.s, the per-step
# engine of find_cycles, deliberately checks no type.
OUT_OF_SCOPE = {"gcd"}

VALUES = [
    True, -1, 2.5, 7.0, 0.0, None, pytest.param("7", id="str"), pytest.param([7], id="list"),
    pytest.param(numpy and numpy.int64(7), id="int64",
                 marks=pytest.mark.skipif(numpy is None, reason="numpy does not import")),
]


def test_the_table_names_every_public_callable():
    public = {
        name for name, obj in vars(amicable).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
    }
    assert public == CALLS.keys() | NO_INTEGERS | OUT_OF_SCOPE
    assert CALLS.keys() - LEAST.keys() == {"is_prime", "prime_test_mode"}
    assert all(LEAST[name].keys() == CALLS[name].keys() for name in LEAST)


def call(name, **kwargs):
    return ADAPTERS.get(name, getattr(amicable, name))(**kwargs)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize(
    "name, param", [(name, param) for name, kwargs in CALLS.items() for param in kwargs]
)
def test_an_integer_parameter_takes_an_int_or_raises(name, param, value):
    kwargs = {**CALLS[name], param: value}
    if value is None and (name, param) in NONE_IS_DEFAULT:
        assert call(name, **kwargs) == call(name, **CALLS[name])
        return
    if not isinstance(value, int):
        with pytest.raises(BadParameter, match=f", got {type(value).__name__}$"):
            call(name, **kwargs)
        return
    least = LEAST.get(name, {}).get(param)
    if least is not None and value < least:
        with pytest.raises(BadParameter):
            call(name, **kwargs)
        return
    try:
        result = call(name, **kwargs)
    except ToolkitError:
        return
    expected = call(name, **{**kwargs, param: int(value)})
    assert result == expected
    if not dataclasses.is_dataclass(result):
        return
    try:
        raw = export_report(result)
    except UnsupportedFormat:
        return  # Factorization, SieveTable and CycleCheck have no export
    assert raw == export_report(expected)
    assert from_json(raw, type(result)) == expected
    if isinstance(result, (PairVerdict, SearchReport)):
        # check_amicable(True, 284) exports 1,284,Neither,1,mixed
        assert export_report(result, "csv") == export_report(expected, "csv")


@pytest.mark.parametrize(
    "name, param", [(name, param) for name, least in LEAST.items() for param in least]
)
def test_each_gate_refuses_one_below_its_least_value(name, param):
    least = LEAST[name][param]
    with pytest.raises(BadParameter):
        call(name, **{**CALLS[name], param: least - 1})
    try:
        call(name, **{**CALLS[name], param: least})
    except ToolkitError as error:
        assert not isinstance(error, BadParameter), error  # ZeroInput from classify(0)

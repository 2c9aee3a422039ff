"""The contract of the package's record classes.

Five value types (``MultiIndex``, ``BlockClass``, ``RingElement``,
``DegreeTwoClass``, ``SpectralTable``) are plain classes; six result records
(``MillerReport``, ``CheckResult``, ``VerificationReport``, ``StabReport``,
``StableCell``, ``OutputDocument``) are named tuples.  All of them print the
same ``Name(field=value, ...)`` repr, compare and hash by value, refuse
assignment to a field, and survive ``pickle`` and ``copy.deepcopy``.  The
repr digests and the class data below were generated before the value types
stopped being dataclasses, and must not move.
"""

import copy
import hashlib
import pickle

import pytest

from conres.cli import OutputDocument
from conres.cohomring import DegreeTwoClass, RingElement
from conres.qcombinat import BlockClass, MultiIndex, conjugacy_classes, multiindices
from conres.resolution import CheckResult, SpectralTable, miller_check, verify
from conres.stab import stab_index, stable_cell

#: name -> (a fresh instance on each call, its field names, sha256 of its repr)
RECORDS = {
    "MultiIndex": (lambda: MultiIndex((3, 2, 2)), ("parts",), "d29957b048ad4a1241d16b63e5168483000e11fcc1022c20b59ed37aa2e6d439"),
    "BlockClass": (lambda: BlockClass(((3, (1,)), (2, (2,)))), ("rho",), "120578a1ca05a90d75c4f3593c619e4e27eb4eb0f6b6fd3365c2fbe91f29755b"),
    "RingElement": (
        lambda: RingElement(3, (((0, 1, 0), -5), ((1, 0, 0), -3), ((2, 0, 0), 1))),
        ("n", "terms"),
        "b38e5e39f7543826f4627008d523c220bc88bd525f90767fb9a16896d4f5c351",
    ),
    "DegreeTwoClass": (lambda: DegreeTwoClass((3, 1, 4, 1, 5)), ("alpha",), "1fa57381569c5d07056feb38e3c102cb72df5f657297463e74eb755c8dc06630"),
    "SpectralTable": (lambda: SpectralTable(6), ("n",), "ad86e598eecbd4f522c9baf20106b29e24255823b365b96c6e66c928d199f1dc"),
    "MillerReport": (lambda: miller_check(4), ("n", "lhs", "rhs"), "83774d6a07a36d4dd7120680c80da827fecb184c2f810179ea519a8d5c19ad8f"),
    "CheckResult": (
        lambda: CheckResult("table-total", "n=4", False, "sum 1 != total 2"),
        ("name", "location", "passed", "detail"),
        "3d7298bbb4b483445d0f83d0a8cf66591cf19297f2cf5893d702b6fd970f4a35",
    ),
    "VerificationReport": (lambda: verify(4), ("n", "checks"), "8002734e0a5cdb9633bd0e4566937510b381bb5c42d2da2d5edea12db7feabbc"),
    # stab_index is memoized: its undecorated function builds a new report
    "StabReport": (
        lambda: stab_index.__wrapped__(MultiIndex((2, 2)), 10),
        ("A", "degree", "stab_n", "witness"),
        "7e8fc60cd61806afe2e5dae885bcc18deaa173138d351db53ad885c016111442",
    ),
    "StableCell": (lambda: stable_cell(-2, 4), ("p", "q", "bound_n", "rank"), "c270a90a2e780e9a2a864fce83181388debcdb02a9c84f77ebd1e44a1497e39f"),
    "OutputDocument": (
        lambda: OutputDocument("order", "0.1.0", {"seq": [0, 1, 4]}, {"order": 2, "sequence": [0, 1, 4]}, "json"),
        ("name", "version", "arguments", "payload", "format"),
        "639a8b7865d2ed4d5359a4e9206ac384e0cd292fd5a5f4e19ceede44fa6f7b80",
    ),
}

VALUE_TYPES = ("MultiIndex", "BlockClass", "RingElement", "DegreeTwoClass", "SpectralTable")
RESULT_RECORDS = tuple(name for name in RECORDS if name not in VALUE_TYPES)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    make, _, digest = RECORDS[name]
    text = repr(make())
    assert text.startswith(f"{name}(")
    assert _sha256(text) == digest, text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_are_equal_and_hash_alike(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name == "OutputDocument":
        # its arguments and payload are dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_a_field_cannot_be_assigned(name):
    make, fields, _ = RECORDS[name]
    record = make()
    before = repr(record)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_round_trip(name):
    make, _, _ = RECORDS[name]
    record = make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_a_value_type_equals_only_its_own_class(name):
    make, names, _ = RECORDS[name]
    value = make()
    fields = tuple(getattr(value, f) for f in names)
    assert value != fields and fields != value and value not in {fields: 0}


@pytest.mark.parametrize("name", RESULT_RECORDS)
def test_a_result_record_unpacks_as_the_tuple_of_its_fields(name):
    make, names, _ = RECORDS[name]
    record = make()
    fields = tuple(getattr(record, f) for f in names)
    assert record._fields == names and tuple(record) == fields and record == fields


def test_class_cycles_and_sizes_are_unchanged():
    # (rho, cycles, class_size) of every class of every index with n <= 8
    data = [(cls.rho, cls.cycles, cls.class_size) for A in multiindices(8, 7) for cls in conjugacy_classes(A)]
    assert len(data) == 33
    assert _sha256(repr(data)) == "c3b951e71851532f39c01ef68f03bc10e288d295a3e95b8a427727dbe0c432ac"

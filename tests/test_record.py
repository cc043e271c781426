"""The `Record` base class behaves like a frozen dataclass for every value
type of the package: construction, immutability, equality by exact type,
the tuple hash, the repr, `replace`, copying and pickling, and the
`__post_init__` validations."""

from __future__ import annotations

import copy
import pickle

import pytest

import seifertlinks
from seifertlinks import (
    BinaryDihedral,
    CoverSpec,
    Cyclic,
    DynkinType,
    InvalidParameters,
    StarStatus,
    ZeroCore,
    build_table,
)
from seifertlinks._record import Record, replace


def _subclasses(cls: type) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


RECORD_TYPES = _subclasses(Record)


def _collect(value, found: dict[type, Record]) -> None:
    """One instance per record type reachable from `value`."""
    if isinstance(value, Record):
        found.setdefault(type(value), value)
        for name in value._fields:
            _collect(getattr(value, name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _collect(item, found)


def _samples() -> dict[type, Record]:
    api = seifertlinks
    trefoil = ZeroCore(2, 3, 1, 1)
    roots = [build_table(name) for name in api.TABLE_NAMES]
    roots += [
        api.alias(trefoil),
        api.classification_report(trefoil),
        api.classification_report(ZeroCore(2, 3, 3, 1)),
        api.delta(trefoil),
        api.b_bar(trefoil, 3),
        api.canonical_star_status(trefoil, 3),
        api.fibre_data(trefoil, 3),
        api.finite_group(ZeroCore(1, 2, 2, 0), 3),
        api.TwoCore(2, 3, 1, 1, -1, -1),
        api.HopfSum(2, 1),
        api.canonical_weights(trefoil, 7),
        api.general_psi_lo(trefoil, api.canonical_weights(trefoil, 7)),
        api.general_psi_lo(trefoil, CoverSpec(3, (1,))),
    ]
    found: dict[type, Record] = {}
    _collect(roots, found)
    return found


SAMPLES = _samples()


def _field_tuple(record: Record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_type_is_sampled():
    assert {ZeroCore, seifertlinks.LaurentPoly, StarStatus} <= RECORD_TYPES
    assert set(SAMPLES) == RECORD_TYPES


@pytest.mark.parametrize("cls", sorted(RECORD_TYPES, key=lambda c: c.__name__))
def test_record_behaves_like_a_frozen_dataclass(cls):
    record = SAMPLES[cls]
    values = _field_tuple(record)
    name = cls.__qualname__

    assert hash(record) == hash(values)
    assert record == cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    assert (record != values) is True
    assert repr(record) == name + "(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(cls._fields, values)
    ) + ")"

    for field in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _field_tuple(record) == values

    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, extra=None)
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})

    for twin in (
        replace(record),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_equality_needs_the_exact_type():
    assert Cyclic(3) != BinaryDihedral(3)
    assert ZeroCore(2, 3, 1, 1) != (2, 3, 1, 1)
    assert (2, 3, 1, 1) != ZeroCore(2, 3, 1, 1)
    assert ZeroCore(2, 3, 1, 1).__eq__((2, 3, 1, 1)) is NotImplemented
    assert len({Cyclic(3), BinaryDihedral(3), Cyclic(3)}) == 2


def test_replace_changes_only_the_named_fields():
    link = ZeroCore(2, 3, 3, -1)
    assert replace(link, w=1) == ZeroCore(2, 3, 3, 1)
    assert link == ZeroCore(2, 3, 3, -1)
    with pytest.raises(TypeError):
        replace(link, sign=1)


def test_keyword_construction_in_any_order():
    assert ZeroCore(w=1, k=1, q=3, p=2) == ZeroCore(2, 3, 1, 1)
    assert ZeroCore(2, 3, w=1, k=1) == ZeroCore(2, 3, 1, 1)
    assert list(vars(ZeroCore(w=1, k=1, q=3, p=2))) == ["p", "q", "k", "w"]


def test_post_init_validations_still_run():
    with pytest.raises(ValueError):
        DynkinType("D", 3)
    with pytest.raises(ValueError):
        DynkinType("B", 2)
    with pytest.raises(InvalidParameters):
        CoverSpec(1, ())
    with pytest.raises(InvalidParameters):
        CoverSpec(3, (1, 3))
    with pytest.raises(InvalidParameters):
        replace(CoverSpec(3, (1, 2)), n=2)

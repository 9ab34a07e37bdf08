"""The contract every value record of lenslat keeps: a frozen named tuple."""

import copy
import pickle

import pytest


def check_record(record, text):
    """repr is text; no field or new attribute can be set; pickle and deepcopy round-trip.

    The record is the tuple of its fields, so it equals that plain tuple.
    """
    assert repr(record) == text
    fields = type(record).__match_args__
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == tuple(getattr(record, name) for name in fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)

"""The immutable record base behind every report and verdict."""
from __future__ import annotations

import copy
import pickle

import pytest

from symsemi.census import Zero, ZeroCensus
from symsemi.models import SymplecticVerdict


def test_positional_keyword_and_default_init_agree():
    a = SymplecticVerdict(True, False, True)
    b = SymplecticVerdict(closed=True, nondegenerate=False, degree_ok=True)
    c = SymplecticVerdict(True, False, degree_ok=True, detail="")
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a.detail == "" and not a.passed
    assert a != SymplecticVerdict(True, False, True, "x")
    assert a != (True, False, True, "")


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing 'degree_ok'"):
        SymplecticVerdict(True, False)
    with pytest.raises(TypeError, match="at most 4"):
        SymplecticVerdict(True, False, True, "", 5)
    with pytest.raises(TypeError, match="multiple values"):
        SymplecticVerdict(True, False, True, closed=False)
    with pytest.raises(TypeError, match="unexpected"):
        SymplecticVerdict(True, False, True, colour="red")


def test_records_are_frozen_and_slotted():
    z = Zero("p0", "+")
    with pytest.raises(AttributeError):
        z.label = "p1"
    with pytest.raises(AttributeError):
        del z.label
    assert not hasattr(z, "__dict__")


def test_repr_names_every_field():
    assert repr(Zero("p0")) == "Zero(label='p0', det_sign='unknown')"


def test_replace_reruns_validation():
    census = ZeroCensus("morse", False, (Zero("n", "+"),))
    moved = census.replace(source="other")
    assert moved == ZeroCensus("other", False, (Zero("n", "+"),))
    assert census.source == "morse"
    with pytest.raises(ValueError, match="nonvanishing"):
        census.replace(nonvanishing=True)
    with pytest.raises(ValueError, match="det_sign"):
        Zero("n", "+").replace(det_sign="?")
    with pytest.raises(TypeError, match="unexpected"):
        census.replace(colour="red")


def test_copy_and_pickle_round_trip():
    census = ZeroCensus("morse", False, (Zero("n", "+"), Zero("s", "-")))
    assert copy.copy(census) == census
    assert copy.deepcopy(census) == census
    assert pickle.loads(pickle.dumps(census)) == census

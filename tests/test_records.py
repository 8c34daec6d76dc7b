"""The six immutable records: ``Interval``, ``Indistinguishable`` and the
four ``Expr`` nodes compare, hash, print, refuse changes, copy and pickle
as frozen dataclasses do."""

import copy
import pickle
from fractions import Fraction

import pytest

from lrcreal.cli import Add, Affine, Avg, RatLit, parse_expr
from lrcreal.digits import Interval
from lrcreal.errors import DomainError
from lrcreal.reals import Indistinguishable

THIRD, HALF = Fraction(1, 3), Fraction(1, 2)
A, B, C = RatLit(THIRD), RatLit(HALF), RatLit(Fraction(0))

#: One record of each class, with its fields in order.
RECORDS = [
    (Interval(THIRD, HALF), (THIRD, HALF)),
    (Indistinguishable(Fraction(1, 8)), (Fraction(1, 8),)),
    (A, (THIRD,)),
    (Avg(A, B), (A, B)),
    (Add(A, B), (A, B)),
    (Affine(HALF, THIRD, Fraction(0), A, Avg(B, C)), (HALF, THIRD, Fraction(0), A, Avg(B, C))),
]
IDS = ["Interval", "Indistinguishable", "RatLit", "Avg", "Add", "Affine"]

#: Each class's field names, in order.
FIELDS = {
    Interval: ("lo", "hi"),
    Indistinguishable: ("resolution",),
    RatLit: ("value",),
    Avg: ("left", "right"),
    Add: ("left", "right"),
    Affine: ("ca", "cb", "cc", "left", "right"),
}


def fields(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record, values):
    cls = type(record)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert fields(record) == values == fields(by_keyword)
    assert record == cls(*values) == by_keyword
    with pytest.raises(TypeError):
        cls(*values, None)


def test_checked_fields_raise_domain_error():
    for bad in (0.5, True, None, "1/2"):
        with pytest.raises(DomainError, match="Interval needs an int or a rational"):
            Interval(bad, HALF)
        with pytest.raises(DomainError, match="Interval needs an int or a rational"):
            Interval(Fraction(0), bad)
        with pytest.raises(DomainError, match="Indistinguishable needs an int or a rational"):
            Indistinguishable(bad)
    with pytest.raises(DomainError, match="out of order: 1/2 > 1/3"):
        Interval(HALF, THIRD)
    assert Interval(HALF, HALF).width == 0


def test_records_with_different_fields_differ():
    assert Interval(THIRD, HALF) != Interval(THIRD, Fraction(1))
    assert Interval(THIRD, HALF) != Interval(Fraction(0), HALF)
    assert Indistinguishable(Fraction(1, 8)) != Indistinguishable(Fraction(1, 4))
    assert A != B
    assert Avg(A, B) != Avg(A, C) and Avg(A, B) != Avg(C, B) and Avg(A, B) != Avg(B, A)
    assert Add(A, B) != Add(A, C) and Add(A, B) != Add(C, B)
    base = (HALF, THIRD, Fraction(0), A, B)
    for i, other in enumerate((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), C, C)):
        changed = base[:i] + (other,) + base[i + 1:]
        assert Affine(*base) != Affine(*changed)
    assert Avg(A, B) == Avg(RatLit(Fraction(2, 6)), RatLit(Fraction(1, 2)))


def test_records_of_different_classes_differ():
    assert Avg(A, B) != Add(A, B) and not Avg(A, B) == Add(A, B)
    for record, values in RECORDS:
        assert record != values and not record == values
        assert record != None  # noqa: E711
    assert Interval(THIRD, HALF) != (THIRD, HALF)
    assert RatLit(THIRD) != THIRD


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_hash_is_the_field_tuple_hash(record, values):
    assert hash(record) == hash(values)
    twin = type(record)(*values)
    assert hash(twin) == hash(record) and twin is not record
    assert {record, twin} == {record}
    assert record in {twin: None}


def test_records_hash_equal_as_set_members():
    exprs = {parse_expr("avg(1/3, 1/2)"), parse_expr("avg(2/6, 2/4)"), parse_expr("add(1/3, 1/2)")}
    assert exprs == {Avg(A, B), Add(A, B)}
    intervals = {Interval(Fraction(0), HALF), Interval(Fraction(0, 4), Fraction(2, 4)), Interval(HALF, HALF)}
    assert len(intervals) == 2


def test_nested_expr_repr():
    assert repr(parse_expr("avg(1/3, 0)")) == "Avg(left=RatLit(value=Fraction(1, 3)), right=RatLit(value=Fraction(0, 1)))"
    assert repr(parse_expr("add(1, avg(1/2, 0))")) == (
        "Add(left=RatLit(value=Fraction(1, 1)), "
        "right=Avg(left=RatLit(value=Fraction(1, 2)), right=RatLit(value=Fraction(0, 1))))"
    )
    assert repr(parse_expr("affine(1/2, 1/4, 0; 1/3, 2/3)")) == (
        "Affine(ca=Fraction(1, 2), cb=Fraction(1, 4), cc=Fraction(0, 1), "
        "left=RatLit(value=Fraction(1, 3)), right=RatLit(value=Fraction(2, 3)))"
    )
    assert repr(Interval(THIRD, HALF)) == "Interval(lo=Fraction(1, 3), hi=Fraction(1, 2))"
    assert repr(Indistinguishable(Fraction(1, 8))) == "Indistinguishable(resolution=Fraction(1, 8))"


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_records_refuse_changes(record, values):
    name = FIELDS[type(record)][0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields(record) == values and not hasattr(record, "extra")


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(record, values):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and fields(twin) == values
    assert pickle.loads(pickle.dumps(record, protocol=0)) == record


def test_records_match_positional_patterns():
    match parse_expr("affine(1/2, 1/4, 0; avg(1/3, 1/2), add(1/3, 0))"):
        case Affine(ca, cb, cc, Avg(left, right), Add(RatLit(value), _)):
            assert (ca, cb, cc, left, right, value) == (HALF, Fraction(1, 4), 0, A, B, THIRD)
        case _:
            pytest.fail("no pattern matched")
    match Interval(THIRD, HALF):
        case Interval(lo, hi):
            assert (lo, hi) == (THIRD, HALF)

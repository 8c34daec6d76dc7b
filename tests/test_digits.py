import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import refine_fold
from lrcreal.digits import (
    Digit,
    Interval,
    UNIT,
    _int_text,
    _text_int,
    bit_to_digit,
    bits_to_value,
    digits_to_str,
    emit_value,
    prefix_interval,
    refine,
    represents_to_depth,
    str_to_digits,
)
from lrcreal.cli import RatLit, format_expr, parse_expr
from lrcreal.errors import DomainError
from lrcreal.reals import ExactReal, average, from_rational
from lrcreal.streams import cons, constant

digit_lists = st.lists(st.sampled_from(list(Digit)), max_size=64)
#: Lengths drawn uniformly up to 300, so deep prefixes are common.
long_digit_lists = st.integers(0, 300).flatmap(
    lambda n: st.lists(st.sampled_from(list(Digit)), min_size=n, max_size=n)
)


def test_refine_examples():
    assert refine(UNIT, Digit.C) == Interval(Fraction(1, 4), Fraction(3, 4))
    assert refine(UNIT, Digit.L) == Interval(Fraction(0), Fraction(1, 2))
    assert refine(UNIT, Digit.R) == Interval(Fraction(1, 2), Fraction(1))
    half = Interval(Fraction(0), Fraction(1, 2))
    assert refine(half, Digit.C) == Interval(Fraction(1, 8), Fraction(3, 8))


def test_prefix_interval_examples():
    assert prefix_interval([]) == UNIT
    quarter = Interval(Fraction(1, 4), Fraction(3, 8))
    assert prefix_interval(str_to_digits("LCR")) == quarter
    assert prefix_interval(str_to_digits("LRL")) == quarter
    assert prefix_interval(str_to_digits("CLL")) == quarter


@given(long_digit_lists)
def test_prefix_interval_matches_refine_fold(ds):
    assert prefix_interval(ds) == refine_fold(ds)
    assert prefix_interval(iter(ds)) == refine_fold(ds)


@given(long_digit_lists)
def test_prefix_interval_equals_the_checked_interval(ds):
    # prefix_interval builds its result without Interval's order check;
    # it must still equal, field for field, the interval the check passes.
    iv = prefix_interval(ds)
    checked = Interval(iv.lo, iv.hi)
    assert iv == checked and hash(iv) == hash(checked)
    assert (type(iv), repr(iv)) == (Interval, repr(checked))
    assert iv.lo < iv.hi
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


@given(digit_lists)
def test_width_law(ds):
    assert prefix_interval(ds).width == Fraction(1, 2 ** len(ds))


@given(digit_lists, st.sampled_from(list(Digit)))
def test_nesting(ds, d):
    outer = prefix_interval(ds)
    assert outer.encloses(prefix_interval(ds + [d]))


def test_emit_value_examples():
    assert emit_value(Digit.R, Fraction(0)) == Fraction(1, 2)
    assert emit_value(Digit.L, Fraction(1, 2)) == Fraction(1, 4)
    assert emit_value(Digit.C, Fraction(1, 2)) == Fraction(1, 2)


@given(digit_lists)
def test_emit_fold_maps_midpoint_to_midpoint(ds):
    # duality between reading digits as refinements and as value maps
    value = Fraction(1, 2)
    for d in reversed(ds):
        value = emit_value(d, value)
    assert value == prefix_interval(ds).midpoint


def test_bits_to_value_examples():
    assert bits_to_value([]) == 0
    assert bits_to_value([True]) == Fraction(1, 2)
    assert bits_to_value([False, True]) == Fraction(1, 4)
    # 1/3 = .010101...
    assert bits_to_value([False, True] * 10) == Fraction((4 ** 10 - 1) // 3, 4 ** 10)


def test_bit_to_digit():
    assert bit_to_digit(True) is Digit.R
    assert bit_to_digit(False) is Digit.L
    assert [bit_to_digit(b) for b in (False, True, False, True)] == str_to_digits("LRLR")


def test_bit_correspondence():
    rng = random.Random(5)
    for _ in range(1000):
        bits = [rng.random() < 0.5 for _ in range(rng.randint(0, 32))]
        value = bits_to_value(bits)
        iv = prefix_interval(bit_to_digit(b) for b in bits)
        assert iv.contains(value)
        # an endpoint hit can only be the lower bound
        assert value < iv.hi


def test_represents_to_depth():
    assert represents_to_depth(constant(Digit.C), Fraction(2, 3), 0)
    assert not represents_to_depth(constant(Digit.L), Fraction(1), 1)
    third = from_rational(Fraction(1, 3)).digits
    assert represents_to_depth(third, Fraction(1, 3), 50)
    with pytest.raises(ValueError):
        represents_to_depth(third, Fraction(1, 3), -1)


def test_interval_properties():
    iv = Interval(Fraction(1, 4), Fraction(3, 8))
    assert iv.midpoint == Fraction(5, 16)
    assert iv.contains(Fraction(1, 4)) and iv.contains(Fraction(3, 8))
    assert not iv.contains(Fraction(1, 2))
    assert str(iv) == "[1/4, 3/8]"
    assert str(UNIT) == "[0, 1]"
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))
    assert iv.disjoint_from(Interval(Fraction(1, 2), Fraction(1)))
    assert not iv.disjoint_from(Interval(Fraction(3, 8), Fraction(1)))


def test_interval_repr_at_any_depth():
    iv = Interval(Fraction(1, 4), Fraction(3, 8))
    assert repr(iv) == "Interval(lo=Fraction(1, 4), hi=Fraction(3, 8))"
    assert repr(Interval(Fraction(-1, 2), Fraction(0))) == "Interval(lo=Fraction(-1, 2), hi=Fraction(0, 1))"
    # the endpoints' denominator 2**20001 has over 6,000 decimal digits
    deep = from_rational(Fraction(1, 3)).to_interval(20000)
    text = repr(deep)
    assert text.startswith("Interval(lo=Fraction(") and text.endswith("))")
    lo, hi = text[len("Interval(lo="):-1].split(", hi=")
    for endpoint, expected in ((lo, deep.lo), (hi, deep.hi)):
        num, den = endpoint[len("Fraction("):-1].split(", ")
        assert Fraction(_text_int(num), _text_int(den)) == expected
    with pytest.raises(DomainError, match="out of order"):
        Interval(deep.hi, deep.lo)


def test_digit_value_is_its_weight():
    # digit d selects [k/4, k/4 + 1/2] of [0, 1], and its value is k
    for d in Digit:
        assert prefix_interval([d]) == Interval(Fraction(d, 4), Fraction(d, 4) + Fraction(1, 2))


def test_a_digit_is_its_weight_and_nothing_else_is_a_digit():
    # Raw weights 0, 1 and 2 mean L, C and R in every function; anything
    # else raises DomainError, where it once read as C or as a weight.
    r = Fraction(1, 3)
    for d in Digit:
        k = int(d)
        assert refine(UNIT, k) == refine(UNIT, d)
        assert emit_value(k, r) == emit_value(d, r)
        assert prefix_interval([k, Digit.C]) == prefix_interval([d, Digit.C])
        assert digits_to_str([k]) == str(d)
    for stray in ("L", 3, -1, True, None):
        for call in (
            lambda: refine(UNIT, stray),
            lambda: emit_value(stray, r),
            lambda: prefix_interval([Digit.L, stray]),
            lambda: digits_to_str([stray]),
            lambda: ExactReal(cons(stray, constant(Digit.C))).digit_string(1),
        ):
            with pytest.raises(DomainError, match="a digit must have weight 0, 1 or 2, got %r$" % (stray,)):
                call()
    # Int inputs give exact results, never a float.
    value = emit_value(Digit.L, 1)
    assert (type(value), value) == (Fraction, Fraction(1, 2))
    iv = refine(Interval(0, 1), Digit.L)
    assert (type(iv.lo), type(iv.hi)) == (Fraction, Fraction)
    assert repr(iv) == "Interval(lo=Fraction(0, 1), hi=Fraction(1, 2))"


def test_a_stray_buffer_byte_is_a_domain_error():
    # A bytes or bytearray of weights goes through one check: any byte
    # but 0, 1 and 2 raises DomainError naming the first such byte.
    for buffer in (bytes([7]), bytearray([0, 1, 2, 3, 7]), b"\0\2L"):
        stray = next(b for b in buffer if b > 2)
        for call in (lambda: digits_to_str(buffer), lambda: prefix_interval(buffer)):
            with pytest.raises(DomainError, match="a digit must have weight 0, 1 or 2, got %d$" % stray):
                call()
    assert digits_to_str(bytearray([0, 1, 2])) == "LCR"
    assert prefix_interval(b"") == UNIT


def test_text_paths_under_the_lowest_int_str_limit():
    # 640 is the lowest limit sys.set_int_max_str_digits accepts. Under
    # it, every text path still reads and prints ints of any length.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for length in (639, 640, 700, 5000):
            # The first ``length`` digits of 9876543210 repeated 500 times.
            body = ("9876543210" * 500)[:length]
            n = 9876543210 * ((10 ** 5000 - 1) // (10 ** 10 - 1)) // 10 ** (5000 - length)
            for sign, value in (("", n), ("-", -n)):
                assert _text_int(sign + body) == value
                assert _int_text(value) == sign + body
        deep = from_rational(Fraction(1, 3)).to_interval(20000)
        lo, hi = str(deep)[1:-1].split(", ")
        for endpoint, expected in ((lo, deep.lo), (hi, deep.hi)):
            num, den = endpoint.split("/")
            assert Fraction(_text_int(num), _text_int(den)) == expected
        places = 3000
        scale = 10 ** places
        depth = scale.bit_length() + 2
        third, fifth = from_rational(Fraction(1, 3)), from_rational(Fraction(1, 5))
        for x in (average(third, fifth), from_rational(Fraction(123457, 999983))):
            units = math.floor(x.to_interval(depth).midpoint * scale + Fraction(1, 2))
            whole, frac = x.to_decimal(places).split(".")
            assert len(frac) == places
            assert (_text_int(whole), _text_int(frac)) == divmod(units, scale)
        literal = "3" * 700 + "/1" + "0" * 700
        assert format_expr(parse_expr(literal)) == literal
        assert parse_expr(literal) == RatLit(Fraction(10 ** 700 // 3, 10 ** 700))
    finally:
        sys.set_int_max_str_digits(limit)


def test_digit_text_forms():
    assert digits_to_str(str_to_digits("LCR")) == "LCR"
    for d in Digit:
        assert str(d) == format(d) == "%s" % d == "{}".format(d) == d.name
    assert repr(Digit.C) == "<Digit.C: 1>"
    with pytest.raises(ValueError):
        str_to_digits("LxR")
    with pytest.raises(ValueError):
        str_to_digits("1")


@given(digit_lists)
def test_text_round_trip(ds):
    back = str_to_digits(digits_to_str(ds))
    assert back == ds
    assert all(type(d) is Digit for d in back)

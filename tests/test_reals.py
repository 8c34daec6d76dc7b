import ast
import math
import random
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import digits_then_constant, prefixed_stream, rand_fraction, rational_stream, refine_fold
from lrcreal import engine
from lrcreal.digits import (
    UNIT, Digit, Interval, _left_end, _text_int, digits_to_str, emit_value, prefix_interval, refine,
)
from lrcreal.engine import _FILL_BLOCK, AffineData, RationalNode, StreamNode, demand, engine_states, state_value
from lrcreal.errors import DomainError
from lrcreal.reals import (
    _DECIMAL_BLOCK,
    GREATER,
    LESS,
    ExactReal,
    Indistinguishable,
    affine,
    average,
    compare,
    from_rational,
)
from lrcreal.streams import Stream, cons, constant, take, unfold


def test_from_rational_known_expansions():
    assert from_rational(Fraction(1, 2)).digit_string(6) == "LRRRRR"
    assert from_rational(Fraction(1, 3)).digit_string(8) == "LRLRLRLR"
    assert from_rational(Fraction(1)).digit_string(5) == "RRRRR"
    assert from_rational(Fraction(0)).digit_string(5) == "LLLLL"


def test_from_rational_rejects_out_of_range():
    with pytest.raises(DomainError):
        from_rational(Fraction(3, 2))
    with pytest.raises(DomainError):
        from_rational(Fraction(-1, 5))


def test_from_rational_soundness():
    rng = random.Random(61)
    for _ in range(200):
        den = rng.randint(1, 10 ** 6)
        r = Fraction(rng.randint(0, den), den)
        x = from_rational(r)
        for depth in (1, 7, 33, 64):
            assert x.to_interval(depth).contains(r)


def long_division(num, den, n):
    """The first ``n`` digits of num/den, one step at a time."""
    ds = []
    for _ in range(n):
        num *= 2
        if num <= den:
            ds.append(Digit.L)
        else:
            num -= den
            ds.append(Digit.R)
    return ds


@given(
    st.integers(1, 10 ** 30).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den))),
    st.lists(st.integers(0, 3 * _FILL_BLOCK), max_size=6),
)
@example((0, 1), [1, 70, 200])
@example((1, 1), [1, 64, 0, 1])
@example((1, 2), [63, 1, 1, 129])
def test_rational_node_fills_in_blocks_like_long_division(fraction, steps):
    # Each fill is one big-integer division over a block of digits; the
    # buffer must hold the digit-at-a-time long division, and may run
    # ahead of the demand by less than one block.
    num, den = fraction
    node = RationalNode(num, den)
    n = 0
    for step in steps:
        n += step
        demand(node, n)
        assert n <= len(node.out) < n + _FILL_BLOCK
        assert list(node.out) == long_division(num, den, len(node.out))


@st.composite
def fractions_over_a_power_of_two(draw):
    """(num, d, e): num/(d * 2**e) in [0, 1], with d <= 10**6 and e <= 4000.

    Half of them are dyadic, m/2**j with j <= e, whose long division
    meets the ties that go to L.
    """
    d, e = draw(st.integers(1, 10 ** 6)), draw(st.integers(0, 4000))
    if draw(st.booleans()):
        j = draw(st.integers(0, e))
        return draw(st.integers(0, 1 << j)) * d << (e - j), d, e
    return draw(st.integers(0, d << e)), d, e


@given(fractions_over_a_power_of_two(), st.lists(st.integers(0, 2000), max_size=6))
@example(((1 << 4000) // 3, 1, 4000), [1, 3999, 2, 64])
@example((1 << 3999, 3, 4000), [4001, 1])
@example((999999 << 63, 999999, 64), [63, 1, 1, 129])
@example((0, 7, 12), [1, 70, 200])
@settings(deadline=None)
def test_rational_node_divides_by_the_odd_part_of_its_denominator(fraction, steps):
    # A denominator d * 2**e fills by a shift and a division by d alone;
    # the buffer must still hold the digit-at-a-time long division after
    # every fill, both inside the first e digits and past them.
    num, d, e = fraction
    den = d << e
    node = RationalNode(num, den)
    assert node.den % 2 == 1 and node.den << node.shift == den
    expected = long_division(num, den, sum(steps) + _FILL_BLOCK)
    n = 0
    for step in steps:
        n += step
        demand(node, n)
        assert n <= len(node.out) < n + _FILL_BLOCK
        assert list(node.out) == expected[:len(node.out)]


@given(fractions_over_a_power_of_two(), st.integers(0, 5000))
@example((0, 1, 0), 5000)
@example((0, 7, 12), 3)
@example((1, 1, 0), 0)
@example((3 << 40, 3, 40), 5000)
@example((999999 << 63, 999999, 64), 64)
@example((1 << 3999, 1, 4000), 4000)
@example((5 << 3000, 1, 4000), 1001)
@settings(deadline=None)
def test_rational_left_end_is_one_division(fraction, n):
    # The left end of the first n digits, by one division, must be the
    # left end read from the digit-at-a-time long division; num = 0,
    # num = den and the dyadic values, whose ties go to L, included.
    num, d, e = fraction
    node = RationalNode(num, d << e)
    assert node.left_end(n) == _left_end(bytes(long_division(num, d << e, n)))
    assert not node.out


def test_rational_queries_leave_a_fresh_leaf_unfilled():
    # Intervals, decimals and the compare of two rationals are answered by
    # division alone, so a fresh leaf's buffer stays empty; a stream leaf
    # over the same digits answers from its buffer.
    r = Fraction(123457, 999983)
    x = from_rational(r)
    digits = ExactReal(long_division_stream(r))
    assert x.to_interval(8000) == digits.to_interval(8000)
    assert x.to_decimal(2399) == digits.to_decimal(2399)
    y = from_rational(r + Fraction(1, 2 ** 3000))
    assert compare(x, y, 4000) == LESS
    assert not x.node.out and not y.node.out


def test_rational_compare_divides_only_in_the_band_and_only_at_max_depth(monkeypatch):
    # Two rational leaves are ordered by the exact difference of their
    # fractions. 1/3 against 2/3, and 1/3 against 1/3 + 2**-1000, are
    # decided at depth 10**9 with no division at all. For the second pair
    # w = 1000, so only max_depth 1000 and 1001 fall in the band where the
    # difference cannot tell; there one left_end pair is taken, at
    # max_depth, and nowhere else.
    asked = []
    left_end = RationalNode.left_end

    def recording(node, n):
        asked.append(n)
        return left_end(node, n)

    monkeypatch.setattr(RationalNode, "left_end", recording)
    assert compare(from_rational(Fraction(1, 3)), from_rational(Fraction(2, 3)), 10 ** 9) == LESS
    assert asked == []
    x, y = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2 ** 1000)
    assert compare(from_rational(y), from_rational(x), 10 ** 9) == GREATER
    assert asked == []
    xs, ys = long_division(1, 3, 1003), long_division(y.numerator, y.denominator, 1003)
    for max_depth in (998, 999, 1000, 1001, 1002, 1003):
        asked.clear()
        assert compare(from_rational(y), from_rational(x), max_depth) == gap_loop(ys, xs, max_depth)[0]
        assert asked == ([max_depth, max_depth] if max_depth in (1000, 1001) else [])


def test_a_failed_fill_leaves_a_rational_leaf_as_it_was(monkeypatch):
    # The block's digits fail to reach the buffer (here ``translate``
    # rejects a broken table; a MemoryError does the same). The leaf's
    # numerator must not have moved on, or every later digit is wrong.
    r = Fraction(123457, 999983)
    x = from_rational(r)
    x.digit_string(10)
    with monkeypatch.context() as patched:
        patched.setattr(engine, "_BIT_WEIGHT", b"bad")
        with pytest.raises(ValueError):
            x.digit_string(80)
    assert x.digit_string(80) == from_rational(r).digit_string(80)


def test_from_rational_never_emits_c():
    rng = random.Random(67)
    for _ in range(50):
        r = rand_fraction(rng, 10 ** 4)
        assert Digit.C not in take(from_rational(r).digits, 256)


def test_to_interval():
    third = from_rational(Fraction(1, 3))
    assert third.to_interval(0).lo == 0 and third.to_interval(0).hi == 1
    iv = third.to_interval(2)
    assert (iv.lo, iv.hi) == (Fraction(1, 4), Fraction(1, 2))
    assert third.to_interval(9).width == Fraction(1, 512)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        third.to_interval(-1)


def test_to_interval_width_law():
    rng = random.Random(89)
    for _ in range(20):
        x = from_rational(rand_fraction(rng))
        for depth in (0, 1, 5, 17, 40):
            assert x.to_interval(depth).width == Fraction(1, 2 ** depth)


def test_to_interval_deep_matches_digit_formula():
    # n digits pin [m, m + 2] / 2**(n + 1) with m = 2 * (R bits) + (C bits)
    third = from_rational(Fraction(1, 3))
    text = third.digit_string(8000)
    m = 2 * int(text.translate(str.maketrans("LRC", "010")), 2) + int(
        text.translate(str.maketrans("LRC", "001")), 2
    )
    den = 2 ** 8001
    iv = third.to_interval(8000)
    assert (iv.lo, iv.hi) == (Fraction(m, den), Fraction(m + 2, den))
    # 8000 digits of LRLR... put the left end at the binary 0.0101...01
    assert iv.lo == Fraction((4 ** 4000 - 1) // 3, 4 ** 4000)


def test_to_decimal_examples():
    assert from_rational(Fraction(1, 2)).to_decimal(3) == "0.500"
    assert from_rational(Fraction(1, 3)).to_decimal(4) == "0.3333"
    assert from_rational(Fraction(0)).to_decimal(2) == "0.00"
    assert from_rational(Fraction(1)).to_decimal(2) == "1.00"
    # L C C C C C pins [7/32, 9/32]: its midpoint 1/4 is a tie at one
    # place, and half-up rounding prints 0.3.
    assert ExactReal(digits_then_constant([Digit.L], Digit.C)).to_decimal(1) == "0.3"
    with pytest.raises(ValueError):
        from_rational(Fraction(1, 2)).to_decimal(0)


def test_to_decimal_accuracy():
    rng = random.Random(71)
    for _ in range(40):
        r = rand_fraction(rng, 10 ** 6)
        x = from_rational(r)
        for places in range(1, 13):
            printed = Fraction(x.to_decimal(places))
            assert abs(printed - r) <= Fraction(1, 10 ** places)


digits = st.sampled_from(list(Digit))
#: Lengths drawn uniformly up to 300, so deep prefixes are common.
digit_lists = st.integers(0, 300).flatmap(lambda n: st.lists(digits, min_size=n, max_size=n))


@given(digit_lists, digits, st.integers(1, 100))
def test_to_decimal_rounds_fraction_midpoint(ds, tail, places):
    x = ExactReal(digits_then_constant(ds, tail))
    scale = 10 ** places
    depth = scale.bit_length() + 2
    mid = refine_fold(take(x.digits, depth)).midpoint
    units = math.floor(mid * scale + Fraction(1, 2))
    assert x.to_decimal(places) == "%d.%0*d" % (units // scale, places, units % scale)


def test_to_decimal_past_int_str_limit():
    # Python refuses to turn an int of more than 4300 decimal digits into
    # text by default; 5000 places must render anyway. The output is read
    # back in short chunks and checked against the Fraction midpoint.
    places = 5000
    scale = 10 ** places
    depth = scale.bit_length() + 2
    for x in (from_rational(Fraction(1, 3)), ExactReal(digits_then_constant([Digit.C, Digit.R], Digit.C))):
        mid = prefix_interval(take(x.digits, depth)).midpoint
        units = math.floor(mid * scale + Fraction(1, 2))
        whole, frac = x.to_decimal(places).split(".")
        assert len(frac) == places
        assert (int(whole), _text_int(frac)) == divmod(units, scale)


#: Denominators of three shapes: small, about 2**70 wide, and an odd part
#: times a power of two, which a rational leaf keeps split.
denominators = st.one_of(
    st.integers(1, 10 ** 6),
    st.integers(2 ** 69, 2 ** 70),
    st.builds(lambda d, k: (2 * d + 1) << k, st.integers(0, 499), st.integers(0, 400)),
)
unit_fractions = denominators.flatmap(lambda den: st.builds(Fraction, st.integers(0, den), st.just(den)))
#: Places up to 3,000, and whole numbers of long-division blocks, one less and one more.
places_counts = st.one_of(
    st.integers(1, 3000),
    st.sampled_from([b * _DECIMAL_BLOCK + s for b in range(1, 21) for s in (-1, 0, 1)]),
)


def midpoint_decimal(r, places):
    """``to_decimal`` of the rational ``r`` by the shift formula, as the reference.

    The depth's midpoint (m + 1) / 2**(d + 1) rounded half-up is
    ((m + 1) * 10**p + 2**d) >> (d + 1), with m the left end of the
    depth-d interval [q, q + 1] / 2**d: q = ceil(r * 2**d) - 1, or 0 for 0.
    """
    scale = 10 ** places
    depth = scale.bit_length() + 2
    num, den = r.numerator, r.denominator
    m = 2 * ((num * 2 ** depth - 1) // den) if num else 0
    units = ((m + 1) * scale + (1 << depth)) >> (depth + 1)
    return "%d.%0*d" % (units // scale, places, units % scale)


@st.composite
def near_rounding_points(draw):
    """``(value, places)``, the value within 2**-(depth + 1) of a point
    (u + 1/2) / 10**places where half-up rounding turns; u ends in a run
    of 9s, all of its digits at times, so the round-up carries."""
    places = draw(places_counts)
    scale = 10 ** places
    depth = scale.bit_length() + 2
    nines = draw(st.integers(0, places))
    u = draw(st.integers(0, 10 ** (places - nines) - 1)) * 10 ** nines + 10 ** nines - 1
    offset = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 8)) << (depth + 1))
    return Fraction(2 * u + 1, 2 * scale) + offset, places


@given(st.one_of(st.tuples(unit_fractions, places_counts), near_rounding_points()))
@example((Fraction(1, 8), 2))
@example((Fraction(19, 20), 1))
@example((Fraction(999999, 1000000), 3))
@example((Fraction(0), 1))
@example((Fraction(1), 301))
@settings(deadline=None)
def test_rational_decimals_by_long_division_round_the_midpoint(case):
    # A rational leaf prints its decimals by long division and decides the
    # last digit by the sign of one exact sum; the text must be the shift
    # formula's, near every rounding point, through carries and across
    # block boundaries.
    r, places = case
    assert from_rational(r).to_decimal(places) == midpoint_decimal(r, places)


def test_average_examples():
    avg = average(from_rational(Fraction(1, 3)), from_rational(Fraction(1, 6)))
    assert avg.to_interval(40).contains(Fraction(1, 4))
    assert repr(avg) == "ExactReal(%s...)" % avg.digit_string(8)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        avg.to_interval(-1)

    x = from_rational(Fraction(3, 7))
    assert average(x, x).to_interval(40).contains(Fraction(3, 7))

    ends = average(from_rational(Fraction(0)), from_rational(Fraction(1)))
    assert ends.to_interval(40).contains(Fraction(1, 2))


def test_affine_matches_average():
    x = from_rational(Fraction(2, 5))
    y = from_rational(Fraction(1, 7))
    via_affine = affine(Fraction(1, 2), Fraction(1, 2), Fraction(0), x, y)
    assert via_affine.digit_string(200) == average(x, y).digit_string(200)


def test_affine_unchecked_sum():
    z = affine(
        Fraction(1), Fraction(1), Fraction(0),
        from_rational(Fraction(1, 3)), from_rational(Fraction(1, 6)),
        checked=False,
    )
    assert z.to_interval(40).contains(Fraction(1, 2))


def test_unchecked_affine_refuses_a_known_value_above_1():
    three_quarters = from_rational(Fraction(3, 4))
    with pytest.raises(DomainError, match="unchecked affine needs a value <= 1, got 3/2"):
        affine(1, 1, 0, three_quarters, three_quarters, checked=False)
    # The same node with no value: nothing can check it, and R comes forever.
    blind = ExactReal(three_quarters.digits)
    assert blind.node is three_quarters.node and blind.value is None
    assert affine(1, 1, 0, blind, blind, checked=False).digit_string(8) == "RRRRRRRR"
    assert type(from_rational(1).value) is Fraction


@st.composite
def valued_graphs(draw, depth):
    """A recipe for a real ``depth`` nodes deep along one spine.

    A leaf is a rational, the digit view of one, or a stream of a few
    digits before a rational tail; only the first has a value. A node is
    ``("avg" | "affine" | "unchecked", ca, cb, cc, left, right)``: an
    average, a checked affine, or an unchecked one whose coefficients sum
    to at most 2, so that its value may exceed 1.
    """
    if depth == 0:
        kind = draw(st.sampled_from(("rational", "view", "stream")))
        return (kind, draw(st.lists(digits, max_size=4)) if kind == "stream" else [], small_fraction(draw))
    kind = draw(st.sampled_from(("avg", "affine", "unchecked")))
    x = draw(valued_graphs(depth - 1))
    y = draw(valued_graphs(draw(st.integers(0, min(1, depth - 1)))))
    if draw(st.booleans()):
        x, y = y, x
    if kind == "avg":
        return (kind, Fraction(1, 2), Fraction(1, 2), Fraction(0), x, y)
    bound = Fraction(1 if kind == "affine" else 2)
    ca = small_fraction(draw, bound)
    cb = small_fraction(draw, bound - ca)
    return (kind, ca, cb, small_fraction(draw, bound - ca - cb), x, y)


def build_valued(recipe, n):
    """``(real, exact value, every leaf a rational, sound)`` for a ``valued_graphs`` recipe.

    Checks the value rule at each node on the way. An unchecked affine
    over two valued reals must refuse a value above 1; it is then built
    over the same nodes with no value, where it must not. ``sound`` says
    that no node's value, this one's included, exceeds 1, so the real's
    depth-``n`` interval must enclose its value.
    """
    kind = recipe[0]
    if kind in ("rational", "view", "stream"):
        _, prefix, value = recipe
        if kind == "rational":
            x = from_rational(value)
        elif kind == "view":
            x = ExactReal(from_rational(value).digits)
        else:
            stream, value = prefixed_stream(prefix, value)
            x = ExactReal(stream)
        rational, sound = kind == "rational", True
    else:
        _, ca, cb, cc, left, right = recipe
        (xr, xv, x_rational, x_sound), (yr, yv, y_rational, y_sound) = build_valued(left, n), build_valued(right, n)
        value = ca * xv + cb * yv + cc
        rational, sound = x_rational and y_rational, x_sound and y_sound and value <= 1
        if kind == "avg":
            x = average(xr, yr)
        elif kind == "affine":
            x = affine(ca, cb, cc, xr, yr)
        elif rational and value > 1:
            with pytest.raises(DomainError):
                affine(ca, cb, cc, xr, yr, checked=False)
            x = affine(ca, cb, cc, ExactReal(xr.digits), ExactReal(yr.digits), checked=False)
            rational = False
        else:
            x = affine(ca, cb, cc, xr, yr, checked=False)
    if rational:
        assert x.value == value and type(x.value) is Fraction
    else:
        assert x.value is None
    if sound:
        assert x.to_interval(n).contains(value)
    return x, value, rational, sound


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 4).flatmap(valued_graphs), st.integers(0, 64))
# Two values of exactly 1, which are in range.
@example(("unchecked", 1, 1, 0, ("rational", [], Fraction(1, 2)), ("rational", [], Fraction(1, 2))), 8)
@example(("unchecked", 1, 1, Fraction(1, 9), ("rational", [], Fraction(4, 9)), ("rational", [], Fraction(4, 9))), 8)
def test_a_real_built_from_rationals_carries_its_exact_value(recipe, n):
    # The value is known exactly when every leaf is a rational, and an
    # unchecked affine refuses one above 1 only when it is known.
    build_valued(recipe, n)


def test_affine_guards():
    x = from_rational(Fraction(1, 3))
    with pytest.raises(DomainError):
        affine(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), x, x)
    with pytest.raises(DomainError):
        affine(Fraction(-1, 2), Fraction(0), Fraction(0), x, x)


def test_inputs_that_are_not_exact_rationals_raise_domain_error():
    # A float would run as its binary value (0.1 as 3602879701896397/2**55),
    # nan and inf raised ValueError and OverflowError, and True read as 1.
    x = from_rational(Fraction(1, 3))
    for bad in (0.1, float("nan"), float("inf"), True, False, Decimal("0.5"), "1/3"):
        with pytest.raises(DomainError) as err:
            from_rational(bad)
        assert str(err.value) == "from_rational needs an int or a rational, got %r" % (bad,)
        for at in range(3):
            coefficients = [Fraction(0)] * 3
            coefficients[at] = bad
            with pytest.raises(DomainError) as err:
                affine(*coefficients, x, x)
            assert str(err.value) == "affine needs an int or a rational, got %r" % (bad,)
        # The spec layer takes its rationals through the same check: a float
        # endpoint built an Interval whose str() raised AttributeError,
        # emit_value raised TypeError and state_value returned a float.
        for endpoints in ((bad, 1), (0, bad)):
            with pytest.raises(DomainError) as err:
                Interval(*endpoints)
            assert str(err.value) == "Interval needs an int or a rational, got %r" % (bad,)
        with pytest.raises(DomainError) as err:
            emit_value(Digit.L, bad)
        assert str(err.value) == "emit_value needs an int or a rational, got %r" % (bad,)
        state = AffineData(1, 2, 1, 2, 0, 1, x.digits, x.digits)
        for inputs in ((bad, 0), (0, bad)):
            with pytest.raises(DomainError) as err:
                state_value(state, *inputs)
            assert str(err.value) == "state_value needs an int or a rational, got %r" % (bad,)
    # An engine state's coefficients are ints: AffineData(0.5, 1, ...) printed
    # as AffineData(0/1, 0/1, 0/1) and produce_stream on it raised TypeError.
    for bad in (0.5, float("nan"), True, False, Fraction(1, 2), Decimal("0.5"), "1"):
        for at in range(6):
            coefficients = [1] * 6
            coefficients[at] = bad
            with pytest.raises(DomainError) as err:
                AffineData(*coefficients, x.digits, x.digits)
            part = "denominator" if at % 2 else "numerator"
            assert str(err.value) == "an AffineData %s must be an int, got %r" % (part, bad)
    # ints and Fractions read as before
    assert str(Interval(0, Fraction(1, 2))) == "[0, 1/2]"
    assert emit_value(Digit.C, 1) == Fraction(3, 4)
    assert state_value(AffineData(1, 2, 1, 2, 0, 1, x.digits, x.digits), 1, Fraction(1, 2)) == Fraction(3, 4)
    assert from_rational(1).digit_string(8) == "RRRRRRRR"
    assert from_rational(0).digit_string(8) == "LLLLLLLL"
    by_fractions = affine(Fraction(1, 2), Fraction(1, 4), Fraction(0), x, x)
    assert affine(Fraction(1, 2), Fraction(1, 4), 0, x, x).digit_string(64) == by_fractions.digit_string(64)
    unchecked = affine(Fraction(1), Fraction(1), Fraction(0), x, x, checked=False)
    assert affine(1, 1, 0, x, x, checked=False).digit_string(64) == unchecked.digit_string(64)


def test_domain_errors_past_int_str_limit():
    # Python refuses to turn an int of more than 4300 decimal digits into
    # text by default; the messages render such values anyway.
    big = (10 ** 5000 - 1) // 3
    threes = "3" * 5000
    with pytest.raises(DomainError) as err:
        from_rational(Fraction(big, 2))
    assert str(err.value) == "from_rational needs a value in [0, 1], got %s/2" % threes
    x = from_rational(Fraction(1, 3))
    with pytest.raises(DomainError) as err:
        affine(Fraction(1), Fraction(1, big), Fraction(0), x, x)
    assert str(err.value) == "checked affine needs ca + cb + cc <= 1, got %s4/%s" % (threes[1:], threes)
    # below the limit the text is str(Fraction)'s
    with pytest.raises(DomainError) as err:
        from_rational(Fraction(-3, 6))
    assert str(err.value) == "from_rational needs a value in [0, 1], got -1/2"


def test_affine_soundness_checked():
    rng = random.Random(73)
    for _ in range(60):
        ca = Fraction(rng.randint(0, 8), 8)
        cb = Fraction(rng.randint(0, int(8 * (1 - ca))), 8)
        cc = Fraction(rng.randint(0, int(8 * (1 - ca - cb))), 8)
        p = rand_fraction(rng)
        q = rand_fraction(rng)
        z = affine(ca, cb, cc, from_rational(p), from_rational(q))
        assert z.to_interval(40).contains(ca * p + cb * q + cc)


def test_compare():
    assert compare(from_rational(Fraction(1, 4)), from_rational(Fraction(3, 4)), 8) == LESS
    assert compare(from_rational(Fraction(3, 4)), from_rational(Fraction(1, 4)), 8) == GREATER

    x = from_rational(Fraction(2, 7))
    assert compare(x, x, 11) == Indistinguishable(Fraction(1, 2 ** 11))
    with pytest.raises(ValueError, match="max_depth must be >= 0"):
        compare(x, x, -1)

    # two spellings of 1/2: intervals always share the point 1/2
    lr = ExactReal(cons(Digit.L, constant(Digit.R)))
    rl = ExactReal(cons(Digit.R, constant(Digit.L)))
    assert compare(lr, rl, 20) == Indistinguishable(Fraction(1, 2 ** 20))


@pytest.mark.parametrize("call", [
    lambda bad, x: average(bad, x),
    lambda bad, x: average(x, bad),
    lambda bad, x: affine(0, 0, 0, bad, x),
    lambda bad, x: affine(Fraction(1, 2), 0, 0, x, bad, checked=False),
    lambda bad, x: compare(bad, x, 3),
    lambda bad, x: compare(x, bad, 3),
], ids=["average-x", "average-y", "affine-x", "affine-y", "compare-x", "compare-y"])
def test_real_operands_that_are_not_reals_raise_domain_error(call):
    # Each real operand is checked at the boundary, so a wrong type raises
    # the typed error, not AttributeError ("no attribute 'node'").
    x = from_rational(Fraction(1, 3))
    for bad in (Fraction(1, 3), 0.5, 1, None, x.digits):
        with pytest.raises(DomainError, match="needs an ExactReal, got "):
            call(bad, x)


def test_indistinguishable_checks_its_resolution():
    # A resolution that is no exact rational is refused when built, not in repr.
    for bad in (0.5, True, None, "1/2"):
        with pytest.raises(DomainError, match="Indistinguishable needs an int or a rational"):
            Indistinguishable(bad)
    assert repr(Indistinguishable(Fraction(1, 4))) == "Indistinguishable(resolution=Fraction(1, 4))"


def test_indistinguishable_repr_at_any_depth():
    x = from_rational(Fraction(1, 3))
    assert repr(compare(x, x, 70)) == "Indistinguishable(resolution=Fraction(1, 1180591620717411303424))"
    # 2**-20000 has a denominator of over 6,000 decimal digits
    text = repr(compare(x, x, 20000))
    prefix, den = text[:-2].split(", ")
    assert (prefix, text[-2:]) == ("Indistinguishable(resolution=Fraction(1", "))")
    assert _text_int(den) == 2 ** 20000


def test_compare_spellings_of_half_deep():
    spellings = [
        ExactReal(cons(Digit.L, constant(Digit.R))),
        ExactReal(cons(Digit.R, constant(Digit.L))),
        ExactReal(constant(Digit.C)),
    ]
    for x in spellings:
        for y in spellings:
            assert compare(x, y, 2000) == Indistinguishable(Fraction(1, 2 ** 2000))


def reference_compare(x, y, max_depth):
    """``compare`` as its spec states it, on ``Fraction`` intervals.

    Returns the verdict and the depth it was reached at.
    """
    ix = iy = UNIT
    sx, sy = x.digits, y.digits
    for depth in range(1, max_depth + 1):
        dx, sx = sx.force()
        dy, sy = sy.force()
        ix, iy = refine(ix, dx), refine(iy, dy)
        if ix.hi < iy.lo:
            return LESS, depth
        if iy.hi < ix.lo:
            return GREATER, depth
    return Indistinguishable(Fraction(1, 2 ** max_depth)), max_depth


@given(
    digit_lists,
    st.lists(digits, max_size=4), digits,
    st.lists(digits, max_size=4), digits,
    st.integers(0, 320),
)
def test_compare_matches_fraction_reference(shared, xs, x_tail, ys, y_tail, max_depth):
    # A shared prefix and short, often redundant, endings (LRRR..., CCC...)
    # keep the intervals overlapping deep into the search.
    x = ExactReal(digits_then_constant(shared + xs, x_tail))
    y = ExactReal(digits_then_constant(shared + ys, y_tail))
    verdict, depth = reference_compare(x, y, max_depth)
    assert compare(x, y, max_depth) == verdict
    if verdict in (LESS, GREATER):
        # separated at exactly that depth, not one digit earlier or later
        assert compare(x, y, depth) == verdict
        assert compare(x, y, depth - 1) == Indistinguishable(Fraction(1, 2 ** (depth - 1)))


def test_compare_antisymmetry():
    rng = random.Random(79)
    for _ in range(100):
        x = from_rational(rand_fraction(rng))
        y = from_rational(rand_fraction(rng))
        if compare(x, y, 24) == LESS:
            assert compare(y, x, 24) == GREATER


def gap_loop(xs, ys, max_depth):
    """``compare``'s verdict one digit pair at a time, and its depth."""
    gap = 0
    for depth in range(1, max_depth + 1):
        gap = 2 * gap + ys[depth - 1] - xs[depth - 1]
        if gap > 2:
            return LESS, depth
        if gap < -2:
            return GREATER, depth
    return Indistinguishable(Fraction(1, 2 ** max_depth)), max_depth


def test_compare_stops_an_engine_partner_at_the_separating_depth():
    # A rational's buffer runs a block ahead, so compare reads it in
    # blocks; the engine real beside it must still be expanded exactly to
    # the depth where the intervals separate, and not one digit further.
    rng = random.Random(83)
    for _ in range(300):
        p, q = rand_fraction(rng), rand_fraction(rng)
        if rng.random() < 0.5:
            ca = cb = Fraction(1, 2)
            cc = Fraction(0)
        else:
            ca, cb = Fraction(rng.randint(0, 3), 8), Fraction(rng.randint(0, 3), 8)
            cc = Fraction(rng.randint(0, 4), 16)
        value = ca * p + cb * q + cc
        delta = rng.choice((0, 1, -1, 3)) * Fraction(1, 2 ** rng.randint(1, 150))
        r = min(max(value + delta, Fraction(0)), Fraction(1))
        max_depth = rng.randint(0, 200)

        def fresh():
            return from_rational(r), affine(ca, cb, cc, from_rational(p), from_rational(q))

        x, y = fresh()
        xs, ys = list(take(x.digits, max_depth)), list(take(y.digits, max_depth))
        for swap in (False, True):
            x, y = fresh()
            if swap:
                verdict, depth = gap_loop(ys, xs, max_depth)
                assert compare(y, x, max_depth) == verdict
            else:
                verdict, depth = gap_loop(xs, ys, max_depth)
                assert compare(x, y, max_depth) == verdict
            if verdict in (LESS, GREATER):
                assert len(y.node.out) == depth
                assert len(x.node.out) >= depth


def test_compare_stops_an_engine_partner_at_the_separating_depth_deep():
    # As above with max depths of 1,000 and more, so the rational's
    # buffer is demanded to twice the depth reached several times over;
    # the engine real must still stop exactly at the separating depth.
    rng = random.Random(97)
    for _ in range(24):
        p, q = rand_fraction(rng), rand_fraction(rng)
        if rng.random() < 0.5:
            ca = cb = Fraction(1, 2)
            cc = Fraction(0)
        else:
            ca, cb = Fraction(rng.randint(0, 3), 8), Fraction(rng.randint(0, 3), 8)
            cc = Fraction(rng.randint(0, 4), 16)
        value = ca * p + cb * q + cc
        max_depth = rng.randint(1000, 2500)
        delta = rng.choice((0, 1, -1, 3)) * Fraction(1, 2 ** rng.randint(500, max_depth))
        r = min(max(value + delta, Fraction(0)), Fraction(1))

        def fresh():
            return from_rational(r), affine(ca, cb, cc, from_rational(p), from_rational(q))

        x, y = fresh()
        xs, ys = list(take(x.digits, max_depth)), list(take(y.digits, max_depth))
        for swap in (False, True):
            x, y = fresh()
            if swap:
                verdict, depth = gap_loop(ys, xs, max_depth)
                assert compare(y, x, max_depth) == verdict
            else:
                verdict, depth = gap_loop(xs, ys, max_depth)
                assert compare(x, y, max_depth) == verdict
            if verdict in (LESS, GREATER):
                assert len(y.node.out) == depth
                assert depth <= len(x.node.out) <= max(2 * depth, _FILL_BLOCK)


@given(
    st.integers(1, 10 ** 6).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den))),
    st.integers(4, 3000),
    st.sampled_from((0, 1, 2, 4, 8)),
    st.booleans(),
    st.integers(0, 3100),
)
@example((1, 3), 3000, 4, True, 3000)
@example((1, 3), 3000, 0, False, 3000)
@example((999999, 1000000), 2000, 1, False, 2100)
@settings(deadline=None)
def test_deep_rational_compare_matches_gap_loop(fraction, d, k, below, max_depth):
    # y = x -+ k * 2**-d has a denominator of about d bits, so a search
    # that reaches depth d doubles both rational buffers several times.
    x = Fraction(*fraction)
    delta = Fraction(k, 2 ** d)
    y = x - delta if (below and x >= delta) or x + delta > 1 else x + delta
    xs = long_division(x.numerator, x.denominator, max_depth)
    ys = long_division(y.numerator, y.denominator, max_depth)
    verdict, depth = gap_loop(xs, ys, max_depth)
    rx, ry = from_rational(x), from_rational(y)
    assert compare(rx, ry, max_depth) == verdict
    # each buffer ends at most at twice the verdict depth, or at one block
    assert max(len(rx.node.out), len(ry.node.out)) <= max(2 * depth, _FILL_BLOCK)


@st.composite
def rational_pairs(draw):
    """``(x, y, D)``: two rationals, equal, in the band 1 < |y - x| * 2**D <= 2
    or apart at random, and a max depth D, at times 0 to 3."""
    x = draw(unit_fractions)
    D = draw(st.one_of(st.integers(0, 3), st.integers(0, 80), st.integers(0, 1200)))
    kind = draw(st.sampled_from(("equal", "band", "any")))
    if kind == "equal":
        return x, x, D
    if kind == "any":
        return x, draw(unit_fractions), D
    J = draw(st.integers(1, 2 ** 12))
    delta = (1 + Fraction(draw(st.integers(1, J)), J)) / 2 ** D
    y = x - delta if draw(st.booleans()) else x + delta
    if not 0 <= y <= 1:
        y = 2 * x - y
    assume(0 <= y <= 1)
    return x, y, D


@given(rational_pairs())
# In the band, at w + 1, apart by less than 2 * 2**-D and not separated:
@example((Fraction(61625, 826288), Fraction(734214995701670851, 9844592945452285952), 37))
# In the band, at w, separated:
@example((Fraction(9, 20), Fraction(850403524583, 1889785610240), 37))
@settings(deadline=None, max_examples=300)
def test_rational_compare_by_exact_difference_matches_gap_loop(pair):
    # Two rational leaves are ordered by the sign of their difference, by
    # its bit length against max_depth, or by one left_end pair in the band
    # between; each verdict, at D and on either side of it, must be the
    # digit-at-a-time gap loop's over their long division.
    x, y, D = pair
    xs = long_division(x.numerator, x.denominator, D + 1)
    ys = long_division(y.numerator, y.denominator, D + 1)
    for max_depth in range(max(D - 1, 0), D + 2):
        assert compare(from_rational(x), from_rational(y), max_depth) == gap_loop(xs, ys, max_depth)[0]
        assert compare(from_rational(y), from_rational(x), max_depth) == gap_loop(ys, xs, max_depth)[0]


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)])
def test_compare_of_close_rationals_shifts_the_gap_over_equal_blocks(x):
    # x and x + k * 2**-d share about d digits, so compare meets whole
    # blocks that are equal in both buffers. Such a block adds nothing to
    # the gap, but it still doubles it once per digit: a gap that is not
    # yet 0 must keep growing across it.
    for k in (1, 2, 4):
        for d in (63, 64, 65, 128, 129, 256, 1024):
            y = x + Fraction(k, 2 ** d)
            assert compare(from_rational(x), from_rational(y), 3000) == LESS
            assert compare(from_rational(y), from_rational(x), 3000) == GREATER


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(2, 7), Fraction(1, 2) - Fraction(1, 2 ** 64)])
def test_compare_folds_whole_blocks_of_buffered_reals(x):
    # Two rational leaves never reach compare's block loop, so it is fed
    # here by reals whose buffers already hold max_depth digits: engine
    # reals over the same rationals, folded as one whole block, and a
    # stream leaf over a rational's long division against a fresh
    # rational, whose read-ahead ends blocks at depths 64, 128, 256, ...
    # x and x + k * 2**-d share about d digits, so a block can be equal in
    # both buffers after a gap that is not yet 0 (1/2 - 2**-64 against
    # 1/2 has gap 2 at depth 64 and R digits after it); such a block adds
    # nothing to the gap but must still double it once per digit.
    max_depth = 1500

    def buffered(real):
        real.digit_string(max_depth)
        return real

    for k in (1, 2, 4):
        for d in (63, 64, 65, 128, 129, 256, 1024):
            y = x + Fraction(k, 2 ** d)
            xs = long_division(x.numerator, x.denominator, max_depth)
            ys = long_division(y.numerator, y.denominator, max_depth)
            ex = buffered(average(from_rational(x), from_rational(x)))
            ey = buffered(average(from_rational(y), from_rational(y)))
            cases = [
                (ex, ey, ex.node.out, ey.node.out),
                (ey, ex, ey.node.out, ex.node.out),
                (from_rational(x), buffered(ExactReal(long_division_stream(y))), xs, ys),
                (buffered(ExactReal(long_division_stream(y))), from_rational(x), ys, xs),
                (buffered(ExactReal(long_division_stream(x))), from_rational(y), xs, ys),
                (from_rational(y), buffered(ExactReal(long_division_stream(x))), ys, xs),
            ]
            for a, b, a_ds, b_ds in cases:
                assert compare(a, b, max_depth) == gap_loop(a_ds, b_ds, max_depth)[0]


def test_readme_library_block():
    # Run README's "Library" block statement by statement; every
    # expression's comment is the repr of its result, or a claim below.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    claims = {
        "width 2**-40 interval containing 1/2":
            lambda iv: iv.width == Fraction(1, 2 ** 40) and iv.contains(Fraction(1, 2)),
        "1/3 + 1/6":
            lambda z: compare(z, from_rational(Fraction(1, 2)), 200) == Indistinguishable(Fraction(1, 2 ** 200)),
    }
    lines = block.splitlines()
    scope = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = lines[stmt.lineno - 1]
        comment = source.split("#", 1)[1].strip() if "#" in source else None
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            value = scope[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        if comment is None:
            continue
        if comment in claims:
            assert claims[comment](value), source
        else:
            assert repr(value) == comment, source
        checked += 1
    assert checked == 6


def reference_stream(x, forced):
    """The digits of state ``x`` as memoized cells over ``engine_states``.

    ``forced[0]`` counts the cells forced so far.
    """
    steps = engine_states(x)

    def cell(_):
        for digit, _state in steps:
            if digit is not None:
                forced[0] += 1
                return digit, None

    return unfold(cell, None)


def small_fraction(draw, bound=Fraction(1)):
    den = draw(st.integers(1, 9))
    return Fraction(draw(st.integers(0, int(bound * den))), den)


@st.composite
def node_graphs(draw, depth):
    """A recipe for a real ``depth`` engine nodes deep along one spine.

    Leaves are rationals or ``ExactReal(Stream)`` over digits that end in
    a constant. "twice" averages one subtree with itself and "share"
    reads one subtree from two parents: affine(ca, cb, cc; x, average(x, y)).
    "add" is the unchecked sum, whose digits may not denote a value in
    [0, 1] but are still the engine's digits.
    """
    if depth == 0:
        if draw(st.booleans()):
            return ("rational", small_fraction(draw))
        return ("stream", draw(st.lists(digits, max_size=6)), draw(digits))
    kind = draw(st.sampled_from(("avg", "twice", "affine", "share", "add")))
    x = draw(node_graphs(depth - 1))
    if kind == "twice":
        return (kind, x)
    y = draw(node_graphs(draw(st.integers(0, min(2, depth - 1)))))
    if kind in ("affine", "share"):
        ca = small_fraction(draw)
        cb = small_fraction(draw, 1 - ca)
        cc = small_fraction(draw, 1 - ca - cb)
        return (kind, ca, cb, cc, x, y)
    if draw(st.booleans()):
        x, y = y, x
    return (kind, x, y)


def build_both(recipe, engines):
    """``(real, reference stream)`` for a recipe.

    Each engine node built is recorded in ``engines`` with the counter of
    cells its reference forces.
    """
    kind = recipe[0]
    if kind == "rational":
        return from_rational(recipe[1]), rational_stream(recipe[1])
    if kind == "stream":
        stream = digits_then_constant(recipe[1], recipe[2])
        return ExactReal(stream), stream

    def combine(ca, cb, cc, x, y, checked=True):
        (xr, xs), (yr, ys) = x, y
        real = affine(ca, cb, cc, xr, yr, checked)
        forced = [0]
        engines.append((real.node, forced))
        state = AffineData(ca.numerator, ca.denominator, cb.numerator, cb.denominator, cc.numerator, cc.denominator, xs, ys)
        return real, reference_stream(state, forced)

    half, zero, one = Fraction(1, 2), Fraction(0), Fraction(1)
    if kind == "twice":
        x = build_both(recipe[1], engines)
        return combine(half, half, zero, x, x)
    if kind == "avg":
        return combine(half, half, zero, build_both(recipe[1], engines), build_both(recipe[2], engines))
    if kind == "add":
        # A sum may exceed 1 here: operands with no value keep affine from
        # refusing it, over the same nodes.
        (xr, xs), (yr, ys) = build_both(recipe[1], engines), build_both(recipe[2], engines)
        return combine(one, one, zero, (ExactReal(xr.digits), xs), (ExactReal(yr.digits), ys), False)
    _, ca, cb, cc, x, y = recipe
    x, y = build_both(x, engines), build_both(y, engines)
    if kind == "share":
        y = combine(half, half, zero, x, y)
    return combine(ca, cb, cc, x, y)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 8).flatmap(node_graphs), st.integers(0, 80))
def test_node_graph_matches_memoized_engine_states(recipe, n):
    # Engine nodes read shared children by index into their buffers; the
    # reference runs engine_states over memoized streams. The digits must
    # agree, and no node may have produced a digit its reference was never
    # asked for: the lower bound a blocked node asks its child for never
    # over-demands.
    engines = []
    real, reference = build_both(recipe, engines)
    assert real.digit_string(n) == digits_to_str(take(reference, n))
    for node, forced in engines:
        assert len(node.out) <= forced[0]


def test_series_built_from_streams_runs_on_the_explicit_stack():
    # e - 2 = 1/2 (1 + 1/3 (1 + 1/4 (...))): term k is a checked affine
    # node whose input is a stream that builds term k + 1 when forced.
    # Reading such a chain must cost stack entries, not Python frames per
    # level: 600 digits reach over 100 terms under a recursion limit only
    # 100 frames above this test's.
    terms = []

    def term(k):
        terms.append(k)
        q = Fraction(1, k + 1)
        rest = ExactReal(Stream(lambda: term(k + 1).digits.force()))
        return affine(q, 0, q, rest, ExactReal(constant(Digit.L)))

    n = 600
    x = term(1)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        iv = x.to_interval(n)
    finally:
        sys.setrecursionlimit(limit)
    assert max(terms) > 100
    # sum_{k=2}^{K} 1/k! <= e - 2 <= that sum + 2/(K+1)!
    low = sum(Fraction(1, math.factorial(k)) for k in range(2, 301))
    assert iv.lo <= low and low + Fraction(2, math.factorial(301)) <= iv.hi


def test_series_through_stream_leaves_over_stream_leaves_runs_on_the_explicit_stack():
    # The series above, with each term's input read through two stream
    # leaves, the outer one over the inner one's digits. Filling the outer
    # leaf fills the inner one in place, and the engine node the inner one
    # waits on is handed back to the loop, so depth still costs no frames.
    terms = []

    def term(k):
        terms.append(k)
        q = Fraction(1, k + 1)
        inner = ExactReal(Stream(lambda: term(k + 1).digits.force()))
        rest = ExactReal(Stream(lambda: inner.digits.force()))
        return affine(q, 0, q, rest, ExactReal(constant(Digit.L)))

    n = 600
    x = term(1)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        iv = x.to_interval(n)
    finally:
        sys.setrecursionlimit(limit)
    assert max(terms) > 100
    low = sum(Fraction(1, math.factorial(k)) for k in range(2, 301))
    assert iv.lo <= low and low + Fraction(2, math.factorial(301)) <= iv.hi


def test_a_productive_self_referential_real():
    # x = R :: R :: avg(x, 0), so x = 3/4 + x/8 = 6/7. The average's node
    # reads x's stream leaf, which reads the average's node: the engine
    # loop meets that node again while it waits lower on the stack, and
    # each activation must resume from the node's saved state.
    zero = from_rational(Fraction(0))

    def self_referential():
        x = ExactReal(Stream(lambda: (Digit.R, cons(Digit.R, average(x, zero).digits))))
        return x

    x = self_referential()
    iv = x.to_interval(2000)
    assert iv.lo <= Fraction(6, 7) <= iv.hi
    # Grown a few digits at a time, it gives the same digits.
    y = self_referential()
    for n in range(1, 2000, 37):
        y.digit_string(n)
    assert y.digit_string(2000) == x.digit_string(2000)


def test_an_engine_node_that_fails_keeps_none_of_its_new_digits():
    # The stream on the right gives 12 digits and then a head of weight 7.
    # The average produces digits from the good ones before it reads the
    # bad head; the error must take back every digit of that activation,
    # so a second and third call fail the same way and never print a
    # digit computed from the bad head.
    good = [Digit[ch] for ch in "RLCRRLCLRCLR"]

    def real():
        return average(from_rational(Fraction(1, 3)), ExactReal(digits_then_constant(good, 7)))

    x = real()
    for _ in range(3):
        with pytest.raises(DomainError):
            x.digit_string(40)
        assert len(x.node.out) == 0
    assert x.digit_string(11) == real().digit_string(11)


def long_division_stream(r):
    """The digits of ``r`` as an ``unfold``, one long-division step per cell."""
    den = r.denominator

    def step(num):
        num *= 2
        return (Digit.L, num) if num <= den else (Digit.R, num - den)

    return unfold(step, r.numerator)


def test_add_asks_for_many_digits_once_its_live_sum_is_at_most_1(monkeypatch):
    # An unchecked add starts with coefficient sum 2 and may emit R without
    # reading, so it asks its children for one digit at a time. Once the
    # live sum a/a' + b/b' + c/c' is at most 1, every step keeps it there
    # and the proven multi-digit bound applies: 1/3 + 1/6 fills its stream
    # leaf in a couple of calls. A sum of exactly 1 never gets there and
    # keeps asking one digit at a time. Either way the digits, and the
    # input digits the leaf buffers, are those of engine_states over
    # memoized streams: the bound never asks for a digit the lazy
    # semantics would not read.
    calls = [0]
    fill = StreamNode.fill

    def counted_fill(self, n):
        calls[0] += 1
        return fill(self, n)

    monkeypatch.setattr(StreamNode, "fill", counted_fill)
    n = 300
    for p, q in ((Fraction(1, 3), Fraction(1, 6)), (Fraction(2, 7), Fraction(5, 7))):
        expected, reads = [], 0
        state = AffineData(1, 1, 1, 1, 0, 1, long_division_stream(p), long_division_stream(q))
        for digit, _ in engine_states(state):
            if digit is None:
                reads += 1
            else:
                expected.append(digit)
                if len(expected) == n:
                    break
        calls[0] = 0
        x = ExactReal(long_division_stream(p))
        z = affine(1, 1, 0, x, from_rational(q), checked=False)
        assert z.digit_string(n) == digits_to_str(expected)
        assert len(x.node.out) == reads
        if p + q < 1:
            assert reads == 301 and calls[0] <= 3
        else:
            assert calls[0] >= reads


def _reader(read, *args):
    """Start ``read(*args)`` on a daemon thread; returns the thread and a
    list that receives the result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(read(*args)), daemon=True)
    thread.start()
    return thread, out


def _results(readers, timeout=60):
    """Each reader's result, or None where it raised.

    A reader still running after ``timeout`` seconds fails the test and is
    left behind: a daemon thread does not keep the run waiting on it, as
    an executor's shutdown would.
    """
    deadline = time.monotonic() + timeout
    for thread, _ in readers:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread, _ in readers), "a reader is still running"
    return [out[0] if out else None for _, out in readers]


def test_threads_expanding_one_real_agree():
    # Every thread grows the same node buffers; with a short switch
    # interval they interleave inside the engine loop unless it is locked.
    def chain():
        x = from_rational(Fraction(1, 3))
        for k in range(40):
            x = affine(Fraction(1, 3), Fraction(1, 3), Fraction(1, 4), x, from_rational(Fraction(k % 7, 7)))
        return x

    lengths = (100, 400, 250, 400, 50, 399, 300, 400)
    expected = chain().digit_string(max(lengths))
    shared = chain()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _results([_reader(shared.digit_string, n) for n in lengths])
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[:n] for n in lengths]


def test_a_second_reader_waits_for_the_first():
    # The first reader stops inside the engine loop, in a stream cell. A
    # second reader of the same real must wait for it: stepping the same
    # node from the same saved state would append its digits twice.
    entered, release = threading.Event(), threading.Event()

    def slow_cell():
        entered.set()
        release.wait(10)
        return Digit.R, rational_stream(Fraction(2, 7))

    def real(cell):
        return average(ExactReal(cons(Digit.L, Stream(cell))), from_rational(Fraction(1, 3)))

    x = real(slow_cell)
    try:
        first = _reader(x.digit_string, 40)
        assert entered.wait(10)
        second = _reader(x.digit_string, 40)
        time.sleep(0.1)
        release.set()
        results = tuple(_results([first, second]))
    finally:
        release.set()
    expected = real(lambda: (Digit.R, rational_stream(Fraction(2, 7)))).digit_string(40)
    assert results == (expected, expected)
    assert len(x.node.out) == 40

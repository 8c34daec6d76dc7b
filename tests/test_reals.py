import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import digits_then_constant, rand_fraction, refine_fold
from lrcreal.digits import UNIT, Digit, prefix_interval, refine
from lrcreal.errors import DomainError
from lrcreal.reals import (
    GREATER,
    LESS,
    ExactReal,
    Indistinguishable,
    affine,
    average,
    compare,
    from_rational,
)
from lrcreal.streams import cons, constant, take


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
        parsed = 0
        for i in range(0, places, 1000):
            parsed = parsed * 10 ** 1000 + int(frac[i:i + 1000])
        assert (int(whole), parsed) == divmod(units, scale)


def test_average_examples():
    avg = average(from_rational(Fraction(1, 3)), from_rational(Fraction(1, 6)))
    assert avg.to_interval(40).contains(Fraction(1, 4))

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


def test_affine_guards():
    x = from_rational(Fraction(1, 3))
    with pytest.raises(DomainError):
        affine(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), x, x)
    with pytest.raises(DomainError):
        affine(Fraction(-1, 2), Fraction(0), Fraction(0), x, x)


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

    # two spellings of 1/2: intervals always share the point 1/2
    lr = ExactReal(cons(Digit.L, constant(Digit.R)))
    rl = ExactReal(cons(Digit.R, constant(Digit.L)))
    assert compare(lr, rl, 20) == Indistinguishable(Fraction(1, 2 ** 20))


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

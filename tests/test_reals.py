import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import digits_then_constant, rand_fraction, rational_stream, read_int, refine_fold
from lrcreal.digits import UNIT, Digit, digits_to_str, prefix_interval, refine
from lrcreal.engine import _FILL_BLOCK, AffineData, RationalNode, StreamNode, demand, engine_states
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
        assert (int(whole), read_int(frac)) == divmod(units, scale)


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

    # two spellings of 1/2: intervals always share the point 1/2
    lr = ExactReal(cons(Digit.L, constant(Digit.R)))
    rl = ExactReal(cons(Digit.R, constant(Digit.L)))
    assert compare(lr, rl, 20) == Indistinguishable(Fraction(1, 2 ** 20))


def test_indistinguishable_repr_at_any_depth():
    x = from_rational(Fraction(1, 3))
    assert repr(compare(x, x, 70)) == "Indistinguishable(resolution=Fraction(1, 1180591620717411303424))"
    # 2**-20000 has a denominator of over 6,000 decimal digits
    text = repr(compare(x, x, 20000))
    prefix, den = text[:-2].split(", ")
    assert (prefix, text[-2:]) == ("Indistinguishable(resolution=Fraction(1", "))")
    assert read_int(den) == 2 ** 20000


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
        return combine(one, one, zero, build_both(recipe[1], engines), build_both(recipe[2], engines), False)
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
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(shared.digit_string, n) for n in lengths]
            results = [f.result(timeout=60) for f in futures]
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
        with ThreadPoolExecutor(2) as pool:
            first = pool.submit(x.digit_string, 40)
            assert entered.wait(10)
            second = pool.submit(x.digit_string, 40)
            time.sleep(0.1)
            release.set()
            results = first.result(timeout=60), second.result(timeout=60)
    finally:
        release.set()
    expected = real(lambda: (Digit.R, rational_stream(Fraction(2, 7)))).digit_string(40)
    assert results == (expected, expected)
    assert len(x.node.out) == 40

"""Node buffers hold digit weights as bytes; ``Digit`` lives only at the API
boundary, in stream views and in the pair-form reference ``engine_states``."""

import collections
import gc
import itertools
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcreal.engine as engine_module
from helpers import DIGITS, prefixed_stream
from lrcreal.digits import Digit, digits_to_str, prefix_interval
from lrcreal.engine import AffineData, EngineNode, NodeStream, StreamNode, engine_states
from lrcreal.errors import DomainError
from lrcreal.reals import ExactReal, affine, average, from_rational
from lrcreal.streams import Stream, cons, constant, from_list, take


def unit_fractions(bound=Fraction(1)):
    """A rational in [0, bound] with a small denominator."""
    return st.integers(1, 12).flatmap(
        lambda den: st.integers(0, int(bound * den)).map(lambda num: Fraction(num, den))
    )


@st.composite
def trees(draw, depth):
    """``(real, exact value, (ca, cb, cc, left, right) or None)``, ``depth``
    engine nodes deep along one spine.

    Leaves are rationals, or stream leaves over a digit prefix and a
    rational tail. ``add`` is the unchecked sum, drawn only where the two
    values sum to at most 1.
    """
    if depth == 0:
        if draw(st.booleans()):
            r = draw(unit_fractions())
            return from_rational(r), r, None
        stream, value = prefixed_stream(draw(st.lists(st.sampled_from(DIGITS), max_size=6)), draw(unit_fractions()))
        return ExactReal(stream), value, None
    x, xv, _ = draw(trees(depth - 1))
    y, yv, _ = draw(trees(draw(st.integers(0, min(2, depth - 1)))))
    if draw(st.booleans()):
        x, xv, y, yv = y, yv, x, xv
    kind = draw(st.sampled_from(("avg", "add", "affine")))
    if kind == "add" and xv + yv <= 1:
        one, zero = Fraction(1), Fraction(0)
        return affine(one, one, zero, x, y, checked=False), xv + yv, (one, one, zero, x, y)
    if kind == "affine":
        ca = draw(unit_fractions())
        cb = draw(unit_fractions(1 - ca))
        cc = draw(unit_fractions(1 - ca - cb))
        return affine(ca, cb, cc, x, y), ca * xv + cb * yv + cc, (ca, cb, cc, x, y)
    half, zero = Fraction(1, 2), Fraction(0)
    return average(x, y), (xv + yv) / 2, (half, half, zero, x, y)


def graph_buffers(node):
    """The buffer of every node ``node`` reads, itself included, once each."""
    seen, todo = set(), [node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node.out
        if isinstance(node, EngineNode):
            todo += [node.left, node.right]
        elif isinstance(node, StreamNode) and isinstance(node.rest, NodeStream):
            todo.append(node.rest.node)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 12).flatmap(trees), st.integers(0, 300))
def test_buffers_hold_weights_and_views_hand_out_digits(tree, n):
    x, value, root = tree
    digits = take(x.digits, n)
    assert all(type(d) is Digit for d in digits)
    assert x.digit_string(n) == digits_to_str(digits)
    assert x.to_interval(n) == prefix_interval(digits)
    assert x.to_interval(n).contains(value)
    for out in graph_buffers(x.node):
        assert type(out) is bytearray
        assert set(out) <= {0, 1, 2}
    if root is not None:
        ca, cb, cc, left, right = root
        state = AffineData(
            ca.numerator, ca.denominator, cb.numerator, cb.denominator, cc.numerator, cc.denominator,
            left.digits, right.digits,
        )
        emitted = (d for d, _ in engine_states(state) if d is not None)
        stepped = list(itertools.islice(emitted, min(n, 12)))
        assert all(type(d) is Digit for d in stepped)
        assert stepped == digits[:len(stepped)]


def test_rational_buffer_costs_a_byte_per_digit():
    # One byte per digit; a list of Digit members would take about 800 kB.
    x = from_rational(Fraction(1, 3))
    assert x.digit_string(100_000).startswith("LRLR")
    assert len(x.node.out) >= 100_000
    assert sys.getsizeof(x.node.out) < 200_000


def test_stray_weights_raise_instead_of_reading_as_digits():
    # Weight 3 is no digit; a lone digit is no digit sequence.
    for ds in (bytes([0, 3]), [Digit.R, 3]):
        with pytest.raises(ValueError):
            prefix_interval(ds)
        with pytest.raises(ValueError):
            digits_to_str(ds)
    with pytest.raises(ValueError):
        prefix_interval([Digit.L, -1])
    with pytest.raises(TypeError):
        prefix_interval(Digit.R)
    with pytest.raises(TypeError):
        digits_to_str(Digit.R)


def test_stream_leaf_rejects_stray_weights():
    # A stream of 7s once read as RRRRRRRR, the interval [15/16, 1].
    with pytest.raises(DomainError, match="got 7$"):
        average(ExactReal(constant(7)), from_rational(Fraction(0))).digit_string(8)
    # The digits before a stray head go through, and the head stays unread.
    x = ExactReal(cons(Digit.R, cons(Digit.C, constant(3))))
    for _ in range(2):
        with pytest.raises(DomainError, match="got 3$"):
            x.digit_string(3)
    assert x.digit_string(2) == "RC"
    with pytest.raises(DomainError, match="got -1"):
        ExactReal(constant(-10 ** 5000)).digit_string(1)
    with pytest.raises(DomainError, match="got 'R'"):
        ExactReal(constant("R")).digit_string(1)
    # 1.0, Fraction(1) and True equal the weight 1 but are no weights; a
    # stream of True once read as CCCC, the interval around 1/2.
    with pytest.raises(DomainError, match=r"got 1\.0$"):
        ExactReal(constant(1.0)).digit_string(1)
    with pytest.raises(DomainError, match=r"got Fraction\(1, 1\)$"):
        ExactReal(constant(Fraction(1))).digit_string(1)
    with pytest.raises(DomainError, match=r"got True$"):
        ExactReal(constant(True)).digit_string(4)
    with pytest.raises(DomainError, match=r"got False$"):
        ExactReal(constant(False)).digit_string(4)


def test_a_digit_stream_that_ends_raises_domain_error():
    # A lazy list is no digit stream, alone or under an engine node.
    for make in (lambda: ExactReal(from_list([Digit.L])),
                 lambda: average(ExactReal(from_list([Digit.L])), from_rational(0))):
        with pytest.raises(DomainError, match="must be a Stream, got LazyList$"):
            make()
    # A Stream whose cell is empty, or whose tail ends, stops at that cell.
    with pytest.raises(DomainError, match=r"must be \(digit, tail\), got \(\)$"):
        ExactReal(Stream(lambda: ())).digit_string(3)
    x = ExactReal(cons(Digit.R, from_list([Digit.C])))
    with pytest.raises(DomainError, match=r"got \(\)$"):
        average(x, from_rational(0)).digit_string(3)
    assert x.digit_string(2) == "RC"


def test_a_stream_tail_that_is_not_a_stream_raises_domain_error():
    # The tail is checked when the leaf reaches it, so the digit before
    # it still reads; an error inside a producer passes through untyped.
    assert ExactReal(Stream(lambda: (Digit.L, 5))).digit_string(1) == "L"
    with pytest.raises(DomainError, match="tail must be a Stream, got 5$"):
        ExactReal(Stream(lambda: (Digit.L, 5))).digit_string(3)
    with pytest.raises(DomainError, match="got 5$"):
        average(ExactReal(Stream(lambda: (Digit.R, 5))), from_rational(0)).digit_string(3)

    def producer():
        return None.force()

    with pytest.raises(AttributeError, match="'NoneType' object has no attribute 'force'"):
        ExactReal(cons(Digit.L, Stream(producer))).digit_string(3)


def test_a_leaf_over_a_view_fills_the_view_node_in_one_activation(monkeypatch):
    # The leaf asks the node behind its view for every digit it needs at
    # once; asking for one more digit at a time gives the same digits in
    # one engine activation per digit.
    activations = []
    run = engine_module._run

    def counting(node, want):
        activations.append(want)
        return run(node, want)

    monkeypatch.setattr(engine_module, "_run", counting)
    x = average(from_rational(Fraction(1, 3)), from_rational(Fraction(2, 7)))
    text = ExactReal(NodeStream(x.node, 1)).digit_string(200)
    assert len(activations) <= 2
    assert text == x.digit_string(201)[1:]


def test_a_held_digit_view_retains_no_cells():
    # A view keeps (node, index), and the node's buffer is the one memo:
    # reading a held view 100,000 digits deep retains about a byte per
    # digit, where a memoized cell per digit retained about 155 bytes.
    n = 100_000
    tracemalloc.start()
    try:
        x = average(from_rational(Fraction(1, 3)), from_rational(Fraction(2, 7)))
        view = x.digits
        before = tracemalloc.get_traced_memory()[0]
        collections.deque(itertools.islice(view, n), maxlen=0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / n < 16
    # The held view still reads from its start, digit for digit.
    assert digits_to_str(take(view, 64)) == x.digit_string(64)

"""Node buffers hold digit weights as bytes; ``Digit`` lives only at the API
boundary, in stream views and in the pair-form reference ``engine_states``."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DIGITS, prefixed_stream
from lrcreal.digits import Digit, digits_to_str, prefix_interval
from lrcreal.engine import AffineData, EngineNode, NodeStream, StreamNode, engine_states
from lrcreal.errors import DomainError
from lrcreal.reals import ExactReal, affine, average, from_rational
from lrcreal.streams import cons, constant, take


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
    # 1.0 and Fraction(1) equal the weight 1 but are no ints.
    with pytest.raises(DomainError, match=r"got 1\.0$"):
        ExactReal(constant(1.0)).digit_string(1)
    with pytest.raises(DomainError, match=r"got Fraction\(1, 1\)$"):
        ExactReal(constant(Fraction(1))).digit_string(1)

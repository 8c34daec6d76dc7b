import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrcreal.digits import Digit
from lrcreal.reals import from_rational
from lrcreal.streams import (
    NIL,
    bisimilar_to_depth,
    cons,
    constant,
    decompose,
    fib_stream,
    from_list,
    head,
    increasing_to_depth,
    lazy_cons,
    local_fib_to_depth,
    map_lazy,
    map_stream,
    tail,
    take,
    unfold,
)


class CountingStep:
    """Pure-per-state step that records how often it was invoked."""

    def __init__(self):
        self.calls = 0

    def __call__(self, n):
        self.calls += 1
        return n, n + 1


def naturals():
    return unfold(lambda n: (n, n + 1), 0)


def test_cons_head_tail():
    assert head(cons(1, constant(1))) == 1
    assert head(tail(cons(0, constant(1)))) == 1
    assert head(tail(tail(naturals()))) == 2


def test_cons_accepts_deferred_tail():
    s = cons(9, lambda: constant(3))
    assert take(s, 3) == [9, 3, 3]


def test_forcing_tail_does_not_force_deeper_cells():
    step = CountingStep()
    s = unfold(step, 0)
    t = tail(s)
    assert step.calls == 1  # only the head cell was forced
    assert head(t) == 1
    assert step.calls == 2


def test_unfold_counting():
    assert take(naturals(), 4) == [0, 1, 2, 3]


def test_unfold_unit_state_ones():
    ones = unfold(lambda _: (1, ()), ())
    assert take(ones, 5) == [1, 1, 1, 1, 1]


def test_unfold_fibonacci_by_pair_state():
    fib = unfold(lambda s: (s[0], (s[1], s[0] + s[1])), (1, 1))
    assert take(fib, 6) == [1, 1, 2, 3, 5, 8]


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-100, 100), st.integers(0, 40))
def test_unfold_matches_iterated_step(a, b, seed, n):
    # independent loop oracle: iterate the step by hand
    step = lambda s: (s, a * s + b)
    expected = []
    state = seed
    for _ in range(n):
        value, state = step(state)
        expected.append(value)
    assert take(unfold(step, seed), n) == expected


def test_take_examples():
    assert take(constant(1), 3) == [1, 1, 1]
    assert take(constant(1), 0) == []
    assert take(fib_stream(1, 1), 6) == [1, 1, 2, 3, 5, 8]
    with pytest.raises(ValueError):
        take(constant(1), -1)


def test_take_forces_exactly_n_cells():
    step = CountingStep()
    s = unfold(step, 0)
    take(s, 5)
    assert step.calls == 5
    take(s, 5)
    assert step.calls == 5  # memoized: no recomputation
    take(s, 6)
    assert step.calls == 6


def test_constant():
    assert take(constant(7), 2) == [7, 7]
    assert head(constant(1)) == 1
    c = constant("x")
    assert bisimilar_to_depth(c, tail(c), 100)


def test_map_stream():
    assert take(map_stream(lambda x: x + 1, constant(1)), 3) == [2, 2, 2]


def test_map_stream_laziness():
    step = CountingStep()
    doubled = map_stream(lambda x: 2 * x, unfold(step, 0))
    assert take(doubled, 3) == [0, 2, 4]
    assert step.calls == 3


@given(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
    st.integers(0, 30),
)
def test_map_fusion(fa, fb, ga, gb, n):
    f = lambda x: fa * x + fb
    g = lambda x: ga * x + gb
    s = naturals()
    assert take(map_stream(f, map_stream(g, s)), n) == take(
        map_stream(lambda x: f(g(x)), s), n
    )


def test_map_lazy():
    l = from_list([1, 2, 3])
    assert list(map_lazy(lambda x: x * 10, l)) == [10, 20, 30]
    assert not map_lazy(lambda x: x, NIL).force()
    with pytest.raises(IndexError, match="head of nil"):
        head(NIL)
    with pytest.raises(IndexError, match="tail of nil"):
        tail(NIL)


@given(st.lists(st.integers(), max_size=30))
def test_map_lazy_identity_is_bisimilar(items):
    l = from_list(items)
    assert bisimilar_to_depth(map_lazy(lambda x: x, l), l, 1000)


def test_map_lazy_identity_on_infinite_list():
    def lones():
        return lazy_cons(1, lones)

    l = lones()
    assert bisimilar_to_depth(map_lazy(lambda x: x, l), l, 1000)


@given(st.lists(st.integers(), max_size=50))
def test_from_list_round_trip(items):
    assert list(from_list(items)) == items


def test_from_list_examples():
    assert list(from_list([1, 2, 3])) == [1, 2, 3]
    assert not from_list([]).force()
    assert len(list(from_list(range(17)))) == 17


def test_decompose_is_bisimilar_to_input():
    rng = random.Random(3)
    for _ in range(20):
        base = rng.randrange(100)
        stride = rng.randrange(1, 10)
        s = unfold(lambda n: (n, n + stride), base)
        assert bisimilar_to_depth(decompose(s), s, 500)


def test_decompose_forces_exactly_the_head():
    step = CountingStep()
    d = decompose(unfold(step, 0))
    assert step.calls == 1
    assert head(d) == 0
    assert head(decompose(constant(1))) == 1


def test_bisimilar_examples():
    s = fib_stream(1, 1)
    assert bisimilar_to_depth(s, s, 50)
    assert not bisimilar_to_depth(constant(1), cons(2, constant(1)), 1)
    assert not bisimilar_to_depth(from_list([1, 2]), from_list([1, 2, 3]), 3)
    assert bisimilar_to_depth(from_list([1, 2]), from_list([1, 2, 3]), 2)
    assert bisimilar_to_depth(constant(0), cons(1, constant(0)), 0)
    with pytest.raises(ValueError, match="n must be >= 0"):
        bisimilar_to_depth(s, s, -1)


def test_bisimilar_rejects_mixed_types():
    with pytest.raises(TypeError):
        bisimilar_to_depth(constant(1), from_list([1]), 1)
    with pytest.raises(TypeError):
        bisimilar_to_depth((), (), 1)


def test_bisimilar_compares_a_real_digit_view_as_a_stream():
    # A real's digits are a Stream subclass, a view of its buffer.
    x = from_rational(Fraction(1, 2))
    assert bisimilar_to_depth(x.digits, cons(Digit.L, constant(Digit.R)), 10)
    assert bisimilar_to_depth(decompose(x.digits), x.digits, 10)
    assert not bisimilar_to_depth(x.digits, constant(Digit.R), 10)
    with pytest.raises(TypeError):
        bisimilar_to_depth(x.digits, from_list([Digit.L]), 1)


def test_fib_stream_examples():
    assert take(fib_stream(1, 1), 6) == [1, 1, 2, 3, 5, 8]
    assert take(fib_stream(0, 1), 5) == [0, 1, 1, 2, 3]
    assert head(fib_stream(4, 9)) == 4


def test_increasing_and_local_fib():
    assert increasing_to_depth(fib_stream(1, 1), 1000)
    assert local_fib_to_depth(fib_stream(1, 1), 1000)
    assert not local_fib_to_depth(constant(1), 2)
    assert increasing_to_depth(constant(5), 100)
    decreasing = unfold(lambda n: (n, n - 1), 0)
    assert not increasing_to_depth(decreasing, 10)
    assert increasing_to_depth(decreasing, 0)
    assert local_fib_to_depth(constant(1), 0)
    for check in (increasing_to_depth, local_fib_to_depth):
        with pytest.raises(ValueError, match="n must be >= 0"):
            check(fib_stream(1, 1), -1)


def test_depth_checks_force_only_the_cells_they_read():
    # Each check stops at its first failing window, and n = 0 reads nothing.
    def recorded_decreasing():
        forced = []

        def step(n):
            forced.append(n)
            return n, n - 1

        return unfold(step, 0), forced

    for check in (increasing_to_depth, local_fib_to_depth):
        s, forced = recorded_decreasing()
        assert check(s, 0)
        assert forced == []
    s, forced = recorded_decreasing()
    assert not increasing_to_depth(s, 10)
    assert forced == [0, -1]
    s, forced = recorded_decreasing()
    assert not local_fib_to_depth(s, 3)
    assert forced == [0, -1, -2]


def test_concurrent_forcing_yields_identical_results():
    s = unfold(lambda n: (n * n, n + 1), 0)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: take(s, 2000), range(8)))
    expected = [n * n for n in range(2000)]
    assert all(r == expected for r in results)

"""The engine loop runs on memoized automata: the same digits, reads and
states as the arithmetic alone, bounded memory, and automata that die
with their last node."""

import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcreal.engine as engine_module
from helpers import DIGITS, cycled_digits, digits_then_constant
from lrcreal.digits import Digit, emit_value
from lrcreal.engine import AffineData, EngineNode, StreamNode, demand, engine_states
from lrcreal.errors import DomainError
from lrcreal.reals import ExactReal, affine, average, from_rational
from lrcreal.streams import Stream

periods = st.lists(st.sampled_from(DIGITS), min_size=1, max_size=7)


def period_value(period):
    """The value of the digit stream that repeats ``period`` forever."""
    once = Fraction(0)
    for d in reversed(period):
        once = emit_value(d, once)
    return once * 2 ** len(period) / (2 ** len(period) - 1)


def fractions(lo, hi, max_den=12):
    """A rational in [lo, hi] with a small denominator."""
    return st.integers(1, max_den).flatmap(
        lambda den: st.integers(-(-lo * den // 1), int(hi * den)).map(lambda num: Fraction(num, den))
    )


def state_of(ca, cb, cc, p1, p2):
    return AffineData(
        ca.numerator, ca.denominator, cb.numerator, cb.denominator, cc.numerator, cc.denominator,
        cycled_digits(p1), cycled_digits(p2),
    )


@st.composite
def checked_states(draw):
    """Coefficients summing to at most 1, over periodic inputs."""
    ca = draw(fractions(0, 1))
    cb = draw(fractions(0, 1 - ca))
    cc = draw(fractions(0, 1 - ca - cb))
    return state_of(ca, cb, cc, draw(periods), draw(periods))


@st.composite
def unchecked_states(draw):
    """Coefficients summing to more than 1: T starts above 1.

    With ``fits`` the inputs start with L, so each is at most 1/2 and the
    value is at most 1; otherwise they start with R, so each is at least
    1/2 and the value exceeds 1.
    """
    fits = draw(st.booleans())
    if fits:
        ca = draw(fractions(Fraction(1, 2), 1))
        cb = draw(fractions(1 - ca + Fraction(1, 12), 1))
        cc = draw(fractions(0, 1 - (ca + cb) / 2))
        lead = Digit.L
    else:
        ca = draw(fractions(1, 2))
        cb = draw(fractions(1, 2))
        cc = draw(fractions(0, 1))
        lead = Digit.R
    p1, p2 = [lead] + draw(periods), [lead] + draw(periods)
    value = ca * period_value(p1) + cb * period_value(p2) + cc
    assert ca + cb + cc > 1 and (value <= 1) == fits
    return state_of(ca, cb, cc, p1, p2)


@st.composite
def wide_states(draw):
    """Denominators near a million, whose states do not repeat: a run of
    200 digits fills its automaton's cap and goes on past it."""
    ca = Fraction(draw(st.integers(100_000, 200_000)), 1_000_003)
    cb = Fraction(draw(st.integers(100_000, 200_000)), 1_000_033)
    cc = Fraction(draw(st.integers(1, 100)), 999_983)
    return state_of(ca, cb, cc, draw(periods), draw(periods))


def reference(x, normalize_steps, n):
    """Per digit of ``engine_states``: (digit, reads before it, state
    after it); and every state of the run, in order."""
    rows, states, reads = [], [], 0
    for digit, state in engine_states(x, normalize_steps):
        states.append(state)
        if digit is None:
            reads += 1
        else:
            rows.append((digit, reads, state))
            if len(rows) == n:
                return rows, states


def total(state):
    """T = (A + B + C)/D of a pair-form state."""
    return Fraction(state.a, state.a_den) + Fraction(state.b, state.b_den) + Fraction(state.c, state.c_den)


def node_of(x):
    return EngineNode(*x.coefficients, StreamNode(x.v1), StreamNode(x.v2))


def assert_same_state(node, state, normalize_steps):
    """The node's four integers are the reference's pairs over one
    denominator: exactly, when the reference normalizes, else as values."""
    A, B, C, D = node.state
    if normalize_steps:
        den = lcm(state.a_den, state.b_den, state.c_den)
        assert node.state == (
            state.a * den // state.a_den, state.b * den // state.b_den, state.c * den // state.c_den, den
        )
        assert gcd(A, B, C, D) == 1
    else:
        assert (Fraction(A, D), Fraction(B, D), Fraction(C, D)) == (
            Fraction(state.a, state.a_den), Fraction(state.b, state.b_den), Fraction(state.c, state.c_den)
        )


def assert_records_sound(automaton):
    """Every record is a reduced state, indexed once, whose links name
    records; a consuming one stores its demand offset when T <= 1 and
    None above; the count stays within the cap."""
    records = automaton.records
    assert len(records) <= engine_module._AUTOMATON_CAP
    for r, record in enumerate(records):
        A, B, C, D = state = record[-1]
        assert gcd(A, B, C, D) == 1
        if record[-2] is None:
            assert record[9] == (engine_module._ceil_log2(A + B, D) if A + B + C <= D else None)
        assert automaton.index[state] == r
        links = record[:1] if record[-2] is not None else record[:9]
        assert all(link is None or 0 <= link < len(records) for link in links)


def run_against_reference(x, normalize_steps, n):
    """A node, which always normalizes, against the reference run in
    either mode."""
    rows, states = reference(x, normalize_steps, n)
    node = node_of(x)
    automaton = node.automaton
    assert automaton is not None
    for k, (_, reads, state) in enumerate(rows, 1):
        demand(node, k)
        assert bytes(node.out) == bytes(d for d, _, _ in rows[:k])
        assert node.read == reads
        assert_same_state(node, state, normalize_steps)
    # Once T <= 1, it stays there.
    reached = [total(state) <= 1 for state in states]
    if True in reached:
        assert all(reached[reached.index(True):])
    assert_records_sound(automaton)
    return node, automaton


@settings(deadline=None, max_examples=60)
@given(st.one_of(checked_states(), unchecked_states()), st.booleans())
def test_node_matches_engine_states_digit_by_digit(x, normalize_steps):
    run_against_reference(x, normalize_steps, 40)


@settings(deadline=None, max_examples=15)
@given(wide_states(), st.booleans())
def test_node_matches_engine_states_past_the_cap(x, normalize_steps):
    node, automaton = run_against_reference(x, normalize_steps, 200)
    assert len(automaton.records) == engine_module._AUTOMATON_CAP
    assert node.automaton is not automaton


@settings(deadline=None, max_examples=40)
@given(checked_states(), periods, periods, st.lists(st.booleans(), min_size=60, max_size=60))
def test_nodes_sharing_an_automaton_match_separate_runs(x, p1, p2, order):
    # Two nodes with equal coefficients over different inputs, demanded in
    # interleaved order, each give what the reference gives alone.
    y = x._replace(v1=cycled_digits(p1), v2=cycled_digits(p2))
    first, second = node_of(x), node_of(y)
    assert first.automaton is second.automaton
    expected = {id(first): reference(x, True, 30)[0], id(second): reference(y, True, 30)[0]}
    for pick in order:
        node = first if pick else second
        rows = expected[id(node)]
        k = min(len(node.out) + 1, len(rows))
        demand(node, k)
        _, reads, state = rows[k - 1]
        assert bytes(node.out) == bytes(d for d, _, _ in rows[:k])
        assert node.read == reads
        assert_same_state(node, state, True)
    assert_records_sound(first.automaton)


def reference_stream(x):
    """The digits ``engine_states`` emits from ``x``, as a memoized stream."""
    digits = (digit for digit, _ in engine_states(x) if digit is not None)

    def cell():
        return next(digits), Stream(cell)

    return Stream(cell)


@settings(deadline=None, max_examples=40)
@given(checked_states(), checked_states())
def test_unchecked_add_resumed_above_1_matches_engine_states(x, y):
    # An unchecked add starts at T = 2, and its children are engine nodes:
    # it blocks on one and resumes from a record with T > 1, which asks for
    # one digit. Its reference reads the children's digits as the
    # reference produces them.
    parent = EngineNode(1, 1, 1, 1, 0, 1, node_of(x), node_of(y))
    rows, _ = reference(AffineData(1, 1, 1, 1, 0, 1, reference_stream(x), reference_stream(y)), True, 40)
    for k, (_, reads, state) in enumerate(rows, 1):
        demand(parent, k)
        assert bytes(parent.out) == bytes(d for d, _, _ in rows[:k])
        assert parent.read == reads
        assert_same_state(parent, state, True)
    assert_records_sound(parent.automaton)


def wide_real(k=0):
    return affine(
        Fraction(123457 + k, 1000003), Fraction(234567, 1000033), Fraction(1, 999983),
        from_rational(Fraction(1, 3)), from_rational(Fraction(2, 7)),
    )


def test_automaton_holds_at_most_the_cap():
    x = wide_real()
    automaton = x.node.automaton
    assert x.digit_string(20_000).startswith("LLCLRCCLRLRCCRLCCRLL")
    assert len(automaton.records) == engine_module._AUTOMATON_CAP
    assert x.node.automaton is not automaton


def test_unchecked_add_above_1_goes_on_in_private_automata():
    # 3/4 + 3/4 of 1 is 3/2: T stays above 1 and the coefficients grow, so
    # no state repeats, and 600 digits fill one automaton after another.
    one = from_rational(1)
    x = affine(Fraction(3, 4), Fraction(3, 4), Fraction(0), one, one, checked=False)
    rows, _ = reference(AffineData(3, 4, 3, 4, 0, 1, one.digits, one.digits), True, 600)
    digits = bytes(d for d, _, _ in rows)
    automata = []
    for k, (_, reads, state) in enumerate(rows, 1):
        demand(x.node, k)
        assert bytes(x.node.out) == digits[:k]
        assert x.node.read == reads
        assert_same_state(x.node, state, True)
        if x.node.automaton not in automata:
            automata.append(x.node.automaton)
    assert len(automata) >= 3
    for automaton in automata:
        assert_records_sound(automaton)
        assert all(record[9] is None for record in automaton.records if record[-2] is None)


def test_a_failed_activation_past_the_cap_resumes_from_its_saved_record():
    # The left input's 1,500th digit has weight 7. With 1,495 of its digits
    # buffered, the wide affine fills its automaton's cap and goes on
    # before it reads the bad digit. The error must leave the node's
    # automaton, record and read index as they were saved together, so a
    # later reader gets the digits of the sound stream.
    rng = random.Random(22)
    good = [rng.choice(DIGITS) for _ in range(1499)]

    def real(tail):
        left = ExactReal(digits_then_constant(good, tail))
        right = from_rational(Fraction(2, 7))
        right.digit_string(2000)
        x = affine(Fraction(123457, 1000003), Fraction(234567, 1000033), Fraction(1, 999983), left, right)
        return x, left

    x, left = real(7)
    x.digit_string(2)
    shared = x.node.automaton
    left.digit_string(1495)
    with pytest.raises(DomainError):
        x.digit_string(1700)
    assert len(shared.records) == engine_module._AUTOMATON_CAP
    third = from_rational(Fraction(1, 3))
    expected = average(third, real(Digit.C)[0]).digit_string(200)
    assert average(third, x).digit_string(200) == expected


def test_last_real_frees_its_automaton_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        leaf = from_rational(Fraction(2, 9))
        x = affine(Fraction(3, 17), Fraction(5, 19), Fraction(1, 23), leaf, average(leaf, leaf))
        x.digit_string(60)
        alive = weakref.ref(x.node.automaton), weakref.ref(x.node.right.automaton)
        assert all(ref() is not None for ref in alive)
        del x
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


def test_equal_coefficients_share_one_automaton_and_the_registry_empties():
    # Counted against what other tests leave alive, so that only this
    # test's nodes decide the outcome.
    gc.collect()
    gc.disable()
    try:
        before = len(engine_module._AUTOMATA)
        third, fifth = from_rational(Fraction(1, 3)), from_rational(Fraction(1, 5))
        one, zero = Fraction(1), Fraction(0)
        reals = [
            average(third, fifth), average(fifth, fifth),
            affine(one, one, zero, third, fifth, checked=False), affine(one, one, zero, fifth, fifth, checked=False),
            affine(Fraction(1, 4), Fraction(1, 2), zero, third, fifth),
            affine(Fraction(2, 8), Fraction(3, 6), zero, fifth, third),
            affine(Fraction(1, 4), Fraction(1, 3), zero, third, fifth),
            wide_real(), wide_real(1),
        ]
        for x in reals:
            x.digit_string(100)
        automata = [x.node.automaton for x in reals]
        assert automata[0] is automata[1]
        assert automata[2] is automata[3]
        assert automata[4] is automata[5]
        distinct = [automata[0], automata[2], automata[4], automata[6], automata[7], automata[8]]
        assert len({id(a) for a in distinct}) == len(distinct)
        assert len(engine_module._AUTOMATA) == before + len(distinct)
        del reals, automata, distinct, x
        assert len(engine_module._AUTOMATA) == before
    finally:
        gc.enable()


def test_threads_building_equal_reals_share_automata_safely():
    # Each thread builds its own chain, so the nodes of all of them share
    # one automaton, created and grown from several threads at once.
    def chain(n):
        x = from_rational(Fraction(1, 3))
        for k in range(30):
            x = affine(Fraction(1, 5), Fraction(2, 5), Fraction(1, 7), x, from_rational(Fraction(k % 5, 5)))
        return x.digit_string(n)

    lengths = (120, 300, 200, 300, 60, 299, 250, 300)
    expected = chain(max(lengths))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(chain, n) for n in lengths]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[:n] for n in lengths]

import itertools
import random
from fractions import Fraction
from math import lcm
from weakref import WeakValueDictionary

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lrcreal.engine as engine_module
from helpers import (
    DIGITS,
    cycled_digits,
    prefixed_stream,
    rand_digit_stream,
    rand_fraction,
    rand_state,
    rand_valued_state,
    rational_stream,
    reference_digits,
)
from lrcreal.digits import Digit, emit_value, prefix_interval
from lrcreal.engine import (
    AffineData,
    Decision,
    EngineNode,
    StreamNode,
    consume,
    decide,
    demand,
    engine_states,
    measure,
    normalize,
    prod_C,
    prod_L,
    prod_R,
    produce_stream,
    production_step,
    state_value,
)
from lrcreal.errors import DomainError
from lrcreal.streams import constant, take

L = constant(Digit.L)


def coeff_state(a, a_den, b, b_den, c, c_den, v1=None, v2=None):
    return AffineData(a, a_den, b, b_den, c, c_den, v1 or L, v2 or L)


def positive_coefficients(x):
    a, a_den, b, b_den, c, c_den = x.coefficients
    return a >= 0 and b >= 0 and c >= 0 and a_den > 0 and b_den > 0 and c_den > 0


def state_bounds(x):
    """Range of the state value over all inputs p, q in [0, 1]."""
    lo = Fraction(x.c, x.c_den)
    hi = Fraction(x.a, x.a_den) + Fraction(x.b, x.b_den) + lo
    return lo, hi


def test_state_value_examples():
    x = coeff_state(1, 2, 1, 2, 0, 1)
    assert state_value(x, Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 4)
    const = coeff_state(0, 1, 0, 1, 1, 2)
    assert state_value(const, Fraction(9, 10), Fraction(1, 7)) == Fraction(1, 2)
    add = coeff_state(1, 1, 1, 1, 0, 1)
    assert state_value(add, Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_decide_examples():
    assert decide(coeff_state(0, 1, 0, 1, 1, 2)) is Decision.EMIT_R
    assert decide(coeff_state(0, 1, 0, 1, 0, 1)) is Decision.EMIT_L
    assert decide(coeff_state(1, 4, 0, 1, 1, 3)) is Decision.EMIT_C
    x = coeff_state(1, 1, 1, 1, 0, 1)
    assert decide(x) is Decision.CONSUME
    assert x.a_den < 8 * x.a


def test_invalid_states_are_rejected():
    with pytest.raises(DomainError):
        coeff_state(-1, 1, 0, 1, 0, 1)
    with pytest.raises(DomainError):
        coeff_state(0, 0, 0, 1, 0, 1)
    with pytest.raises(DomainError):
        coeff_state(0, 1, 0, 1, 1, -2)
    with pytest.raises(DomainError):
        coeff_state(0, 1, 0, 1, 0, 1)._replace(a=-1)


def test_prod_examples():
    assert prod_R(coeff_state(1, 2, 1, 2, 3, 4)).coefficients == (2, 2, 2, 2, 4, 8)
    assert prod_L(coeff_state(0, 1, 0, 1, 1, 4)).coefficients == (0, 1, 0, 1, 4, 8)
    assert prod_C(coeff_state(1, 4, 0, 1, 1, 3)).coefficients == (2, 4, 0, 1, 1, 6)


def test_prod_preconditions():
    with pytest.raises(DomainError):
        prod_R(coeff_state(0, 1, 0, 1, 1, 3))  # c_den > 2c
    with pytest.raises(DomainError):
        prod_C(coeff_state(0, 1, 0, 1, 1, 5))  # c_den > 4c


def test_consume_examples():
    ll = AffineData(1, 1, 1, 1, 0, 1, constant(Digit.L), constant(Digit.L))
    assert consume(ll).coefficients == (1, 2, 1, 2, 0, 4)

    rc = AffineData(1, 1, 0, 1, 0, 1, constant(Digit.R), constant(Digit.C))
    out = consume(rc)
    assert (out.c, out.c_den) == (2, 4)
    assert out.coefficients == (1, 2, 0, 2, 2, 4)

    lr = AffineData(0, 1, 1, 1, 0, 1, constant(Digit.L), constant(Digit.R))
    out = consume(lr)
    assert (out.c, out.c_den) == (2, 4)


def test_consume_advances_both_inputs():
    v1, _ = prefixed_stream([Digit.R, Digit.C], Fraction(1, 3))
    v2, _ = prefixed_stream([Digit.L, Digit.R], Fraction(1, 6))
    x = AffineData(1, 2, 1, 2, 0, 1, v1, v2)
    y = consume(x)
    assert y.v1.force()[0] is Digit.C
    assert y.v2.force()[0] is Digit.R


def test_measure_examples():
    assert measure(coeff_state(1, 1, 1, 1, 0, 1)) == 6
    assert measure(coeff_state(0, 1, 0, 1, 5, 3)) == 0
    assert measure(consume(coeff_state(1, 1, 1, 1, 0, 1))) == 4


def doublings_to_dominate(p, q):
    """Smallest n >= 0 with q * 2**n >= 8p, by counting."""
    n = 0
    while q << n < 8 * p:
        n += 1
    return n


@given(
    st.integers(0, 2**300), st.integers(1, 2**300),
    st.integers(0, 2**300), st.integers(1, 2**300),
)
def test_measure_matches_its_definition(a, a_den, b, b_den):
    x = coeff_state(a, a_den, b, b_den, 0, 1)
    assert measure(x) == doublings_to_dominate(a, a_den) + doublings_to_dominate(b, b_den)


def test_normalize_examples():
    assert normalize(coeff_state(2, 4, 6, 3, 0, 5)).coefficients == (1, 2, 2, 1, 0, 1)
    assert normalize(coeff_state(0, 7, 1, 2, 3, 4)).coefficients == (0, 1, 1, 2, 3, 4)
    already = coeff_state(1, 2, 2, 3, 3, 4)
    assert normalize(already).coefficients == already.coefficients


def test_normalize_preserves_value_and_decision():
    rng = random.Random(23)
    for _ in range(500):
        x, p, q = rand_valued_state(rng)
        y = normalize(x)
        assert state_value(y, p, q) == state_value(x, p, q)
        assert decide(y) is decide(x)


def test_produce_stream_constant_half():
    x = coeff_state(0, 1, 0, 1, 1, 2)
    digits = take(produce_stream(x), 6)
    assert digits == [Digit.R, Digit.L, Digit.L, Digit.L, Digit.L, Digit.L]


def test_produce_stream_quarter_and_half():
    quarter = AffineData(
        1, 2, 1, 2, 0, 1,
        rational_stream(Fraction(1, 3)), rational_stream(Fraction(1, 6)),
    )
    iv = prefix_interval(take(produce_stream(quarter), 40))
    assert iv.contains(Fraction(1, 4))

    half = AffineData(
        1, 1, 1, 1, 0, 1,
        rational_stream(Fraction(1, 3)), rational_stream(Fraction(1, 6)),
    )
    iv = prefix_interval(take(produce_stream(half), 40))
    assert iv.contains(Fraction(1, 2))


def test_sign_preservation():
    rng = random.Random(31)
    for _ in range(10_000):
        x = rand_state(rng)
        assert positive_coefficients(normalize(x))
        assert positive_coefficients(consume(x))
        assert positive_coefficients(prod_L(x))
        if x.c_den <= 2 * x.c:
            assert positive_coefficients(prod_R(x))
        if x.c_den <= 4 * x.c:
            assert positive_coefficients(prod_C(x))


def test_production_value_laws():
    rng = random.Random(37)
    for _ in range(800):
        x, p, q = rand_valued_state(rng)
        v = state_value(x, p, q)
        assert state_value(prod_L(x), p, q) == 2 * v

        # rebuild the constant pair so each producer's precondition holds
        c_den = rng.randint(1, 40)
        r_ok = x.with_coefficients(
            x.a, x.a_den, x.b, x.b_den, rng.randint((c_den + 1) // 2, 3 * c_den), c_den
        )
        vr = state_value(r_ok, p, q)
        assert state_value(prod_R(r_ok), p, q) == 2 * vr - 1

        c_ok = x.with_coefficients(
            x.a, x.a_den, x.b, x.b_den, rng.randint((c_den + 3) // 4, 3 * c_den), c_den
        )
        vc = state_value(c_ok, p, q)
        assert state_value(prod_C(c_ok), p, q) == 2 * vc - Fraction(1, 2)


def test_consume_composition_law_all_nine_pairs():
    rng = random.Random(41)
    for d1, d2 in itertools.product(DIGITS, DIGITS):
        for _ in range(60):
            p_tail = rand_fraction(rng)
            q_tail = rand_fraction(rng)
            v1, p = prefixed_stream([d1], p_tail)
            v2, q = prefixed_stream([d2], q_tail)
            x = AffineData(
                rng.randint(0, 30), rng.randint(1, 30),
                rng.randint(0, 30), rng.randint(1, 30),
                rng.randint(0, 30), rng.randint(1, 30),
                v1, v2,
            )
            assert state_value(consume(x), p_tail, q_tail) == state_value(x, p, q)


def test_decision_soundness():
    rng = random.Random(43)
    seen = {d: 0 for d in Decision}
    for _ in range(5000):
        x = rand_state(rng)
        lo, hi = state_bounds(x)
        d = decide(x)
        seen[d] += 1
        if d is Decision.EMIT_R:
            assert lo >= Fraction(1, 2)
        elif d is Decision.EMIT_L:
            assert hi <= Fraction(1, 2)
        elif d is Decision.EMIT_C:
            assert lo >= Fraction(1, 4) and hi <= Fraction(3, 4)
    assert all(seen[d] > 0 for d in Decision)


def test_measure_contract():
    rng = random.Random(47)
    for _ in range(10_000):
        x = rand_state(rng)
        d = decide(x)
        if d is Decision.CONSUME:
            assert x.a_den < 8 * x.a or x.b_den < 8 * x.b
            assert measure(x) > 0
            assert measure(consume(x)) < measure(x)
        if measure(x) == 0:
            assert d is not Decision.CONSUME


def test_consume_runs_bounded_by_measure():
    rng = random.Random(53)
    for _ in range(300):
        x = rand_state(rng)
        bound = measure(x)
        run = 0
        while decide(x) is Decision.CONSUME:
            x = normalize(consume(x))
            run += 1
            assert run <= bound


def test_scale_invariance_of_produced_digits():
    # The reference runs with per-step normalization off, so the scaled
    # state really does evolve with distinct coefficients the whole way;
    # a node, which always normalizes, gives the same digits.
    rng = random.Random(59)
    for _ in range(100):
        x = rand_state(rng)
        scaled = x.with_coefficients(
            x.a * 3, x.a_den * 3, x.b * 7, x.b_den * 7, x.c * 5, x.c_den * 5
        )
        assert decide(scaled) is decide(x)
        digits = reference_digits(x, 200, normalize_steps=False)
        assert reference_digits(scaled, 200, normalize_steps=False) == digits
        assert take(produce_stream(scaled), 200) == digits


def test_productivity_is_unconditional():
    # states denoting values far outside [0, 1] still yield every prefix
    rng = random.Random(61)
    huge = coeff_state(500, 1, 321, 2, 77, 3, rand_digit_stream(rng), rand_digit_stream(rng))
    assert len(take(produce_stream(huge), 300)) == 300
    tiny = coeff_state(0, 997, 1, 991, 0, 1, rand_digit_stream(rng), rand_digit_stream(rng))
    assert len(take(produce_stream(tiny), 300)) == 300


def test_production_step_emits_and_advances():
    x = coeff_state(0, 1, 0, 1, 1, 2)
    digit, nxt = production_step(x)
    assert digit is Digit.R
    assert (nxt.c, nxt.c_den) == (0, 1)
    node = EngineNode(*x.coefficients, StreamNode(x.v1), StreamNode(x.v2))
    demand(node, 1)
    assert node.out == bytes([Digit.R]) and node.state == (0, 0, 0, 1)


def test_reference_and_loop_reject_stray_heads():
    # The pair-form reference checks the heads it reads as a stream leaf does.
    for head in (3, 1.0, True):
        x = AffineData(1, 1, 1, 1, 0, 1, constant(head), L)
        for step in (consume, production_step):
            with pytest.raises(DomainError, match="weight 0, 1 or 2"):
                step(x)
        with pytest.raises(DomainError, match="weight 0, 1 or 2"):
            demand(EngineNode(*x.coefficients, StreamNode(x.v1), StreamNode(x.v2)), 1)


def test_engine_states_reports_consumes_and_emits():
    x = AffineData(
        1, 1, 1, 1, 0, 1,
        rational_stream(Fraction(1, 3)), rational_stream(Fraction(1, 6)),
    )
    events = []
    for emitted, state in engine_states(x):
        assert isinstance(state, AffineData)
        events.append(emitted)
        if len(events) == 5:
            break
    assert events == [None, None, Digit.C, None, Digit.C]


@st.composite
def in_range_states(draw):
    """A state whose value is in [0, 1] for all inputs, over periodic
    inputs that both carry C digits."""
    a_den = draw(st.integers(1, 60))
    a = draw(st.integers(0, a_den))
    b_den = draw(st.integers(1, 60))
    b = draw(st.integers(0, b_den * (a_den - a) // a_den))
    c_den = draw(st.integers(1, 60))
    c = draw(st.integers(0, int((1 - Fraction(a, a_den) - Fraction(b, b_den)) * c_den)))
    periods = st.lists(st.sampled_from(DIGITS), max_size=7)
    v1 = cycled_digits(draw(periods) + [Digit.C])
    v2 = cycled_digits([Digit.C] + draw(periods))
    return AffineData(a, a_den, b, b_den, c, c_den, v1, v2)


def pair_values(x):
    return Fraction(x.a, x.a_den), Fraction(x.b, x.b_den), Fraction(x.c, x.c_den)


@given(in_range_states(), st.booleans())
def test_production_step_matches_engine_states(x, normalize_steps):
    # ``production_step`` is the reference's first emission, so stepping it
    # digit by digit must give one reference run, tails included, with or
    # without the reference's per-step normalization. One node runs
    # alongside, so the loop's raw four integers are seen after every
    # digit. They denote the reference's pairs, and against normalized
    # pairs they are exactly the reduced pairs over the least common
    # multiple of their denominators, which holds exactly when the four
    # have gcd 1: the power-of-two strip reduces fully. Unnormalized pairs
    # depend on the representation, so only their values are compared.
    node = EngineNode(*x.coefficients, StreamNode(x.v1), StreamNode(x.v2))
    emitted = ((d, state) for d, state in engine_states(x, normalize_steps) if d is not None)
    for k, (expected, state) in enumerate(itertools.islice(emitted, 40), 1):
        digit, x = production_step(x, normalize_steps)
        demand(node, k)
        assert digit is expected and node.out[-1] == expected
        assert x.v1 is state.v1 and x.v2 is state.v2
        A, B, C, D = node.state
        assert (Fraction(A, D), Fraction(B, D), Fraction(C, D)) == pair_values(state)
        if normalize_steps:
            assert x.coefficients == state.coefficients
            den = lcm(state.a_den, state.b_den, state.c_den)
            assert node.state == (
                state.a * den // state.a_den, state.b * den // state.b_den, state.c * den // state.c_den, den
            )
        else:
            assert pair_values(x) == pair_values(state)


def test_production_step_checks_states_inside_a_consumption_run(monkeypatch):
    # The first consumption from c = 0 leaves c negative; the second (two R
    # inputs) makes it positive again, and the digit after it (C) yields a
    # valid state. Only the check on the state between them can object:
    # ``AffineData`` in the reference, with and without normalization, and
    # ``C >= 0`` in the engine loop.
    carry = engine_module._carry

    def negative_from_zero(d1, d2, A, B, C):
        if C == 0:
            return -1
        return carry(d1, d2, A, B, C)

    monkeypatch.setattr(engine_module, "_carry", negative_from_zero)
    # Automata cache the steps they took, so the patched nodes get fresh ones.
    monkeypatch.setattr(engine_module, "_AUTOMATA", WeakValueDictionary())
    x = AffineData(1, 1, 1, 1, 0, 1, constant(Digit.R), constant(Digit.R))
    for normalize_steps in (True, False):
        with pytest.raises(DomainError):
            production_step(x, normalize_steps)
        with pytest.raises(DomainError):
            next(engine_states(x, normalize_steps))
    node = EngineNode(*x.coefficients, StreamNode(x.v1), StreamNode(x.v2))
    with pytest.raises(DomainError, match="non-negative"):
        demand(node, 1)
    assert len(node.out) == 0

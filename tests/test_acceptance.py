"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance (exactness, counts, depths, wall-clock bounds) is pinned
here; nothing is deferred to later calibration.
"""

import functools
import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import (
    DIGITS,
    prefixed_stream,
    rand_digit_stream,
    rand_fraction,
    rand_state,
    rational_stream,
    reference_digits,
)
from lrcreal.digits import Digit, Interval, prefix_interval, str_to_digits
from lrcreal.engine import (
    AffineData,
    Decision,
    consume,
    decide,
    engine_states,
    measure,
    normalize,
    prod_C,
    prod_L,
    prod_R,
    produce_stream,
    state_value,
)
from lrcreal.reals import affine, average, from_rational
from lrcreal.streams import (
    bisimilar_to_depth,
    decompose,
    fib_stream,
    from_list,
    increasing_to_depth,
    lazy_cons,
    local_fib_to_depth,
    map_lazy,
    take,
    unfold,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                extra = fn()
            except BaseException:
                print("criterion %2d FAIL  %s" % (number, title))
                raise
            line = "criterion %2d PASS  %s" % (number, title)
            if extra:
                line += "  [%s]" % extra
            print(line)

        return wrapper

    return decorate


def timed(budget_seconds, work):
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, "took %.3fs, budget %.3fs" % (elapsed, budget_seconds)
    return result


@criterion(1, "three digit spellings of [1/4, 3/8]")
def test_interval_spellings():
    expected = Interval(Fraction(1, 4), Fraction(3, 8))

    def work():
        return [prefix_interval(str_to_digits(s)) for s in ("LCR", "LRL", "CLL")]

    for iv in timed(0.001, work):
        assert iv == expected


@criterion(2, "interval width is exactly 2**-length, 1000 random digit lists")
def test_width_law():
    rng = random.Random(101)

    def work():
        for _ in range(1000):
            ds = [rng.choice(DIGITS) for _ in range(rng.randint(0, 64))]
            assert prefix_interval(ds).width == Fraction(1, 2 ** len(ds))

    timed(1.0, work)


@criterion(3, "rational streams contain their value at every depth <= 64")
def test_rational_stream_soundness():
    rng = random.Random(103)

    def work():
        from lrcreal.digits import refine, UNIT

        for _ in range(1000):
            b = rng.randint(1, 10 ** 6)
            r = Fraction(rng.randint(0, b), b)
            iv = UNIT
            digits = iter(from_rational(r).digits)
            for _depth in range(64):
                iv = refine(iv, next(digits))
                assert iv.contains(r)

    timed(10.0, work)


@criterion(4, "known expansions: 1/3, 1/6, 1, 0 (first 64 digits)")
def test_known_expansions():
    assert from_rational(Fraction(1, 3)).digit_string(64) == "LR" * 32
    assert from_rational(Fraction(1, 6)).digit_string(64) == "LL" + "RL" * 31
    assert from_rational(Fraction(1)).digit_string(64) == "R" * 64
    assert from_rational(Fraction(0)).digit_string(64) == "L" * 64


@criterion(5, "production and consumption value laws, 2000 random states")
def test_value_laws():
    rng = random.Random(107)

    def work():
        pair_cycle = itertools.cycle(itertools.product(DIGITS, DIGITS))
        for _ in range(2000):
            p = rand_fraction(rng)
            q = rand_fraction(rng)
            a, a_den = rng.randint(0, 50), rng.randint(1, 50)
            b, b_den = rng.randint(0, 50), rng.randint(1, 50)
            c_den = rng.randint(1, 50)
            base = AffineData(
                a, a_den, b, b_den, rng.randint(0, 50), c_den,
                rational_stream(p), rational_stream(q),
            )
            v = state_value(base, p, q)
            assert state_value(prod_L(base), p, q) == 2 * v

            for_r = base.with_coefficients(
                a, a_den, b, b_den, rng.randint((c_den + 1) // 2, 2 * c_den), c_den
            )
            assert state_value(prod_R(for_r), p, q) == 2 * state_value(for_r, p, q) - 1

            for_c = base.with_coefficients(
                a, a_den, b, b_den, rng.randint((c_den + 3) // 4, 2 * c_den), c_den
            )
            assert (
                state_value(prod_C(for_c), p, q)
                == 2 * state_value(for_c, p, q) - Fraction(1, 2)
            )

            # consumption: one digit pair per state; the cycle covers all
            # nine pairs over and over across the 2000 states
            d1, d2 = next(pair_cycle)
            v1, pv = prefixed_stream([d1], p)
            v2, qv = prefixed_stream([d2], q)
            consuming = AffineData(a, a_den, b, b_den, base.c, c_den, v1, v2)
            assert state_value(consume(consuming), p, q) == state_value(consuming, pv, qv)

    timed(30.0, work)


@criterion(6, "decision and measure contract, 10000 random states")
def test_decision_measure_contract():
    rng = random.Random(109)

    def work():
        for _ in range(10_000):
            x = rand_state(rng)
            d = decide(x)
            if d is Decision.CONSUME:
                assert x.a_den < 8 * x.a or x.b_den < 8 * x.b
                assert measure(x) > 0
                assert measure(consume(x)) < measure(x)
            if measure(x) == 0:
                assert d is not Decision.CONSUME

    timed(10.0, work)


@criterion(7, "500 checked affine combinations land in the depth-40 interval")
def test_end_to_end_affine_soundness():
    rng = random.Random(113)

    def work():
        for _ in range(500):
            ca = Fraction(rng.randint(0, 16), 16)
            cb = Fraction(rng.randint(0, int((1 - ca) * 16)), 16)
            cc = Fraction(rng.randint(0, int((1 - ca - cb) * 16)), 16)
            p = rand_fraction(rng)
            q = rand_fraction(rng)
            z = affine(ca, cb, cc, from_rational(p), from_rational(q))
            assert z.to_interval(40).contains(ca * p + cb * q + cc)

    timed(60.0, work)


@criterion(8, "1/3 + 1/6: every interval through depth 40 contains 1/2")
def test_sum_walk_through():
    z = affine(
        Fraction(1), Fraction(1), Fraction(0),
        from_rational(Fraction(1, 3)), from_rational(Fraction(1, 6)),
        checked=False,
    )
    digits = take(z.digits, 40)
    iv = prefix_interval([])
    from lrcreal.digits import refine

    for d in digits:
        iv = refine(iv, d)
        assert iv.contains(Fraction(1, 2))
    # recorded, not required: whether the spelling is the all-C one
    spelling = "".join(str(d) for d in digits)
    return "observed digits: %s%s" % (
        spelling[:16] + "...", " (all C)" if set(spelling) == {"C"} else ""
    )


@criterion(9, "decompose and map-identity are bisimilar to depth 1000")
def test_decompose_and_map_identity_depth_1000():
    rng = random.Random(127)
    for _ in range(100):
        period = [rng.randrange(1000) for _ in range(rng.randint(1, 12))]
        s = unfold(lambda i: (period[i % len(period)], i + 1), 0)
        assert bisimilar_to_depth(decompose(s), s, 1000)

    for _ in range(100):
        if rng.random() < 0.5:
            l = from_list([rng.randrange(1000) for _ in range(rng.randint(0, 1200))])
        else:
            step = rng.randint(1, 9)

            def infinite(n):
                return lazy_cons(n, lambda: infinite(n + step))

            l = infinite(rng.randrange(100))
        assert bisimilar_to_depth(map_lazy(lambda v: v, l), l, 1000)


@criterion(10, "Fibonacci stream exercises at depth 1000")
def test_exercises():
    def work():
        s = fib_stream(1, 1)
        assert take(s, 10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert increasing_to_depth(s, 1000)
        assert local_fib_to_depth(s, 1000)

    timed(1.0, work)


@criterion(11, "normalization changes nothing but keeps coefficients small")
def test_normalization_transparency():
    rng = random.Random(131)
    for _ in range(100):
        x = rand_state(rng)
        # Nodes always normalize; the reference can run without it.
        with_norm = take(produce_stream(x), 200)
        without = reference_digits(x, 200, normalize_steps=False)
        assert with_norm == without

    def fresh_average_state():
        return AffineData(
            1, 2, 1, 2, 0, 1,
            rational_stream(Fraction(1, 3)), rational_stream(Fraction(1, 6)),
        )

    max_bits = 0
    produced = 0
    for emitted, state in engine_states(fresh_average_state()):
        max_bits = max(max_bits, *(c.bit_length() for c in state.coefficients))
        if emitted is not None:
            produced += 1
            if produced == 1000:
                break
    assert max_bits < 64

    timed(1.0, lambda: take(produce_stream(fresh_average_state()), 1000))
    return "max coefficient bits: %d" % max_bits


@criterion(12, "CLI end to end: eval, error exits, selftest")
def test_cli_integration():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "lrcreal", *args], capture_output=True, text=True
        )

    done = run("eval", "1/3", "--digits", "6")
    assert done.returncode == 0 and done.stdout == "LRLRLR\n"

    assert run("eval", "avg(1/3").returncode == 1
    assert run("eval", "3/2").returncode == 2

    done = run("selftest", "--cases", "100", "--depth", "40", "--seed", "42")
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "100/100 passed"

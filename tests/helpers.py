"""Shared generators for randomized tests: rational-backed digit streams
and random engine states with exactly known values."""

import itertools
import random
from fractions import Fraction

from lrcreal.digits import UNIT, Digit, Interval, emit_value, refine
from lrcreal.engine import AffineData, engine_states
from lrcreal.reals import from_rational
from lrcreal.streams import Stream, cons, constant, unfold

DIGITS = (Digit.L, Digit.R, Digit.C)


def read_int(text: str) -> int:
    """``int(text)`` read in chunks of 1000 digits, so past Python's
    4300-digit int-to-text limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def rand_fraction(rng: random.Random, max_den: int = 1000) -> Fraction:
    """Uniform-ish rational in [0, 1]."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rational_stream(r: Fraction) -> Stream:
    """Digit stream of a rational in [0, 1]."""
    return from_rational(r).digits


def prefixed_stream(prefix, tail_value: Fraction):
    """Stream starting with ``prefix`` digits, then a rational tail.

    Returns (stream, exact value): the value is the emit fold of the
    prefix over the tail value, computed right to left.
    """
    stream = rational_stream(tail_value)
    value = tail_value
    for d in reversed(list(prefix)):
        stream = cons(d, stream)
        value = emit_value(d, value)
    return stream, value


def refine_fold(ds) -> Interval:
    """The spec-level prefix interval: ``refine`` folded from ``UNIT``."""
    iv = UNIT
    for d in ds:
        iv = refine(iv, d)
    return iv


def digits_then_constant(ds, tail: Digit) -> Stream:
    """Stream of the digits ``ds`` followed by ``tail`` forever."""
    stream = constant(tail)
    for d in reversed(ds):
        stream = cons(d, stream)
    return stream


def cycled_digits(digit_list) -> Stream:
    """Infinite periodic digit stream; the step is pure over an index."""
    period = tuple(digit_list)
    return unfold(lambda i: (period[i], (i + 1) % len(period)), 0)


def rand_digit_stream(rng: random.Random, period_len: int = 8) -> Stream:
    return cycled_digits([rng.choice(DIGITS) for _ in range(period_len)])


def rand_state(rng: random.Random, max_coeff: int = 60) -> AffineData:
    """Random positive-coefficient state over random periodic inputs."""
    return AffineData(
        rng.randint(0, max_coeff), rng.randint(1, max_coeff),
        rng.randint(0, max_coeff), rng.randint(1, max_coeff),
        rng.randint(0, max_coeff), rng.randint(1, max_coeff),
        rand_digit_stream(rng), rand_digit_stream(rng),
    )


def reference_digits(x: AffineData, n: int, normalize_steps: bool) -> list:
    """The first ``n`` digits ``engine_states`` emits from ``x``."""
    emitted = (digit for digit, _ in engine_states(x, normalize_steps) if digit is not None)
    return list(itertools.islice(emitted, n))


def rand_valued_state(rng: random.Random, max_coeff: int = 40):
    """Random state over rational-backed inputs, plus its exact value."""
    p = rand_fraction(rng)
    q = rand_fraction(rng)
    x = AffineData(
        rng.randint(0, max_coeff), rng.randint(1, max_coeff),
        rng.randint(0, max_coeff), rng.randint(1, max_coeff),
        rng.randint(0, max_coeff), rng.randint(1, max_coeff),
        rational_stream(p), rational_stream(q),
    )
    return x, p, q

"""Shared generators for randomized tests: rational-backed digit streams
and random engine states with exactly known values."""

import itertools
import random
from fractions import Fraction

from lrcreal.cli import Add, Affine, Avg, Expr, RatLit
from lrcreal.digits import UNIT, Digit, Interval, _fraction_text, _text_int, emit_value, refine
from lrcreal.engine import AffineData, engine_states
from lrcreal.errors import DomainError, ExprParseError
from lrcreal.reals import from_rational
from lrcreal.streams import Stream, cons, constant, unfold

DIGITS = (Digit.L, Digit.R, Digit.C)


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


# The parser ``lrcreal.cli.parse_expr`` replaced: one character at a time,
# kept verbatim as the reference its errors and results are checked against.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _found(self) -> str:
        if self.pos >= len(self.text):
            return "end of input"
        return repr(self.text[self.pos])

    def _fail(self, expected: str):
        raise ExprParseError(self.pos + 1, expected, self._found())

    def _expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self._fail("'%s'" % ch)
        self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _integer(self) -> int:
        self._skip_ws()
        negative = self._peek() == "-"
        if negative:
            self.pos += 1
        start = self.pos
        if not self._peek().isdecimal():
            self._fail("an integer")
        while self._peek().isdecimal():
            self.pos += 1
        value = _text_int(self.text[start:self.pos])
        return -value if negative else value

    def _rational(self) -> Fraction:
        num = self._integer()
        self._skip_ws()
        if self._peek() == "/":
            self.pos += 1
            den = self._integer()
            if den == 0:
                raise DomainError("rational with zero denominator: %s/0" % _fraction_text(Fraction(num)))
            return Fraction(num, den)
        return Fraction(num)

    def _identifier(self) -> str:
        start = self.pos
        while self._peek().isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def _call(self, name: str) -> list:
        """An open call after its name: ``[type, coefficients, operands]``.

        Consumes "(" and, for affine, the coefficients and ";".
        """
        self._expect("(")
        if name == "avg":
            return [Avg, (), []]
        if name == "add":
            return [Add, (), []]
        ca = self._rational()
        self._expect(",")
        cb = self._rational()
        self._expect(",")
        cc = self._rational()
        self._expect(";")
        return [Affine, (ca, cb, cc), []]

    def parse(self) -> Expr:
        """The whole text as one expression, with an explicit stack of open calls."""
        calls = []
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch.isalpha():
                at = self.pos
                name = self._identifier()
                if name not in ("avg", "add", "affine"):
                    self.pos = at
                    self._fail("'avg', 'add' or 'affine'")
                calls.append(self._call(name))
                continue
            if not (ch.isdecimal() or ch == "-"):
                self._fail("a rational literal, 'avg', 'add' or 'affine'")
            value = self._rational()
            if value < 0 or value > 1:
                raise DomainError("literal %s outside [0, 1]" % _fraction_text(value))
            e = RatLit(value)
            # Close every call this operand completes.
            while calls:
                kind, coefficients, operands = calls[-1]
                operands.append(e)
                if len(operands) == 1:
                    self._expect(",")
                    break
                self._expect(")")
                calls.pop()
                e = kind(*coefficients, *operands)
            else:
                self._skip_ws()
                if self.pos != len(self.text):
                    self._fail("end of input")
                return e


def reference_parse(text: str) -> Expr:
    """``parse_expr`` by the reference parser."""
    return _Parser(text).parse()

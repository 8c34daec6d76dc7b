"""The L/R/C interval digit alphabet and its semantics.

A digit picks a half-width sub-interval of the current interval: L the
left half, R the right half, C the centered half. Reading a digit string
left to right therefore pins a number into a nested chain of intervals
whose width halves at every step. The same value usually has several
spellings (1/2 is LRRR..., RLLL... and CCCC...); that redundancy is what
makes arithmetic on these streams computable.
"""

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, List, Tuple

from .streams import Stream, take

__all__ = [
    "Digit",
    "Interval",
    "UNIT",
    "refine",
    "prefix_interval",
    "emit_value",
    "bits_to_value",
    "bit_to_digit",
    "represents_to_depth",
    "digits_to_str",
    "str_to_digits",
]


class Digit(IntEnum):
    """A digit; its value is its weight k: it selects [k/4, k/4 + 1/2] of [0, 1].

    The engine's formulas and the interval numerators use the digit as
    this integer. Its text form is the letter.
    """

    L = 0
    C = 1
    R = 2

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order: %s > %s" % (self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, r: Fraction) -> bool:
        return self.lo <= r <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def disjoint_from(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def __str__(self):
        return "[%s, %s]" % (self.lo, self.hi)


UNIT = Interval(Fraction(0), Fraction(1))

#: Digit letter to the high and the low bit of its weight, as "0"/"1".
_HIGH_BIT = str.maketrans({d.name: str(d >> 1) for d in Digit})
_LOW_BIT = str.maketrans({d.name: str(d & 1) for d in Digit})


def refine(iv: Interval, d: Digit) -> Interval:
    """The sub-interval of ``iv`` selected by ``d``; exactly half as wide."""
    lo, hi = iv.lo, iv.hi
    if d is Digit.L:
        return Interval(lo, (lo + hi) / 2)
    if d is Digit.R:
        return Interval((lo + hi) / 2, hi)
    quarter = (hi - lo) / 4
    return Interval(lo + quarter, lo + 3 * quarter)


def _left_end(ds: Iterable[Digit]) -> Tuple[int, int]:
    """``(m, n)`` such that the n digits ``ds`` pin [m, m + 2] / 2**(n + 1).

    Refining [m, m + 2] / 2**(n + 1) by digit d gives
    [2m + k(d), 2m + k(d) + 2] / 2**(n + 2), so m starts at 0 (the empty
    prefix, [0, 1]) and each digit maps m to 2m + k(d). Unrolled, m is
    the sum of k(d_i) * 2**(n - i); splitting each weight into its two
    bits makes that 2 * high + low for two n-bit binary numerals, which
    ``int`` parses in time linear in n.
    """
    text = digits_to_str(ds)
    if not text:
        return 0, 0
    return 2 * int(text.translate(_HIGH_BIT), 2) + int(text.translate(_LOW_BIT), 2), len(text)


def prefix_interval(ds: Iterable[Digit]) -> Interval:
    """The interval the digits pin, read left to right from [0, 1].

    Equal to folding ``refine`` over the digits starting from ``UNIT``:
    an empty prefix denotes [0, 1] itself, and a prefix of n digits is
    the dyadic interval [m, m + 2] / 2**(n + 1), of width exactly 2**-n.
    m is found with integer work linear in n, and the endpoints become
    ``Fraction`` only on return.
    """
    m, n = _left_end(ds)
    den = 2 ** (n + 1)
    return Interval(Fraction(m, den), Fraction(m + 2, den))


def emit_value(d: Digit, r: Fraction) -> Fraction:
    """Value of a stream starting with ``d`` whose tail denotes ``r``.

    L maps r to r/2, R to (r+1)/2, C to (2r+1)/4.
    """
    if d is Digit.L:
        return r / 2
    if d is Digit.R:
        return (r + 1) / 2
    return (2 * r + 1) / 4


def bits_to_value(bits: Iterable[bool]) -> Fraction:
    """The binary fraction 0.b1b2... as an exact rational."""
    value = Fraction(0)
    for b in reversed(list(bits)):
        value = (1 + value) / 2 if b else value / 2
    return value


def bit_to_digit(b: bool) -> Digit:
    """Inject a binary digit: the 1 bit selects the right half, 0 the left.

    This keeps ``bits_to_value(bits)`` inside
    ``prefix_interval(map(bit_to_digit, bits))`` for every finite prefix.
    """
    return Digit.R if b else Digit.L


def represents_to_depth(s: Stream, r: Fraction, n: int) -> bool:
    """Does ``r`` lie in the depth-``n`` prefix interval of ``s``?

    Closed-interval membership: endpoint hits count. A finite check only;
    it cannot certify the full infinite representation.
    """
    if n < 0:
        raise ValueError("represents_to_depth: n must be >= 0")
    return prefix_interval(take(s, n)).contains(r)


def digits_to_str(ds: Iterable[Digit]) -> str:
    return "".join(map("LCR".__getitem__, ds))


def str_to_digits(text: str) -> List[Digit]:
    """Parse a digit string like "LCR". Raises ValueError on other letters."""
    try:
        return [Digit[ch] for ch in text]
    except KeyError as err:
        raise ValueError("not a digit letter: %s" % err) from None

"""The L/R/C interval digit alphabet and its semantics.

A digit picks a half-width sub-interval of the current interval: L the
left half, R the right half, C the centered half. Reading a digit string
left to right therefore pins a number into a nested chain of intervals
whose width halves at every step. The same value usually has several
spellings (1/2 is LRRR..., RLLL... and CCCC...); that redundancy is what
makes arithmetic on these streams computable.

A digit is its weight k (L = 0, C = 1, R = 2) and means one map: a tail
value t goes to t/2 + k/4. ``_weight`` is the one check of a digit, for
every function here and for the engine, and ``refine`` and ``emit_value``
are that map written for an interval and for a value. ``_ratio`` is the
one check of an exact rational: an ``Interval`` endpoint, the value
``emit_value`` maps, and the rationals that ``reals`` and the engine's
``state_value`` take.

``_int_text`` and ``_text_int`` are the one conversion of an int to and
from decimal text, at any size and under any ``sys.set_int_max_str_digits``
setting; ``_fraction_text`` prints a ``Fraction`` with them, and
``_value_repr`` a record's field.

``_Record`` is the base of the library's immutable records: ``Interval``
here, ``Indistinguishable`` in ``reals`` and the ``Expr`` nodes of the
command line.
"""

from collections.abc import Iterable
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, _count
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


class _Record:
    """An immutable record of the fields its class names in ``__match_args__``.

    Equality, hash, ``repr``, copy and pickle go by the tuple of those
    fields, as a frozen dataclass's do, and assigning or deleting any
    attribute raises AttributeError. A record class names its fields once,
    as ``__slots__ = __match_args__ = (...)``, and its ``__init__`` sets
    them with ``object.__setattr__``; a subclass with no fields of its own
    sets ``__slots__ = ()`` and inherits the names.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        """``Name(field=value, ...)``, with each Fraction or int printed at any size."""
        fields = ", ".join("%s=%s" % (name, _value_repr(getattr(self, name))) for name in self.__match_args__)
        return "%s(%s)" % (self.__class__.__qualname__, fields)


class Interval(_Record):
    """Closed interval [lo, hi] with exact rational endpoints; any other
    endpoint, or a ``lo`` above ``hi``, raises DomainError."""

    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        _ratio(lo, "Interval")
        _ratio(hi, "Interval")
        if lo > hi:
            raise DomainError("interval endpoints out of order: %s > %s" % (_fraction_text(lo), _fraction_text(hi)))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

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
        """``[lo, hi]`` as ``str`` prints each Fraction, at any size."""
        return "[%s, %s]" % (_fraction_text(self.lo), _fraction_text(self.hi))


def _int_text(n: int) -> str:
    """``str(n)`` for an int of any size: ``Decimal`` converts it exactly,
    with none of the digit limit that Python sets on ``str`` of an int."""
    return str(Decimal(n))


def _text_int(text: str) -> int:
    """``int(text)`` for a signed run of decimal digits of any length.

    ``int`` reads a run shorter than 640 characters, the lowest digit
    limit ``sys.set_int_max_str_digits`` accepts, under every setting; a
    longer run goes through ``Decimal``, which reads it exactly.
    """
    return int(text) if len(text) < 640 else int(Decimal(text))


def _fraction_text(r: Fraction) -> str:
    """``str(r)``: ``n`` for an integer, else ``n/d``, at any size."""
    text = _int_text(r.numerator)
    return text if r.denominator == 1 else text + "/" + _int_text(r.denominator)


def _value_repr(value) -> str:
    """``repr(value)``, at any size of a Fraction or an int."""
    if isinstance(value, Fraction):
        return "Fraction(%s, %s)" % (_int_text(value.numerator), _int_text(value.denominator))
    return _int_text(value) if value.__class__ is int else repr(value)


#: ``bytes.translate`` tables from a weight byte to the high and the low
#: bit of the weight, as b"0"/b"1", and to the digit's letter. ``_weights``
#: rejects any other byte first; the tables still map it to 0xff, which
#: ``int(..., 2)`` and ASCII decoding reject, so no byte gives a wrong answer.
_HIGH_BIT = b"001".ljust(256, b"\xff")
_LOW_BIT = b"010".ljust(256, b"\xff")
_LETTER = b"LCR".ljust(256, b"\xff")


def _weight(digit) -> int:
    """A digit as its weight k: an int 0, 1 or 2 but no ``bool``, else ``DomainError``."""
    exact = isinstance(digit, int) and digit.__class__ is not bool
    if exact and digit in (0, 1, 2):
        return digit
    shown = _fraction_text(Fraction(digit)) if exact else repr(digit)
    raise DomainError("a digit must have weight 0, 1 or 2, got %s" % shown)


def _ratio(r, what: str) -> tuple[int, int]:
    """An exact rational as ``(numerator, denominator)``: an int or a ``numbers.Rational``
    but no ``bool``, else ``DomainError`` naming ``what``."""
    if r.__class__ is bool or not isinstance(r, Rational):
        raise DomainError("%s needs an int or a rational, got %r" % (what, r))
    return r.numerator, r.denominator


UNIT = Interval(Fraction(0), Fraction(1))


def refine(iv: Interval, d: Digit) -> Interval:
    """The sub-interval of ``iv`` selected by ``d``: half as wide, k quarters of it above ``iv.lo``."""
    k = _weight(d)
    lo = iv.lo
    half = Fraction(iv.hi - lo, 2)
    lo += k * half / 2
    return Interval(lo, lo + half)


def _weights(ds: Iterable[Digit]) -> bytes:
    """The digits ``ds`` as bytes of their weights; a buffer goes through as it is.

    A ``bytes`` or ``bytearray`` is checked by one ``translate`` that
    deletes the weights 0, 1 and 2: ``_weight`` rejects the first byte
    left, if any. Any other iterable is checked digit by digit by ``_weight``.
    """
    if isinstance(ds, (bytes, bytearray)):
        stray = ds.translate(None, b"\0\1\2")
        if stray:
            _weight(stray[0])
        return ds
    return bytes(map(_weight, ds))


def _left_end(ws: bytes) -> int:
    """m such that the digits of weights ``ws`` pin [m, m + 2] / 2**(len(ws) + 1).

    Refining [m, m + 2] / 2**(n + 1) by digit d gives
    [2m + k(d), 2m + k(d) + 2] / 2**(n + 2), so m starts at 0 (the empty
    prefix, [0, 1]) and each digit maps m to 2m + k(d). Unrolled, m is
    the sum of k(d_i) * 2**(n - i); splitting each weight into its two
    bits makes that 2 * high + low for two n-bit binary numerals, which
    one ``translate`` each spells and ``int`` parses in time linear in n.
    """
    if not ws:
        return 0
    return 2 * int(ws.translate(_HIGH_BIT), 2) + int(ws.translate(_LOW_BIT), 2)


def prefix_interval(ds: Iterable[Digit]) -> Interval:
    """The interval the digits pin, read left to right from [0, 1].

    Equal to folding ``refine`` over the digits starting from ``UNIT``:
    an empty prefix denotes [0, 1] itself, and a prefix of n digits is
    the dyadic interval [m, m + 2] / 2**(n + 1), of width exactly 2**-n.
    m is found with integer work linear in n, the denominator is one
    shift, and the endpoints become ``Fraction`` only on return. Each
    endpoint's ``gcd`` with the power of two is the one cost above linear
    that is left.
    """
    ws = _weights(ds)
    return _dyadic_interval(_left_end(ws), len(ws))


def _dyadic_interval(m: int, n: int) -> Interval:
    """The interval [m, m + 2] / 2**(n + 1) that n digits with left end m pin.

    m/den < (m + 2)/den holds by construction, so the result skips
    ``Interval``'s order check: two multiplications of n-bit integers.
    """
    den = 1 << (n + 1)
    iv = object.__new__(Interval)
    object.__setattr__(iv, "lo", Fraction(m, den))
    object.__setattr__(iv, "hi", Fraction(m + 2, den))
    return iv


def emit_value(d: Digit, r: Fraction) -> Fraction:
    """Value of a stream starting with ``d`` whose tail denotes ``r``.

    Digit d of weight k maps r to r/2 + k/4: L to r/2, C to (2r+1)/4, R to (r+1)/2.
    """
    k = _weight(d)
    num, den = _ratio(r, "emit_value")
    return Fraction(2 * num + k * den, 4 * den)


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
    _count(n, "represents_to_depth: n")
    return prefix_interval(take(s, n)).contains(r)


def digits_to_str(ds: Iterable[Digit]) -> str:
    """The digits as text like "LCR"; a digit buffer takes one ``translate``."""
    return _weights(ds).translate(_LETTER).decode("ascii")


def str_to_digits(text: str) -> list[Digit]:
    """Parse a digit string like "LCR". Raises ValueError on other letters."""
    try:
        return [Digit[ch] for ch in text]
    except KeyError as err:
        raise ValueError("not a digit letter: %s" % err) from None

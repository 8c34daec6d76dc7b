"""User-facing exact reals on [0, 1].

An ``ExactReal`` wraps an infinite digit stream. Every query is a finite
refinement: asking for depth n yields an interval of width exactly 2**-n
guaranteed to contain the value. Nothing here can decide equality of two
reals; ``compare`` bounds its search and says so when it gives up.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .digits import Digit, Interval, _left_end, digits_to_str, prefix_interval
# No query here refines Fraction intervals any more, but the benchmark's
# tracer (bench/spans.py) wraps the ``reals.refine`` binding, so it stays.
from .digits import refine  # noqa: F401
from .engine import AffineData, produce_stream
from .errors import DomainError
from .streams import Stream, take, unfold

__all__ = [
    "ExactReal",
    "LESS",
    "GREATER",
    "Indistinguishable",
    "from_rational",
    "average",
    "affine",
    "compare",
]


class ExactReal:
    """A real number in [0, 1] as a lazy digit stream.

    Well-formed instances denote the single point in the intersection of
    their prefix intervals; that the value lies in [0, 1] is a promise of
    the constructor used, not something checkable from the stream.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: Stream):
        self.digits = digits

    def to_interval(self, depth: int) -> Interval:
        """Enclosing interval after ``depth`` digits; width is 2**-depth."""
        return prefix_interval(take(self.digits, depth))

    def digit_string(self, count: int) -> str:
        """The first ``count`` digits as text like "LRLR"."""
        return digits_to_str(take(self.digits, count))

    def to_decimal(self, places: int) -> str:
        """Decimal rendering within 10**-places of the true value.

        Expands enough digits that the interval midpoint is pinned to a
        quarter of the requested precision, then rounds half-up. Not
        correctly rounded (that is undecidable at representation
        boundaries); the error bound is the contract.

        After ``depth`` digits the interval is [m, m + 2] / 2**(depth + 1),
        so the midpoint is (m + 1) / 2**(depth + 1) and rounding it
        half-up to ``places`` decimals is one integer shift:
        floor(mid * 10**places + 1/2) ==
        ((m + 1) * 10**places + 2**depth) >> (depth + 1).
        No ``Fraction`` is built.
        """
        if places < 1:
            raise ValueError("to_decimal: places must be >= 1")
        scale = 10 ** places
        depth = scale.bit_length() + 2
        m, _ = _left_end(take(self.digits, depth))
        units = ((m + 1) * scale + (1 << depth)) >> (depth + 1)
        return "%d.%s" % (units // scale, _zero_padded(units % scale, places))

    def __repr__(self):
        return "ExactReal(%s...)" % self.digit_string(8)


#: Decimal digits per ``%d`` in ``_zero_padded``: below the smallest limit
#: ``sys.set_int_max_str_digits`` accepts (640), so every setting renders.
_BLOCK = 600


def _zero_padded(n: int, width: int) -> str:
    """``n`` (below 10**width) as exactly ``width`` decimal digits.

    Python refuses to convert an int of more than a few thousand decimal
    digits to text, so the low digits are split off in blocks of _BLOCK.
    """
    blocks = []
    while width > _BLOCK:
        n, low = divmod(n, 10 ** _BLOCK)
        blocks.append("%0*d" % (_BLOCK, low))
        width -= _BLOCK
    return "%0*d" % (width, n) + "".join(reversed(blocks))


def from_rational(r: Fraction) -> ExactReal:
    """Exact representation of a rational in [0, 1].

    Long division by halving: with numerator state a over fixed
    denominator b, emit L and double a while 2a <= b, else emit R and
    continue with 2a - b. Only L and R digits ever appear.
    """
    r = Fraction(r)
    if r < 0 or r > 1:
        raise DomainError("from_rational needs a value in [0, 1], got %s" % r)
    b = r.denominator

    def halve(a):
        doubled = 2 * a
        if doubled <= b:
            return Digit.L, doubled
        return Digit.R, doubled - b

    return ExactReal(unfold(halve, r.numerator))


def average(x: ExactReal, y: ExactReal) -> ExactReal:
    """Midpoint of two reals; always lands back in [0, 1]."""
    return affine(Fraction(1, 2), Fraction(1, 2), Fraction(0), x, y)


def affine(
    ca: Fraction,
    cb: Fraction,
    cc: Fraction,
    x: ExactReal,
    y: ExactReal,
    checked: bool = True,
) -> ExactReal:
    """The combination ca*x + cb*y + cc as an exact real.

    Coefficients must be non-negative rationals. In checked mode,
    ca + cb + cc <= 1 is required, which guarantees the result stays in
    [0, 1] whatever the inputs. Unchecked mode drops that guard; the
    caller then promises the true value is in [0, 1], and gets a
    meaningless digit stream if the promise is broken.
    """
    ca, cb, cc = Fraction(ca), Fraction(cb), Fraction(cc)
    if ca < 0 or cb < 0 or cc < 0:
        raise DomainError("affine coefficients must be non-negative")
    if checked and ca + cb + cc > 1:
        raise DomainError(
            "checked affine needs ca + cb + cc <= 1, got %s" % (ca + cb + cc)
        )
    state = AffineData(
        ca.numerator, ca.denominator,
        cb.numerator, cb.denominator,
        cc.numerator, cc.denominator,
        x.digits, y.digits,
    )
    return ExactReal(produce_stream(state))


#: ``compare`` verdicts: strict orderings, or a bound on how close they are.
LESS = "less"
GREATER = "greater"


@dataclass(frozen=True)
class Indistinguishable:
    """Both intervals still overlap at the search limit.

    ``resolution`` is the interval width reached (2**-max_depth); the two
    values therefore differ by less than twice it. They may or may not be
    equal, and no finite refinement can promote this to equality.
    """

    resolution: Fraction


def compare(x: ExactReal, y: ExactReal, max_depth: int) -> Union[str, Indistinguishable]:
    """Order two reals by refining until their intervals separate.

    Returns LESS or GREATER at the first depth <= max_depth where the
    intervals are disjoint, else Indistinguishable(2**-max_depth). Never
    claims equality; equality of exact reals is undecidable.

    At depth n the intervals are [m_x, m_x + 2] / 2**(n + 1) and
    [m_y, m_y + 2] / 2**(n + 1), so only the gap g = m_y - m_x matters:
    x's interval lies wholly below y's when g > 2 and wholly above when
    g < -2. Each digit pair maps g to 2g + k(dy) - k(dx). While the
    intervals overlap |g| <= 2, so every step is constant work on a small
    int and the whole comparison is linear in the depth reached.
    """
    if max_depth < 0:
        raise ValueError("compare: max_depth must be >= 0")
    gap = 0
    sx, sy = x.digits, y.digits
    for _ in range(max_depth):
        dx, sx = sx.force()
        dy, sy = sy.force()
        gap = 2 * gap + dy - dx
        if gap > 2:
            return LESS
        if gap < -2:
            return GREATER
    return Indistinguishable(Fraction(1, 2 ** max_depth))

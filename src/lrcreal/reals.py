"""User-facing exact reals on [0, 1].

An ``ExactReal`` is a node of the engine graph: a rational leaf, a leaf
over an arbitrary digit stream, or an engine node over two other reals.
Each node keeps the digits it has produced, and every query reads them by
index, demanding only as many as it needs. Every query is a finite
refinement: asking for depth n yields an interval of width exactly 2**-n
guaranteed to contain the value. Nothing here can decide equality of two
reals; ``compare`` bounds its search and says so when it gives up.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .digits import Interval, _fraction_repr, _fraction_text, _left_end, _zero_padded, digits_to_str, prefix_interval
# No query here refines Fraction intervals any more, but the benchmark's
# tracer (bench/spans.py) wraps the ``reals.refine`` binding, so it stays.
from .digits import refine  # noqa: F401
from .engine import EngineNode, NodeStream, RationalNode, demand, stream_node
from .errors import DomainError
from .streams import Stream

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
    """A real number in [0, 1] as a lazily produced digit sequence.

    Well-formed instances denote the single point in the intersection of
    their prefix intervals; that the value lies in [0, 1] is a promise of
    the constructor used, not something checkable from the digits.
    ``ExactReal(stream)`` reads an arbitrary digit ``Stream``; ``digits``
    is a ``Stream`` view of the real's digits.
    """

    __slots__ = ("node",)

    def __init__(self, digits: Stream):
        self.node = stream_node(digits)

    @property
    def digits(self) -> Stream:
        return NodeStream(self.node)

    def _prefix(self, n: int) -> bytearray:
        """The weights of the first ``n`` digits, produced if not yet there."""
        if n < 0:
            raise ValueError("depth must be >= 0")
        demand(self.node, n)
        return self.node.out[:n]

    def to_interval(self, depth: int) -> Interval:
        """Enclosing interval after ``depth`` digits; width is 2**-depth."""
        return prefix_interval(self._prefix(depth))

    def digit_string(self, count: int) -> str:
        """The first ``count`` digits as text like "LRLR"."""
        return digits_to_str(self._prefix(count))

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
        m = _left_end(self._prefix(depth))
        units = ((m + 1) * scale + (1 << depth)) >> (depth + 1)
        return "%d.%s" % (units // scale, _zero_padded(units % scale, places))

    def __repr__(self):
        return "ExactReal(%s...)" % self.digit_string(8)


def _real(node) -> ExactReal:
    x = ExactReal.__new__(ExactReal)
    x.node = node
    return x


def from_rational(r: Fraction) -> ExactReal:
    """Exact representation of a rational in [0, 1].

    Its digits come by long division (see ``RationalNode``); only L and R
    digits ever appear.
    """
    r = Fraction(r)
    if r < 0 or r > 1:
        raise DomainError("from_rational needs a value in [0, 1], got %s" % _fraction_text(r))
    return _real(RationalNode(r.numerator, r.denominator))


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
    [0, 1] whatever the inputs. Unchecked mode drops that guard, and its
    digits are sound only when the true value is at most 1; nothing here
    can check that. Above 1 the engine emits R forever, and its
    coefficients grow by one bit per digit: for 3/4 + 3/4 they are 10,
    20 and 40 bits wide at digits 10, 20 and 40.
    """
    ca, cb, cc = Fraction(ca), Fraction(cb), Fraction(cc)
    if ca < 0 or cb < 0 or cc < 0:
        raise DomainError("affine coefficients must be non-negative")
    if checked and ca + cb + cc > 1:
        raise DomainError(
            "checked affine needs ca + cb + cc <= 1, got %s" % _fraction_text(ca + cb + cc)
        )
    return _real(EngineNode(
        ca.numerator, ca.denominator,
        cb.numerator, cb.denominator,
        cc.numerator, cc.denominator,
        x.node, y.node,
    ))


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

    def __repr__(self):
        """The dataclass's own text, at any size of ``resolution``."""
        return "Indistinguishable(resolution=%s)" % _fraction_repr(self.resolution)


def compare(x: ExactReal, y: ExactReal, max_depth: int) -> Union[str, Indistinguishable]:
    """Order two reals by refining until their intervals separate.

    Returns LESS or GREATER at the first depth <= max_depth where the
    intervals are disjoint, else Indistinguishable(2**-max_depth). Never
    claims equality; equality of exact reals is undecidable.

    At depth n the intervals are [m_x, m_x + 2] / 2**(n + 1) and
    [m_y, m_y + 2] / 2**(n + 1), so only the gap g = m_y - m_x matters:
    x's interval lies wholly below y's when g > 2 and wholly above when
    g < -2. Each digit pair maps g to 2g + k(dy) - k(dx), so the digits
    both buffers already hold, from depth n to e, map g to
    g * 2**(e - n) + m(dys) - m(dxs), with m the left-end numerator of
    ``_left_end``; one step reads that whole block. Separation is
    monotone: if g >= 3 then 2g + k(dy) - k(dx) >= 4, and likewise for
    g <= -3, so the sign at the end of a block is the sign at the first
    depth inside it where the intervals separated. While they overlap
    |g| <= 2, so the work is linear in the depth reached. A buffer that
    is short is demanded to just one more depth, so a real computed by
    the engine is never expanded past the depth where the intervals
    separate; a rational's buffer runs ahead a block at a time anyway.
    """
    if max_depth < 0:
        raise ValueError("compare: max_depth must be >= 0")
    gap = 0
    nx, ny = x.node, y.node
    xs, ys = nx.out, ny.out
    depth = 0
    while depth < max_depth:
        if len(xs) <= depth:
            demand(nx, depth + 1)
        if len(ys) <= depth:
            demand(ny, depth + 1)
        end = min(len(xs), len(ys), max_depth)
        if end == depth + 1:  # the common case while an engine real is demanded
            gap = 2 * gap + ys[depth] - xs[depth]
        else:
            gap = (gap << (end - depth)) + _left_end(ys[depth:end]) - _left_end(xs[depth:end])
        if gap > 2:
            return LESS
        if gap < -2:
            return GREATER
        depth = end
    return Indistinguishable(Fraction(1, 2 ** max_depth))

"""User-facing exact reals on [0, 1].

An ``ExactReal`` is a node of the engine graph: a rational leaf, a leaf
over an arbitrary digit stream, or an engine node over two other reals.
Each node keeps the digits it has produced, and every query reads them by
index, demanding only as many as it needs. Every query is a finite
refinement: asking for depth n yields an interval of width exactly 2**-n
guaranteed to contain the value. Nothing here can decide equality of two
reals; ``compare`` bounds its search and says so when it gives up.

A real built from rationals also carries its exact value, and this is
the one module that computes it: an unchecked ``affine`` refuses a known
value above 1.
"""

from fractions import Fraction

from .digits import (
    Interval, _dyadic_interval, _fraction_text, _left_end, _ratio, _Record, digits_to_str,
)
# No query here refines Fraction intervals or folds a digit prefix any
# more, but the benchmark's tracer (bench/spans.py) wraps the
# ``reals.refine`` and ``reals.prefix_interval`` bindings, so they stay.
from .digits import prefix_interval, refine  # noqa: F401
from .engine import EngineNode, NodeStream, RationalNode, demand, stream_node
from .errors import DomainError, _count
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

#: Decimal digits ``ExactReal.to_decimal`` divides out per step. Blocks of
#: 100 to 200 digits cost about the same; each block's text is short
#: enough that ``%d`` renders it in time linear in the block.
_DECIMAL_BLOCK = 150
_DECIMAL_STEP = 10 ** _DECIMAL_BLOCK


class ExactReal:
    """A real number in [0, 1] as a lazily produced digit sequence.

    Well-formed instances denote the single point in the intersection of
    their prefix intervals; that the value lies in [0, 1] is a promise of
    the constructor used, not something checkable from the digits.
    ``ExactReal(stream)`` reads an arbitrary digit ``Stream``; ``digits``
    is a ``Stream`` view of the real's digits.

    ``value`` is the real's exact value as a ``Fraction`` when it is
    known: for a real that ``from_rational`` built, and for one that
    ``average`` or ``affine`` built from two reals that have a value. It
    is None for ``ExactReal(stream)`` and for anything built over such a
    real, so ``ExactReal(x.digits)`` is ``x``'s node with no value.
    """

    __slots__ = ("node", "value")

    def __init__(self, digits: Stream):
        self.node = stream_node(digits)
        self.value = None

    @property
    def digits(self) -> Stream:
        return NodeStream(self.node)

    def _prefix(self, n: int) -> bytearray:
        """The weights of the first ``n`` digits, produced if not yet there."""
        _count(n, "depth")
        demand(self.node, n)
        return self.node.out[:n]

    def _left_end(self, depth: int) -> int:
        """m such that the first ``depth`` digits pin [m, m + 2] / 2**(depth + 1).

        A rational leaf answers by one division (``RationalNode.left_end``)
        and leaves its buffer alone; any other node reads its digits
        through ``_prefix``. Both check ``depth`` first.
        """
        node = self.node
        if type(node) is RationalNode:
            _count(depth, "depth")
            return node.left_end(depth)
        return _left_end(self._prefix(depth))

    def to_interval(self, depth: int) -> Interval:
        """Enclosing interval after ``depth`` digits; width is 2**-depth.

        It is [m, m + 2] / 2**(depth + 1) for the left end m of
        ``_left_end``, which a rational leaf finds by one division.
        """
        return _dyadic_interval(self._left_end(depth), depth)

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
        so the midpoint is mid = (m + 1) / 2**(depth + 1), and the text is
        units = floor(mid * scale + 1/2) for scale = 10**places, by one
        renderer: long division of num / N, one rounding test and one
        carry through the trailing 9s. The division takes the partial
        block of ``places % _DECIMAL_BLOCK`` digits first, if there is
        one, then ``_DECIMAL_BLOCK`` digits per step; long division gives
        the same digits whatever the block sizes.
        Let num * scale = Q * N + R with 0 <= R < N, and let
        e = (m + 1) * N - num * 2**(depth + 1), which is
        N * 2**(depth + 1) * (mid - num / N). Then
        mid * scale + 1/2 = Q + t, with
        t = R/N + 1/2 + e * scale / (N * 2**(depth + 1)).
        So units = Q + [t >= 1], and t >= 1 exactly when
        ((2R - N) << depth) + e * scale >= 0. No ``Fraction`` is built.

        Any real but a rational leaf divides mid itself:
        (num, N, e) = (m + 1, 2**(depth + 1), 0), so the test is 2R >= N.

        A rational leaf v = first / N divides v instead, with no product
        as wide as m * scale: (num, N, e) = (first, N, e). v lies in the
        interval, so |e| <= N, and 2**depth > 4 * scale, so the last term
        of t is below 1/8 in size and t lies in (3/8, 13/8). The sum is
        never 0 there: m is even for a rational leaf, so mid's denominator
        is 2**(depth + 1), more twos than any (u + 1/2) / scale has.
        """
        _count(places, "to_decimal: places", 1)
        scale = 10 ** places
        depth = scale.bit_length() + 2
        node = self.node
        if type(node) is RationalNode:
            num, N = node.first, node.denominator
            e = (node.left_end(depth) + 1) * N - (num << (depth + 1))
        else:
            num, N, e = self._left_end(depth) + 1, 2 << depth, 0
        whole, R = divmod(num, N)
        size = places % _DECIMAL_BLOCK or _DECIMAL_BLOCK
        step = 10 ** size
        blocks = []
        for _ in range(-(-places // _DECIMAL_BLOCK)):
            q, R = divmod(R * step, N)
            blocks.append("%0*d" % (size, q))
            size, step = _DECIMAL_BLOCK, _DECIMAL_STEP
        text = "".join(blocks)
        if ((2 * R - N) << depth) + e * scale >= 0:
            kept = text.rstrip("9")
            if kept:
                text = kept[:-1] + chr(ord(kept[-1]) + 1) + "0" * (places - len(kept))
            else:
                whole, text = whole + 1, "0" * places
        return "%d.%s" % (whole, text)

    def __repr__(self):
        return "ExactReal(%s...)" % self.digit_string(8)


def _real(node, value) -> ExactReal:
    x = ExactReal.__new__(ExactReal)
    x.node = node
    x.value = value
    return x


def _node(x, what: str):
    """The node of the real operand ``x``; anything but an ``ExactReal`` raises DomainError."""
    if isinstance(x, ExactReal):
        return x.node
    raise DomainError("%s needs an ExactReal, got %r" % (what, x))


def from_rational(r: Fraction) -> ExactReal:
    """Exact representation of a rational in [0, 1].

    ``r`` is an int or a ``numbers.Rational`` such as ``Fraction``;
    anything else, ``bool`` included, raises DomainError. Its digits come
    by long division (see ``RationalNode``); only L and R digits appear.
    Its ``value`` is ``r`` itself when ``r`` is a ``Fraction``.
    """
    num, den = _ratio(r, "from_rational")
    if num < 0 or num > den:
        raise DomainError("from_rational needs a value in [0, 1], got %s" % _fraction_text(Fraction(num, den)))
    return _real(RationalNode(num, den), r if r.__class__ is Fraction else Fraction(num, den))


def _combined(node: EngineNode, x: ExactReal, y: ExactReal, checked: bool) -> ExactReal:
    """The real of the engine ``node`` over ``x`` and ``y``, with its exact value.

    ``node.state`` is the reduced start state (A, B, C, D): the real is
    (A*x + B*y + C) / D, and (A + B + C) / D is the coefficient sum, at
    most 1 in ``checked`` mode. When ``x`` and ``y`` both have a value,
    so does the real, and a value above 1 raises DomainError. Checked
    mode never gets there: its operands lie in [0, 1].
    """
    A, B, C, D = node.state
    if checked and A + B + C > D:
        raise DomainError(
            "checked affine needs ca + cb + cc <= 1, got %s" % _fraction_text(Fraction(A + B + C, D))
        )
    xv, yv = x.value, y.value
    if xv is None or yv is None:
        return _real(node, None)
    xn, xd, yn, yd = xv.numerator, xv.denominator, yv.numerator, yv.denominator
    value = Fraction(A * xn * yd + B * yn * xd + C * xd * yd, D * xd * yd)
    if value > 1:
        raise DomainError("unchecked affine needs a value <= 1, got %s" % _fraction_text(value))
    return _real(node, value)


def average(x: ExactReal, y: ExactReal) -> ExactReal:
    """Midpoint of two reals; always lands back in [0, 1]."""
    return _combined(EngineNode(1, 2, 1, 2, 0, 1, _node(x, "average"), _node(y, "average")), x, y, True)


def affine(
    ca: Fraction,
    cb: Fraction,
    cc: Fraction,
    x: ExactReal,
    y: ExactReal,
    checked: bool = True,
) -> ExactReal:
    """The combination ca*x + cb*y + cc as an exact real.

    Coefficients must be non-negative ints or ``numbers.Rational``s, as
    for ``from_rational``. In checked mode, ca + cb + cc <= 1 is
    required, which guarantees the result stays in [0, 1] whatever the
    inputs. Unchecked mode drops that guard, and its digits are sound
    only when the true value is at most 1. When ``x`` and ``y`` both
    have a ``value``, a value above 1 raises DomainError. Over a real
    with no value nothing here can check it: above 1 the engine emits R
    forever, and its coefficients grow by one bit per digit: for
    3/4 + 3/4 they are 10, 20 and 40 bits wide at digits 10, 20 and 40.
    """
    a, a_den = _ratio(ca, "affine")
    b, b_den = _ratio(cb, "affine")
    c, c_den = _ratio(cc, "affine")
    if a < 0 or b < 0 or c < 0:
        raise DomainError("affine coefficients must be non-negative")
    node = EngineNode(a, a_den, b, b_den, c, c_den, _node(x, "affine"), _node(y, "affine"))
    return _combined(node, x, y, checked)


#: ``compare`` verdicts: strict orderings, or a bound on how close they are.
LESS = "less"
GREATER = "greater"


class Indistinguishable(_Record):
    """Both intervals still overlap at the search limit.

    ``resolution`` is the interval width reached (2**-max_depth); the two
    values therefore differ by less than twice it. They may or may not be
    equal, and no finite refinement can promote this to equality.
    ``resolution`` is an exact rational, checked as ``from_rational``
    checks its value.
    """

    __slots__ = __match_args__ = ("resolution",)

    def __init__(self, resolution: Fraction):
        _ratio(resolution, "Indistinguishable")
        object.__setattr__(self, "resolution", resolution)


def compare(x: ExactReal, y: ExactReal, max_depth: int) -> str | Indistinguishable:
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
    ``_left_end``; one step reads that whole block. Where the two blocks
    are equal, as they are along the common prefix of two close reals,
    m(dys) - m(dxs) is 0 and the block only shifts g, with no
    ``_left_end`` call. Separation is
    monotone: if g >= 3 then 2g + k(dy) - k(dx) >= 4, and likewise for
    g <= -3, so the sign at the end of a block is the sign at the first
    depth inside it where the intervals separated. While they overlap
    |g| <= 2, so the work is linear in the depth reached.

    Two rational leaves run no digit loop and leave their buffers alone.
    By that monotony only depth ``max_depth`` matters, and the exact
    difference of the two fractions x = first_x / N_x and
    y = first_y / N_y bounds where it can separate. A rational leaf's
    depth-n interval is [q, q + 1] / 2**n, and the value is at its left
    end only if it is 0, so the intervals are apart at depth n only if
    |y - x| * 2**n > 1, and surely once it is > 2. With
    diff = first_y * N_x - first_x * N_y and
    w = bitlen(N_x * N_y) - bitlen(|diff|), |y - x| lies in
    (2**-(w + 1), 2**(1 - w)). So they are Indistinguishable when
    diff == 0 or max_depth < w, ordered by the sign of diff when
    max_depth >= w + 2. Otherwise one ``left_end`` pair at ``max_depth``,
    one division each, gives the gap there, and the pair enters the
    digit loop at depth ``max_depth``, whose head reads every verdict.
    When ``max_depth`` is at most the narrower denominator's bit length,
    that one pair is taken at once, with no product of the denominators.

    Otherwise a short buffer of an engine or stream node is demanded to
    just one more depth, so a real computed by the engine is never
    expanded past the depth where the intervals separate. The one
    rational left, against such a real, has its short buffer demanded to
    twice the depth reached (at least one digit), capped at
    ``max_depth``. It fills a block of at least 64 digits per division
    anyway, so ``compare`` takes its buffer at most to twice the verdict
    depth or to one block.
    """
    _count(max_depth, "compare: max_depth")
    nx, ny = _node(x, "compare"), _node(y, "compare")
    x_ahead, y_ahead = type(nx) is RationalNode, type(ny) is RationalNode
    gap = depth = 0
    if x_ahead and y_ahead:
        N_x, N_y = nx.denominator, ny.denominator
        if max_depth > min(N_x.bit_length(), N_y.bit_length()):
            diff = ny.first * N_x - nx.first * N_y
            w = (N_x * N_y).bit_length() - abs(diff).bit_length()
            if not diff or max_depth < w:
                return Indistinguishable(Fraction(1, 1 << max_depth))
            if max_depth >= w + 2:
                return LESS if diff > 0 else GREATER
        gap, depth = ny.left_end(max_depth) - nx.left_end(max_depth), max_depth
    xs, ys = nx.out, ny.out
    while True:
        if gap > 2:
            return LESS
        if gap < -2:
            return GREATER
        if depth == max_depth:
            return Indistinguishable(Fraction(1, 1 << max_depth))
        if len(xs) <= depth:
            demand(nx, min(max(2 * depth, 1), max_depth) if x_ahead else depth + 1)
        if len(ys) <= depth:
            demand(ny, min(max(2 * depth, 1), max_depth) if y_ahead else depth + 1)
        end = min(len(xs), len(ys), max_depth)
        if end == depth + 1:  # the common case while an engine real is demanded
            gap = 2 * gap + ys[depth] - xs[depth]
        else:
            gap <<= end - depth
            dys, dxs = ys[depth:end], xs[depth:end]
            if dys != dxs:
                gap += _left_end(dys) - _left_end(dxs)
        depth = end

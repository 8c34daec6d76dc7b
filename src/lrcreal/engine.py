"""Digit-producing engine for (a/a')*v1 + (b/b')*v2 + c/c' on [0, 1].

The engine's state is three coefficients a/a', b/b' and c/c'
(numerators non-negative, denominators strictly positive) and two input
digit streams, and it alternates two kinds of step:

* production: when the coefficients alone prove the value sits in the
  left, right or centered half of the current interval, emit that digit
  and rescale the state so it denotes the value relative to the emitted
  sub-interval;
* consumption: otherwise read one digit from each input, fold those
  digits into the constant term, and double both input denominators.

Both rewrites rest on one fact about digits: digit d with weight
k(L) = 0, k(C) = 1, k(R) = 2 maps a tail value t to ``t/2 + k/4``. So
emitting d rescales V to ``V' = 2V - k/2``, and reading d1 and d2 turns
the constant term into ``c/c' + k1*a/(4a') + k2*b/(4b')``.

Writing V = (a/a')p + (b/b')q + c/c' for input values p, q in [0, 1],
the production tests are, in priority order:

* R  when c/c' >= 1/2           (then V >= 1/2);
* L  when V's upper bound a/a' + b/b' + c/c' <= 1/2;
* C  when the upper bound is <= 3/4 and c/c' >= 1/4
  (then 1/4 <= V <= 3/4).

When all three fail, a/a' > 1/8 or b/b' > 1/8 must hold, so the measure
``f(a, a') + f(b, b')`` (f counts the denominator doublings needed to
reach q >= 8p) is positive, and it strictly drops on every consumption.
Consumption runs are therefore finite and the output stream productive,
for any positive-coefficient state.

Reals are nodes of a graph, and each node keeps an append-only buffer
``out`` of the digits it has produced, a ``bytearray`` of their weights:
``Digit`` members appear only in the stream views of a buffer and in the
pair-form reference below. A ``RationalNode`` (long division)
and a ``StreamNode`` (over an arbitrary digit ``Stream``) are leaves; an
``EngineNode`` holds its state and two child nodes, and reads their
buffers by index, so a child read by several parents is computed once.
Every node has one ``fill(n)``: a leaf grows in place and returns None or
the engine node it waits on, and an engine node returns itself while it
is short. ``demand`` grows a buffer: ``_run`` is the engine loop, which
steps nodes in turn on an explicit stack, resumes each from its saved
record and read index, and asks its children for a proven lower bound on
the digits it will read, computed from the live state once its
coefficients sum to at most 1. No engine node produces a digit that is
not asked for; a rational leaf, which needs no engine, fills a block of
digits with one big-integer division and so runs ahead of demand by less
than one block.
``NodeStream`` is the ``Stream`` view of a buffer.

The loop keeps an engine node's state as four integers ``(A, B, C, D)``,
the value ``(A*v1 + B*v2 + C) / D``: the three pairs over one common
denominator, which is where every test and rewrite above compares them
anyway. It normalizes by shifting out common factors of two, with no
``gcd`` per step (see ``_run``).

The loop is a memoized finite automaton: an affine map with rational
coefficients on redundant digit streams is computable by one (Konecny,
"Real functions incrementally computable by finite automata", TCS 315,
2004). An ``_Automaton`` holds one record per normalized state that the
loop has stepped from, linked to the records of the states after it; it
says why the states with ``(A + B + C)/D <= 1`` are finitely many, and
``_run`` how every step runs from a record. Nodes that start from the
same state share one automaton, held weakly in a registry, which dies
with the last of them.

``AffineData`` is the state in pair form, a named tuple ``(a, a', b, b',
c, c', v1, v2)`` whose constructor checks the signs. A digit is its own
weight (``Digit`` is an ``IntEnum``). ``engine_states`` is the
step-at-a-time definition of the engine that ``_run`` memoizes: it
yields a checked ``AffineData`` after every step, built from the helpers
behind ``decide``, ``prod_*``, ``consume`` and ``normalize``, and
``production_step`` is its first emission. ``_common`` is the one
conversion from pairs to the loop's ``(A, B, C, D)``: the reference
decides (``_choose``) and consumes (``_carry``) on it, and an
``EngineNode`` starts from it. All tests and rewrites are exact integer
arithmetic; nothing here touches floating point.
"""

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import partial
from math import gcd
from threading import RLock
from typing import Iterator, Optional, Tuple
from weakref import WeakValueDictionary

from .digits import Digit, _fraction_text
from .errors import DomainError
from .streams import Stream

__all__ = [
    "AffineData",
    "Decision",
    "state_value",
    "decide",
    "prod_R",
    "prod_L",
    "prod_C",
    "consume",
    "measure",
    "normalize",
    "production_step",
    "engine_states",
    "produce_stream",
    "RationalNode",
    "StreamNode",
    "EngineNode",
    "NodeStream",
    "demand",
    "stream_node",
]


class AffineData(namedtuple("AffineData", "a a_den b b_den c c_den v1 v2")):
    """Engine state: coefficients of (a/a_den)*v1 + (b/b_den)*v2 + c/c_den.

    Construction enforces the sign discipline the step functions rely on:
    numerators non-negative, denominators strictly positive.
    """

    __slots__ = ()

    def __new__(cls, a: int, a_den: int, b: int, b_den: int, c: int, c_den: int, v1: Stream, v2: Stream):
        if not (a >= 0 and b >= 0 and c >= 0):
            raise DomainError("coefficient numerators must be non-negative: %s" % ((a, a_den, b, b_den, c, c_den),))
        if not (a_den > 0 and b_den > 0 and c_den > 0):
            raise DomainError("coefficient denominators must be positive: %s" % ((a, a_den, b, b_den, c, c_den),))
        return tuple.__new__(cls, (a, a_den, b, b_den, c, c_den, v1, v2))

    @classmethod
    def _make(cls, fields) -> "AffineData":
        """Build from an iterable through the checks above; ``_replace`` uses this too."""
        return cls(*fields)

    @property
    def coefficients(self) -> Tuple[int, int, int, int, int, int]:
        return self[:6]

    def with_coefficients(self, a, a_den, b, b_den, c, c_den) -> "AffineData":
        return AffineData(a, a_den, b, b_den, c, c_den, self.v1, self.v2)

    def __repr__(self):
        return "AffineData(%d/%d, %d/%d, %d/%d)" % self.coefficients


class Decision(Enum):
    """Outcome of the production test on a state."""

    EMIT_R = "R"
    EMIT_L = "L"
    EMIT_C = "C"
    CONSUME = "consume"


def state_value(x: AffineData, p: Fraction, q: Fraction) -> Fraction:
    """Exact value of the state at input values p and q (the test oracle)."""
    return (
        Fraction(x.a, x.a_den) * p
        + Fraction(x.b, x.b_den) * q
        + Fraction(x.c, x.c_den)
    )


def _common(a, a_den, b, b_den, c, c_den):
    """The state over the common denominator a'b'c': ``(A, B, C, D)``.

    The value is ``(A*v1 + B*v2 + C) / D``: the four integers the engine
    loop keeps; the one conversion from pairs, for the reference and nodes.
    """
    return a * b_den * c_den, b * a_den * c_den, c * a_den * b_den, a_den * b_den * c_den


#: The digits as module constants: an enum member lookup (``Digit.R``) costs
#: several times a global's, and ``_choose`` and the engine loop run once
#: per step. ``_DIGITS[w]`` is the digit of weight w, for the views that
#: hand buffered weights out as digits.
_DIGITS = _L, _C, _R = Digit.L, Digit.C, Digit.R


def _choose(A, B, C, D) -> Optional[Digit]:
    """The digit the state ``(A*v1 + B*v2 + C) / D`` justifies, or None to consume.

    Tests R, then L, then C. The tests overlap (a state can pass both L
    and C); the fixed order makes the output deterministic. All three are
    scale-invariant, so the choice commutes with normalization. The one
    copy of the tests: the engine loop and the reference both call it.
    """
    if D <= 2 * C:
        return _R
    total = A + B + C
    if 2 * total <= D:
        return _L
    if 4 * total <= 3 * D and D <= 4 * C:
        return _C
    return None


def _emit(digit, a, a_den, b, b_den, c, c_den):
    """Rescale after emitting ``digit`` of weight k: V' = 2V - k/2."""
    return 2 * a, a_den, 2 * b, b_den, 4 * c - digit * c_den, 2 * c_den


def _carry(d1: Digit, d2: Digit, A, B, C):
    """New constant numerator after absorbing one digit from each input.

    Reading digit d turns an input value p into p'/2 + k(d)/4, so over
    the common denominator D the absorbed digits add the quarter-steps
    k1*A/4 and k2*B/4 to C; over 4D the new constant is
    ``4C + k1*A + k2*B``. The one consumption formula: the engine loop
    applies it to its own state, and ``_consume`` to a pair-form state
    put over the common denominator a'b'c'.
    """
    return 4 * C + d1 * A + d2 * B


def _weight(digit) -> int:
    """A stream head as a weight: an int 0, 1 or 2 but no ``bool``, else ``DomainError``."""
    exact = isinstance(digit, int) and digit.__class__ is not bool
    if exact and digit in (0, 1, 2):
        return digit
    shown = _fraction_text(Fraction(digit)) if exact else repr(digit)
    raise DomainError("a stream digit must have weight 0, 1 or 2, got %s" % shown)


def _consume(a, a_den, b, b_den, c, c_den, v1, v2):
    """Read one digit from each input; both input denominators double."""
    d1, v1 = v1.force()
    d2, v2 = v2.force()
    A, B, C, D = _common(a, a_den, b, b_den, c, c_den)
    return a, 2 * a_den, b, 2 * b_den, _carry(_weight(d1), _weight(d2), A, B, C), 4 * D, v1, v2


def _reduce(a, a_den, b, b_den, c, c_den):
    """Divide each coefficient pair by its gcd."""
    ga = gcd(a, a_den)
    gb = gcd(b, b_den)
    gc = gcd(c, c_den)
    return a // ga, a_den // ga, b // gb, b_den // gb, c // gc, c_den // gc


def decide(x: AffineData) -> Decision:
    """Which digit the coefficients justify emitting, if any (see ``_choose``)."""
    digit = _choose(*_common(*x.coefficients))
    return Decision.CONSUME if digit is None else Decision(str(digit))


def prod_R(x: AffineData) -> AffineData:
    """Rescale after emitting R: V' = 2V - 1. Requires c_den <= 2c."""
    if x.c_den > 2 * x.c:
        raise DomainError("prod_R needs c_den <= 2c, got c=%d c_den=%d" % (x.c, x.c_den))
    return x.with_coefficients(*_emit(Digit.R, *x.coefficients))


def prod_L(x: AffineData) -> AffineData:
    """Rescale after emitting L: V' = 2V."""
    return x.with_coefficients(*_emit(Digit.L, *x.coefficients))


def prod_C(x: AffineData) -> AffineData:
    """Rescale after emitting C: V' = 2V - 1/2. Requires c_den <= 4c."""
    if x.c_den > 4 * x.c:
        raise DomainError("prod_C needs c_den <= 4c, got c=%d c_den=%d" % (x.c, x.c_den))
    return x.with_coefficients(*_emit(Digit.C, *x.coefficients))


def consume(x: AffineData) -> AffineData:
    """Read one digit from each input and fold both into the constant term.

    Both input denominators double; the tails become the new inputs. The
    rewrite satisfies, for all tail values p', q' in [0, 1]:

        state_value(consume(x), p', q')
            == state_value(x, emit_value(d1, p'), emit_value(d2, q'))
    """
    return AffineData(*_consume(*x))


def _ceil_log2(N: int, D: int) -> int:
    """ceil(log2(N / D)) for N, D > 0."""
    e = N.bit_length() - D.bit_length()
    return e + (N > D << e if e >= 0 else N << -e > D)


def measure(x: AffineData) -> int:
    """Termination measure: total doublings until both ratios are <= 1/8.

    Per pair p/q, the smallest n >= 0 with ``q * 2**n >= 8p``: 0 when
    p = 0, else ``max(0, ceil(log2(8p/q)))``. Positive whenever
    ``decide`` says consume, strictly decreasing under ``consume`` (which
    doubles both denominators), and zero only on states where some
    production test holds. Scale-invariant per pair, so normalization
    never disturbs it.
    """
    return sum(max(0, _ceil_log2(8 * p, q)) for p, q in ((x.a, x.a_den), (x.b, x.b_den)) if p > 0)


def normalize(x: AffineData) -> AffineData:
    """Divide each coefficient pair by its gcd; value and decisions unchanged.

    Without this, coefficient bit-length grows quadratically with output
    depth.
    """
    return x.with_coefficients(*_reduce(*x.coefficients))


def engine_states(x: AffineData, normalize_steps: bool = True) -> Iterator[Tuple[Optional[Digit], AffineData]]:
    """Every engine step from ``x`` on: ``(emitted digit or None, state)``.

    The step-at-a-time definition of the engine, which ``_run`` memoizes
    and ``production_step`` reads one digit of: each step applies the
    helpers behind ``decide``, ``prod_*``, ``consume`` and ``normalize``
    and builds a checked ``AffineData``. Consumption steps yield None.
    Infinite; for tests and diagnostics that watch coefficients evolve.
    """
    while True:
        a, a_den, b, b_den, c, c_den, v1, v2 = x
        digit = _choose(*_common(a, a_den, b, b_den, c, c_den))
        if digit is None:
            a, a_den, b, b_den, c, c_den, v1, v2 = _consume(*x)
        else:
            a, a_den, b, b_den, c, c_den = _emit(digit, a, a_den, b, b_den, c, c_den)
        if normalize_steps:
            a, a_den, b, b_den, c, c_den = _reduce(a, a_den, b, b_den, c, c_den)
        x = AffineData(a, a_den, b, b_den, c, c_den, v1, v2)
        yield digit, x


#: Digits a rational leaf adds at least per fill: one big-integer division
#: yields them all, so a leaf runs ahead of demand by less than this.
_FILL_BLOCK = 64

#: A quotient bit, as text, to a weight: long division emits L for 0 and R for 1.
_BIT_WEIGHT = bytes.maketrans(b"01", bytes((_L, _R)))


class RationalNode:
    """The digits of a rational ``num/N`` in [0, 1], by long division.

    With numerator state ``num`` over the fixed denominator N: emit L and
    double while ``2*num <= N``, else emit R and continue with
    ``2*num - N``. So ``num`` stays in (0, N] once positive, ties go to L
    (1/2 is LRRR...) and only L and R digits ever appear. ``fill`` does k
    steps at once: the k-bit quotient q with ``num * 2**k - q*N`` in
    (0, N] spells the digits, one bit each, and one ``translate`` turns
    its binary text into weights. A leaf: whoever reads it fills it,
    a block of ``_FILL_BLOCK`` digits or more, so its buffer may run
    ahead of what was asked by less than one block.

    N is kept split as ``den << shift`` with ``den`` odd, and the quotient
    is ``((big - 1) >> shift) // den``: floor(X / (d * 2**e)) equals
    floor(floor(X / 2**e) / d), so it is the same q, but the division is
    by the odd part only. A denominator of e bits that is mostly a power
    of two then costs a shift, linear in k + e, instead of a k-by-e
    division. A failed fill leaves the leaf as it was: ``num`` moves on
    only once the block's digits are in the buffer.
    """

    __slots__ = ("out", "num", "den", "shift")

    def __init__(self, num: int, den: int):
        self.out = bytearray()
        self.num = num
        self.shift = (den & -den).bit_length() - 1
        self.den = den >> self.shift

    def fill(self, n: int):
        """Extend the buffer to at least ``n`` digits and by at least one
        block; never waits on another node."""
        out = self.out
        if n <= len(out):
            return None
        k = max(n - len(out), _FILL_BLOCK)
        if self.num == 0:
            out += bytes(k)
        else:
            big = self.num << k
            q = ((big - 1) >> self.shift) // self.den
            num = big - ((q * self.den) << self.shift)
            out += format(q, "0%db" % k).encode().translate(_BIT_WEIGHT)
            self.num = num
        return None


class StreamNode:
    """A leaf over an arbitrary digit ``Stream``: buffers the cells it forces.

    ``rest`` is the stream after the buffered digits. When ``rest`` is a
    ``NodeStream``, ``fill`` first fills the node it reads: a leaf grows
    in place, and an engine node, which forcing ``rest`` would run inside
    this call, is handed back instead. So a chain of reals built lazily
    from streams, through any number of stream leaves, also runs on the
    explicit stack. A head that is not an int of weight 0, 1 or 2 raises
    ``DomainError`` and stays unread.
    """

    __slots__ = ("out", "rest")

    def __init__(self, stream: Stream):
        self.out = bytearray()
        self.rest = stream

    def fill(self, n: int):
        """Extend the buffer to ``n`` digits.

        Returns None when done, or ``(node, m)`` when the stream reads,
        directly or through other leaves, an engine node that must hold m
        digits first.
        """
        out = self.out
        while len(out) < n:
            rest = self.rest
            if isinstance(rest, NodeStream):
                blocked = rest.node.fill(rest.index + n - len(out))
                if blocked is not None:
                    return blocked
            digit, tail = rest.force()
            out.append(_weight(digit))
            self.rest = tail
        return None


#: Records one automaton holds at most. A node whose automaton is full
#: goes on in a fresh private one, so a node whose states never repeat
#: (say, over denominators near a million) keeps at most this many records
#: of its own. No automaton on the benchmark reaches 200 records.
_AUTOMATON_CAP = 256


class _Automaton:
    """The engine step, memoized: one record per distinct state stepped from.

    ``records[r]`` is a list that ends with the decision of state r (the
    digit ``_choose`` justifies, or None to consume) and the state
    ``(A, B, C, D)`` itself. Before them come its links: one for an
    emitting state; nine for a consuming one, indexed by ``3*d1 + d2``
    for input weights d1 and d2, and then the offset of its demand bound
    (see ``_run``): ``_ceil_log2(A + B, D)`` when T = (A + B + C)/D <= 1,
    else None, which asks for one digit. A link is the index of the next
    state's record, or None until ``_run`` first takes that step. Records
    link by index, so an automaton holds no reference cycle and dies, by
    reference counting alone, with the last node that uses it. ``index``
    maps each state to its record, and ``enter`` is the one place that
    adds a record; the start state is record 0.

    Every state a node steps from gets a record. T stays at most 1 once
    it is (see ``_run``), and the states with T <= 1 that a node reaches
    form a finite set:

    * the odd part of D never changes: every step multiplies D by a power
      of two, and the strip divides out only twos;
    * after e emissions and c consumptions, A/D and B/D are their first
      values times 2**(e - c), and s = (A + B)/D stays in (1/16, 1] once
      the node has consumed (a consuming state has s > 1/8 and a
      consumption halves s; an emission needs s <= 1/2 and doubles it),
      so they take finitely many values (one, if A = B = 0);
    * so the resolution of C/D is bounded too: an emission doubles C/D
      and subtracts a multiple of 1/2, and a consumption adds
      ``(k1*A + k2*B) / 4D``.

    A reduced state is fixed by its three ratios to D, all in [0, 1].
    Finite can still be huge, and states with T > 1 need not be finite
    at all, so an automaton holds at most ``_AUTOMATON_CAP`` records.
    """

    __slots__ = ("records", "index", "__weakref__")

    def __init__(self, start):
        self.records = []
        self.index = {}
        self.enter(start)

    def enter(self, state) -> int:
        """The index of ``state``'s record, added if new; -1 once full."""
        records = self.records
        r = self.index.setdefault(state, len(records))
        if r == len(records):
            if r == _AUTOMATON_CAP:
                del self.index[state]
                return -1
            A, B, C, D = state
            digit = _choose(A, B, C, D)
            records.append(
                [None, None, None, None, None, None, None, None, None,
                 _ceil_log2(A + B, D) if A + B + C <= D else None, None, state]
                if digit is None else [None, digit, state]
            )
        return r


#: Live automata, by the normalized initial state of the nodes that share
#: one. An automaton leaves with its last node. Two threads that build
#: equal nodes at once may each add one; both are correct, and only one
#: stays shared.
_AUTOMATA = WeakValueDictionary()


class EngineNode:
    """The engine on (a/a_den)*left + (b/b_den)*right + c/c_den, resumable.

    ``out`` holds the weights of the digits produced so far, one byte
    each, and ``read`` the input digits consumed from each child.
    ``state`` is the four integers ``(A, B, C, D)`` after them, the value
    ``(A*left + B*right + C) / D``: the three pairs put over one
    denominator by ``_common`` and divided by the gcd of all four, the
    unique reduced form, which every step keeps. Steps scale A, B and D
    by powers of two, so only C can turn negative, and the engine loop
    checks ``C >= 0``. The children are nodes, read by index into their
    ``out``, so a node read by several parents is computed once. Like
    every node it has a ``fill``; only ``_run`` steps it, so its ``fill``
    names what to run.

    A node runs on an ``_Automaton``, shared by every live node that
    starts from the same reduced state: all ``average`` nodes share one,
    and so do all ``add`` nodes. ``at`` is the record of ``state`` in it,
    so ``state`` is read from that record. Once its automaton is full, a
    node goes on in a fresh private one, which dies with the node or when
    that one fills in turn.
    """

    __slots__ = ("out", "read", "left", "right", "automaton", "at")

    def __init__(self, a, a_den, b, b_den, c, c_den, left, right):
        self.out = bytearray()
        A, B, C, D = _common(a, a_den, b, b_den, c, c_den)
        g = gcd(A, B, C, D)
        state = A // g, B // g, C // g, D // g
        self.read = 0
        self.left = left
        self.right = right
        automaton = _AUTOMATA.get(state)
        if automaton is None:
            automaton = _AUTOMATA[state] = _Automaton(state)
        self.automaton = automaton
        self.at = automaton.enter(state)

    @property
    def state(self):
        """The reduced ``(A, B, C, D)`` after the digits produced and read."""
        return self.automaton.records[self.at][-1]

    def fill(self, n: int):
        """None when the buffer holds ``n`` digits, else ``(self, n)``."""
        return (self, n) if len(self.out) < n else None


#: Serializes buffer growth: two threads extending one node at once would
#: interleave its saved state. Re-entrant, because a StreamNode's stream
#: may itself be a NodeStream whose cells demand digits.
_LOCK = RLock()


def demand(node, n: int):
    """Extend ``node``'s buffer to at least ``n`` digits.

    ``fill`` grows a leaf in place, and ``_run`` runs whatever engine
    node ``fill`` hands back: the node itself, or one a leaf waits on.
    """
    if len(node.out) >= n:
        return
    with _LOCK:
        while len(node.out) < n:
            waiting = node.fill(n)
            if waiting is not None:
                _run(*waiting)


def _run(node: EngineNode, want: int):
    """The engine loop: extend an engine node's buffer to ``want`` digits.

    Nodes take turns on an explicit stack of ``(node, digits wanted)``.
    The current node steps until it holds the digits wanted, and its
    parent resumes, or until a child must grow first. A child's ``fill``
    grows a leaf in place, or hands back the engine node that must grow
    first, the child itself or one a leaf waits on: then the current
    node's place is saved and that node becomes current. Nesting depth
    costs stack entries, not Python frames.

    A step on the state ``(A*v1 + B*v2 + C) / D`` is the one ``_choose``
    decides:

    * emitting the digit of weight k (R when ``D <= 2C``, L when
      ``2(A + B + C) <= D``, C when ``4(A + B + C) <= 3D`` and
      ``D <= 4C``) gives ``(4A, 4B, 4C - k*D, 2D)``;
    * else consume, giving ``(2A, 2B, _carry(d1, d2, A, B, C), 4D)``.

    These are the rewrites of ``_emit`` and ``_consume`` on one common
    denominator. Each step then shifts all four right by their common
    trailing zero bits, which takes the factor two an R or L emission
    shares out again. No odd prime can divide all four: each step is an
    integer matrix with a power-of-two determinant, so an odd prime
    dividing the new four divides the old four, and ``EngineNode`` starts
    from four with gcd 1. So the strip keeps the state fully reduced
    without a ``gcd``. Every state inside a consumption run gets the sign
    check ``C >= 0``, and the loop raises ``DomainError`` itself when it
    fails; an emission keeps ``C >= 0``, as its test demands.

    A blocked node asks its children for a proven lower bound on the
    input digits it reads before its wanted digits, so no child produces
    a digit the lazy stream semantics would not. The bound reads the live
    state. Let T = (A + B + C)/D and s = (A + B)/D. Once T <= 1, no step
    raises T above 1: R fires when C/D >= 1/2 and gives 2T - 1; L needs
    T <= 1/2 and gives 2T; C needs T <= 3/4 and gives 2T - 1/2; a
    consumption adds at most s/2 to C/D and halves s. So from any state
    with T <= 1, whatever the node started as, each emission needs
    s <= 1/2 (R: C/D >= 1/2; L: T <= 1/2; C: T <= 3/4 and C/D >= 1/4).
    An emission doubles s and a consumption halves it, so k more digits
    need m more consumptions with s * 2**(k - 1 - m) <= 1/2, so
    m >= k + log2(s), and m >= k + ``_ceil_log2(A + B, D)`` as m is an
    integer. A state with T > 1, such as an unchecked ``add`` before its
    sum falls to 1, can emit R with no consumption, so it asks for one
    digit. Each record stores its offset, or None for T > 1.

    Every step runs from a record of the node's ``_Automaton``. An
    emission appends the record's digit and follows its link, and a
    consumption reads one weight from each child and follows link
    ``3*d1 + d2``. A missing link is a miss: the node takes that one step
    from the record's state by the arithmetic above, the state reached
    enters the automaton (``_Automaton.enter``), the link is filled with
    its record, and the node goes on from that record. When the automaton
    is full, the node goes on in a fresh private one, and the full one
    keeps no link to it. So a node's digits, reads and states are exactly
    those of the arithmetic alone, and ``_carry``, the sign check and the
    strip run on every miss.

    A real defined through a ``Stream`` may read itself, so a node can be
    current while it waits lower on the stack. Each activation loads the
    node's automaton, record and read index from the node and saves them
    when it stops, so a resumed node goes on from where it was last left.

    If anything raises, the current node drops the digits it produced
    since it last became current and saves nothing, so its buffer,
    automaton, record and read index still agree.
    """
    parents = []
    while True:
        out = node.out
        start = produced = len(out)
        i = node.read
        left, right = node.left, node.right
        left_out, right_out = left.out, right.out
        ready = len(left_out)  # input digits both children hold
        if len(right_out) < ready:
            ready = len(right_out)
        automaton = node.automaton
        records = automaton.records
        s = node.at  # the current record
        blocked = None
        try:
            while True:
                if produced == want:
                    break
                record = records[s]
                digit = record[-2]
                if digit is None:
                    if i == ready:
                        more = record[9]
                        if more is None:
                            more = 1
                        else:
                            more += want - produced
                            if more < 1:
                                more = 1
                        blocked = left.fill(i + more) or right.fill(i + more)
                        if blocked is not None:
                            break
                        ready = len(left_out)
                        if len(right_out) < ready:
                            ready = len(right_out)
                    link = 3 * left_out[i] + right_out[i]
                    s = record[link]
                    if s is not None:
                        i += 1
                        continue
                    # A miss: take the step from the record's state by arithmetic.
                    A, B, C, D = record[-1]
                    C = _carry(left_out[i], right_out[i], A, B, C)
                    i += 1
                    A *= 2
                    B *= 2
                    D *= 4
                    if C < 0:
                        raise DomainError("coefficient numerators must be non-negative")
                else:
                    s = record[0]
                    if s is not None:
                        out.append(digit)
                        produced += 1
                        continue
                    link = 0
                    A, B, C, D = record[-1]
                    A *= 4
                    B *= 4
                    C = 4 * C - digit * D
                    D *= 2
                    out.append(digit)
                    produced += 1
                g = A | B | C | D
                if not g & 1:
                    z = (g & -g).bit_length() - 1
                    A >>= z
                    B >>= z
                    C >>= z
                    D >>= z
                state = A, B, C, D
                s = automaton.enter(state)
                if s < 0:
                    automaton = _Automaton(state)
                    records = automaton.records
                    s = 0  # the new automaton's start state
                else:
                    record[link] = s
        except BaseException:
            del out[start:]
            raise
        node.automaton = automaton
        node.at = s
        node.read = i
        if blocked is not None:
            parents.append((node, want))
            node, want = blocked
        elif parents:
            node, want = parents.pop()
        else:
            return


class NodeStream(Stream):
    """The digits of a node's buffer from ``index`` on, as a ``Stream``.

    Forcing a cell demands one more digit of the node, so reading a view
    is exactly as lazy as reading a memoized digit stream. A cell's head
    is the ``Digit`` of the buffered weight.
    """

    __slots__ = ("node", "index")

    def __init__(self, node, index: int = 0):
        Stream.__init__(self, partial(_node_cell, node, index))
        self.node = node
        self.index = index


def _node_cell(node, index):
    demand(node, index + 1)
    return _DIGITS[node.out[index]], NodeStream(node, index + 1)


def stream_node(stream: Stream):
    """The node whose digits ``stream`` reads.

    A whole-buffer ``NodeStream`` reads its own node; any other stream is
    wrapped in a ``StreamNode``.
    """
    if isinstance(stream, NodeStream) and stream.index == 0:
        return stream.node
    return StreamNode(stream)


def production_step(x: AffineData, normalize_steps: bool = True) -> Tuple[Digit, AffineData]:
    """Run consumptions until a digit comes out; at most measure(x) of them.

    The first emission of ``engine_states(x, normalize_steps)``: the digit
    and the state after it, whose inputs are the tails left after the
    consumptions, with each pair reduced when ``normalize_steps`` is on.
    """
    return next(step for step in engine_states(x, normalize_steps) if step[0] is not None)


def produce_stream(x: AffineData) -> Stream:
    """The digit stream of the state's value, produced lazily.

    Productive for every positive-coefficient state. The digits denote
    the actual value only when that value lies in [0, 1] (and the input
    streams denote values in [0, 1]); the stream is well defined but
    meaningless otherwise. Callers wanting the checked guarantee go
    through the real-number layer.
    """
    return NodeStream(EngineNode(*x.coefficients, stream_node(x.v1), stream_node(x.v2)))

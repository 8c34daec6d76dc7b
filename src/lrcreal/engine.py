"""Digit-producing engine for (a/a')*v1 + (b/b')*v2 + c/c' on [0, 1].

The engine holds six non-negative integer coefficients (denominators
strictly positive) and two input digit streams, and alternates two kinds
of step:

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

Engine state is ``AffineData``, a named tuple
``(a, a', b, b', c, c', v1, v2)`` whose constructor checks the signs. A
digit is its own weight (``Digit`` is an ``IntEnum``). ``production_step``
is the fused loop that ``produce_stream`` runs: from one state to the
next emitted digit, it runs the tests, the consumptions and the gcd
reductions inline on local integers and builds one ``AffineData`` per
digit; every state it passes through still gets the constructor's sign
check. ``engine_states`` is the step-at-a-time reference that tests
compare it against: it yields a checked ``AffineData`` after every step,
built from the same helpers that ``decide``, ``prod_*``, ``consume`` and
``normalize`` apply to a single state. All tests and rewrites are exact
integer arithmetic; nothing here touches floating point.
"""

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Iterator, Optional, Tuple

from .digits import Digit
from .errors import DomainError
from .streams import Stream, unfold

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


def _choose(a, a_den, b, b_den, c, c_den) -> Optional[Digit]:
    """The digit the coefficients justify emitting, or None to consume.

    Tests R, then L, then C. The tests overlap (a state can pass both L
    and C); the fixed order makes the output deterministic. All three are
    scale-invariant in each coefficient pair, so the choice commutes with
    normalization.
    """
    if c_den <= 2 * c:
        return Digit.R
    weighted = a * b_den * c_den + b * a_den * c_den + a_den * b_den * c
    den_prod = a_den * b_den * c_den
    if 2 * weighted <= den_prod:
        return Digit.L
    if 4 * weighted <= 3 * den_prod and c_den <= 4 * c:
        return Digit.C
    return None


def _emit(digit, a, a_den, b, b_den, c, c_den):
    """Rescale after emitting ``digit`` of weight k: V' = 2V - k/2."""
    return 2 * a, a_den, 2 * b, b_den, 4 * c - digit * c_den, 2 * c_den


def _carry(d1: Digit, d2: Digit, a, a_den, b, b_den, c, c_den):
    """New constant term after absorbing one digit from each input.

    Reading digit d turns an input value p into p'/2 + k(d)/4, so the
    absorbed digits add the quarter-steps k1*a/(4a') and k2*b/(4b') to
    c/c'; over the common denominator 4a'b'c' that is
    ``4c*a'b' + k1*a*b'c' + k2*b*a'c'``.
    """
    return (
        4 * c * a_den * b_den + d1 * a * b_den * c_den + d2 * b * a_den * c_den,
        4 * a_den * b_den * c_den,
    )


def _consume(a, a_den, b, b_den, c, c_den, v1, v2):
    """Read one digit from each input; both input denominators double."""
    d1, v1 = v1.force()
    d2, v2 = v2.force()
    c, c_den = _carry(d1, d2, a, a_den, b, b_den, c, c_den)
    return a, 2 * a_den, b, 2 * b_den, c, c_den, v1, v2


def _reduce(a, a_den, b, b_den, c, c_den):
    """Divide each coefficient pair by its gcd."""
    ga = gcd(a, a_den)
    gb = gcd(b, b_den)
    gc = gcd(c, c_den)
    return a // ga, a_den // ga, b // gb, b_den // gb, c // gc, c_den // gc


def decide(x: AffineData) -> Decision:
    """Which digit the coefficients justify emitting, if any (see ``_choose``)."""
    digit = _choose(*x.coefficients)
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


def _doublings_to_dominate(p: int, q: int) -> int:
    """Smallest n >= 0 with (2**n) * q >= 8 * p."""
    n = 0
    target = 8 * p
    while (q << n) < target:
        n += 1
    return n


def measure(x: AffineData) -> int:
    """Termination measure: total doublings until both ratios are <= 1/8.

    Positive whenever ``decide`` says consume, strictly decreasing under
    ``consume`` (which doubles both denominators), and zero only on
    states where some production test holds. Scale-invariant per pair,
    so normalization never disturbs it.
    """
    return _doublings_to_dominate(x.a, x.a_den) + _doublings_to_dominate(x.b, x.b_den)


def normalize(x: AffineData) -> AffineData:
    """Divide each coefficient pair by its gcd; value and decisions unchanged.

    Without this, coefficient bit-length grows quadratically with output
    depth.
    """
    return x.with_coefficients(*_reduce(*x.coefficients))


def engine_states(x: AffineData, normalize_steps: bool = True) -> Iterator[Tuple[Optional[Digit], AffineData]]:
    """Every engine step from ``x`` on: ``(emitted digit or None, state)``.

    The step-at-a-time reference for ``production_step``: each step applies
    the helpers behind ``decide``, ``prod_*``, ``consume`` and ``normalize``
    and builds a checked ``AffineData``. Consumption steps yield None.
    Infinite; for tests and diagnostics that watch coefficients evolve.
    """
    while True:
        a, a_den, b, b_den, c, c_den, v1, v2 = x
        digit = _choose(a, a_den, b, b_den, c, c_den)
        if digit is None:
            a, a_den, b, b_den, c, c_den, v1, v2 = _consume(*x)
        else:
            a, a_den, b, b_den, c, c_den = _emit(digit, a, a_den, b, b_den, c, c_den)
        if normalize_steps:
            a, a_den, b, b_den, c, c_den = _reduce(a, a_den, b, b_den, c, c_den)
        x = AffineData(a, a_den, b, b_den, c, c_den, v1, v2)
        yield digit, x


def production_step(x: AffineData, normalize_steps: bool = True) -> Tuple[Digit, AffineData]:
    """Run consumptions until a digit comes out; at most measure(x) of them.

    The fused form of the ``engine_states`` loop up to its next emission:
    the tests of ``_choose``, the consumption of ``_consume`` and the
    reductions of ``_reduce`` run inline on local integers, and only the
    state after the emission is built as an ``AffineData``. The states in
    between get that constructor's sign check without being built.
    """
    a, a_den, b, b_den, c, c_den, v1, v2 = x
    digit = None
    while digit is None:
        if c_den <= 2 * c:
            digit = Digit.R
        else:
            weighted = a * b_den * c_den + b * a_den * c_den + a_den * b_den * c
            den_prod = a_den * b_den * c_den
            if 2 * weighted <= den_prod:
                digit = Digit.L
            elif 4 * weighted <= 3 * den_prod and c_den <= 4 * c:
                digit = Digit.C
        if digit is None:
            d1, v1 = v1.force()
            d2, v2 = v2.force()
            c, c_den = _carry(d1, d2, a, a_den, b, b_den, c, c_den)
            a_den *= 2
            b_den *= 2
            if not (a >= 0 and b >= 0 and c >= 0 and a_den > 0 and b_den > 0 and c_den > 0):
                AffineData(a, a_den, b, b_den, c, c_den, v1, v2)  # raises DomainError
        else:
            a *= 2
            b *= 2
            c = 4 * c - digit * c_den
            c_den *= 2
        if normalize_steps:
            g = gcd(a, a_den)
            a //= g
            a_den //= g
            g = gcd(b, b_den)
            b //= g
            b_den //= g
            g = gcd(c, c_den)
            c //= g
            c_den //= g
    return digit, AffineData(a, a_den, b, b_den, c, c_den, v1, v2)


def produce_stream(x: AffineData, normalize_steps: bool = True) -> Stream:
    """The digit stream of the state's value, produced lazily.

    Productive for every positive-coefficient state. The digits denote
    the actual value only when that value lies in [0, 1] (and the input
    streams denote values in [0, 1]); the stream is well defined but
    meaningless otherwise. Callers wanting the checked guarantee go
    through the real-number layer.
    """
    return unfold(partial(production_step, normalize_steps=normalize_steps), x)

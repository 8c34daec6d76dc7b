"""Every depth, count and number of places is one checked int.

A float depth used to make a finite observation unbounded: an engine
real's ``to_interval(2.5)`` demanded digits until memory ran out, since
the loop stops only when the digits produced equal the want. A ``bool``
read as 0 or 1.
"""

from fractions import Fraction

import pytest

from lrcreal import reals
from lrcreal.cli import eval_command, fib_command, parse_expr, selftest_command
from lrcreal.digits import represents_to_depth
from lrcreal.errors import DomainError
from lrcreal.reals import Indistinguishable, average, compare, from_rational
from lrcreal.streams import (
    bisimilar_to_depth,
    constant,
    fib_stream,
    increasing_to_depth,
    local_fib_to_depth,
    take,
)


def third():
    return from_rational(Fraction(1, 3))


def engine_real():
    return average(from_rational(Fraction(1, 3)), from_rational(Fraction(1, 5)))


#: (entry point called with a fresh input for each count, the argument's
#: name in the message, its least valid value, results for the two
#: smallest valid values as the library gave them before the check).
ENTRY_POINTS = [
    (lambda n: take(fib_stream(1, 1), n), "take: n", 0, ([], [1])),
    (lambda n: bisimilar_to_depth(fib_stream(1, 1), constant(2), n), "bisimilar_to_depth: n", 0, (True, False)),
    (lambda n: increasing_to_depth(fib_stream(2, 1), n), "increasing_to_depth: n", 0, (True, False)),
    (lambda n: local_fib_to_depth(constant(1), n), "local_fib_to_depth: n", 0, (True, False)),
    (lambda n: represents_to_depth(third().digits, Fraction(3, 4), n), "represents_to_depth: n", 0, (True, False)),
    (lambda n: third().digit_string(n), "depth", 0, ("", "L")),
    (lambda n: engine_real().digit_string(n), "depth", 0, ("", "L")),
    (lambda n: str(third().to_interval(n)), "depth", 0, ("[0, 1]", "[0, 1/2]")),
    (lambda n: str(engine_real().to_interval(n)), "depth", 0, ("[0, 1]", "[0, 1/2]")),
    (lambda n: third().to_decimal(n), "to_decimal: places", 1, ("0.3", "0.33")),
    (lambda n: engine_real().to_decimal(n), "to_decimal: places", 1, ("0.3", "0.27")),
    (
        lambda n: compare(third(), from_rational(Fraction(1, 5)), n),
        "compare: max_depth",
        0,
        (Indistinguishable(Fraction(1)), Indistinguishable(Fraction(1, 2))),
    ),
    (
        lambda n: compare(third(), engine_real(), n),
        "compare: max_depth",
        0,
        (Indistinguishable(Fraction(1)), Indistinguishable(Fraction(1, 2))),
    ),
    (lambda n: eval_command(parse_expr("avg(1/3, 1/5)"), n), "digits", 0, ("", "L")),
    (lambda n: selftest_command(n, 40, 42), "cases", 0, (("0/0 passed", 0), ("1/1 passed", 0))),
    (lambda n: selftest_command(1, n, 42), "depth", 0, (("1/1 passed", 0), ("1/1 passed", 0))),
    (fib_command, "count", 0, (" | increasing: true | local_fib: true", "1 | increasing: true | local_fib: true")),
]


def test_every_depth_count_and_places_argument_is_a_checked_int(monkeypatch):
    # Engine reals demand digits through reals.demand; a count that reaches
    # it unchecked fails here at once instead of running without end.
    demanded = []
    real_demand = reals.demand

    def checked_demand(node, n):
        if n.__class__ is not int:
            raise AssertionError("demand of a count that is no int: %r" % (n,))
        demanded.append(n)
        return real_demand(node, n)

    monkeypatch.setattr(reals, "demand", checked_demand)
    for call, what, low, results in ENTRY_POINTS:
        for bad in (low - 1, -1, 2.5, True, "3", None):
            demanded.clear()
            with pytest.raises(DomainError) as err:
                call(bad)
            if bad.__class__ is int:
                assert str(err.value) == "%s must be >= %d" % (what, low)
            else:
                assert str(err.value) == "%s must be an int, got %r" % (what, bad)
            assert demanded == []
        assert (call(low), call(low + 1)) == results


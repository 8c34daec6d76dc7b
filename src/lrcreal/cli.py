"""Command line front end.

Expression grammar::

    expr     := rational
              | "avg" "(" expr "," expr ")"
              | "add" "(" expr "," expr ")"
              | "affine" "(" rational "," rational "," rational ";" expr "," expr ")"
    rational := integer | integer "/" integer

An integer is an optional "-" and then ``str.isdecimal`` digits (Arabic-Indic
ones too); ``str.isspace`` whitespace may stand between any other two
tokens, and a name ends where ``str.isalpha`` does.

Rational literals standing for numbers must lie in [0, 1]. ``add`` is the
unchecked combination 1*x + 1*y + 0; every leaf is a rational, so every
real built carries its exact ``value``, and an ``add`` whose sum exceeds
1 is rejected. ``affine`` runs in checked mode (coefficient sum at most 1).

Exit codes: 0 success, 1 syntax error, 2 domain error or out of memory.
Parsing, building and evaluating use explicit stacks, so nesting depth is
bounded by time and memory, not by Python's recursion limit.
"""

import argparse
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .digits import _fraction_text, _int_text, _text_int
from .errors import DomainError, ExprParseError, _count
from .reals import ExactReal, affine, average, from_rational
from .streams import fib_stream, increasing_to_depth, local_fib_to_depth, take

__all__ = [
    "RatLit",
    "Avg",
    "Add",
    "Affine",
    "Expr",
    "parse_expr",
    "format_expr",
    "build_real",
    "eval_command",
    "selftest_command",
    "fib_command",
    "main",
]


@dataclass(frozen=True)
class RatLit:
    value: Fraction


@dataclass(frozen=True)
class Avg:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Affine:
    ca: Fraction
    cb: Fraction
    cc: Fraction
    left: "Expr"
    right: "Expr"


Expr = RatLit | Avg | Add | Affine


#: An operand's first token, after any whitespace: a name and "(", or a
#: rational's signs and digits; a "/" with no digits after it is an error.
#: ``\s`` and ``\d`` match exactly ``str.isspace`` and ``str.isdecimal``.
_OPERAND = re.compile(r"\s*(?:(avg|add|affine)\s*\(|(-?)(\d+)\s*(?:/\s*(-?)(\d*))?)")
_SPACE = re.compile(r"\s*")


def _fail(text: str, pos: int, expected: str):
    raise ExprParseError(pos + 1, expected, repr(text[pos]) if pos < len(text) else "end of input")


def _rational(m):
    """Numerator and denominator of the rational ``m`` matched."""
    sign, digits, den_sign, den_digits = m.group(2, 3, 4, 5)
    if den_digits == "":
        _fail(m.string, m.end(), "an integer")
    num = _text_int(sign + digits)
    if den_digits is None:
        return num, 1
    den = _text_int(den_sign + den_digits)
    if den == 0:
        raise DomainError("rational with zero denominator: %s/0" % _fraction_text(Fraction(num)))
    return num, den


def _skip(text: str, pos: int, ch: str) -> int:
    """The position after ``ch``, which must come next but for whitespace."""
    if not text.startswith(ch, pos):
        pos = _SPACE.match(text, pos).end()
        if not text.startswith(ch, pos):
            _fail(text, pos, "'%s'" % ch)
    return pos + 1


def parse_expr(text: str) -> Expr:
    """Parse an expression; ExprParseError and DomainError carry positions.

    Each step reads one token with one regex match; open calls, each
    ``[type, coefficients, operands]``, wait on an explicit stack.
    """
    calls = []
    pos = 0
    while True:
        m = _OPERAND.match(text, pos)
        if m is None:
            pos = end = _SPACE.match(text, pos).end()
            while text[end:end + 1].isalpha():
                end += 1
            if text[pos:end] in ("avg", "add", "affine"):
                _fail(text, _SPACE.match(text, end).end(), "'('")
            if end > pos:
                _fail(text, pos, "'avg', 'add' or 'affine'")
            if text.startswith("-", pos):
                _fail(text, pos + 1, "an integer")
            _fail(text, pos, "a rational literal, 'avg', 'add' or 'affine'")
        pos = m.end()
        name = m[1]
        if name == "affine":
            coefficients = []
            for ch in ",,;":
                c = _OPERAND.match(text, pos)
                if c is None or c[1]:
                    pos = _SPACE.match(text, pos).end()
                    _fail(text, pos + text.startswith("-", pos), "an integer")
                coefficients.append(Fraction(*_rational(c)))
                pos = _skip(text, c.end(), ch)
            calls.append([Affine, coefficients, []])
            continue
        if name:
            calls.append([Avg if name == "avg" else Add, (), []])
            continue
        num, den = _rational(m)
        if not (0 <= num <= den or den <= num <= 0):
            raise DomainError("literal %s outside [0, 1]" % _fraction_text(Fraction(num, den)))
        e = RatLit(Fraction(num, den))
        # Close every call this operand completes.
        while calls:
            kind, coefficients, operands = calls[-1]
            operands.append(e)
            if len(operands) == 1:
                pos = _skip(text, pos, ",")
                break
            pos = _skip(text, pos, ")")
            calls.pop()
            e = kind(*coefficients, *operands)
        else:
            pos = _SPACE.match(text, pos).end()
            if pos < len(text):
                _fail(text, pos, "end of input")
            return e


#: Marks for the text ``format_expr`` still has to write: no operand, a
#: ``str`` included, can be one.
_CLOSE, _COMMA = object(), object()


def format_expr(e: Expr) -> str:
    """Render an Expr in the grammar's concrete syntax (reparses equal)."""
    parts = []
    todo = [e]  # expressions still to render and marks of text still to write, last first
    while todo:
        item = todo.pop()
        if item is _CLOSE:
            parts.append(")")
        elif item is _COMMA:
            parts.append(", ")
        elif isinstance(item, RatLit):
            parts.append(_fraction_text(item.value))
        elif isinstance(item, (Avg, Add)):
            parts.append("avg(" if isinstance(item, Avg) else "add(")
            todo += [_CLOSE, item.right, _COMMA, item.left]
        elif isinstance(item, Affine):
            parts.append("affine(%s, %s, %s; " % tuple(map(_fraction_text, (item.ca, item.cb, item.cc))))
            todo += [_CLOSE, item.right, _COMMA, item.left]
        else:
            raise TypeError("not an Expr: %r" % (item,))
    return "".join(parts)


def build_real(e: Expr) -> ExactReal:
    """Evaluate bottom-up into an ExactReal.

    ``add`` is the one unchecked combination. Every leaf is a rational, so
    both operands of an ``add`` have their exact ``value``, and it raises
    DomainError exactly when their sum exceeds 1, at any depth. The build
    is a post-order walk on an explicit stack, so nesting depth is not
    bounded by Python's.
    """
    built = []  # the real of each finished operand
    todo = [(e, False)]
    while todo:
        node, operands_built = todo.pop()
        if isinstance(node, RatLit):
            built.append(from_rational(node.value))
            continue
        if not isinstance(node, (Avg, Add, Affine)):
            raise TypeError("not an Expr: %r" % (node,))
        if not operands_built:
            todo += [(node, True), (node.right, False), (node.left, False)]
            continue
        right = built.pop()
        left = built.pop()
        if isinstance(node, Avg):
            built.append(average(left, right))
        elif isinstance(node, Add):
            value = left.value + right.value
            if value > 1:
                raise DomainError("add: sum %s exceeds 1" % _fraction_text(value))
            built.append(affine(1, 1, 0, left, right, checked=False))
        else:
            built.append(affine(node.ca, node.cb, node.cc, left, right))
    return built[0]


def eval_command(e: Expr, digits: int, format: str = "digits", decimals: int = 12) -> str:
    """One output line for the evaluated expression; ``digits``,
    ``decimals`` and ``format`` are all checked before anything is built."""
    _count(digits, "digits")
    _count(decimals, "decimals", 1)
    if format not in ("digits", "interval", "decimal"):
        raise ValueError("unknown format: %r" % format)
    x = build_real(e)
    if format == "digits":
        return x.digit_string(digits)
    if format == "interval":
        return str(x.to_interval(digits))
    return x.to_decimal(decimals)


#: The largest denominator of a ``selftest`` coefficient.
_SELFTEST_DEN = 16


def _random_unit_fraction(rng: random.Random, bound: Fraction) -> Fraction:
    den = rng.randint(1, _SELFTEST_DEN)
    max_num = int(bound * den)
    return Fraction(rng.randint(0, max_num), den)


def selftest_command(cases: int, depth: int, seed: int):
    """Random oracle-containment battery; returns (report, exit_code).

    Each case draws a rational and checks its stream, then a checked
    affine combination, then feeds that combination's output stream into
    a second combination with fresh coefficients. The nested stage
    matters: combination outputs use all three digits, and the asymmetric
    coefficients make every consumption rule observable, including the
    ones that pure rational inputs (L and R only) never reach.
    Deterministic for a fixed seed.
    """
    _count(cases, "cases")
    _count(depth, "depth")
    rng = random.Random(seed)
    passed = 0
    failures = []
    for case in range(cases):
        den = rng.randint(1, 10 ** 6)
        r = Fraction(rng.randint(0, den), den)
        ok_rat = from_rational(r).to_interval(depth).contains(r)

        ca = _random_unit_fraction(rng, Fraction(1))
        cb = _random_unit_fraction(rng, 1 - ca)
        cc = _random_unit_fraction(rng, 1 - ca - cb)
        pd = rng.randint(1, 1000)
        qd = rng.randint(1, 1000)
        p = Fraction(rng.randint(0, pd), pd)
        q = Fraction(rng.randint(0, qd), qd)
        z = affine(ca, cb, cc, from_rational(p), from_rational(q))
        exact = ca * p + cb * q + cc
        ok_affine = z.to_interval(depth).contains(exact)

        da = _random_unit_fraction(rng, Fraction(1))
        db = _random_unit_fraction(rng, 1 - da)
        dc = _random_unit_fraction(rng, 1 - da - db)
        s = Fraction(rng.randint(0, 100), 100)
        nested = affine(da, db, dc, from_rational(s), z)
        ok_nested = nested.to_interval(depth).contains(da * s + db * exact + dc)

        if ok_rat and ok_affine and ok_nested:
            passed += 1
        else:
            failures.append(
                "case %d: r=%s ok=%s | ca=%s cb=%s cc=%s p=%s q=%s ok=%s"
                " | da=%s db=%s dc=%s s=%s ok=%s"
                % (case, r, ok_rat, ca, cb, cc, p, q, ok_affine, da, db, dc, s, ok_nested)
            )
    lines = ["%d/%d passed" % (passed, cases)]
    lines.extend(failures)
    return "\n".join(lines), 0 if passed == cases else 1


def fib_command(count: int) -> str:
    """First ``count`` Fibonacci elements plus the two stream checks."""
    _count(count, "count")
    s = fib_stream(1, 1)
    elems = " ".join(_int_text(v) for v in take(s, count))
    inc = str(increasing_to_depth(s, count)).lower()
    loc = str(local_fib_to_depth(s, count)).lower()
    return "%s | increasing: %s | local_fib: %s" % (elems, inc, loc)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcreal",
        description="Exact real arithmetic on [0,1] over lazy L/R/C digit streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr", help="expression, e.g. 'avg(1/3, 1/6)'")
    p_eval.add_argument("--digits", type=int, default=32, help="digits to expand (default 32)")
    p_eval.add_argument(
        "--format", choices=["digits", "interval", "decimal"], default="digits"
    )
    p_eval.add_argument("--decimals", type=int, default=12, help="decimal places for --format decimal")

    p_self = sub.add_parser("selftest", help="random oracle-containment battery")
    p_self.add_argument("--cases", type=int, default=1000)
    p_self.add_argument("--depth", type=int, default=40)
    p_self.add_argument("--seed", type=int, default=42)

    p_fib = sub.add_parser("fib", help="Fibonacci stream demo")
    p_fib.add_argument("--count", type=int, default=10)

    return parser


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.command == "eval":
            print(eval_command(parse_expr(args.expr), args.digits, args.format, args.decimals))
            return 0
        if args.command == "selftest":
            report, code = selftest_command(args.cases, args.depth, args.seed)
            print(report)
            return code
        if args.command == "fib":
            print(fib_command(args.count))
            return 0
    except ExprParseError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (DomainError, ZeroDivisionError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for fewer digits", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command: %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Expression grammar (whitespace insensitive)::

    expr     := rational
              | "avg" "(" expr "," expr ")"
              | "add" "(" expr "," expr ")"
              | "affine" "(" rational "," rational "," rational ";" expr "," expr ")"
    rational := integer | integer "/" integer

Rational literals standing for numbers must lie in [0, 1]. ``add`` is the
unchecked combination 1*x + 1*y + 0 with a best-effort overflow check;
``affine`` runs in checked mode (coefficient sum at most 1).

Exit codes: 0 success, 1 syntax error, 2 domain error or an expression
nested too deeply for the Python stack.
"""

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, ExprParseError
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


Expr = Union[RatLit, Avg, Add, Affine]


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
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        if not self._peek().isdigit():
            self._fail("an integer")
        while self._peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def _rational(self) -> Fraction:
        num = self._integer()
        self._skip_ws()
        if self._peek() == "/":
            self.pos += 1
            den = self._integer()
            if den == 0:
                raise DomainError("rational with zero denominator: %d/0" % num)
            return Fraction(num, den)
        return Fraction(num)

    def _identifier(self) -> str:
        start = self.pos
        while self._peek().isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def expr(self) -> Expr:
        self._skip_ws()
        ch = self._peek()
        if ch.isalpha():
            at = self.pos
            name = self._identifier()
            if name == "avg":
                left, right = self._pair()
                return Avg(left, right)
            if name == "add":
                left, right = self._pair()
                return Add(left, right)
            if name == "affine":
                self._expect("(")
                ca = self._rational()
                self._expect(",")
                cb = self._rational()
                self._expect(",")
                cc = self._rational()
                self._expect(";")
                left = self.expr()
                self._expect(",")
                right = self.expr()
                self._expect(")")
                return Affine(ca, cb, cc, left, right)
            self.pos = at
            self._fail("'avg', 'add' or 'affine'")
        if ch.isdigit() or ch == "-":
            value = self._rational()
            if value < 0 or value > 1:
                raise DomainError("literal %s outside [0, 1]" % value)
            return RatLit(value)
        self._fail("a rational literal, 'avg', 'add' or 'affine'")

    def _pair(self):
        self._expect("(")
        left = self.expr()
        self._expect(",")
        right = self.expr()
        self._expect(")")
        return left, right

    def parse(self) -> Expr:
        e = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail("end of input")
        return e


def parse_expr(text: str) -> Expr:
    """Parse an expression; ExprParseError and DomainError carry positions."""
    return _Parser(text).parse()


def format_expr(e: Expr) -> str:
    """Render an Expr in the grammar's concrete syntax (reparses equal)."""
    if isinstance(e, RatLit):
        return str(e.value)
    if isinstance(e, Avg):
        return "avg(%s, %s)" % (format_expr(e.left), format_expr(e.right))
    if isinstance(e, Add):
        return "add(%s, %s)" % (format_expr(e.left), format_expr(e.right))
    if isinstance(e, Affine):
        return "affine(%s, %s, %s; %s, %s)" % (
            e.ca, e.cb, e.cc, format_expr(e.left), format_expr(e.right)
        )
    raise TypeError("not an Expr: %r" % (e,))


def build_real(e: Expr, check_depth: int) -> ExactReal:
    """Evaluate bottom-up into an ExactReal.

    ``add`` cannot verify its range from coefficients, so it refines both
    operands to ``check_depth`` first and rejects when the interval lower
    bounds alone already push the sum past 1.
    """
    if isinstance(e, RatLit):
        return from_rational(e.value)
    if isinstance(e, Avg):
        return average(build_real(e.left, check_depth), build_real(e.right, check_depth))
    if isinstance(e, Add):
        left = build_real(e.left, check_depth)
        right = build_real(e.right, check_depth)
        low = left.to_interval(check_depth).lo + right.to_interval(check_depth).lo
        if low > 1:
            raise DomainError("add: sum provably exceeds 1 (lower bound %s)" % low)
        return affine(Fraction(1), Fraction(1), Fraction(0), left, right, checked=False)
    if isinstance(e, Affine):
        return affine(
            e.ca, e.cb, e.cc,
            build_real(e.left, check_depth),
            build_real(e.right, check_depth),
        )
    raise TypeError("not an Expr: %r" % (e,))


def eval_command(e: Expr, digits: int, format: str = "digits", decimals: int = 12) -> str:
    """One output line for the evaluated expression."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    x = build_real(e, digits)
    if format == "digits":
        return x.digit_string(digits)
    if format == "interval":
        return str(x.to_interval(digits))
    if format == "decimal":
        return x.to_decimal(decimals)
    raise ValueError("unknown format: %r" % format)


def _random_unit_fraction(rng: random.Random, bound: Fraction, max_den: int = 16) -> Fraction:
    den = rng.randint(1, max_den)
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
    if count < 0:
        raise ValueError("count must be >= 0")
    s = fib_stream(1, 1)
    elems = " ".join(str(v) for v in take(s, count))
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
    raise AssertionError("unreachable command: %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())

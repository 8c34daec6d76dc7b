import random
import subprocess
import sys
from fractions import Fraction
from weakref import WeakValueDictionary

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import read_int, reference_parse
from lrcreal.cli import (
    Add,
    Affine,
    Avg,
    RatLit,
    build_real,
    eval_command,
    fib_command,
    format_expr,
    main,
    parse_expr,
    selftest_command,
)
from lrcreal.digits import prefix_interval, str_to_digits
from lrcreal.engine import RationalNode
from lrcreal.errors import DomainError, ExprParseError
from lrcreal.reals import from_rational
from lrcreal.streams import fib_stream, take


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lrcreal", *args],
        capture_output=True,
        text=True,
    )


def test_parse_examples():
    assert parse_expr("avg(1/3, 1/6)") == Avg(RatLit(Fraction(1, 3)), RatLit(Fraction(1, 6)))
    assert parse_expr("add(1/3,1/6)") == Add(RatLit(Fraction(1, 3)), RatLit(Fraction(1, 6)))
    assert parse_expr("affine(1/2, 1/4, 0; 1/3, 1)") == Affine(
        Fraction(1, 2), Fraction(1, 4), Fraction(0),
        RatLit(Fraction(1, 3)), RatLit(Fraction(1)),
    )
    assert parse_expr("  1 / 2 ") == RatLit(Fraction(1, 2))
    # any decimal digit int() reads, Arabic-Indic ones included
    assert parse_expr("\u0663/\u0664") == RatLit(Fraction(3, 4))


def test_parse_unclosed_call_reports_position():
    with pytest.raises(ExprParseError) as err:
        parse_expr("avg(1/3")
    assert err.value.position == 8
    assert "','" in err.value.expected


def test_parse_errors():
    with pytest.raises(ExprParseError):
        parse_expr("avg(1/3))")  # trailing garbage
    with pytest.raises(ExprParseError):
        parse_expr("median(1/3, 1/6)")
    with pytest.raises(ExprParseError):
        parse_expr("")
    with pytest.raises(DomainError):
        parse_expr("3/2")
    with pytest.raises(DomainError):
        parse_expr("-1/4")
    with pytest.raises(DomainError):
        parse_expr("1/0")
    # superscripts pass str.isdigit, but int() cannot read them
    for text, position, expected in (
        ("\u00b2", 1, "a rational literal, 'avg', 'add' or 'affine'"),
        ("avg(1/3, \u00b9/2)", 10, "a rational literal, 'avg', 'add' or 'affine'"),
        ("1/\u00b2", 3, "an integer"),
        # a name ends where str.isalpha does, though a regex \w runs on
        ("avg\u00b2(1, 1)", 4, "'('"),
        ("avg(1/3 1/2)", 9, "','"),
    ):
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert (err.value.position, err.value.expected) == (position, expected)


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the Expr, or the error's details."""
    try:
        return parse(text)
    except ExprParseError as err:
        return ("syntax", err.position, err.expected, err.found)
    except DomainError as err:
        return ("domain", str(err))


#: Whitespace between tokens, and the decimal digits 0-9 in three scripts:
#: ASCII, Arabic-Indic and fullwidth.
SPACES = ("", "", " ", "\t", "\n", "\u00a0")
DIGIT_SETS = tuple("".join(chr(zero + i) for i in range(10)) for zero in (0x30, 0x660, 0xFF10))


def integer_token(draw, n: int) -> str:
    """``n`` as one token: a sign, then digits in any mix of scripts."""
    return "".join(DIGIT_SETS[draw(st.integers(0, 2))][int(ch)] if ch.isdigit() else ch for ch in str(n))


@st.composite
def rational_tokens(draw):
    """A rational, mostly in [0, 1], one in six below or above or over 0."""
    num = draw(st.integers(0, 9) if draw(st.integers(0, 5)) else st.integers(-3, 40))
    if num in (0, 1) and draw(st.booleans()):
        return [integer_token(draw, num)]
    den = draw(st.integers(max(num, 1), 40) if draw(st.integers(0, 5)) else st.integers(-3, 3))
    return [integer_token(draw, num), "/", integer_token(draw, den)]


def call_tokens(operands):
    """``avg``, ``add`` or ``affine`` around two operand token lists."""
    binary = st.tuples(st.sampled_from(["avg", "add"]), operands, operands).map(
        lambda t: [t[0], "(", *t[1], ",", *t[2], ")"])
    coefficients = st.tuples(rational_tokens(), rational_tokens(), rational_tokens())
    affine = st.tuples(coefficients, operands, operands).map(
        lambda t: ["affine", "(", *t[0][0], ",", *t[0][1], ",", *t[0][2], ";", *t[1], ",", *t[2], ")"])
    return st.one_of(binary, affine)


@st.composite
def spaced_texts(draw):
    """A random tree's tokens, joined by random whitespace."""
    tokens = draw(st.recursive(rational_tokens(), call_tokens, max_leaves=8))
    return "".join(draw(st.sampled_from(SPACES)) + token for token in tokens) + draw(st.sampled_from(SPACES))


#: Pieces a mutation inserts. ``²`` and ``¼`` pass ``str.isdigit`` and
#: regex ``\w`` but neither ``str.isdecimal`` nor ``str.isalpha``; U+0301
#: is a combining mark; the rest are separators, a zero denominator, a
#: name, a stray letter and digits.
PIECES = ("\u00b2", "\u00bc", "\u0301", "-", "/", ";", ",", "(", ")", "1/0", "avg", "x", " ", "\u0663", "7")


@st.composite
def mutated_texts(draw):
    """A spaced text, truncated, then with pieces inserted or deleted."""
    chars = list(draw(spaced_texts()))
    if draw(st.booleans()):
        del chars[draw(st.integers(0, len(chars))):]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(chars)))
        if chars and draw(st.booleans()):
            del chars[min(at, len(chars) - 1)]
        else:
            chars.insert(at, draw(st.sampled_from(PIECES)))
    return "".join(chars)


@settings(deadline=None, max_examples=300)
@given(st.one_of(spaced_texts(), mutated_texts()))
@example("avg\u00b2(1, 1)")
@example("avg(1/3 1/2)")
@example("avg(1/3, 1/6) )")
@example("affine(1/0, x")
@example("affine\u00a0x")
@example("affine(- 1, 0, 0; 0, 0)")
@example("add(1/ , 1)")
@example("avg(-1/-2, \u0663/-\u0664)")
def test_parse_matches_the_reference_parser(text):
    # The same Expr, or the same syntax error (position, expected,
    # found), or the same domain error first.
    assert parse_outcome(parse_expr, text) == parse_outcome(reference_parse, text)


def rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return RatLit(Fraction(rng.randint(0, 12), 12))
    kind = rng.randrange(3)
    left = rand_expr(rng, depth - 1)
    right = rand_expr(rng, depth - 1)
    if kind == 0:
        return Avg(left, right)
    if kind == 1:
        return Add(left, right)
    picks = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(3)]
    return Affine(picks[0], picks[1], picks[2], left, right)


def test_format_parse_round_trip():
    rng = random.Random(83)
    for _ in range(1000):
        e = rand_expr(rng, rng.randint(0, 5))
        assert parse_expr(format_expr(e)) == e


def test_eval_command_examples():
    assert eval_command(parse_expr("1/3"), 6, "digits") == "LRLRLR"
    assert eval_command(parse_expr("0/1"), 4, "digits") == "LLLL"

    line = eval_command(parse_expr("avg(1/3, 1/6)"), 3, "interval")
    lo_text, hi_text = line.strip("[]").split(", ")
    lo, hi = Fraction(lo_text), Fraction(hi_text)
    assert hi - lo == Fraction(1, 8)
    assert lo <= Fraction(1, 4) <= hi

    assert eval_command(parse_expr("1/3"), 6, "decimal", 4) == "0.3333"


def test_add_overflow_is_domain_error():
    with pytest.raises(DomainError):
        build_real(parse_expr("add(3/4, 3/4)"))
    # the check is on each add node's exact value, however deep it sits
    with pytest.raises(DomainError):
        build_real(parse_expr("avg(add(3/4, 3/4), 0)"))
    # sums equal to 1 are representable and fine
    build_real(parse_expr("add(1/2, 1/2)"))
    build_real(parse_expr("avg(add(1/2, 1/2), 1/3)"))


def exact_value(e):
    """Fraction value of ``e`` and whether some add node in it exceeds 1."""
    if isinstance(e, RatLit):
        return e.value, False
    lv, left_over = exact_value(e.left)
    rv, right_over = exact_value(e.right)
    if isinstance(e, Avg):
        return (lv + rv) / 2, left_over or right_over
    if isinstance(e, Add):
        return lv + rv, left_over or right_over or lv + rv > 1
    return e.ca * lv + e.cb * rv + e.cc, left_over or right_over


def draw_fraction(draw, bound=Fraction(1)):
    """A rational in [0, bound] with a small denominator."""
    den = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(0, int(bound * den))), den)


@st.composite
def cli_exprs(draw, depth):
    """An avg/add/affine tree ``depth`` nodes deep along one spine.

    Beside each spine node sits a leaf or a one-node tree. Most add nodes
    get a leaf that keeps their sum at most 1, so deep trees are not all
    rejects. One in twelve makes the sum exactly 1, one in twelve exceeds
    1 by 2**-20 (too little for a refinement to 48 digits to see), and
    one in twelve is free to overflow.
    """
    if depth == 0:
        return RatLit(draw_fraction(draw))
    deep = draw(cli_exprs(depth - 1))
    kind = draw(st.sampled_from((Avg, Add, Affine)))
    fit = draw(st.integers(0, 11)) if kind is Add else 0
    if fit:
        room = max(0, 1 - exact_value(deep)[0])
        if fit == 1:
            side = RatLit(room)
        elif fit == 2:
            side = RatLit(min(1, room + Fraction(1, 2 ** 20)))
        else:
            side = RatLit(draw_fraction(draw, room))
    else:
        side = draw(cli_exprs(draw(st.integers(0, min(1, depth - 1)))))
    left, right = (deep, side) if draw(st.booleans()) else (side, deep)
    if kind is Affine:
        ca = draw_fraction(draw)
        cb = draw_fraction(draw, 1 - ca)
        cc = draw_fraction(draw, 1 - ca - cb)
        return Affine(ca, cb, cc, left, right)
    return kind(left, right)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 30).flatmap(cli_exprs), st.integers(0, 48), st.integers(1, 12))
@example(parse_expr("avg(add(1/2, 1/2), 1/3)"), 16, 6)
@example(parse_expr("avg(add(3/4, 3/4), 0)"), 2, 6)
def test_eval_command_encloses_exact_value(e, n, places):
    e = parse_expr(format_expr(e))
    value, overflows = exact_value(e)
    if overflows:
        for fmt in ("digits", "interval", "decimal"):
            with pytest.raises(DomainError):
                eval_command(e, n, fmt, places)
        return
    out = eval_command(e, n, "digits")
    assert len(out) == n
    assert prefix_interval(str_to_digits(out)).contains(value)
    lo, hi = (Fraction(t) for t in eval_command(e, n, "interval").strip("[]").split(", "))
    assert hi - lo == Fraction(1, 2 ** n)
    assert lo <= value <= hi
    assert abs(Fraction(eval_command(e, n, "decimal", places)) - value) <= Fraction(1, 10 ** places)


def test_selftest_command():
    report, code = selftest_command(50, 40, 42)
    assert report.splitlines()[0] == "50/50 passed"
    assert code == 0
    report, code = selftest_command(0, 40, 1)
    assert report == "0/0 passed"
    assert code == 0
    with pytest.raises(ValueError, match="cases must be >= 0"):
        selftest_command(-5, 40, 1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        selftest_command(5, -1, 1)


def test_selftest_is_deterministic():
    assert selftest_command(25, 30, 7) == selftest_command(25, 30, 7)


def test_selftest_catches_consumption_table_typo(monkeypatch):
    # swap one consumption row for its mirror (the classic transcription
    # slip) and make sure the battery notices and dumps the failing case
    import lrcreal.engine as engine_module
    from lrcreal.digits import Digit

    original = engine_module._carry

    def swapped(d1, d2, A, B, C):
        if (d1, d2) == (Digit.R, Digit.C):
            return original(Digit.C, Digit.R, A, B, C)
        return original(d1, d2, A, B, C)

    monkeypatch.setattr(engine_module, "_carry", swapped)
    # Automata cache the steps they took, so the patched nodes get fresh ones.
    monkeypatch.setattr(engine_module, "_AUTOMATA", WeakValueDictionary())
    report, code = selftest_command(100, 40, 42)
    assert code != 0
    assert "ok=False" in report


def test_fib_command():
    assert fib_command(6) == "1 1 2 3 5 8 | increasing: true | local_fib: true"
    assert fib_command(10).split(" | ")[0].split()[-1] == "55"
    line = fib_command(0)
    assert "increasing: true" in line and "local_fib: true" in line


def test_fib_command_past_int_str_limit():
    # Element 3,064 has more than 640 decimal digits, the lowest limit
    # Python accepts; the line renders it in full all the same.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        line = fib_command(3065)
    finally:
        sys.set_int_max_str_digits(limit)
    last = line.split(" | ")[0].split()[-1]
    assert len(last) > 640
    assert int(last) == take(fib_stream(1, 1), 3065)[-1]


def test_main_in_process_exit_codes():
    assert main(["eval", "1/3", "--digits", "6"]) == 0
    assert main(["eval", "\u0663/\u0664", "--digits", "6"]) == 0
    assert main(["eval", "avg(1/3"]) == 1
    assert main(["eval", "\u00b2"]) == 1
    assert main(["eval", "avg(1/3, \u00b9/2)"]) == 1
    assert main(["eval", "1/\u00b2"]) == 1
    assert main(["eval", "3/2"]) == 2
    assert main(["eval", "add(3/4, 3/4)"]) == 2
    # add's verdict does not depend on how many digits are asked for
    assert main(["eval", "add(3/4, 3/4)", "--digits", "0"]) == 2
    assert main(["eval", "add(3/4, 3/4)", "--digits", "1"]) == 2
    assert main(["eval", "add(3/4, 3/4)", "--digits", "2", "--format", "decimal"]) == 2
    assert main(["eval", "avg(add(3/4, 3/4), 0)", "--digits", "2"]) == 2
    assert main(["fib", "--count", "3"]) == 0
    assert main(["selftest", "--cases", "-5"]) == 2
    assert main(["selftest", "--depth", "-1"]) == 2


def test_main_reports_out_of_memory_as_exit_2(capsys, monkeypatch):
    # A leaf that cannot hold the digits asked for: one error line and
    # exit 2, not a traceback and the syntax-error code. The patched fill
    # raises at once, so nothing large is allocated.
    def out_of_memory(self, n):
        raise MemoryError

    monkeypatch.setattr(RationalNode, "fill", out_of_memory)
    assert main(["eval", "1/3", "--digits", "10000000000"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory; ask for fewer digits\n")


def test_main_eval_interval_output(capsys):
    # pinned from the Fraction refine fold; endpoints print in lowest terms
    assert main(["eval", "avg(1/3, 1/6)", "--format", "interval"]) == 0
    assert capsys.readouterr().out == "[2147483647/8589934592, 2147483649/8589934592]\n"
    expr = "affine(1/3, 1/4, 1/8; 1/5, avg(1/3, 2/7))"
    assert main(["eval", expr, "--format", "interval", "--digits", "5"]) == 0
    assert capsys.readouterr().out == "[1/4, 9/32]\n"


def test_main_eval_interval_past_int_str_limit(capsys):
    # Python refuses to turn an int of more than 4300 decimal digits into
    # text by default, and the endpoints at 20,000 digits have over 6,000.
    # The output is read back in short chunks.
    assert main(["eval", "1/3", "--format", "interval", "--digits", "20000"]) == 0
    lo, hi = (
        Fraction(*map(read_int, end.split("/")))
        for end in capsys.readouterr().out.strip().strip("[]").split(", ")
    )
    iv = from_rational(Fraction(1, 3)).to_interval(20000)
    assert (lo, hi) == (iv.lo, iv.hi)


#: 5000 threes: more decimal digits than Python converts to or from text
#: by default (4300).
THREES = "3" * 5000


def test_main_reads_literals_past_int_str_limit(capsys):
    assert main(["eval", "1/" + THREES, "--digits", "8"]) == 0
    assert capsys.readouterr().out == from_rational(Fraction(1, (10 ** 5000 - 1) // 3)).digit_string(8) + "\n"
    assert main(["eval", "1" * 5000 + "/" + THREES, "--digits", "64"]) == 0
    assert capsys.readouterr().out == from_rational(Fraction(1, 3)).digit_string(64) + "\n"
    e = parse_expr("affine(1/%s, 0, 0; %s/%s0, 1)" % (THREES, THREES, THREES))
    assert parse_expr(format_expr(e)) == e


def test_domain_errors_past_int_str_limit(capsys):
    # The messages render big literals in full instead of failing on them.
    assert main(["eval", THREES + "/1"]) == 2
    assert capsys.readouterr().err == "error: literal %s outside [0, 1]\n" % THREES
    assert main(["eval", THREES + "/0"]) == 2
    assert capsys.readouterr().err == "error: rational with zero denominator: %s/0\n" % THREES
    assert main(["eval", "add(1, 1/%s)" % THREES]) == 2
    assert capsys.readouterr().err == "error: add: sum %s4/%s exceeds 1\n" % (THREES[1:], THREES)
    # text below the limit is str(Fraction)'s, byte for byte
    assert main(["eval", "avg(-3/6, 0)"]) == 2
    assert capsys.readouterr().err == "error: literal -1/2 outside [0, 1]\n"
    assert main(["eval", "avg(-5/0, 0)"]) == 2
    assert capsys.readouterr().err == "error: rational with zero denominator: -5/0\n"


def test_main_evaluates_10000_deep_mixed_chain(capsys):
    # Parsing, formatting and building all run on explicit stacks, so a
    # chain far deeper than Python's recursion limit goes through every
    # pass. Dataclass ``==`` on such trees would itself recurse per level,
    # so the round trip is compared as text.
    rng = random.Random(97)
    e = RatLit(Fraction(1, 3))
    for i in range(10_000):
        side = RatLit(Fraction(rng.randint(0, 4), 4))
        kind = i % 3
        if kind == 0:
            e = Avg(e, side) if rng.random() < 0.5 else Avg(side, e)
        elif kind == 1:
            e = Add(e, RatLit(Fraction(0)))
        else:
            e = Affine(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), e, side)
    text = format_expr(e)
    assert format_expr(parse_expr(text)) == text
    assert main(["eval", text, "--digits", "0"]) == 0
    assert capsys.readouterr().out == "\n"


def test_main_evaluates_avg_chains_200_and_1000_deep(capsys):
    for depth in (200, 1000):
        text = "avg(" * depth + "1/3" + ", 1/5)" * depth
        value = Fraction(1, 3)
        for _ in range(depth):
            value = (value + Fraction(1, 5)) / 2
        assert main(["eval", text, "--digits", "64"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 64
        assert prefix_interval(str_to_digits(out)).contains(value)


def test_cli_subprocess_eval():
    done = run_cli("eval", "1/3", "--digits", "6")
    assert done.returncode == 0
    assert done.stdout == "LRLRLR\n"


def test_cli_subprocess_parse_error():
    done = run_cli("eval", "avg(1/3")
    assert done.returncode == 1
    assert "syntax error" in done.stderr


def test_cli_subprocess_domain_error():
    done = run_cli("eval", "3/2")
    assert done.returncode == 2
    assert "outside [0, 1]" in done.stderr


def test_cli_subprocess_selftest_deterministic():
    first = run_cli("selftest", "--cases", "40", "--depth", "40", "--seed", "42")
    second = run_cli("selftest", "--cases", "40", "--depth", "40", "--seed", "42")
    assert first.returncode == 0
    assert first.stdout.splitlines()[0] == "40/40 passed"
    assert first.stdout == second.stdout

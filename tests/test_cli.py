import random
import subprocess
import sys
from fractions import Fraction

import pytest

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
from lrcreal.errors import DomainError, ExprParseError


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
        build_real(parse_expr("add(3/4, 3/4)"), 40)
    # sums equal to 1 are representable and fine
    build_real(parse_expr("add(1/2, 1/2)"), 40)


def test_selftest_command():
    report, code = selftest_command(50, 40, 42)
    assert report.splitlines()[0] == "50/50 passed"
    assert code == 0
    report, code = selftest_command(0, 40, 1)
    assert report == "0/0 passed"
    assert code == 0


def test_selftest_is_deterministic():
    assert selftest_command(25, 30, 7) == selftest_command(25, 30, 7)


def test_selftest_catches_consumption_table_typo(monkeypatch):
    # swap one consumption row for its mirror (the classic transcription
    # slip) and make sure the battery notices and dumps the failing case
    import lrcreal.engine as engine_module
    from lrcreal.digits import Digit

    original = engine_module._carry

    def swapped(d1, d2, a, a_den, b, b_den, c, c_den):
        if (d1, d2) == (Digit.R, Digit.C):
            return original(Digit.C, Digit.R, a, a_den, b, b_den, c, c_den)
        return original(d1, d2, a, a_den, b, b_den, c, c_den)

    monkeypatch.setattr(engine_module, "_carry", swapped)
    report, code = selftest_command(100, 40, 42)
    assert code != 0
    assert "ok=False" in report


def test_fib_command():
    assert fib_command(6) == "1 1 2 3 5 8 | increasing: true | local_fib: true"
    assert fib_command(10).split(" | ")[0].split()[-1] == "55"
    line = fib_command(0)
    assert "increasing: true" in line and "local_fib: true" in line


def test_main_in_process_exit_codes():
    assert main(["eval", "1/3", "--digits", "6"]) == 0
    assert main(["eval", "avg(1/3"]) == 1
    assert main(["eval", "3/2"]) == 2
    assert main(["eval", "add(3/4, 3/4)"]) == 2
    assert main(["fib", "--count", "3"]) == 0


def test_main_eval_interval_output(capsys):
    # pinned from the Fraction refine fold; endpoints print in lowest terms
    assert main(["eval", "avg(1/3, 1/6)", "--format", "interval"]) == 0
    assert capsys.readouterr().out == "[2147483647/8589934592, 2147483649/8589934592]\n"
    expr = "affine(1/3, 1/4, 1/8; 1/5, avg(1/3, 2/7))"
    assert main(["eval", expr, "--format", "interval", "--digits", "5"]) == 0
    assert capsys.readouterr().out == "[1/4, 9/32]\n"


def test_main_reports_deep_nesting_as_exit_2(capsys):
    text = "avg(" * 1000 + "1/3" + ", 1/6)" * 1000
    assert main(["eval", text]) == 2
    assert "error: expression nested too deeply" in capsys.readouterr().err


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

"""Seeded inputs, the operation each one drives, and a Fraction oracle.

Every workload is a list of *cycles*. A cycle is a fixed mix of operation
templates; the seed only picks the rationals, coefficients and node types
that fill the templates. The timed loop always runs whole cycles, so each
run sees the same mix and the latency percentiles land in the same place
whatever the seed.

Nothing here imports ``lrcreal``: inputs are plain data (Fractions and
strings), and the library modules arrive as the ``lr`` argument, so input
generation never depends on the code under test. The oracle below is
written from the digit semantics alone (L keeps the left half, R the
right half, C the centred half) and shares no code with the library.
"""

import random
from fractions import Fraction

ONE = Fraction(1)


# --- oracle -----------------------------------------------------------------

_R_BITS = str.maketrans("LRC", "010")
_C_BITS = str.maketrans("LRC", "001")


def digits_enclose(text, n, value):
    """Is ``text`` n L/R/C digits whose interval contains ``value``?

    After n digits the interval is [m, m + 2] / 2**(n + 1), where m adds
    weight 2 for every R and 1 for every C at its binary position.
    """
    if len(text) != n or text.strip("LRC"):
        return False
    if n == 0:
        return 0 <= value <= 1
    m = 2 * int(text.translate(_R_BITS), 2) + int(text.translate(_C_BITS), 2)
    den = 1 << (n + 1)
    return m * value.denominator <= value.numerator * den <= (m + 2) * value.denominator


def interval_encloses(lo, hi, n, value):
    """Are [lo, hi] exactly 2**-n wide and around ``value``?"""
    lo, hi = Fraction(lo), Fraction(hi)
    return hi - lo == Fraction(1, 1 << n) and lo <= value <= hi


def parse_interval(text):
    """The endpoints of an interval printed as ``[lo, hi]``."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("not an interval: %r" % text)
    lo, hi = text[1:-1].split(",")
    return Fraction(lo.strip()), Fraction(hi.strip())


def decimal_within(text, places, value):
    """Is the decimal ``text`` within 10**-places of ``value``?"""
    whole, _, frac = text.partition(".")
    if len(frac) != places:
        return False
    return abs(Fraction(int(whole + frac), 10 ** places) - value) <= Fraction(1, 10 ** places)


def decimal_depth(places):
    """Digits a decimal with ``places`` places refines: 10**places to a quarter ulp."""
    return (10 ** places).bit_length() + 2


# --- expression trees ---------------------------------------------------------
#
# A tree is ("lit", r), ("avg", x, y), ("add", x, y) or
# ("affine", ca, cb, cc, x, y). expand_long builds them through the reals
# API, nested_eval renders them as CLI text.


def value_of(node):
    """Exact value of a tree, by Fraction arithmetic only."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "avg":
        return (value_of(node[1]) + value_of(node[2])) / 2
    if kind == "add":
        return value_of(node[1]) + value_of(node[2])
    _, ca, cb, cc, x, y = node
    return ca * value_of(x) + cb * value_of(y) + cc


def render(node):
    """The tree in the CLI grammar."""
    kind = node[0]
    if kind == "lit":
        return str(node[1])
    if kind in ("avg", "add"):
        return "%s(%s, %s)" % (kind, render(node[1]), render(node[2]))
    _, ca, cb, cc, x, y = node
    return "affine(%s, %s, %s; %s, %s)" % (ca, cb, cc, render(x), render(y))


def build(lr, node):
    """The tree as an ExactReal, built through the public reals functions."""
    kind = node[0]
    if kind == "lit":
        return lr.reals.from_rational(node[1])
    if kind == "avg":
        return lr.reals.average(build(lr, node[1]), build(lr, node[2]))
    if kind == "add":
        return lr.reals.affine(ONE, ONE, 0, build(lr, node[1]), build(lr, node[2]), checked=False)
    _, ca, cb, cc, x, y = node
    return lr.reals.affine(ca, cb, cc, build(lr, x), build(lr, y))


def rand_fraction(rng, hi=ONE, max_den=1000):
    """A rational in [0, hi] with denominator at most ``max_den``."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, int(hi * den)), den)


def rand_coefficients(rng):
    """Positive, pairwise distinct ca, cb, cc with ca + cb + cc <= 1."""
    den = rng.randint(16, 24)
    while True:
        a = rng.randint(1, den - 3)
        b = rng.randint(1, den - a - 2)
        c = rng.randint(1, den - a - b)
        if len({a, b, c}) == 3:
            return Fraction(a, den), Fraction(b, den), Fraction(c, den)


# --- workloads ----------------------------------------------------------------


class Workload:
    """One seeded op mix. ``run`` is the timed call; the rest is untimed."""

    name = ""

    def cycles(self, seed, count):
        rng = random.Random("%s:%d" % (self.name, seed))
        return [self.cycle(rng) for _ in range(count)]

    def cycle(self, rng):
        raise NotImplementedError

    def run(self, lr, spec, shared):
        """Execute one op; ``shared`` lives for one cycle."""
        raise NotImplementedError

    def check(self, spec, out):
        """Does ``out`` agree with the Fraction oracle?"""
        raise NotImplementedError

    def digits(self, spec):
        """Digits the op emits or refines, for ``digits_per_s``."""
        raise NotImplementedError


class ExpandLong(Workload):
    """Long digit expansions: engine-bound, no interval work."""

    name = "expand_long"
    N = 3000

    def cycle(self, rng):
        p = rand_fraction(rng, max_den=10 ** 6)
        add = ("add", ("lit", p), ("lit", rand_fraction(rng, 1 - p, 10 ** 6)))
        # An affine's output carries C digits; feeding it on the left, on
        # the right and on both sides of another affine reaches every
        # pair of input digits the consumption step distinguishes.
        def inner():
            return ("affine",) + rand_coefficients(rng) + (
                ("lit", rand_fraction(rng, max_den=10 ** 6)),
                ("lit", rand_fraction(rng, max_den=10 ** 6)),
            )
        lit = ("lit", rand_fraction(rng, max_den=10 ** 6))
        trees = [
            add,
            ("affine",) + rand_coefficients(rng) + (inner(), lit),
            ("affine",) + rand_coefficients(rng) + (lit, inner()),
            ("affine",) + rand_coefficients(rng) + (inner(), inner()),
        ]
        return [{"tree": t, "n": self.N, "value": value_of(t)} for t in trees]

    def run(self, lr, spec, shared):
        return build(lr, spec["tree"]).digit_string(spec["n"])

    def check(self, spec, out):
        return digits_enclose(out, spec["n"], spec["value"])

    def digits(self, spec):
        return spec["n"]


class QueryDeep(Workload):
    """Deep interval, decimal and compare queries on rational reals."""

    name = "query_deep"
    DEPTHS = (1000, 4000, 8000)
    #: Reals per cycle, each queried at 1k; the first is also queried at
    #: 4k and 8k. With 6 cheap 1k intervals and decimals below the 3 1k
    #: compares and 6 deeper ops above them, p50 lands mid-way through
    #: the 1k compares and p90 among the 4k compare and 8k queries.
    REALS = 3

    def cycle(self, rng):
        ops = []
        for i in range(self.REALS):
            x = rand_fraction(rng, max_den=10 ** 6)
            for depth in self.DEPTHS if i == 0 else self.DEPTHS[:1]:
                ops.append({"kind": "interval", "real": i, "x": x, "depth": depth})
                ops.append({"kind": "decimal", "real": i, "x": x, "places": (depth - 2) * 3 // 10})
                ops.append(self.compare_spec(rng, i, x, depth))
        return ops

    @staticmethod
    def compare_spec(rng, i, x, depth):
        # Equal values never separate; a gap of 4 * 2**-depth must
        # separate by ``depth``. Either way both streams are refined
        # almost to ``depth``.
        gap = rng.choice((0, Fraction(4, 1 << depth)))
        y = x - gap if x - gap >= 0 and (x + gap > 1 or rng.random() < 0.5) else x + gap
        return {"kind": "compare", "real": i, "x": x, "y": y, "depth": depth}

    def run(self, lr, spec, shared):
        x = shared.get(spec["real"])
        if x is None:
            x = shared[spec["real"]] = lr.reals.from_rational(spec["x"])
        kind = spec["kind"]
        if kind == "interval":
            iv = x.to_interval(spec["depth"])
            return Fraction(iv.lo), Fraction(iv.hi)
        if kind == "decimal":
            return x.to_decimal(spec["places"])
        verdict = lr.reals.compare(x, lr.reals.from_rational(spec["y"]), spec["depth"])
        if isinstance(verdict, str):
            return verdict
        return ("indistinguishable", Fraction(verdict.resolution))

    def check(self, spec, out):
        x, kind = spec["x"], spec["kind"]
        if kind == "interval":
            return interval_encloses(out[0], out[1], spec["depth"], x)
        if kind == "decimal":
            return decimal_within(out, spec["places"], x)
        y, width = spec["y"], Fraction(1, 1 << spec["depth"])
        if out == "less":
            return x < y
        if out == "greater":
            return x > y
        # Two overlapping intervals of this width: values within 2 widths.
        return out == ("indistinguishable", width) and abs(x - y) <= 2 * width

    def digits(self, spec):
        if spec["kind"] == "decimal":
            return decimal_depth(spec["places"])
        return spec["depth"] * (2 if spec["kind"] == "compare" else 1)


class NestedEval(Workload):
    """CLI traffic: parse_expr, then eval_command (which runs build_real)."""

    name = "nested_eval"
    #: (nesting depth, --digits) per op of a cycle. Deep trees get few
    #: digits and shallow ones many, so no single op dominates a cycle.
    #: Fifteen ops of distinct cost put p50 and p90 each in the middle of
    #: one template's latencies (the 8th and 14th cheapest), not on the
    #: step between two.
    TEMPLATES = (
        (2, 512), (3, 32), (4, 256), (6, 128), (8, 512), (12, 64), (16, 256), (24, 32),
        (32, 128), (48, 64), (64, 32), (80, 64), (100, 32), (125, 32), (125, 64),
    )
    FORMATS = ("digits", "interval", "decimal")
    #: Index of the template whose op must be rejected by ``add``.
    REJECT = 5

    def cycle(self, rng):
        ops = []
        for i, (depth, digits) in enumerate(self.TEMPLATES):
            if i != self.REJECT:
                tree, value = self.spine(rng, depth)
            else:
                # Overflow by more than 4 * 2**-digits: the add check,
                # which refines both operands to ``digits``, must reject.
                tree, value = self.spine(rng, depth - 1)
                while value <= Fraction(4, 1 << digits):
                    tree, value = self.spine(rng, depth - 1)
                tree, value = ("add", tree, ("lit", ONE)), None
            ops.append({
                "text": render(tree), "digits": digits, "format": self.FORMATS[i % 3],
                "decimals": max(1, digits * 3 // 10), "value": value,
            })
        return ops

    @staticmethod
    def spine(rng, depth):
        """A chain ``depth`` nodes deep with a literal beside every node.

        Node types come from a shuffled equal mix, so every tree of a
        given depth does about the same work whatever the seed. Each add
        keeps its exact sum at most 1. Returns the tree and its value.
        """
        order = [("avg", "add", "affine")[i % 3] for i in range(depth)]
        rng.shuffle(order)
        node = ("lit", rand_fraction(rng))
        v = node[1]
        for kind in order:
            r = rand_fraction(rng, 1 - v if kind == "add" else ONE)
            coeffs = rand_coefficients(rng) if kind == "affine" else ()
            spine_left = rng.random() < 0.5

            def arrange(x):
                pair = (x, ("lit", r)) if spine_left else (("lit", r), x)
                return (kind,) + coeffs + pair

            node, v = arrange(node), value_of(arrange(("lit", v)))
        return node, v

    def run(self, lr, spec, shared):
        expr = lr.cli.parse_expr(spec["text"])
        try:
            return lr.cli.eval_command(expr, spec["digits"], spec["format"], spec["decimals"])
        except lr.errors.DomainError:
            if spec["value"] is None:
                return "DomainError"
            raise

    def check(self, spec, out):
        value, n = spec["value"], spec["digits"]
        if value is None:
            return out == "DomainError"
        if spec["format"] == "digits":
            return digits_enclose(out, n, value)
        if spec["format"] == "interval":
            return interval_encloses(*parse_interval(out), n, value)
        return decimal_within(out, spec["decimals"], value)

    def digits(self, spec):
        if spec["value"] is None:
            return 0
        if spec["format"] == "decimal":
            return decimal_depth(spec["decimals"])
        return spec["digits"]


WORKLOADS = {w.name: w for w in (ExpandLong(), QueryDeep(), NestedEval())}

"""lrcreal benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload expand_long --seed 7 --seconds 20 --trace 0

Run from the repository root. lrcreal is imported from ``src/`` next to
this directory; without it the run exits non-zero before printing a
result. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones, from a separate traced pass (see NOTES.md).

End-to-end times are scaled to a nominal machine speed, measured by a
fixed ``reference()`` routine run between ops, so that a shared host's
changing speed cancels out; the unscaled wall-clock figures go to
standard error.

``python3 bench/run.py --print-golden`` prints the per-op digests of the
pinned seed's first cycle, the content of ``golden.json``.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
MODULES = ("cli", "reals", "engine", "streams", "digits", "errors")

#: Seed whose first cycle every run replays against ``golden.json``.
PINNED_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Seconds one ``reference()`` call takes at nominal machine speed: about
#: its fastest time in a tight loop on the 2-vCPU Xeon guest the benchmark
#: was sized on.
REF_NOMINAL_S = 0.0017
#: ``reference()`` calls between timed ops and before and after each set-up.
REF_PER_OP = 2
#: Cycles of inputs generated per run; longer runs wrap around.
CYCLES = 32
#: A run ends at a cycle boundary with at least this many ops, so p90
#: keeps at least 10 samples beyond it.
MIN_OPS = 110
#: Deepest avg chain probed for ``cli.nesting_depth_limit``.
NESTING_CAP = 2000
#: Wrappers add about three frames per nesting level; deep nested_eval
#: trees need more than the default limit while traced.
TRACED_RECURSION_LIMIT = 4000
#: Per-span statistics, in the order ``spans.Tracer.stats`` keeps them.
SPAN_FIELDS = ("calls", "total_s", "self_s")


def load_lrcreal():
    """Import lrcreal afresh from ``src/``; returns its modules by name."""
    for name in [m for m in sys.modules if m == "lrcreal" or m.startswith("lrcreal.")]:
        del sys.modules[name]
    lr = types.SimpleNamespace(**{m: importlib.import_module("lrcreal." + m) for m in MODULES})
    if not os.path.abspath(lr.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: lrcreal imported from %s, not %s" % (lr.cli.__file__, SRC))
    return lr


class Tally:
    """Ops attempted and failed; prints the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print("bench: FAILED %s" % what, file=sys.stderr)


def run_op(lr, wl, spec, shared, tally):
    """Time one op and check it; returns (seconds, output or None)."""
    start = time.perf_counter()
    try:
        out = wl.run(lr, spec, shared)
    except Exception:  # a stray error is a failed op, not the end of the run
        elapsed = time.perf_counter() - start
        tally.record(False, "%s\n%s" % (spec, traceback.format_exc(limit=4)))
        return elapsed, None
    elapsed = time.perf_counter() - start
    try:
        ok = wl.check(spec, out)
    except (ValueError, TypeError, AttributeError):  # output of the wrong shape
        ok = False
    tally.record(ok, "%s -> %r" % (spec, out))
    return elapsed, out


@dataclass(frozen=True)
class _RefState:
    a: int
    b: int
    c: int


def reference():
    """Fixed interpreted work in the library's style, with no lrcreal code.

    Frozen-dataclass steps on growing ints with gcd reduction, as in the
    engine, then 400 Fraction halvings, as in interval refinement. Its
    time tracks how fast the machine runs interpreted code right now.
    """
    s = _RefState(3, 5, 7)
    for i in range(150):
        a, b, c = s.a * 2 + i, s.b * 3 + 1, s.c * 2 + s.a
        g = gcd(gcd(a, b), c) or 1
        s = _RefState(a // g, b // g, c // g)
    lo, hi = Fraction(0), Fraction(1)
    for i in range(400):
        mid = (lo + hi) / 2
        if i % 3:
            hi = mid
        else:
            lo = mid
    return s, lo


def reference_times():
    times = []
    for _ in range(REF_PER_OP):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return times


def run_cycle(lr, wl, cycle, tally):
    """Run one cycle; returns per-op seconds and outputs."""
    shared = {}
    results = [run_op(lr, wl, spec, shared, tally) for spec in cycle]
    return [r[0] for r in results], [r[1] for r in results]


def set_up(wl, seed, tally):
    """Import, generate inputs and finish one warm-up op, several times.

    Returns the median set-up time at nominal speed and the raw median.
    """
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        refs = reference_times()
        start = time.perf_counter()
        lr = load_lrcreal()
        cycles = wl.cycles(seed, CYCLES)
        run_op(lr, wl, cycles[0][0], {}, tally)
        raw.append(time.perf_counter() - start)
        refs += reference_times()
        times.append(raw[-1] * REF_NOMINAL_S / statistics.median(refs))
    return lr, cycles, statistics.median(times), statistics.median(raw)


def timed_cycle(lr, wl, cycle, tally):
    """Run one cycle with reference calls between ops.

    Returns the raw op times and each op's speed factor: nominal over the
    median reference time just before and just after the op. Raw time
    times factor is the op's time at nominal speed.
    """
    shared, times, refs = {}, [], [reference_times()]
    for spec in cycle:
        times.append(run_op(lr, wl, spec, shared, tally)[0])
        refs.append(reference_times())
    factors = [REF_NOMINAL_S / statistics.median(before + after) for before, after in zip(refs, refs[1:])]
    return times, factors


def timed_loop(lr, wl, cycles, seconds, tally):
    """Whole cycles until ``seconds`` have passed and MIN_OPS ops are done."""
    latencies, factors, cycle_digits = [], [], []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or sum(map(len, latencies)) < MIN_OPS:
        cycle = cycles[k % len(cycles)]
        times, factor = timed_cycle(lr, wl, cycle, tally)
        latencies.append(times)
        factors.append(factor)
        cycle_digits.append(sum(wl.digits(spec) for spec in cycle))
        k += 1
    return latencies, factors, cycle_digits


def digest(out):
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def check_golden(lr, wl, tally):
    """Replay the pinned seed's first cycle; outputs must match the seed engine's."""
    with open(os.path.join(BENCH, "golden.json")) as f:
        expected = json.load(f)[wl.name]
    _, outs = run_cycle(lr, wl, wl.cycles(PINNED_SEED, 1)[0], tally)
    for i, (out, want) in enumerate(zip(outs, expected)):
        tally.record(digest(out) == want, "golden op %d digest %s != %s" % (i, digest(out), want))
    if len(outs) != len(expected):
        tally.record(False, "golden op count %d != %d" % (len(outs), len(expected)))


def timing_metrics(latencies, digits, per_cycle):
    """Rates and latency percentiles from per-cycle op times in seconds."""
    busy = [sum(times) for times in latencies]
    deciles = statistics.quantiles([t * 1e3 for times in latencies for t in times], n=10)
    return {
        # Rates are medians over cycles: a burst of load from outside
        # the process shifts a few cycles, not the reported rate.
        "ops_per_s": statistics.median(per_cycle / b for b in busy),
        "digits_per_s": statistics.median(d / b for d, b in zip(digits, busy)),
        "op_ms_p50": deciles[4],
        "op_ms_p90": deciles[8],
    }


def end_to_end(lr, wl, cycles, seconds, setup_s, setup_raw_s, tally):
    latencies, factors, digits = timed_loop(lr, wl, cycles, seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_cycle = len(cycles[0])
    raw = timing_metrics(latencies, digits, per_cycle)
    raw["setup_s"] = setup_raw_s
    flat = [f for fs in factors for f in fs]
    print("bench: wall-clock %s; speed factor median %.4f, range %.4f to %.4f"
          % (json.dumps(raw), statistics.median(flat), min(flat), max(flat)), file=sys.stderr)
    nominal = timing_metrics([[t * f for t, f in zip(*cycle)] for cycle in zip(latencies, factors)], digits, per_cycle)
    return dict(nominal, setup_s=setup_s, peak_rss_mb=peak_rss_mb)


def nesting_depth_limit(lr, tally):
    """Deepest avg chain eval_command evaluates at 64 digits, up to the cap.

    Bisection assumes that a chain which overflows the stack at depth d
    also does at every greater depth.
    """
    third, fifth = Fraction(1, 3), Fraction(1, 5)

    def evaluates(depth):
        expr, value = lr.cli.RatLit(third), third
        for _ in range(depth):
            expr, value = lr.cli.Avg(expr, lr.cli.RatLit(fifth)), (value + fifth) / 2
        try:
            out = lr.cli.eval_command(expr, 64)
        except RecursionError:
            return False
        tally.record(workloads.digits_enclose(out, 64, value), "avg chain %d -> %s" % (depth, out))
        return True

    if evaluates(NESTING_CAP):
        return NESTING_CAP
    lo, hi = 0, NESTING_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluates(mid):
            lo = mid
        else:
            hi = mid
    return lo


def passes(run_pass, seconds):
    """Repeat ``run_pass`` until ``seconds`` have passed, at least once."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_pass())
    return results


def per_layer(lr, wl, cycles, seconds, seed, names, tally):
    """Per-layer numbers from traced passes over the first cycle.

    Untraced passes take a third of the time and traced passes the rest;
    every pass runs the same ops, so counts repeat exactly per seed.
    """
    limit = nesting_depth_limit(lr, tally)
    cycle = cycles[0]
    untraced = passes(lambda: sum(run_cycle(lr, wl, cycle, tally)[0]), seconds / 3)

    tracer = spans.Tracer()
    tracer.install(lr)
    default_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(default_limit, TRACED_RECURSION_LIMIT))
    op_ids = itertools.count()

    def traced_pass():
        before = {k: list(v) for k, v in tracer.stats.items()}
        cells = tracer.counts["cells_computed"]
        shared, busy = {}, 0.0
        for spec in cycle:
            tracer.begin_op(next(op_ids))
            busy += run_op(lr, wl, spec, shared, tally)[0]
            tracer.end_op()
        stats = {k: [a - b for a, b in zip(v, before.get(k, (0, 0, 0)))] for k, v in tracer.stats.items()}
        return busy, stats, tracer.counts["cells_computed"] - cells

    try:
        traced = passes(traced_pass, seconds * 2 / 3)
    finally:
        sys.setrecursionlimit(default_limit)
        tracer.uninstall()
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, "%s-seed%d.jsonl" % (wl.name, seed)))

    def med(span, field):
        index = SPAN_FIELDS.index(field)
        scale = 1 if field == "calls" else 1e-9
        return statistics.median(p[1][span][index] for p in traced) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in SPAN_FIELDS:
            metrics[name] = med(span, field)
    produced = med("engine.production_step", "calls")
    cells = statistics.median(p[2] for p in traced)
    metrics.update({
        "engine.states_per_digit": ratio(med("engine.decide", "calls"), produced),
        "engine.input_digits_per_digit": ratio(2 * med("engine.consume", "calls"), produced),
        "engine.coeff_bits_max": tracer.counts["coeff_bits_max"],
        "streams.cells_computed": cells,
        "streams.memo_hit_ratio": 1 - ratio(cells, med("streams.force", "calls")),
        "cli.nesting_depth_limit": limit,
        "trace.overhead_ratio": statistics.median(p[0] for p in traced) / statistics.median(untraced),
    })
    return metrics


def print_golden():
    tally = Tally()
    lr = load_lrcreal()
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        _, outs = run_cycle(lr, wl, wl.cycles(PINNED_SEED, 1)[0], tally)
        golden[name] = [digest(out) for out in outs]
    if tally.failed:
        raise SystemExit("bench: %d golden ops fail the oracle" % tally.failed)
    print(json.dumps(golden, indent=1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-golden", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "lrcreal", "__init__.py")):
        raise SystemExit("bench: no lrcreal sources under %s" % SRC)
    sys.path.insert(0, SRC)
    if args.print_golden:
        print_golden()
        return
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = workloads.WORKLOADS[args.workload]
    tally = Tally()
    lr, cycles, setup_s, setup_raw_s = set_up(wl, args.seed, tally)
    if args.trace:
        values = per_layer(lr, wl, cycles, args.seconds, args.seed, [m["name"] for m in wanted], tally)
    else:
        values = end_to_end(lr, wl, cycles, args.seconds, setup_s, setup_raw_s, tally)
    check_golden(lr, wl, tally)
    if not args.trace:
        values["ops_ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted

    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit("bench: metrics %s do not match BENCHMARK.json" % sorted(set(values) ^ {m["name"] for m in wanted}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()

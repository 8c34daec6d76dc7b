"""Spans around lrcreal's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function, method or class
attribute with a wrapper and ``Tracer.uninstall`` puts the originals
back; the library itself is not edited. A wrapper times its call, and on
return subtracts the time of the traced calls made inside it, which gives
the span's self time. Per op (a shared op id), the spans are folded into
one record per function: calls, total time of the outermost calls, and
self time. Records stay in memory until ``write``. Folding per op keeps
memory flat: a long expansion makes millions of spans.
"""

import json
import time
from collections import Counter

#: (span name, module attribute, object attribute). The same function
#: often sits in several namespaces (``cli`` imports ``affine`` from
#: ``reals``); every binding that callers look up at call time is
#: replaced, so each call is seen once whichever path reached it.
TARGETS = (
    ("engine.production_step", "engine", "production_step"),
    ("engine.decide", "engine", "decide"),
    ("engine.consume", "engine", "consume"),
    ("engine.normalize", "engine", "normalize"),
    ("streams.force", "streams.Stream", "force"),
    ("digits.refine", "digits", "refine"),
    ("digits.refine", "reals", "refine"),
    ("digits.prefix_interval", "digits", "prefix_interval"),
    ("digits.prefix_interval", "reals", "prefix_interval"),
    ("reals.to_interval", "reals.ExactReal", "to_interval"),
    ("reals.to_decimal", "reals.ExactReal", "to_decimal"),
    ("reals.compare", "reals", "compare"),
    ("reals.affine", "reals", "affine"),
    ("reals.affine", "cli", "affine"),
    ("reals.from_rational", "reals", "from_rational"),
    ("reals.from_rational", "cli", "from_rational"),
    ("cli.parse_expr", "cli", "parse_expr"),
    ("cli.build_real", "cli", "build_real"),
    ("cli.eval_command", "cli", "eval_command"),
)


def _resolve(lr, path):
    obj = lr
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, total_ns, self_ns]
        self.counts = Counter()  # cells_computed, coeff_bits_max
        self._stack = []         # child time of each open span, in ns
        self._depth = Counter()  # open spans per name, for outermost totals
        self._saved = []
        self.records = []
        self._op = None

    def install(self, lr):
        for name, owner, attr in TARGETS:
            obj = _resolve(lr, owner)
            had_own = attr in vars(obj)
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original, had_own))
            setattr(obj, attr, self._wrap(name, original))

    def uninstall(self):
        for obj, attr, original, had_own in reversed(self._saved):
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._saved.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, depth, counts = self._stack, self._depth, self.counts
        clock = time.perf_counter_ns
        forcing = name == "streams.force"
        producing = name == "engine.production_step"

        def span(*args, **kwargs):
            if forcing and args[0]._cell is None:
                counts["cells_computed"] += 1
            stack.append(0)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - inner
                if not depth[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1] += elapsed
            if producing:
                bits = max(c.bit_length() for c in result[1].coefficients)
                if bits > counts["coeff_bits_max"]:
                    counts["coeff_bits_max"] = bits
            return result

        return span

    def begin_op(self, op_id):
        self._op = (op_id, {k: tuple(v) for k, v in self.stats.items()}, time.perf_counter_ns())

    def end_op(self):
        op_id, before, start = self._op
        spans = {}
        for name, (calls, total, self_ns) in self.stats.items():
            c0, t0, s0 = before[name]
            if calls != c0:
                spans[name] = {"calls": calls - c0, "total_s": (total - t0) / 1e9, "self_s": (self_ns - s0) / 1e9}
        self.records.append({"op": op_id, "wall_s": (time.perf_counter_ns() - start) / 1e9, "spans": spans})

    def write(self, path):
        with open(path, "w") as f:
            for record in self.records:
                f.write(json.dumps(record) + "\n")

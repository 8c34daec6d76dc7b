"""The engine work of the benchmark's first cycle, read from node buffers.

Each op of the first cycle of seed 21 is built as ``bench/workloads.py``
builds it and then runs its own query. The work is the total of
``len(node.out)`` (digits produced) and ``node.read`` (input digits read
from each child) over the distinct engine nodes each op's real reaches.
Equal totals mean the engine did the same work; a change that moves them
changes what the engine computes or how far it reads ahead. Over the
first 4 cycles the same walk gives 96,003 digits and 96,012 reads on
``expand_long``, and 251,637 and 253,552 on ``nested_eval``.
"""

import types
from pathlib import Path

import pytest

import lrcreal.cli
import lrcreal.reals
from lrcreal.engine import EngineNode

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
LIBRARY = types.SimpleNamespace(reals=lrcreal.reals)  # all that ``build`` reads
SEED = 21


def _workloads():
    # Read without importing, so no bytecode is written next to the file.
    module = types.ModuleType("workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def engine_work(node):
    """``(digits, reads)`` summed over the engine nodes ``node`` reaches."""
    digits = reads = 0
    seen, todo = set(), [node]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, EngineNode):  # the workloads build no stream leaves
            digits += len(node.out)
            reads += node.read
            todo += [node.left, node.right]
    return digits, reads


def expand_long_reals(workloads, cycles):
    for cycle in workloads.WORKLOADS["expand_long"].cycles(SEED, cycles):
        for spec in cycle:
            x = workloads.build(LIBRARY, spec["tree"])
            x.digit_string(spec["n"])
            yield x


def nested_eval_reals(workloads, cycles):
    for cycle in workloads.WORKLOADS["nested_eval"].cycles(SEED, cycles):
        for spec in cycle:
            if spec["value"] is None:
                continue  # the add reject: build_real raises before any query
            x = lrcreal.cli.build_real(lrcreal.cli.parse_expr(spec["text"]))
            if spec["format"] == "digits":
                x.digit_string(spec["digits"])
            elif spec["format"] == "interval":
                x.to_interval(spec["digits"])
            else:
                x.to_decimal(spec["decimals"])
            yield x


def total_work(reals):
    """``(digits, reads)`` summed over every op's real."""
    digits = reads = 0
    for x in reals:
        d, r = engine_work(x.node)
        digits += d
        reads += r
    return digits, reads


@pytest.mark.parametrize("reals, work", [
    (expand_long_reals, (24_000, 24_001)),
    (nested_eval_reals, (63_857, 64_344)),
])
def test_first_cycle_engine_work(reals, work):
    assert total_work(reals(_workloads(), 1)) == work

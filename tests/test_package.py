"""The package namespace is the union of its library modules' ``__all__``."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import lrcreal

#: The modules the package re-exports; ``cli`` is the command-line layer.
LIBRARY = ("digits", "engine", "errors", "reals", "streams")

#: The names the package exported when it listed them by hand.
LISTED = {
    "Digit", "Interval", "UNIT", "bit_to_digit", "bits_to_value", "digits_to_str", "emit_value",
    "prefix_interval", "refine", "represents_to_depth", "str_to_digits",
    "AffineData", "Decision", "consume", "decide", "measure", "normalize", "prod_C", "prod_L",
    "prod_R", "produce_stream", "state_value",
    "DomainError", "ExprParseError",
    "GREATER", "LESS", "ExactReal", "Indistinguishable", "affine", "average", "compare", "from_rational",
    "LazyList", "NIL", "Stream", "bisimilar_to_depth", "cons", "constant", "decompose", "fib_stream",
    "from_list", "head", "map_lazy", "map_stream", "tail", "take", "unfold",
}


def test_package_exports_each_library_module_all():
    declared = set()
    for name in LIBRARY:
        module = importlib.import_module("lrcreal." + name)
        declared.update(module.__all__)
        for public in module.__all__:
            assert getattr(lrcreal, public) is getattr(module, public)
    public = {name for name in vars(lrcreal) if not name.startswith("_")}
    submodules = {name for name, value in vars(lrcreal).items() if isinstance(value, types.ModuleType)}
    assert public == declared | submodules
    assert len(LISTED) == 47
    assert LISTED <= public


def test_node_graph_internals_are_not_public():
    for name in ("RationalNode", "StreamNode", "EngineNode", "NodeStream", "demand", "stream_node"):
        assert name not in lrcreal.engine.__all__
        assert not hasattr(lrcreal, name)


#: Imports lrcreal afresh five times, as ``bench/run.py``'s ``load_lrcreal``
#: does, and prints which copies' classes outlive a collection.
RELOADS = """
import gc, importlib, sys, weakref
copies = []
for _ in range(5):
    for name in [name for name in sys.modules if name.split(".")[0] == "lrcreal"]:
        del sys.modules[name]
    cli = importlib.import_module("lrcreal.cli")
    digits, engine, errors, reals, streams = (importlib.import_module("lrcreal." + name) for name in %r)
    copies.append([weakref.ref(cls) for cls in (digits.Digit, engine.AffineData, reals.ExactReal, cli.RatLit)])
gc.collect()
print([sum(ref() is not None for ref in refs) for refs in copies])
""" % (LIBRARY,)


def test_a_reloaded_library_frees_its_earlier_copies():
    # A child process: reloading inside this one would mix old and new
    # classes in other tests' identity checks.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", RELOADS], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[0, 0, 0, 0, 4]"

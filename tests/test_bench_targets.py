"""The benchmark's tracer can still find every binding it wraps.

``bench/spans.py`` wraps library functions by module attribute, and a
traced run fails as a whole when one of them is gone. Its ``TARGETS``
table is read here without importing the file as a module (so no
bytecode is written next to it), and each row is resolved against the
library, as is every name a module lists in ``__all__``.
"""

import importlib
import pkgutil
import types
from pathlib import Path

import lrcreal

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_targets_resolve():
    spans = _spans_module()
    for name, owner, attr in spans.TARGETS:
        importlib.import_module("lrcreal." + owner.split(".")[0])
        assert hasattr(spans._resolve(lrcreal, owner), attr), "%s: lrcreal.%s.%s is gone" % (name, owner, attr)


def test_public_names_resolve():
    for info in pkgutil.iter_modules(lrcreal.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module("lrcreal." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "lrcreal.%s.__all__ names missing %s" % (info.name, name)

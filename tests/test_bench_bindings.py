"""Every function the benchmark's traced run wraps still exists in the package.

perfbench/layers.py lists (module, attribute) bindings; its tracer skips a
binding it cannot find, so a renamed or deleted function would only cost
spans, silently. This test reads the list with ast (perfbench/ is neither
imported nor edited) and looks each binding up the way the tracer does.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def bench_bindings():
    """(module, attribute or (class, method)) of every BINDINGS entry."""
    for node in ast.parse(LAYERS.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["BINDINGS"]:
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2])
                    for entry in node.value.elts]
    raise AssertionError(f"no BINDINGS assignment in {LAYERS}")


def test_every_bench_binding_resolves():
    bindings = bench_bindings()
    assert bindings
    missing = []
    for module, attr in bindings:
        owner = importlib.import_module(f"exitbandit.{module}")
        if isinstance(attr, tuple):
            owner, attr = getattr(owner, attr[0]), attr[1]
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{attr}")
    assert missing == []

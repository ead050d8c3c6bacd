"""Every function the benchmark's traced run wraps still exists in the package.

perfbench/layers.py lists (module, attribute) bindings; its tracer skips a
binding it cannot find, so a renamed or deleted function would only cost
spans, silently. This test reads the list with ast (perfbench/ is neither
imported nor edited) and looks each binding up the way the tracer does.
A module keeps an import it never reads only so the tracer can wrap that
name there.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"


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


def unread_imports(path):
    """Names that path's top-level imports bind and the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_imports_kept_only_for_the_tracer_are_bound():
    kept = {(path.stem, name)
            for path in sorted((ROOT / "src" / "exitbandit").glob("*.py"))
            if path.name != "__init__.py" for name in unread_imports(path)}
    assert kept - set(bench_bindings()) == set()

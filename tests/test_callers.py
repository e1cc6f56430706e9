"""Every top-level function and class of the engine has a caller: code in
src/, bench/ or examples/ names it outside its own definition and the
package's __init__.py.  A construction that only tests use belongs in
tests/oracles.py."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "socle"
# README documents it and acceptance 8 calls it, though the engine does not
KEEP = {"complete_betti"}


def top_level(tree):
    return [node for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def names_in(node):
    """Every name, attribute and whole string constant under node: the
    benchmark's tracer names what it wraps as strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def engine_definitions_and_callers():
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in top_level(tree):
            defined[node.name] = path.stem
        for node in tree.body:
            # a definition naming itself (recursion, a method building its
            # own class) is not a caller
            named.update(name for name in names_in(node)
                         if name != getattr(node, "name", None))
    for path in sorted([*REPO.glob("bench/**/*.py"),
                        *REPO.glob("examples/**/*.py")]):
        named.update(names_in(ast.parse(path.read_text(encoding="utf-8"))))
    return defined, named


def test_every_engine_definition_has_a_caller():
    defined, named = engine_definitions_and_callers()
    uncalled = sorted(f"{mod}.{name}" for name, mod in defined.items()
                      if name not in named and name not in KEEP)
    assert uncalled == []
    # and the keep-list holds no name that has since gained a caller
    assert all(name in defined and name not in named for name in KEEP)

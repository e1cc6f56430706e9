"""Imports sit at the top of each module, except where one breaks a cycle
or reaches up a layer: ring -> modules and ring -> instancefile (ring is
below both), and modules -> homology (homology imports modules)."""

import ast
from pathlib import Path

import socle

ALLOWED = [
    ("modules", "presentation_of", ".homology"),
    ("modules", "syzygy", ".homology"),
    ("ring", "_invariants", ".modules"),
    ("ring", "ring_from_strings", ".instancefile"),
]


def function_level_imports(path):
    """(module stem, enclosing function, imported module) for every import
    statement inside a function body."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if func is not None and isinstance(child, ast.ImportFrom):
                found.append((path.stem, func,
                              "." * child.level + (child.module or "")))
            elif func is not None and isinstance(child, ast.Import):
                found.extend((path.stem, func, alias.name)
                             for alias in child.names)
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_function_level_imports_are_only_the_cycle_breakers():
    src = Path(socle.__file__).resolve().parent
    found = sorted(imp for path in sorted(src.glob("*.py"))
                   for imp in function_level_imports(path))
    assert found == ALLOWED

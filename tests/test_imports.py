"""Imports sit at the top of each module, except where one breaks a cycle
or reaches up a layer: ring -> modules and ring -> instancefile (ring is
below both), and modules -> homology (homology imports modules).  Every
name a module or test file imports is read there."""

import ast
from pathlib import Path

import socle

ALLOWED = [
    ("modules", "presentation_of", ".homology"),
    ("modules", "syzygy", ".homology"),
    ("ring", "ring_from_strings", ".instancefile"),
    ("ring", "socle_subspace", ".modules"),
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


def unread_imports(path):
    """(file name, imported name) for every name an import statement in
    the file binds and no expression in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(path.name, name) for name in bound if name not in read]


def test_every_imported_name_is_read():
    # the package's __init__ imports its public namespace, to be read
    # by its users
    src = Path(socle.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    assert [hit for path in paths for hit in unread_imports(path)] == []

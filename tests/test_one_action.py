"""The ring's multiplication has one form and one general routine: the
structure constants live in GradedRing.left_mult alone, and
modules.realize applies them blockwise.  So nothing in src/ names
free_action or reads a .table, and left_mult is read only in ring.py
and by the modules.py routines that build R and R/m^p (_regular_below)
from it, compare two rings (require_same_ring), or lift minimal
generators (min_gen_rmatrix, whose loop over the generators alone was
measured faster than realize).  Tensor and Hom over R go through realize
too, so nothing in src/ defines or calls a Kronecker product."""

import ast
from pathlib import Path

import pytest

import socle

SRC = Path(socle.__file__).resolve().parent
READERS = {"_regular_below", "require_same_ring", "min_gen_rmatrix"}
KRONECKER = {"kron", "_kron_pair"}


def _reads(tree, attr):
    """(enclosing top-level name, line) of every read of attr: as an
    attribute, or named by a string (getattr)."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    or isinstance(node, ast.Constant) and node.value == attr):
                yield owner, node.lineno


def stray_reads(filename, source):
    """Every read the guard forbids in one file of src/."""
    tree = ast.parse(source)
    hits = [("table", line) for _, line in _reads(tree, "table")]
    if filename != "ring.py":
        hits += [("left_mult", line)
                 for owner, line in _reads(tree, "left_mult")
                 if filename != "modules.py" or owner not in READERS]
    return hits


def kronecker_names(source):
    """Lines that define, import or name kron or _kron_pair, as an
    attribute (np.kron) too."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if getattr(node, "name", None) in KRONECKER  # def, import
            or getattr(node, "id", None) in KRONECKER
            or getattr(node, "attr", None) in KRONECKER]


def test_one_form_of_the_structure_constants():
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "free_action" not in source, path.name
        assert stray_reads(path.name, source) == [], path.name
        assert kronecker_names(source) == [], path.name


def test_every_listed_reader_exists():
    # a stale entry would let a new definition of that name read left_mult
    tree = ast.parse((SRC / "modules.py").read_text(encoding="utf-8"))
    assert READERS <= {getattr(top, "name", None) for top in tree.body}


@pytest.mark.parametrize("source", [
    "def kron(F, a, b):\n    return a",
    "out = np.kron(a, b)",
    "from .linalg import kron",
    "from .linalg import kron as k",
    "def f(a, b):\n    return _kron_pair(a, b)",
    "def _kron_pair(a, b):\n    return a",
])
def test_guard_sees_each_kronecker_product(source):
    assert kronecker_names(source)


@pytest.mark.parametrize("filename, source", [
    ("modules.py", "def f(ring):\n    return ring.table[0]"),
    ("ring.py", "class R:\n    def g(self):\n        return self.table"),
    ("homology.py", "t = getattr(ring, 'table')"),
    ("modules.py", "def column_span(ring):\n    return ring.left_mult[0]"),
    ("modules.py", "L = ring.left_mult"),
    ("modules.py", "def cover_matrix(mod):\n    return mod.ring.left_mult"),
    ("homology.py", "def min_gen_rmatrix(ring):\n    return ring.left_mult"),
    ("theorems.py", "def f(r):\n    return getattr(r, 'left_mult')"),
])
def test_guard_sees_each_read(filename, source):
    assert stray_reads(filename, source)


@pytest.mark.parametrize("filename, source", [
    ("modules.py", "def min_gen_rmatrix(ring, K):\n    L = ring.left_mult"),
    ("modules.py", "def _regular_below(ring, n):\n    return ring.left_mult"),
    ("ring.py", "class R:\n    def f(self):\n        return self.left_mult"),
    ("homology.py", "def table(self):\n    return dict(self.window)"),
])
def test_guard_lets_the_readers_through(filename, source):
    assert stray_reads(filename, source) == []

"""Whether Tor vanishes is asked of homology.tor_vanishes alone: outside
homology.py, no tor_dim(...) call in src/ is read as a truth value or
compared with zero.  tor_dim is for the callers that report a dimension.
M's resolution keeps tor_vanishes's answers, so each (M, N, i) is
computed once, and a kept answer agrees with a fresh tor_dim."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

import socle
from socle import homology, theorems
from socle.linalg import GF101, QQ, Field
from socle.modules import FiniteModule
from socle.theorems import agp_example, canned_corpus, check_suite

SRC = Path(socle.__file__).resolve().parent


def _is_tor_dim(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "tor_dim"
            or isinstance(f, ast.Attribute) and f.attr == "tor_dim")


def _is_zero(node):
    return isinstance(node, ast.Constant) and node.value == 0


def _elements(node):
    """The values an any/all/bool argument reads as truth values."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return [node.elt]
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return node.elts
    return [node]


def _truth_tested(tree):
    """Every expression the code reads as a truth value."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.BoolOp):
            yield from node.values
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("any", "all", "bool") and node.args:
            yield from _elements(node.args[0])


def _compared_with_zero(tree):
    """Every operand compared with a literal zero."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            ops = [node.left, *node.comparators]
            for a, b in zip(ops, ops[1:]):
                if _is_zero(b):
                    yield a
                if _is_zero(a):
                    yield b


def vanishing_questions(source):
    """Line numbers of the tor_dim calls that decide vanishing."""
    tree = ast.parse(source)
    found = [*_truth_tested(tree), *_compared_with_zero(tree)]
    return sorted(node.lineno for node in found if _is_tor_dim(node))


def test_no_tor_dim_call_decides_vanishing():
    hits = [(path.name, line)
            for path in sorted(SRC.glob("*.py")) if path.name != "homology.py"
            for line in vanishing_questions(path.read_text(encoding="utf-8"))]
    assert hits == []


@pytest.mark.parametrize("source", [
    "j = next(i for i in r if any(tor_dim(M, N, i) for N in Ns))",
    "_need(tor_dim(M, N, l) == 0, 'Tor_l != 0')",
    "ok = bool(tor_dim(w, w, 2) or tor_dim(w, w, 3))",
    "if homology.tor_dim(M, N, 1):\n    pass",
    "ok = not tor_dim(M, N, 1)",
    "ok = 0 != tor_dim(M, N, 1)",
    "ok = all([tor_dim(M, N, 1), tor_dim(N, M, 1)])",
    "zs = [i for i in r if tor_dim(M, N, i)]",
])
def test_guard_sees_each_form(source):
    assert vanishing_questions(source)


@pytest.mark.parametrize("source", [
    "t1 = tor_dim(w, w, 1)\nok = t1 > 0",
    "tors = [tor_dim(M, w, i) for i in r]",
    "ok = not tor_vanishes(M, N, 1)",
    "ok = tor_dim(M, N, 1) == tor_dim(N, M, 1)",
])
def test_guard_lets_dimensions_through(source):
    assert vanishing_questions(source) == []


# -- the answers each resolution keeps -----------------------------------


def test_repeated_asks_agree_with_a_fresh_tor_dim(monkeypatch):
    # every answer tor_vanishes gives again, from M's resolution, is the
    # vanishing of Tor_i computed by tor_dim on a copy of M, whose own
    # resolution keeps no answers; at cutoff 6 every ask has i <= 6
    asks, copies = {}, {}

    def recording(M, N, i):
        out = vanishes(M, N, i)
        asks.setdefault((M, N, i), []).append(out)
        return out

    vanishes = homology.tor_vanishes
    monkeypatch.setattr(homology, "tor_vanishes", recording)
    monkeypatch.setattr(theorems, "tor_vanishes", recording)
    for F in (Field(2), Field(3), GF101, Field(2**31 - 1), QQ):
        asks.clear()
        copies.clear()
        check_suite([inst for inst in canned_corpus(F)
                     if inst.provenance == "canned"], cutoff=6)
        repeated = [(key, got) for key, got in asks.items() if len(got) > 1]
        assert repeated, F
        for (M, N, i), got in repeated:
            if M not in copies:
                copies[M] = FiniteModule(M.ring, M.actions, validate=False)
            want = homology.tor_dim(copies[M], N, i) == 0
            assert got == [want] * len(got), (F, i)


def test_the_table_holds_no_dropped_module():
    ring, M = agp_example(GF101)
    N = FiniteModule(ring, M.actions, validate=False)
    homology.tor_vanishes(M, N, 1)
    table = homology.resolve(M, 0)._vanishes
    assert list(table.keys()) == [N]
    dropped = weakref.ref(N)
    del N
    gc.collect()
    assert dropped() is None and len(table) == 0


def test_only_tor_vanishes_makes_the_table():
    # tor_dim and ext_dim_direct keep no answers, so a resolution only
    # they read carries no table
    ring, M = agp_example(GF101)
    N = FiniteModule(ring, M.actions, validate=False)
    for i in range(3):
        homology.tor_dim(M, N, i)
        homology.ext_dim_direct(M, N, i)
    assert homology.resolve(M, 0)._vanishes is None
    assert homology.resolve(N, 0)._vanishes is None
    homology.tor_vanishes(M, N, 1)
    assert list(homology.resolve(M, 0)._vanishes.keys()) == [N]


def test_a_cutoff_12_suite_computes_each_vanishing_question_once(
        monkeypatch):
    # 237 distinct (M, N, i) asked of tor_vanishes, and S17 part 2's
    # three tor_dim calls; before the table, 906 cycle counts
    calls = []
    cycles = homology._cycles

    def counting(M, N, i):
        calls.append((M, N, i))
        return cycles(M, N, i)

    monkeypatch.setattr(homology, "_cycles", counting)
    check_suite(canned_corpus(GF101), cutoff=12)
    assert len(calls) == 240

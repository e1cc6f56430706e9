"""The statements' structural hypotheses: one table in theorems.py,
tested by check before each body, and the clause texts they produce."""

import ast
import re
from pathlib import Path

from socle.instancefile import parse_instance
from socle.linalg import GF101
from socle.ring import ring_from_strings
from socle import theorems
from socle.theorems import Instance, canned_corpus, check, registry

from conftest import cyclic, flat_free_instance, module_from_rows

GOLDEN = Path(__file__).resolve().parent / "golden" / "clauses_to4.txt"
THEOREMS = Path(theorems.__file__)
IDS = [s.id for s in registry()] + ["S17.2", "S17.3", "S17.4"]


def clause_instances():
    """The canned corpus, then instances that reach the clauses it does
    not: free and zero modules, a free M presented non-minimally, a ring
    with m^2 != 0 over a square-zero base, and instances missing M, N
    or both."""
    out = canned_corpus()
    for names in (["x", "y"], ["x", "y", "z"]):
        ring, mods = parse_instance(flat_free_instance(names))
        out.append(Instance(f"flat-free-{len(names)}", ring, mods))
    hosts = {inst.name: inst.ring for inst in out}
    gor, cube = hosts["gorenstein-square"], hosts["gorenstein-cube"]
    out.append(Instance("nonminimal-free", gor, {
        "M": module_from_rows(gor, [["1"], ["x"]]), "N": cyclic(gor, ["x"])}))
    ext = ring_from_strings(GF101, ["x", "y1", "y2"],
                            ["x^2", "y1^2", "y1*y2", "y2^2"])
    out.append(Instance("square-zero-extension", ext, {
        "M": cyclic(ext, ["x"]), "N": cyclic(ext, ["y1", "y2"])}))
    out.append(Instance("zero-M", cube, {
        "M": cyclic(cube, ["1"]), "N": cyclic(cube, ["x"])}))
    out.append(Instance("k-and-free-N", cube, {
        "M": cyclic(cube, ["x", "y"]), "N": module_from_rows(cube, [["0"]])}))
    out.append(Instance("zero-N", cube, {
        "M": cyclic(cube, ["x"]), "N": cyclic(cube, ["1"])}))
    out.append(Instance("zero-N-only", cube, {"N": cyclic(cube, ["1"])}))
    for inst in canned_corpus()[:2]:
        for keep in ("M", "N", ""):
            mods = {k: v for k, v in inst.modules.items() if k == keep}
            out.append(Instance(f"{inst.name}/{keep or 'empty'}",
                                inst.ring, mods))
    return out


def clause_lines():
    return [f"{inst.name} {check(sid, inst, cutoff=4)}"
            for inst in clause_instances() for sid in IDS]


def test_clause_texts_match_golden():
    # the first failing hypothesis names each VACUOUS verdict, so any
    # change to the order or text of a clause shows here
    text = "\n".join(clause_lines()) + "\n"
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_every_hypothesis_is_needed_and_reached():
    # each table entry is named by some statement's needs, and is the
    # clause of at least one VACUOUS line of the golden
    needed = {hid for s in theorems._BY_ID.values() for hid in s.needs}
    assert set(theorems._HYPOTHESES) <= needed
    assert needed <= set(theorems._HYPOTHESES)
    golden = GOLDEN.read_text(encoding="utf-8")
    for clause, _ in theorems._HYPOTHESES.values():
        assert f": VACUOUS ({clause})\n" in golden, clause


def _need_clauses(tree):
    """The clause argument of every _need and _conclude call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("_need", "_conclude") \
                and len(node.args) == 2:
            yield node.args[1]


def test_no_clause_is_written_twice():
    # the table's clauses, as check reads them, then every literal and
    # f-string template a body passes to _need or _conclude; a clause
    # two bodies share is one named constant, written once
    texts = [clause for clause, _ in theorems._HYPOTHESES.values()]
    templates, shared = [], set()
    tree = ast.parse(THEOREMS.read_text(encoding="utf-8"))
    for node in _need_clauses(tree):
        if isinstance(node, ast.Constant):
            texts.append(node.value)
        elif isinstance(node, ast.JoinedStr):
            templates.append([v.value if isinstance(v, ast.Constant) else None
                              for v in node.values])
        elif isinstance(node, ast.Name):
            shared.add(node.id)
    texts += [getattr(theorems, name) for name in shared
              if isinstance(getattr(theorems, name, None), str)]
    assert not {x for x in texts if texts.count(x) > 1}
    assert not [t for t in templates if templates.count(t) > 1]
    for t in templates:
        # a field stands for one name or number, such as M or 12
        pattern = "".join(r"-?\w+" if v is None else re.escape(v)
                          for v in t)
        assert not [x for x in texts if re.fullmatch(pattern, x)], t

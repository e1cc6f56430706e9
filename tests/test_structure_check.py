"""FiniteModule's structure check against the one it replaced, which
evaluated every relation polynomial on the actions monomial by monomial
(oracles.structure_verdict).  The check now asks that the actions commute
and that R -> End(M), read through ops(), is an algebra map.  Canned and
random modules, with their actions scaled, transposed, swapped, zeroed or
moved to another ring on as many generators, must be accepted by both or
refused by both with the same message."""

from collections import Counter

import pytest
from oracles import structure_verdict

from socle.linalg import GF101, QQ, Field
from socle.modules import (
    FiniteModule,
    ModuleError,
    canonical_module,
    random_module,
    random_presentation,
    regular_module,
    residue_field,
    truncated_cokernel,
)
from socle.ring import ring_from_strings
from socle.theorems import canned_corpus

FIELDS = [Field(2), Field(3), GF101, Field(2**31 - 1), QQ]
# rings beside the canned ones, so every generator count has a second ring
EXTRA = [(["x"], ["x^3"]), (["x", "y"], ["x^2", "y^3"]),
         (["x1", "x2", "x3", "x4"], ["x1^2", "x2^2", "x3^2", "x4^2"])]


def modules_of(inst):
    """The instance's modules, k, R, omega, and random modules and a
    truncation on its ring."""
    ring = inst.ring
    return [*inst.modules.values(), residue_field(ring), regular_module(ring),
            canonical_module(ring),
            random_module(ring, 3), random_module(ring, 4, square_zero=True),
            truncated_cokernel(ring, random_presentation(ring, 5), ring.h)]


def variants(mod, rings):
    """(ring, actions) built from mod's actions: as they are; each one
    zeroed, scaled by 2, and transposed; all transposed; each
    pair swapped; and all of them on every other ring on as many
    generators."""
    F, acts = mod.field, mod.actions
    yield mod.ring, acts
    for g in range(len(acts)):
        for change in (lambda A: F.zeros(A.shape),
                       lambda A: F.mod(A * F.scalar(2)),
                       lambda A: A.T.copy()):
            yield mod.ring, acts[:g] + [change(acts[g])] + acts[g + 1:]
    yield mod.ring, [A.T.copy() for A in acts]
    for g in range(len(acts)):
        for h in range(g):
            swapped = list(acts)
            swapped[g], swapped[h] = acts[h], acts[g]
            yield mod.ring, swapped
    for ring in rings:
        if ring is not mod.ring and ring.e == mod.ring.e:
            yield ring, acts


def verdict(ring, actions):
    try:
        FiniteModule(ring, actions)
    except ModuleError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_structure_check_matches_relation_polynomials(F):
    corpus = canned_corpus(F)
    rings = [inst.ring for inst in corpus] + [
        ring_from_strings(F, names, rels) for names, rels in EXTRA]
    seen = Counter()
    for inst in corpus:
        for mod in modules_of(inst):
            for ring, actions in variants(mod, rings):
                want = structure_verdict(ring, actions)
                assert verdict(ring, actions) == want
                seen[want] += 1
    assert seen[None] and seen["generator actions do not commute"]
    assert seen["ring relation does not annihilate the module"]
    # m^(h+1) lies in the relation ideal, so the old third test never fired
    assert "m^(h+1) does not act as zero" not in seen

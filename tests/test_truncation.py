"""M/m^p M built in one quotient of R^n/m^p R^n, the presentations the
explorer draws, and the ring socle computed on first read."""

import numpy as np
import pytest
from conftest import identical
from oracles import monomial_square_zero_rings
from test_one_path import same_actions

from socle import modules
from socle.explorer import random_ring
from socle.linalg import GF101, QQ, Field, Subspace
from socle.modules import (
    FiniteModule,
    ModuleError,
    from_presentation,
    quotient_module,
    random_module,
    random_presentation,
    regular_module,
    truncated_cokernel,
)
from socle.ring import ring_from_strings
from socle.theorems import _CANNED, AGP_RELATIONS

FIELDS = [Field(2), Field(3), GF101, Field(2**31 - 1), QQ]


def canned_rings(F):
    rings = [ring_from_strings(F, names, rels)
             for _, names, rels, _, _ in _CANNED]
    return rings + [ring_from_strings(F, ["x1", "x2", "x3", "x4"],
                                      AGP_RELATIONS)]


def hosts(F):
    """The canned rings and agp's, then random_ring draws."""
    drawn = [random_ring(F, np.random.default_rng((27, s)), h_min=2)
             for s in range(4)]
    return canned_rings(F) + [ring for ring in drawn if ring is not None]


def presentations(ring, seed):
    """Two random_presentation draws, whose entries lie in m; one whose
    entries combine the whole basis, units included; and no columns."""
    F = ring.field
    anywhere = np.random.default_rng(seed).integers(0, 3,
                                                    size=(2, 3, ring.length))
    return [random_presentation(ring, seed),
            random_presentation(ring, seed + 1),
            F.array(anywhere), F.zeros((2, 0, ring.length))]


def cases(F):
    for t, ring in enumerate(hosts(F)):
        for pres in presentations(ring, 10 * t):
            for p in sorted({1, 2, 3, ring.h, ring.h + 1}):
                yield ring, pres, p


def two_step(ring, pres, p):
    """The oracle: coker(pres) built in full, then divided by m^p of it."""
    M = from_presentation(ring, pres)
    return quotient_module(M, M.msub(p))[0]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_truncated_cokernel_matches_two_step_oracle(F):
    n = 0
    for ring, pres, p in cases(F):
        got = truncated_cokernel(ring, pres, p)
        assert same_actions(got, two_step(ring, pres, p)), (ring, pres, p)
        assert got.presentation is None
        n += 1
    assert n >= 100


def test_dropping_the_inner_multiples_is_caught(monkeypatch):
    """At p = 3 the multiples L_b c with deg b = 1 survive the truncation:
    a span of the truncated columns alone gives a wrong module or one that
    is not closed under the action."""
    want = [(ring, pres, two_step(ring, pres, 3))
            for ring, pres, p in cases(GF101) if p == 3]

    def columns_only(ring, pres, low=None):
        n, m, _ = pres.shape
        cols = pres[:, :, :low].transpose(1, 0, 2).reshape(m, n * low)
        return Subspace.from_rows(ring.field, cols, n * low)

    monkeypatch.setattr(modules, "column_span", columns_only)
    caught = 0
    for ring, pres, M in want:
        try:
            caught += not same_actions(truncated_cokernel(ring, pres, 3), M)
        except ModuleError:
            caught += 1
    assert caught >= len(want) // 4


def scalar_draw_presentation(ring, seed):
    """The presentation as random_module drew it entry by entry: one
    scalar per (row, column, basis element of degree 1 or 2)."""
    rng = np.random.default_rng(seed)
    F = ring.field
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    pres = F.zeros((n, m, ring.length))
    degs = np.array([d for d, _ in ring.basis])
    eligible = np.flatnonzero((degs >= 1) & (degs <= 2))
    for r in range(n):
        for c in range(m):
            for b in eligible:
                if F.p is not None:
                    pres[r, c, b] = int(rng.integers(0, F.p))
                else:
                    pres[r, c, b] = F.scalar(int(rng.integers(-5, 6)))
    return pres


@pytest.mark.parametrize("F", [Field(2), GF101, Field(2**31 - 1), QQ], ids=str)
def test_random_presentation_matches_scalar_draws(F):
    rings = [ring_from_strings(F, ["x", "y"], ["x^3", "y^3"]),
             ring_from_strings(F, ["x"], ["x^2"])]
    for ring in rings:
        for seed in range(200):
            pres = random_presentation(ring, seed)
            assert identical(pres, scalar_draw_presentation(ring, seed)), seed
    ring = rings[0]
    for seed in range(5):
        pres = random_presentation(ring, seed)
        assert identical(random_module(ring, seed).presentation, pres)
        assert same_actions(random_module(ring, seed, square_zero=True),
                            two_step(ring, pres, 2))


def test_rings_are_built_without_their_socle(monkeypatch):
    calls = []
    real = FiniteModule.socle

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FiniteModule, "socle", counting)
    rings = canned_rings(GF101) + monomial_square_zero_rings(Field(3), 2)
    rings += [random_ring(GF101, np.random.default_rng(s)) for s in range(3)]
    assert calls == []
    ring = rings[-1]
    soc = ring.socle_subspace()
    assert (ring.a, ring.gorenstein) == (soc.dim, soc.dim == 1)
    assert ring.invariants()["a"] == soc.dim
    assert len(calls) == 1  # computed once, then read


@pytest.mark.parametrize("F", [GF101, Field(3)], ids=str)
def test_lazy_invariants_match_the_regular_module_socle(F):
    rings = canned_rings(F)
    if F == Field(3):
        rings += monomial_square_zero_rings(F)
    for ring in rings:
        soc = regular_module(ring).socle()
        got = ring.socle_subspace()
        assert got.pivots == soc.pivots and identical(got.basis, soc.basis)
        assert ring.a == soc.dim and ring.gorenstein == (soc.dim == 1)
        inv = ring.invariants()
        assert (inv["a"], inv["gorenstein"]) == (ring.a, ring.gorenstein)


@pytest.mark.parametrize("F", [GF101, QQ], ids=str)
@pytest.mark.parametrize("power", [0, -1])
def test_truncation_power_below_one_is_rejected(F, power):
    ring = canned_rings(F)[0]
    for pres in presentations(ring, 0):
        with pytest.raises(ModuleError, match="power"):
            truncated_cokernel(ring, pres, power)

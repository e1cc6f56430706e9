"""One route to each derived module, tested against the routes it replaced.

The first syzygy and the minimal presentation of a module are read off its
cached resolution, nu(m^j M) is a difference of two lengths, and quotients
keep the complement coordinates of a subspace instead of multiplying by a
0/1 section matrix.  Each old route is kept here as an oracle."""

import numpy as np
import pytest
from conftest import identical
from oracles import is_isomorphic, realized_free_submodule
from hypothesis import example, given, settings, strategies as st

from socle import homology
from socle.homology import resolve
from socle.linalg import QQ, Field, Subspace, kernel_subspace
from socle.modules import (
    FiniteModule,
    ModuleError,
    canonical_module,
    column_span,
    cover_map,
    free_module,
    min_gen_rmatrix,
    presentation_of,
    quotient_module,
    random_module,
    regular_module,
    submodule_module,
    syzygy,
    tensor_over_R,
    _require_closed,
)
from socle.ring import ring_from_strings
from socle.theorems import Instance, _from_rows, _nu_of_subquotient, check

FIELDS = [Field(2), Field(3), Field(101), Field(2**31 - 1), QQ]
HOSTS = [["x^2", "y^2"], ["x^2", "x*y", "y^2"], ["x^2 - y^2", "x*y"],
         ["x^2", "y^3"]]
MODULES = (st.sampled_from(FIELDS), st.sampled_from(HOSTS),
           st.integers(0, 2**16), st.booleans())


def old_syzygy(mod):
    """(M1, cover map, presentation, K): the cover map's own kernel K,
    with M1 acted on in K's basis."""
    _, cover = cover_map(mod)
    K = kernel_subspace(mod.field, cover.matrix)
    pres = min_gen_rmatrix(mod.ring, K)
    m1 = realized_free_submodule(mod.ring, K)
    m1.is_syzygy = True
    return m1, cover, pres, K


def old_nu(ring, pres):
    """nu of the R-span of pres's columns, as S28 read it: from the whole
    closure-checked submodule of R^n."""
    return realized_free_submodule(ring, column_span(ring, pres)).min_gens()


def old_nu_of_subquotient(mod, j):
    """nu(m^j M) counted on the closure-checked submodule m^j M."""
    S = mod.msub(j)
    if S.dim == 0:
        return 0
    return submodule_module(mod, S).min_gens()


def old_quotient_module(amb, S):
    F = amb.field
    proj = S.projection()
    _require_closed(F, [F.matmul(S.basis, A.T) for A in amb.actions], proj)
    sec = S.section()
    acts = [F.matmul(F.matmul(proj, A), sec) for A in amb.actions]
    return FiniteModule(amb.ring, acts, validate=False), proj


def old_tensor(a, b):
    F = a.field
    m, n = a.dim, b.dim
    if m == 0 or n == 0:
        return free_module(a.ring, 0)
    rel_rows = []
    eyem, eyen = F.eye(m), F.eye(n)
    for Aa, Ab in zip(a.actions, b.actions):
        rel_rows.append(F.mod(np.kron(Aa, eyen) - np.kron(eyem, Ab)).T)
    Wspan = Subspace.from_rows(F, np.vstack(rel_rows), m * n)
    proj = Wspan.projection()
    sec = Wspan.section()
    acts = [F.matmul(F.matmul(proj, F.mod(np.kron(Aa, eyen))), sec)
            for Aa in a.actions]
    return FiniteModule(a.ring, acts, validate=False)


def same_actions(a, b):
    return (a.dim == b.dim and len(a.actions) == len(b.actions)
            and all(identical(x, y) for x, y in zip(a.actions, b.actions)))


def draw(F, rels, seed, square_zero):
    ring = ring_from_strings(F, ["x", "y"], rels)
    return ring, random_module(ring, seed, square_zero=square_zero)


@given(*MODULES)
@example(Field(2), HOSTS[0], 4599, False)  # M free, so M1 = 0
@settings(max_examples=40, deadline=None)
def test_syzygy_is_read_off_the_resolution(F, rels, seed, square_zero):
    ring, M = draw(F, rels, seed, square_zero)
    old_m1, old_cover, old_pres, K = old_syzygy(M)
    m1, cover, pres = syzygy(M)
    assert identical(pres, old_pres)
    assert identical(cover.matrix, old_cover.matrix)
    assert m1.is_syzygy
    assert same_actions(m1, resolve(M, 1).syzygy_module(1))
    # the same submodule of R^{b_0}, in the rref basis of K's span
    assert same_actions(m1, submodule_module(
        regular_module(ring), Subspace.from_rows(F, K.basis, K.ambient)))
    # a module built without a presentation stores delta_1 as one
    assert old_m1.presentation is None
    assert identical(presentation_of(old_m1), old_syzygy(old_m1)[2])
    assert presentation_of(old_m1) is resolve(old_m1, 1).delta(1)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_syzygy_and_presentation_compute_no_second_kernel(F, monkeypatch):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    omega = canonical_module(ring)
    want = old_syzygy(omega)
    resolve(omega, 1)

    def no_kernel(*args):
        raise AssertionError("stage-0 kernel computed twice")

    monkeypatch.setattr(homology, "kernel_subspace", no_kernel)
    m1, _, pres = syzygy(omega)
    assert identical(pres, want[2]) and m1.dim == want[0].dim
    assert presentation_of(omega) is pres


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_delta_past_the_ends_has_no_columns(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    lam = ring.length
    res = resolve(free_module(ring, 2), 3)
    assert res.finite and res.length == 0
    assert res.delta(0).shape == (0, 2, lam)
    assert res.delta(1).shape == (2, 0, lam)
    assert res.delta(3).shape == (0, 0, lam)
    # each zero map is built once, so readers can cache on its identity
    assert res.delta(0) is res.delta(0) and res.delta(1) is res.delta(1)
    assert res.syzygy_module(1).dim == res.syzygy_module(3).dim == 0
    flat = ring_from_strings(F, ["x", "y"], HOSTS[1])
    res = resolve(canonical_module(flat), 2)
    assert not res.finite
    assert res.delta(2) is res.deltas[1]
    with pytest.raises(IndexError):
        res.delta(3)


@given(*MODULES)
@settings(max_examples=40, deadline=None)
def test_nu_of_subquotient_is_a_difference_of_lengths(F, rels, seed,
                                                      square_zero):
    ring, M = draw(F, rels, seed, square_zero)
    for mod in (M, resolve(M, 1).syzygy_module(1), canonical_module(ring)):
        for j in range(4):
            assert _nu_of_subquotient(mod, j) == old_nu_of_subquotient(mod, j)


@given(*MODULES)
@settings(max_examples=40, deadline=None)
def test_quotients_select_complement_coordinates(F, rels, seed, square_zero):
    ring, M = draw(F, rels, seed, square_zero)
    for S in (M.msub(1), M.msub(2), M.socle(), Subspace(F, M.dim),
              Subspace.full(F, M.dim)):
        new, proj = quotient_module(M, S)
        old, old_proj = old_quotient_module(M, S)
        assert same_actions(new, old) and identical(proj, old_proj)


@given(*MODULES, st.integers(0, 2**16))
@example(Field(2), HOSTS[0], 0, False, 0)  # 24 random maps miss every iso
@settings(max_examples=30, deadline=None)
def test_tensor_selects_complement_coordinates(F, rels, seed, square_zero,
                                               seed2):
    ring, M = draw(F, rels, seed, square_zero)
    N = random_module(ring, seed2)
    for a, b in ((M, N), (M, regular_module(ring)), (M, free_module(ring, 0))):
        new, old = tensor_over_R(a, b), old_tensor(a, b)
        assert new.dim == old.dim and is_isomorphic(new, old)


@given(st.sampled_from(FIELDS), st.sampled_from(HOSTS), st.integers(0, 2**16),
       st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_nu_of_a_column_span_is_its_minimal_generator_count(F, rels, seed,
                                                            n, m):
    ring = ring_from_strings(F, ["x", "y"], rels)
    rng = np.random.default_rng(seed)
    # entries with unit components too: the span need not lie in m R^n
    pres = F.array(rng.integers(-2, 3, size=(n, m, ring.length))
                   * (rng.random((n, m, ring.length)) < 0.4))
    gens = min_gen_rmatrix(ring, column_span(ring, pres))
    assert gens.shape[1] == old_nu(ring, pres)


@pytest.mark.parametrize("F", [Field(101), QQ], ids=repr)
@pytest.mark.parametrize("rows, nu", [([["1"], ["x"]], 1),
                                      ([["0"], ["0"]], 0)])
def test_s28_reaches_its_conclusion(F, rows, nu):
    # coker [[1],[x]] is free of rank one, presented non-minimally, and
    # coker [[0],[0]] is R^2: both faithful with Tor_2(M, M) = 0
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    verdict = check("S28", Instance("x", ring, {"M": _from_rows(ring, rows)}))
    assert str(verdict) == f"S28: PASS (nu(N)={nu})"


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_extend_rejects_a_differential_with_a_unit_entry(F, monkeypatch):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    lifted = homology.min_gen_rmatrix

    def with_unit(ring, K):
        delta = lifted(ring, K).copy()
        delta[0, 0, 0] = F.one
        return delta

    monkeypatch.setattr(homology, "min_gen_rmatrix", with_unit)
    with pytest.raises(ModuleError, match="non-minimal differential"):
        resolve(_from_rows(ring, [["x", "y"]]), 1)

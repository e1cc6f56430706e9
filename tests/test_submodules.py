"""Submodules of R^n: the one R-span routine and the one blockwise
submodule constructor, tested against the constructions they replaced,
among them the dense free_action loop they were built on before realize
built them."""

import numpy as np
import pytest
from conftest import dense_realize, identical
from hypothesis import given, settings, strategies as st
from oracles import dense_column_span, dense_free_submodule, free_action
from test_truncation import hosts, presentations

from socle import modules
from socle.homology import resolve
from socle.linalg import QQ, Field, Subspace
from socle.modules import (
    ModuleError,
    column_span,
    free_module,
    free_submodule,
    from_presentation,
    quotient_module,
    random_module,
    regular_module,
    submodule_module,
)
from socle.ring import ring_from_strings

FIELDS = [Field(2), Field(101), Field(2**31 - 1), QQ]
EVERY_FIELD = [Field(2), Field(3), Field(101), Field(2**31 - 1), QQ]
HOSTS = [["x^2 - y^2", "x*y"], ["x^2", "x*y", "y^2"], ["x^2", "y^3"]]


def old_free_module_actions(ring, n):
    """Block-diagonal actions of R^n, filled one block at a time."""
    F = ring.field
    lam = ring.length
    acts = []
    for g in ring.gen_index:
        A = F.zeros((n * lam, n * lam))
        for j in range(n):
            A[j * lam:(j + 1) * lam, j * lam:(j + 1) * lam] = ring.left_mult[g]
        acts.append(A)
    return acts


def old_realized_span(ring, delta):
    """Span of delta's columns read off the realized differential."""
    D = dense_realize(ring, delta, regular_module(ring))
    return Subspace.from_rows(ring.field, D.T, D.shape[0])


def old_presentation_span(ring, pres):
    """The span from_presentation built inline."""
    n, m, lam = pres.shape
    cols = pres.transpose(1, 0, 2).reshape(m, n * lam)
    spans = [free_action(ring, cols, b) for b in range(lam)]
    return Subspace.from_rows(ring.field, np.vstack(spans), n * lam)


def old_left_mult_span(ring, rows):
    """The span wedge_image built with one left_mult product per basis
    element (vectors of R itself)."""
    F = ring.field
    spans = [F.matmul(rows, ring.left_mult[b].T) for b in range(ring.length)]
    return Subspace.from_rows(F, np.vstack(spans), ring.length)


def old_msub(mod, j):
    """m^j M from the identity, one product per generator per power."""
    S = Subspace.full(mod.field, mod.dim)
    for _ in range(j):
        if S.dim == 0:
            return S
        rows = [mod.field.matmul(A, S.basis.T).T for A in mod.actions]
        S = Subspace.from_rows(mod.field, np.vstack(rows), mod.dim)
    return S


def same_span(a, b):
    return (a.ambient == b.ambient and a.pivots == b.pivots
            and identical(a.basis, b.basis))


def same_actions(a, b):
    return (a.dim == b.dim and len(a.actions) == len(b.actions)
            and all(identical(x, y) for x, y in zip(a.actions, b.actions)))


def random_rmatrix(ring, seed, n, m):
    """n x m RMatrix with arbitrary entries, units included."""
    F = ring.field
    rng = np.random.default_rng(seed)
    vals = rng.integers(-3, 4, size=(n, m, ring.length))
    return F.array(vals) if F.p is None else F.mod(vals)


def as_old_submodule(ring, S):
    sub, _ = submodule_module(
        free_module(ring, S.ambient // ring.length), S)
    return sub


@given(st.sampled_from(FIELDS), st.sampled_from(HOSTS),
       st.integers(0, 2**16), st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_column_span_matches_old_spans(F, rels, seed, n, m):
    ring = ring_from_strings(F, ["x", "y"], rels)
    pres = random_rmatrix(ring, seed, n, m)
    S = column_span(ring, pres)
    assert same_span(S, old_presentation_span(ring, pres))
    assert same_span(S, old_realized_span(ring, pres))
    minors = pres[0]
    assert same_span(column_span(ring, minors[None]),
                     old_left_mult_span(ring, minors))
    assert same_actions(free_submodule(ring, S), as_old_submodule(ring, S))


@given(st.sampled_from(FIELDS), st.sampled_from(HOSTS),
       st.integers(0, 2**16), st.booleans())
@settings(max_examples=30, deadline=None)
def test_syzygy_modules_match_dense_ambient(F, rels, seed, square_zero):
    ring = ring_from_strings(F, ["x", "y"], rels)
    M = random_module(ring, seed, square_zero=square_zero)
    res = resolve(M, 3)
    for i in range(1, res.length + 1):
        old = as_old_submodule(ring, old_realized_span(ring, res.deltas[i - 1]))
        new = res.syzygy_module(i)
        assert same_actions(new, old) and new.is_syzygy
    if res.finite:
        assert res.syzygy_module(res.length + 1).dim == 0
    for j in range(4):
        assert same_span(M.msub(j), old_msub(M, j))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_module_matches_block_loop(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    for n in (0, 1, 3):
        mod = free_module(ring, n)
        assert mod.dim == n * ring.length and mod.min_gens() == n
        assert mod.is_free()
        for a, b in zip(mod.actions, old_free_module_actions(ring, n)):
            assert identical(a, b)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_trivial_subspaces_of_free_modules(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    lam = ring.length
    for S in (Subspace(F, 2 * lam), Subspace.full(F, 2 * lam), Subspace(F, 0)):
        assert same_actions(free_submodule(ring, S), as_old_submodule(ring, S))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_non_closed_subspace_is_rejected(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    lam = ring.length
    # span{1} is no submodule of R, nor span{(1, 0)} of R^2
    one = Subspace.from_rows(F, F.eye(lam)[:1], lam)
    with pytest.raises(ModuleError):
        free_submodule(ring, one)
    with pytest.raises(ModuleError):
        quotient_module(regular_module(ring), one)
    with pytest.raises(ModuleError):
        free_submodule(ring, Subspace.from_rows(F, F.eye(2 * lam)[:1], 2 * lam))
    # while R itself is
    assert free_submodule(ring, Subspace.full(F, lam)).dim == lam


def spans_of(ring, t):
    """Column spans of presentations (units included, and none with no
    columns) and of the first two differentials of their cokernels."""
    for pres in presentations(ring, 10 * t):
        yield pres
        if pres.shape[1]:
            yield from resolve(from_presentation(ring, pres), 2).deltas


def relations(monkeypatch, ring, pres, p):
    """The subspace of (R/m^p)^n that _cokernel divides by for pres."""
    seen = []

    def recording(amb, S):
        seen.append(S)
        return quotient_module(amb, S)

    monkeypatch.setattr(modules, "quotient_module", recording)
    modules._cokernel(pres, modules._truncation(ring, p))
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("F", EVERY_FIELD, ids=repr)
def test_column_span_matches_dense_loop_at_every_truncation(F, monkeypatch):
    n = 0
    for t, ring in enumerate(hosts(F)):
        for pres in spans_of(ring, t):
            for p in range(1, ring.h + 2):
                low = sum(ring.hilbert[:p])
                got = relations(monkeypatch, ring, pres, p)
                assert same_span(got, dense_column_span(ring, pres, low))
                n += 1
            assert same_span(column_span(ring, pres),
                             dense_column_span(ring, pres))
    assert n > 200


@pytest.mark.parametrize("F", EVERY_FIELD, ids=repr)
def test_free_submodule_matches_dense_path(F):
    n = 0
    for t, ring in enumerate(hosts(F)):
        for pres in spans_of(ring, t):
            S = column_span(ring, pres)
            assert same_actions(free_submodule(ring, S),
                                dense_free_submodule(ring, S))
            n += S.dim > 0
    assert n > 20

"""Submodules and quotients of N^n: the one R-span routine and the one
blockwise submodule and quotient constructors, tested against the
constructions they replaced: the dense free_action loop they were built
on before realize built them, the syzygy modules realize built a second
time, and the block-diagonal N^n every construction once built."""

import numpy as np
import pytest
from conftest import dense_realize, identical
from hypothesis import given, settings, strategies as st
from oracles import (
    block_quotient_module,
    block_submodule_module,
    dense_column_span,
    dense_free_submodule,
    free_action,
    realized_free_submodule,
)
from test_truncation import hosts, presentations

from socle import modules
from socle.homology import resolve
from socle.linalg import QQ, DimensionError, Field, Subspace, kernel_subspace
from socle.modules import (
    ModuleError,
    canonical_module,
    column_span,
    free_module,
    from_presentation,
    hom_into_ring,
    hom_over_R,
    quotient_module,
    random_module,
    realize,
    regular_module,
    residue_field,
    submodule_module,
    tensor_over_R,
    truncated_cokernel,
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
    return block_submodule_module(regular_module(ring), S)


def submodule_of_free(ring, S):
    """S, a subspace of R^n, as a module: a syzygy's route."""
    return submodule_module(regular_module(ring), S)


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
    assert same_actions(submodule_of_free(ring, S), as_old_submodule(ring, S))


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
        assert same_actions(submodule_of_free(ring, S),
                            as_old_submodule(ring, S))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_non_closed_subspace_is_rejected(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    lam = ring.length
    R = regular_module(ring)
    # span{1} is no submodule of R, nor span{(1, 0)} of R^2
    one = Subspace.from_rows(F, F.eye(lam)[:1], lam)
    with pytest.raises(ModuleError):
        submodule_module(R, one)
    with pytest.raises(ModuleError):
        quotient_module(R, one)
    with pytest.raises(ModuleError):
        submodule_module(R, Subspace.from_rows(F, F.eye(2 * lam)[:1], 2 * lam))
    # while R itself is
    assert submodule_module(R, Subspace.full(F, lam)).dim == lam


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
            new = submodule_of_free(ring, S)
            assert same_actions(new, dense_free_submodule(ring, S))
            assert same_actions(new, realized_free_submodule(ring, S))
            n += S.dim > 0
    assert n > 20


def coefficients(ring):
    """N for the blockwise constructions: k, R, omega, a random module and
    the zero module."""
    return [residue_field(ring), regular_module(ring), canonical_module(ring),
            random_module(ring, 5), free_module(ring, 0)]


def minimal_rmatrix(ring, seed, n, m):
    """n x m RMatrix with entries in m, so its cokernel needs n generators."""
    pres = random_rmatrix(ring, seed, n, m)
    pres[:, :, 0] = ring.field.zero
    return pres


def same_quotient(a, b):
    return same_actions(a[0], b[0]) and identical(a[1], b[1])


@pytest.mark.parametrize("F", EVERY_FIELD, ids=repr)
def test_blockwise_constructions_match_block_diagonal_ambient(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    R = regular_module(ring)
    for n in range(4):
        pres = minimal_rmatrix(ring, n, n, 2)
        M = from_presentation(ring, pres)
        for N in coefficients(ring):
            image = Subspace.from_rows(F, realize(ring, pres, N).T, n * N.dim)
            kernel = kernel_subspace(
                F, realize(ring, pres.transpose(1, 0, 2), N))
            for S in (image, kernel):
                assert same_quotient(quotient_module(N, S),
                                     block_quotient_module(N, S))
                assert same_actions(submodule_module(N, S),
                                    block_submodule_module(N, S))
            assert same_actions(tensor_over_R(M, N),
                                block_quotient_module(N, image)[0])
            assert same_actions(hom_over_R(M, N),
                                block_submodule_module(N, kernel))
        for p in range(1, ring.h + 2):
            T = modules._truncation(ring, p)
            S = Subspace.from_rows(F, realize(ring, pres, T).T, n * T.dim)
            assert same_actions(truncated_cokernel(ring, pres, p),
                                block_quotient_module(T, S)[0])
        res = resolve(M, 3)
        for i in range(1, 4):
            S = column_span(ring, res.delta(i))
            syz = res.syzygy_module(i)
            assert same_actions(syz, block_submodule_module(R, S))
            assert same_actions(syz, realized_free_submodule(ring, S))


@pytest.mark.parametrize("F", EVERY_FIELD, ids=repr)
def test_no_construction_builds_a_free_module(F, monkeypatch):
    # free_module is the one block-diagonal N^n left, for cover_map
    ring = ring_from_strings(F, ["x", "y"], HOSTS[2])
    pres = minimal_rmatrix(ring, 1, 2, 3)

    def block_matrix(*args):
        raise AssertionError("N^n built as one block-diagonal module")

    monkeypatch.setattr(modules, "free_module", block_matrix)
    M = from_presentation(ring, pres)
    res = resolve(M, 3)
    for N in coefficients(ring):
        tensor_over_R(M, N)
        hom_over_R(M, N)
        submodule_module(N, N.msub(1))
        quotient_module(N, N.msub(1))
    truncated_cokernel(ring, pres, 2)
    hom_into_ring(M)
    assert all(res.syzygy_module(i).is_syzygy for i in range(1, 4))
    assert not hasattr(modules, "copies")
    assert not hasattr(modules, "free_submodule")


@pytest.mark.parametrize("F", EVERY_FIELD, ids=repr)
def test_subspace_outside_a_power_of_the_module_is_rejected(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    N, zero = random_module(ring, 5), free_module(ring, 0)
    assert N.dim > 1
    for mod, ambient in ((N, N.dim + 1), (N, 2 * N.dim - 1), (zero, 1)):
        with pytest.raises(DimensionError):
            submodule_module(mod, Subspace(F, ambient))
        with pytest.raises(DimensionError):
            quotient_module(mod, Subspace(F, ambient))
    # while every multiple is a power: the zero submodule and N^2 itself
    assert submodule_module(N, Subspace(F, 2 * N.dim)).dim == 0
    assert quotient_module(N, Subspace(F, 2 * N.dim))[0].dim == 2 * N.dim
    assert quotient_module(zero, Subspace(F, 0))[0].dim == 0

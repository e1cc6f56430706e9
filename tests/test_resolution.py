"""Differential test of the one-step resolution loop against the two-path
code it replaced: a first stage built from the cover map and a separate
minimal-generator routine for the later stages."""

import numpy as np
import pytest
from conftest import dense_realize, identical
from hypothesis import given, settings, strategies as st
from oracles import free_action

from socle.homology import resolve
from socle.linalg import QQ, Field, Subspace, kernel_subspace, rref
from socle.modules import (
    FiniteModule,
    canonical_module,
    column_span,
    cover_matrix,
    free_module,
    random_module,
    regular_module,
    residue_field,
    syzygy,
)
from socle.ring import ring_from_strings
from socle.theorems import agp_example

FIELDS = [Field(2), Field(101), Field(2**31 - 1), QQ]
HOSTS = [["x^2 - y^2", "x*y"], ["x^2", "x*y", "y^2"], ["x^2", "y^3"]]
DEPTH = 4


def old_cover_matrix(mod):
    """The cover map's matrix, filled one column at a time."""
    F = mod.field
    lam = mod.ring.length
    gens = mod.generator_coords()
    mat = F.zeros((mod.dim, len(gens) * lam))
    ops = mod.ops()
    for j, gcoord in enumerate(gens):
        for b in range(lam):
            mat[:, j * lam + b] = ops[b][:, gcoord]
    return mat


def old_syzygy(mod):
    """First stage: the kernel of the cover as a module on the dense free
    module, and its minimal generators read off that module's mM."""
    F = mod.field
    ring = mod.ring
    lam = ring.length
    nu = mod.min_gens()
    Fr = free_module(ring, nu)
    K = kernel_subspace(F, old_cover_matrix(mod))
    if K.dim == 0:
        m1, gens = free_module(ring, 0), []
    else:
        acts = [F.matmul(A, K.basis.T)[list(K.pivots), :] for A in Fr.actions]
        m1 = FiniteModule(ring, acts, validate=False)
        gens = m1.mm().complement_coords()
    pres = F.zeros((nu, len(gens), lam))
    for c, gi in enumerate(gens):
        pres[:, c, :] = K.basis[gi].reshape(nu, lam)
    return m1, pres, K


def old_min_gen_rows(ring, K):
    """Later stages: rows of K's basis that lift the echelon basis of K/mK."""
    F = ring.field
    coords = list(K.pivots)
    mK_rows = [free_action(ring, K.basis, g)[:, coords]
               for g in ring.gen_index]
    _, piv = rref(F, np.vstack(mK_rows))
    return [K.basis[c] for c in range(K.dim) if c not in piv]


def old_resolution(M, n):
    """(betti, deltas, finite) through stage n by the two-path code."""
    ring = M.ring
    F = ring.field
    lam = ring.length
    betti, deltas = [M.min_gens()], []
    if M.dim == 0:
        return betti, deltas, True
    m1, pres, _ = old_syzygy(M)
    if m1.dim == 0:
        return betti, deltas, True
    deltas.append(pres)
    betti.append(pres.shape[1])
    while len(deltas) < n:
        D = dense_realize(ring, deltas[-1], regular_module(ring))
        K = kernel_subspace(F, D)
        if K.dim == 0:
            return betti, deltas, True
        rows = old_min_gen_rows(ring, K)
        prev = K.basis.shape[1] // lam
        delta = F.zeros((prev, len(rows), lam))
        for c, row in enumerate(rows):
            delta[:, c, :] = row.reshape(prev, lam)
        deltas.append(delta)
        betti.append(len(rows))
    return betti, deltas, False


def assert_same_resolution(M, n=DEPTH):
    want_betti, want_deltas, want_finite = old_resolution(M, n)
    res = resolve(M, n)
    assert res.betti == want_betti
    assert res.finite == want_finite
    assert len(res.deltas) == len(want_deltas)
    for got, want in zip(res.deltas, want_deltas):
        assert identical(got, want)
    assert identical(cover_matrix(M), old_cover_matrix(M))
    # syzygy() reads M_1 off the resolution: the old kernel K's span, in
    # its rref basis rather than K's own
    m1, _, pres = syzygy(M)
    _, old_pres, K = old_syzygy(M)
    assert identical(pres, old_pres)
    want = resolve(M, 1).syzygy_module(1)
    assert m1.dim == want.dim == K.dim and m1.is_syzygy
    for a, b in zip(m1.actions, want.actions):
        assert identical(a, b)
    span = column_span(M.ring, pres)
    old_span = Subspace.from_rows(M.field, K.basis, K.ambient)
    assert span.pivots == old_span.pivots
    assert identical(span.basis, old_span.basis)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_canonical_modules_resolve_as_before(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    for M in (residue_field(ring), canonical_module(ring), regular_module(ring),
              free_module(ring, 2), free_module(ring, 0)):
        assert_same_resolution(M)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_agp_module_resolves_as_before(F):
    _, M = agp_example(F)
    assert_same_resolution(M)


@given(st.sampled_from(FIELDS), st.sampled_from(HOSTS),
       st.integers(0, 2**16), st.booleans())
@settings(max_examples=40, deadline=None)
def test_random_modules_resolve_as_before(F, rels, seed, square_zero):
    ring = ring_from_strings(F, ["x", "y"], rels)
    assert_same_resolution(random_module(ring, seed, square_zero=square_zero))

"""Realized maps and mK as sparse rows, each against the dense path it
replaced: the dense realize, transposed with it for the Hom complex and
the boundaries of Tor(k, f), and the dense free_action mK of
min_gen_rmatrix.  Also: the kernel leaves the rows it is given as they
were, subspace bases own their (dim x ambient) data, and the memory peak
of the agp statements."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_realize, identical
from oracles import free_action

from socle import theorems
from socle.homology import _differential, resolve
from socle.linalg import (
    QQ,
    Field,
    SparseRows,
    Subspace,
    kernel_subspace,
    rank,
    rref,
)
from socle.modules import (
    canonical_module,
    cover_matrix,
    derived_module,
    free_module,
    from_presentation,
    min_gen_rmatrix,
    random_module,
    realize,
    regular_module,
    residue_field,
    rmatrix_of_rows,
)
from socle.ring import ring_from_strings

FIELDS = [Field(2), Field(3), Field(101), Field(2**31 - 1), QQ]
HOSTS = [["x^2", "y^2"], ["x^2", "x*y", "y^2"], ["x^2 - y^2", "x*y"]]


def nonzero_rows(D):
    """The nonzero entries of each row of a dense array, by column."""
    return [{c: v for c, v in enumerate(row) if v} for row in D.tolist()]


def assert_rows_of(F, rows, D):
    """rows holds exactly D's nonzeros, keys ascending, values exact."""
    assert isinstance(rows, SparseRows) and rows.shape == D.shape
    assert list(rows) == nonzero_rows(D)
    scalar = Fraction if F.p is None else int
    for row in rows:
        assert list(row) == sorted(row)
        assert all(type(v) is scalar for v in row.values())


def coefficient_modules(ring):
    F = ring.field
    mods = [residue_field(ring), regular_module(ring), canonical_module(ring),
            free_module(ring, 0)]
    mods += [random_module(ring, s, square_zero=s % 2 == 0) for s in range(3)]
    unit = F.zeros((1, 1, ring.length))
    unit[0, 0, 0] = F.one
    mods.append(from_presentation(ring, unit))  # R/R, a zero module
    return mods


def deltas_of(ring):
    """delta_0, ordinary differentials, a frontier's image generators and
    the zero maps past the end of a finite resolution."""
    out = []
    for M in (free_module(ring, 2), residue_field(ring),
              random_module(ring, 5)):
        res = resolve(M, 2)
        end = res.length + (3 if res.finite else 1)
        out += [res.delta(i) for i in range(end)]
        out.append(res.image_generators(res.length + 1))
    return out


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_realize_rows_are_the_dense_oracles_nonzeros(F):
    for rels in HOSTS:
        ring = ring_from_strings(F, ["x", "y"], rels)
        deltas = deltas_of(ring)
        assert any(0 in d.shape for d in deltas)
        for N in coefficient_modules(ring):
            for delta in deltas:
                D = dense_realize(ring, delta, N)
                rows = realize(ring, delta, N)
                assert_rows_of(F, rows, D)
                assert_rows_of(F, rows.T, D.T)
                # the Hom complex realizes the transposed RMatrix
                hom = delta.transpose(1, 0, 2)
                assert_rows_of(F, realize(ring, hom, N),
                               dense_realize(ring, hom, N))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tor_induced_k_boundaries_are_the_dense_transpose(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    k = derived_module(ring, "k")
    res = resolve(k, 3)
    for B in coefficient_modules(ring):
        for i in range(4):
            # lifted differentials, then the frontier of delta_3
            want = dense_realize(ring, res.image_generators(i + 1), B).T
            assert_rows_of(F, _differential(res, i + 1, B).T, want)


def dense_min_gen_rmatrix(ring, K):
    """min_gen_rmatrix with mK stacked from dense free_action products."""
    mK = np.vstack([free_action(ring, K.basis, g)[:, list(K.pivots)]
                    for g in ring.gen_index])
    _, piv = rref(ring.field, mK)
    gens = [c for c in range(K.dim) if c not in piv]
    return rmatrix_of_rows(ring, K.basis[gens])


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_min_gen_rmatrix_matches_dense_mk(F):
    mods = [mod for inst in theorems.canned_corpus(F)
            for mod in inst.modules.values()]
    for rels in HOSTS:
        ring = ring_from_strings(F, ["x", "y"], rels)
        mods += [random_module(ring, s, square_zero=s % 2 == 1)
                 for s in range(4)]
    seen = 0
    for M in mods:
        ring = M.ring
        R = regular_module(ring)
        spaces = [kernel_subspace(F, cover_matrix(M))]
        spaces += [kernel_subspace(F, dense_realize(ring, d, R))
                   for d in resolve(M, 2).deltas]
        for K in spaces:
            assert identical(min_gen_rmatrix(ring, K),
                             dense_min_gen_rmatrix(ring, K))
            seen += K.dim > 0
    assert seen > len(mods)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_kernel_leaves_its_input_rows_unchanged(F):
    rng = np.random.default_rng(3)
    hi = F.p or 5
    # rows sharing leads, so every later row is reduced and then cleared
    m = F.array(np.triu(rng.integers(1, hi, size=(8, 8))))
    m[4:] = F.mod(m[:4] + m[4:])
    rows = SparseRows.from_dense(F, m)
    before = [list(row.items()) for row in rows]
    twice = SparseRows([*rows, *rows], rows.ncols)
    assert rank(F, twice) == rank(F, rows) == rank(F, m)
    assert kernel_subspace(F, rows) == kernel_subspace(F, m)
    assert [list(row.items()) for row in rows] == before


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_subspace_bases_own_their_data(F):
    spaces = []
    for inst in theorems.canned_corpus(F):
        spaces.append(inst.ring.socle_subspace())
        for M in inst.modules.values():
            spaces += [M.msub(j) for j in range(1, M.ring.h + 2)]
            spaces.append(M.socle())
    wide = F.zeros((30, 6))
    wide[3, 2] = wide[7, 4] = F.one
    spaces += [Subspace.from_rows(F, wide), kernel_subspace(F, wide)]
    for S in spaces:
        assert S.basis.base is None
        assert S.basis.shape == (S.dim, S.ambient)


def test_agp_statements_stay_within_a_small_memory_peak():
    # realized maps stay sparse: the dense path peaked at 17 MB here
    ring, M = theorems.agp_example()
    inst = theorems.Instance("agp", ring,
                             {"M": M, "N": derived_module(ring, "omega")})
    ids = [s.id for s in theorems.registry()]
    assert len(ids) == 29
    tracemalloc.start()
    try:
        for sid in ids:
            theorems.check(sid, inst, cutoff=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20

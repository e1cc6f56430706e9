"""Exact linear algebra kernels, with independent oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socle.linalg import (
    Field,
    GF101,
    QQ,
    Subspace,
    kernel_basis,
    kernel_subspace,
    rank,
    rref,
)

GF5 = Field(5)


def test_field_validation():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)
    assert Field(None).p is None


def test_rref_hand_oracle():
    # worked by hand over GF(5): scale row 0 by 2^-1 = 3, eliminate
    m = GF5.array([[2, 4], [1, 2]])
    r, piv = rref(GF5, m)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert piv == [0]


def test_rref_pivot_tiebreak():
    # leftmost pivot, first nonzero row wins
    m = GF5.array([[0, 1, 1], [1, 0, 2], [1, 1, 3]])
    r, piv = rref(GF5, m)
    assert piv == [0, 1]
    assert r[2].tolist() == [0, 0, 0]


def test_rational_exactness():
    # 3x3 Hilbert matrix is invertible; floats would lose this exactly
    h = QQ.array([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)])
    assert rank(QQ, h) == 3
    r, piv = rref(QQ, h)
    assert piv == [0, 1, 2]
    assert all(isinstance(x, Fraction) for x in r.reshape(-1))


def test_rational_rank_sympy_oracle():
    import sympy

    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank(QQ, QQ.array(rows)) == sympy.Matrix(rows).rank()


@st.composite
def gf101_matrices(draw, max_dim=6):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(0, 100), min_size=r * c, max_size=r * c))
    return GF101.array(np.array(entries, dtype=np.int64).reshape(r, c)) \
        if r * c else GF101.zeros((r, c))


@given(gf101_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    k = kernel_basis(GF101, m)
    assert rank(GF101, m) + k.shape[0] == m.shape[1]


@given(gf101_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r1, p1 = rref(GF101, m)
    r2, p2 = rref(GF101, r1)
    assert np.array_equal(r1, r2) and p1 == p2


@given(gf101_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates(m):
    k = kernel_basis(GF101, m)
    if k.shape[0] and m.shape[0]:
        assert not np.any(GF101.mod(m @ k.T))


@given(gf101_matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_subspace_matches_basis(m):
    S = kernel_subspace(GF101, m)
    rows = kernel_basis(GF101, m)
    T = Subspace.from_rows(GF101, rows, m.shape[1]) if rows.shape[0] else \
        Subspace(GF101, m.shape[1])
    assert S.dim == T.dim
    assert S.contains_space(T) and T.contains_space(S)


@st.composite
def subspace_pair(draw):
    n = draw(st.integers(1, 5))
    def rows():
        k = draw(st.integers(0, n))
        ent = draw(st.lists(st.integers(0, 100), min_size=k * n, max_size=k * n))
        return np.array(ent, dtype=np.int64).reshape(k, n) if k else \
            GF101.zeros((0, n))
    return (Subspace.from_rows(GF101, rows(), n),
            Subspace.from_rows(GF101, rows(), n))


@given(subspace_pair())
@settings(max_examples=60, deadline=None)
def test_dimension_formula(pair):
    a, b = pair
    assert a.add(b).dim + a.intersect(b).dim == a.dim + b.dim


@given(subspace_pair())
@settings(max_examples=40, deadline=None)
def test_intersection_contained(pair):
    a, b = pair
    c = a.intersect(b)
    assert a.contains_space(c) and b.contains_space(c)


@given(subspace_pair())
@settings(max_examples=40, deadline=None)
def test_projection_section(pair):
    a, _ = pair
    proj, sec = a.projection(), a.section()
    q = a.ambient - a.dim
    assert np.array_equal(GF101.mod(proj @ sec), GF101.eye(q))
    # the subspace itself maps to zero in the quotient
    if a.dim:
        assert not np.any(GF101.mod(proj @ a.basis.T))


FIELDS = [Field(2), Field(3), GF101, Field(2**31 - 1), QQ]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_subspace_equality_ignores_the_basis(F):
    K = kernel_subspace(F, F.array([[1, 1, 0, 0]]))
    S = Subspace.from_rows(F, K.basis, 4)
    assert K.pivots != S.pivots  # free columns against rref pivots
    assert K == S and S == K
    empty = Subspace(F, 4)
    assert empty == Subspace.from_rows(F, F.zeros((0, 4)), 4)
    assert empty == kernel_subspace(F, F.eye(4))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_subspace_inequality(F):
    K = kernel_subspace(F, F.array([[1, 1, 0, 0]]))
    assert K != Subspace.from_rows(F, K.basis[:2], 4)  # smaller dimension
    assert K != Subspace.from_rows(F, F.eye(4)[1:], 4)  # same dimension
    assert Subspace(F, 3) != Subspace(F, 4)
    other = GF5 if F != GF5 else GF101
    assert Subspace.full(F, 2) != Subspace.full(other, 2)
    assert K != K.basis.tolist() and K != 0 and K != "K"


@given(subspace_pair())
@settings(max_examples=60, deadline=None)
def test_subspace_equality_matches_ranks(pair):
    a, b = pair
    joint = rank(GF101, np.vstack([a.basis, b.basis]))
    assert (a == b) == (a.dim == b.dim == joint)

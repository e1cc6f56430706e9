"""Differential tests of the elimination kernel, the kernel extraction,
the quotient projection, subspace membership, socles, the blockwise
free-module action, word-size and rational products and module actions,
each against the slow path it replaced or an object-dtype oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_realize, densify, identical
from hypothesis import given, settings, strategies as st

from socle import linalg
from socle.linalg import (
    QQ,
    DimensionError,
    Field,
    Subspace,
    _QZERO,
    kernel_basis,
    kernel_subspace,
    rank,
    rref,
)
from socle.modules import (
    FiniteModule,
    canonical_module,
    column_span,
    random_module,
    realize,
    regular_module,
    residue_field,
    rmatrix_of_rows,
)
from socle.ring import ring_from_strings
from socle.theorems import canned_corpus

P_MAX = 2**31 - 1  # the largest prime Field accepts
FIELDS = [Field(2), Field(3), Field(101), Field(P_MAX), QQ]


def dense_rref(F, m):
    """The whole-matrix elimination that rref replaced: every pivot
    updates every row and every column."""
    m = np.array(m, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = F.mod(m[r] * F.inv(m[r, c]))
        col = np.array(m[:, c], copy=True)
        col[r] = F.zero
        m = F.mod(m - np.outer(col, m[r]))
        pivots.append(c)
        r += 1
    return m, pivots


def loop_eliminate(F, m, reduced):
    """The dense per-column loop that the sparse kernel replaced: a pivot
    at (r, c) updates only the rows nonzero in column c, and only columns
    >= c.  reduced=False clears below each pivot only and leaves pivot
    rows unscaled, which is enough to count pivots."""
    m = F.mod(np.array(m, copy=True))
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = F.inv(m[r, c])
        if reduced:
            m[r, c:] = F.mod(m[r, c:] * inv)
            hit = np.flatnonzero(m[:, c])
            hit = hit[hit != r]
            factors = m[hit, c]
        else:
            hit = r + nz[1:]
            factors = F.mod(m[hit, c] * inv)
        if hit.size:
            m[hit, c:] = F.mod(m[hit, c:] - np.outer(factors, m[r, c:]))
        pivots.append(c)
    return m, pivots


def assert_matches_oracles(F, m):
    """rref and rank of m agree with both dense oracles: same reduced
    form (values, dtype and element types), pivots and pivot count."""
    r, piv = rref(F, m)
    for want_r, want_piv in (dense_rref(F, F.mod(m)),
                             loop_eliminate(F, m, reduced=True)):
        assert piv == want_piv
        assert identical(r, want_r)
    assert rank(F, m) == len(piv) == len(loop_eliminate(F, m, False)[1])


def loop_kernel(F, m):
    """Kernel rows as the per-entry double loop used to build them."""
    r, pivots = dense_rref(F, m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    out = F.zeros((len(free), m.shape[1]))
    for k, f in enumerate(free):
        out[k, f] = F.one
        for j, c in enumerate(pivots):
            out[k, c] = F.mod(F.zero - r[j, f])
    return out, tuple(free)


def loop_reduce(S, v):
    """Subspace.reduce as the per-pivot loop it was: one pivot coordinate
    eliminated at a time, skipping the pivots where v is already zero."""
    v = np.array(v, copy=True)
    for j, c in enumerate(S.pivots):
        if v[c] != S.field.zero:
            v = S.field.mod(v - v[c] * S.basis[j])
    return v


def loop_projection(S):
    """Quotient-map matrix built one coordinate at a time: column i is
    the per-pivot residual of e_i on the non-pivot coordinates."""
    F = S.field
    comp = S.complement_coords()
    proj = F.zeros((len(comp), S.ambient))
    eye = F.eye(S.ambient)
    for i in range(S.ambient):
        v = loop_reduce(S, eye[i])
        for k, c in enumerate(comp):
            proj[k, i] = v[c]
    return proj


def intersected_socle(F, actions, n):
    """Socle as the running Zassenhaus intersection of one generator
    kernel at a time."""
    S = Subspace.full(F, n)
    for A in actions:
        S = S.intersect(Subspace.from_rows(F, kernel_basis(F, A), n))
    return S


def dense_free_op(ring, n, b):
    """Block-diagonal (n*lambda)^2 matrix of L_b on R^n."""
    lam = ring.length
    F = ring.field
    out = F.zeros((n * lam, n * lam))
    for j in range(n):
        out[j * lam:(j + 1) * lam, j * lam:(j + 1) * lam] = ring.left_mult[b]
    return out


@st.composite
def field_matrices(draw, fields=FIELDS, max_dim=9):
    """A matrix over one of the fields; the density runs from the zero matrix
    to a full one, and shapes include empty ones.  Sparse low-rank rows
    are stacked in too, so some columns have no pivot."""
    F = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((rows, cols)) < density
    if F.p is None:
        num = rng.integers(-5, 6, size=(rows, cols))
        den = rng.integers(1, 4, size=(rows, cols))
        m = F.zeros((rows, cols))
        for (i, j) in zip(*np.nonzero(mask)):
            m[i, j] = Fraction(int(num[i, j]), int(den[i, j]))
    else:
        m = np.where(mask, rng.integers(0, F.p, size=(rows, cols)), 0)
        m = F.array(m)
    if rows >= 2 and draw(st.booleans()):
        m[-1] = F.mod(m[0] + m[1])  # a dependent row
    return F, m


@st.composite
def graded_matrices(draw):
    """Sparse matrices shaped like the maps of a graded resolution, up to
    60x60: rows and columns come in degree blocks, and a row block meets
    only its own column block and the next one, at an overall density of
    0.01-0.1.  Some rows are combinations of two others in the same
    degree, so rows cancel and pivot rows fill in; then the rows are
    shuffled.  Over GF(p) the entries may be left unreduced (shifted by
    -2p..2p, so some are >= p, some negative and some nonzero multiples
    of p); over Q some drawn values are Fraction(0)."""
    F = draw(st.sampled_from(FIELDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    row_deg = np.repeat(np.arange(k), rng.integers(4, 16, size=k))
    col_deg = np.repeat(np.arange(k), rng.integers(4, 16, size=k))
    rows, cols = row_deg.size, col_deg.size
    step = col_deg[None, :] - row_deg[:, None]
    blocks = (step == 0) | (step == 1)
    density = draw(st.sampled_from([0.01, 0.03, 0.1]))
    mask = blocks & (rng.random((rows, cols)) * blocks.mean() < density)
    if F.p is None:
        num = rng.integers(-3, 4, size=(rows, cols))
        den = rng.integers(1, 4, size=(rows, cols))
        m = F.zeros((rows, cols))
        for i, j in zip(*np.nonzero(mask)):
            m[i, j] = Fraction(int(num[i, j]), int(den[i, j]))
    else:
        m = F.array(np.where(mask, rng.integers(1, F.p, size=mask.shape), 0))
    for i in range(rows):
        same = np.flatnonzero(row_deg == row_deg[i])
        if same.size > 2 and rng.random() < 0.3:
            a, b = rng.choice(same[same != i], size=2, replace=False)
            ca, cb = (F.scalar(int(x)) for x in rng.integers(1, 5, size=2))
            m[i] = F.mod(ca * m[a] + cb * m[b])
    m = m[rng.permutation(rows)]
    if F.p is not None and draw(st.booleans()):
        m = m + F.p * rng.integers(-2, 3, size=m.shape)
    return F, m


@given(field_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_dense_oracle(case):
    assert_matches_oracles(*case)


@given(field_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_is_oracle_pivot_count(case):
    F, m = case
    assert rank(F, m) == len(dense_rref(F, m)[1])


@given(graded_matrices())
@settings(max_examples=200, deadline=None)
def test_sparse_graded_matrices_match_oracles(case):
    assert_matches_oracles(*case)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5)])
def test_zero_and_empty_shapes(F, shape):
    zero = F.zeros(shape)
    inputs = [zero]
    if F.p is not None:  # nonzero words that are 0 mod p
        inputs += [zero + F.p, zero - 2 * F.p]
    for m in inputs:
        r, piv = rref(F, m)
        assert piv == [] and rank(F, m) == 0
        assert identical(r, zero)
        assert_matches_oracles(F, m)


@given(field_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_loop_oracle(case):
    F, m = case
    if m.shape[0] == 0 or m.shape[1] == 0:
        return  # handled before any elimination; covered by test_linalg
    S = kernel_subspace(F, m)
    rows, free = loop_kernel(F, m)
    assert S.pivots == free
    assert all(type(c) is int for c in S.pivots)
    assert identical(S.basis, rows)


@given(field_matrices())
@settings(max_examples=200, deadline=None)
def test_projection_matches_loop_oracle(case):
    # rref spans and kernel spans (whose basis is not in rref but is 1 at
    # its own pivot and 0 at the others) both take the closed form
    F, m = case
    for S in (Subspace.from_rows(F, m, m.shape[1]), kernel_subspace(F, m)):
        assert identical(S.projection(), loop_projection(S))


def probe_rows(S, rng):
    """Rows to test S against, stacked: combinations of its basis rows
    (members), random vectors (outside, unless S is large) and zero."""
    F, n = S.field, S.ambient

    def draw(shape):
        if F.p is not None:
            return F.array(rng.integers(0, F.p, size=shape))
        out = F.zeros(shape)
        for idx in np.ndindex(*shape):
            x = int(rng.integers(-4, 5))
            if x:
                out[idx] = Fraction(x, int(rng.integers(1, 4)))
        return out

    members = F.matmul(draw((3, S.dim)), S.basis)
    return np.vstack([members, draw((3, n)), F.zeros((1, n))])


def assert_membership_matches_loop(S, rows):
    """reduce, contains, contains_space and coords of S agree with the
    per-pivot loop, on each row and on the stack."""
    F = S.field
    want = [loop_reduce(S, v) for v in rows]
    assert identical(S.reduce(rows), np.vstack(want).reshape(rows.shape))
    inside = np.array([not np.any(w) for w in want], dtype=bool)
    for v, w, ok in zip(rows, want, inside):
        assert identical(S.reduce(v), w)
        assert S.contains(v) == ok
        if ok:
            assert identical(F.matmul(S.coords(v), S.basis), v)
        else:
            with pytest.raises(DimensionError):
                S.coords(v)
    members = rows[inside]
    c = S.coords(members)
    assert c.shape == (len(members), S.dim)
    assert identical(F.matmul(c, S.basis), F.mod(members))
    if not inside.all():
        with pytest.raises(DimensionError):
            S.coords(rows)
    for T in (Subspace.from_rows(F, rows, S.ambient),
              Subspace.from_rows(F, members, S.ambient), S):
        assert S.contains_space(T) == all(
            not np.any(loop_reduce(S, r)) for r in T.basis)


@given(field_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_membership_matches_per_pivot_loop(case, seed):
    # rref spans and kernel spans (dual basis, not in rref) alike
    F, m = case
    rng = np.random.default_rng(seed)
    for S in (Subspace.from_rows(F, m, m.shape[1]), kernel_subspace(F, m)):
        assert_membership_matches_loop(S, probe_rows(S, rng))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_membership_matches_per_pivot_loop_on_module_spans(F):
    # every field, on the spans the engine asks about: mM, socles and
    # kernels of stacked actions, and the full and zero spaces
    rng = np.random.default_rng(3)
    ring = ring_from_strings(F, ["x", "y"], ["x^2 - y^2", "x*y"])
    for seed in range(3):
        M = random_module(ring, seed)
        spaces = [M.mm(), M.socle(), M.msub(2), Subspace.full(F, M.dim),
                  Subspace(F, M.dim),
                  kernel_subspace(F, np.vstack(M.actions))]
        for S in spaces:
            assert_membership_matches_loop(S, probe_rows(S, rng))
        assert M.has_k_summand() == any(
            np.any(loop_reduce(M.mm(), r)) for r in M.socle().basis)


def conjugated(M, seed):
    """M with its actions written in a random unitriangular basis, so that
    its socle is not spanned by coordinate vectors."""
    F, n = M.field, M.dim
    rng = np.random.default_rng(seed)
    N = F.array(np.triu(rng.integers(0, F.p or 5, size=(n, n)), 1))
    P = F.mod(F.eye(n) + N)
    Pinv, power = F.eye(n), F.eye(n)  # (I + N)^-1 = sum of (-N)^k
    for k in range(1, n):
        power = F.matmul(power, N)
        Pinv = F.mod(Pinv + F.scalar((-1) ** k) * power)
    return FiniteModule(M.ring, [F.matmul(F.matmul(P, A), Pinv)
                                 for A in M.actions])


@given(st.sampled_from(FIELDS), st.integers(0, 2**16), st.booleans())
@settings(max_examples=40, deadline=None)
def test_socles_match_intersection_oracle(F, seed, square_zero):
    # one kernel of the stacked actions spans the same space, and rref
    # makes the basis of a span unique
    ring = ring_from_strings(F, ["x", "y"], ["x^2 - y^2", "x*y"])
    want = intersected_socle(F, [ring.left_mult[g] for g in ring.gen_index],
                             ring.length)
    got = ring.socle_subspace()
    assert got.pivots == want.pivots and identical(got.basis, want.basis)
    M = random_module(ring, seed, square_zero=square_zero)
    for mod in (M, conjugated(M, seed)):
        want = intersected_socle(F, mod.actions, mod.dim)
        got = mod.socle()
        assert got.pivots == want.pivots and identical(got.basis, want.basis)


def assert_blockwise_action(ring, rows, products):
    """realize on R sends row t to products[b][t] at column t*lambda + b,
    and column_span spans every product of every row."""
    F, lam = ring.field, ring.length
    n = rows.shape[1] // lam
    pres = rmatrix_of_rows(ring, rows)
    got = densify(F, realize(ring, pres, regular_module(ring))).T
    for b, want in enumerate(products):
        assert identical(got[b::lam], want)
    want = Subspace.from_rows(F, np.vstack(products), n * lam)
    span = column_span(ring, pres)
    assert span.pivots == want.pivots and identical(span.basis, want.basis)


def test_realize_matches_block_diagonal_product():
    rng = np.random.default_rng(5)
    for p in (101, P_MAX):
        F = Field(p)
        ring = ring_from_strings(F, ["x", "y"], ["x^2", "y^3"])
        lam = ring.length
        for n in (1, 2, 3):
            rows = F.array(rng.integers(0, p, size=(4, n * lam)))
            products = []
            for b in range(lam):
                dense = rows.astype(object) @ dense_free_op(ring, n, b).T
                products.append(np.array(dense % p, dtype=np.int64))
            assert_blockwise_action(ring, rows, products)


@given(field_matrices([QQ]), st.integers(0, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_rational_matmul_matches_fraction_product(case, width, seed):
    _, a = case
    rng = np.random.default_rng(seed)
    b = QQ.zeros((a.shape[1], width))
    for idx in np.ndindex(b.shape):
        b[idx] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
    for right in (b, b[:, 0]) if width else (b,):
        got, want = QQ.matmul(a, right), a @ right
        # an empty inner dimension gives Python int zeros in numpy's product
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert all(type(x) is Fraction for x in got.flat)


def test_realize_over_q_matches_block_diagonal_product():
    ring = ring_from_strings(QQ, ["x", "y"], ["x^2 - y^2", "x*y"])
    rows = QQ.array([[Fraction(i - j, 1 + j) for j in range(2 * ring.length)]
                     for i in range(3)])
    assert_blockwise_action(ring, rows, [rows @ dense_free_op(ring, 2, b).T
                                         for b in range(ring.length)])


BIG = Field(P_MAX)


def _oracle_matmul(a, b):
    """a @ b with Python integers, then reduced mod P_MAX."""
    return np.array((a.astype(object) @ b.astype(object)) % P_MAX,
                    dtype=np.int64)


@st.composite
def big_pairs(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    batch = draw(st.sampled_from([(), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hi = draw(st.sampled_from([P_MAX, 3]))  # 3: values just below p
    a = P_MAX - rng.integers(1, hi + 1, size=batch + (k, n))
    b = P_MAX - rng.integers(1, hi + 1, size=(n, m))
    return a.astype(np.int64), b.astype(np.int64)


def test_matmul_all_p_minus_one():
    a = np.full((3, 3), P_MAX - 1, dtype=np.int64)
    assert BIG.matmul(a, a).tolist() == [[3] * 3] * 3


@given(big_pairs())
@settings(max_examples=150, deadline=None)
def test_matmul_at_largest_prime_matches_object_oracle(pair):
    a, b = pair
    assert identical(BIG.matmul(a, b), _oracle_matmul(a, b))
    v = b[:, 0].copy()
    assert identical(BIG.matmul(a, v), _oracle_matmul(a, v))


def test_ring_multiply_and_realize_at_largest_prime():
    ring = ring_from_strings(BIG, ["x", "y"], ["x^2 - y^2", "x*y"])
    lam = ring.length
    rng = np.random.default_rng(11)
    left_mult = ring.left_mult.astype(object)
    for _ in range(20):
        u = P_MAX - rng.integers(1, 4, size=lam)
        v = P_MAX - rng.integers(1, 4, size=lam)
        want = np.einsum("i,j,ikj->k", u.astype(object), v.astype(object),
                         left_mult) % P_MAX
        assert ring.multiply(u, v).tolist() == want.tolist()
    M = random_module(ring, seed=3)
    n = M.dim
    delta = P_MAX - rng.integers(1, 4, size=(2, 3, lam))
    ops = M.ops().astype(object)
    want = np.zeros((2 * n, 3 * n), dtype=object)
    for r in range(2):
        for c in range(3):
            block = np.tensordot(delta[r, c].astype(object), ops, axes=1)
            want[r * n:(r + 1) * n, c * n:(c + 1) * n] = block % P_MAX
    assert densify(BIG, realize(ring, delta, M)).tolist() == want.tolist()
    assert dense_realize(ring, delta, M).tolist() == want.tolist()


# -- rational products ----------------------------------------------------


def old_q_matmul(a, b):
    """QQ.matmul as it was: both factors scaled by the lcm of all their
    denominators, and every result entry a new Fraction(x, d)."""
    def integral(x):
        d = math.lcm(*(v.denominator for v in x.flat)) if x.size else 1
        out = np.empty(x.shape, dtype=object)
        out.flat = [v.numerator * (d // v.denominator) for v in x.flat]
        return out, d

    ia, da = integral(a)
    ib, db = integral(b)
    prod = np.asarray(ia @ ib)
    out = np.empty(prod.shape, dtype=object)
    out.flat = [Fraction(x, da * db) for x in prod.flat]
    return out


@st.composite
def rational_pairs(draw):
    """Operands of QQ.matmul: zero-heavy, integer-only or fractional, with
    empty dimensions, a 1-D or 3-D left factor (ring.multiply passes a
    3-D one) and a 1-D or 2-D right factor.  Drawn zero values are new
    Fraction(0) objects, not the shared zero."""
    kind = draw(st.sampled_from(["zero-heavy", "integer", "fractional"]))
    k, n, m = (draw(st.integers(0, 5)) for _ in range(3))
    left = draw(st.sampled_from([(n,), (k, n), (2, k, n)]))
    right = draw(st.sampled_from([(n,), (n, m)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = 0.1 if kind == "zero-heavy" else 0.8

    def fill(shape):
        out = QQ.zeros(shape)
        for idx in zip(*np.nonzero(rng.random(shape) < density)):
            den = 1 if kind == "integer" else int(rng.integers(1, 8))
            out[idx] = Fraction(int(rng.integers(-9, 10)), den)
        return out

    return fill(left), fill(right)


@given(rational_pairs())
@settings(max_examples=300, deadline=None)
def test_rational_matmul_matches_per_entry_oracle(pair):
    a, b = pair
    got = QQ.matmul(a, b)
    assert identical(got, old_q_matmul(a, b))
    # every zero of the product is the shared zero of QQ.zeros
    assert all(x is _QZERO for x in got.flat if not x)


def test_rational_zeros_are_shared():
    assert QQ.zero is _QZERO
    assert all(x is _QZERO for x in QQ.zeros((2, 3)).flat)
    assert all(x is _QZERO for x in QQ.eye(3).flat if not x)


# -- elimination order ----------------------------------------------------


def _lead(row):
    nz = np.flatnonzero(row)
    return int(nz[0]) if nz.size else row.size


@given(field_matrices())
@settings(max_examples=150, deadline=None)
def test_rows_in_ascending_lead_order_match_oracles(case):
    # the order that needs a back-clearing pass after every new pivot
    F, m = case
    m = F.mod(m)
    order = sorted(range(m.shape[0]), key=lambda i: _lead(m[i]))
    assert_matches_oracles(F, m[order])


@given(st.sampled_from(FIELDS), st.integers(1, 12), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_duplicate_leads_match_oracles(F, rows, cols, seed):
    # rows sharing a lead are reduced by the first one's pivot row, so
    # their new leads lie right of pivots and take the clearing pass
    rng = np.random.default_rng(seed)
    leads = rng.integers(0, min(cols, 2), size=rows)
    vals = rng.integers(1, F.p or 5, size=(rows, cols))
    mask = (rng.random((rows, cols)) < 0.5) & (np.arange(cols) > leads[:, None])
    m = F.array(np.where(mask | (np.arange(cols) == leads[:, None]), vals, 0))
    assert_matches_oracles(F, m)


@given(field_matrices([QQ]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_noncanonical_rational_zeros_match_oracles(case, seed):
    # zeros that are not the shared object still fail the truth test
    _, m = case
    rng = np.random.default_rng(seed)
    odd = m.copy()
    for idx in zip(*np.nonzero(m == 0)):
        odd[idx] = [-Fraction(0), Fraction(0), _QZERO][int(rng.integers(3))]
    assert_matches_oracles(QQ, odd)
    r, piv = rref(QQ, odd)
    want_r, want_piv = rref(QQ, m)
    assert piv == want_piv and identical(r, want_r)


@given(field_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_noncanonical_int64_entries_match_oracles(case, seed):
    # the dense adapter reduces only the nonzero words: over GF(p) words
    # that are negative, >= p or nonzero multiples of p; over Q plain
    # int64 entries, negative ones included, in place of Fractions
    F, m = case
    rng = np.random.default_rng(seed)
    if F.p is None:
        odd = np.where(m != 0, rng.integers(-9, 10, size=m.shape), 0)
        canon = QQ.array(odd)
    else:
        odd = m + F.p * rng.integers(-3, 4, size=m.shape)
        canon = m
        assert_matches_oracles(F, odd)
    r, piv = rref(F, odd)
    want_r, want_piv = rref(F, canon)
    assert piv == want_piv and identical(r, want_r)
    assert rank(F, odd) == len(piv)
    assert identical(kernel_basis(F, odd), kernel_basis(F, canon))


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("n", [2, 7, 20])
def test_distinct_leads_need_no_clearing(F, n, monkeypatch):
    # rows e_i + e_{i+1}, listed by ascending lead: inserted in that order
    # every new pivot column would be cleared from all earlier pivot
    # rows; by descending lead each row is reduced once and nothing else
    m = F.mod(F.eye(n) + np.eye(n, k=1, dtype=np.int64))
    calls = []
    subtract = linalg._subtract
    monkeypatch.setattr(linalg, "_subtract",
                        lambda *a: calls.append(1) or subtract(*a))
    assert rank(F, m) == n
    assert len(calls) == n - 1


# -- module actions ---------------------------------------------------------


def loop_ops(mod):
    """Every basis monomial's action as a product of generator actions,
    starting from the identity."""
    F = mod.field
    ops = F.zeros((mod.ring.length, mod.dim, mod.dim))
    for b, (_, mon) in enumerate(mod.ring.basis):
        A = F.eye(mod.dim)
        for g, k in enumerate(mon):
            for _ in range(k):
                A = F.matmul(A, mod.actions[g])
        ops[b] = A
    return ops


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ops_match_identity_chain_on_canned_rings(F):
    for inst in canned_corpus(F):
        ring = inst.ring
        mods = [*inst.modules.values(), residue_field(ring),
                regular_module(ring), canonical_module(ring)]
        for mod in mods:
            assert identical(mod.ops(), loop_ops(mod))


@given(st.sampled_from(FIELDS),
       st.sampled_from([["x^2", "y^2"], ["x^2", "x*y", "y^3"],
                        ["x^2 - y^2", "x*y"], ["x^3", "y^2", "z^2", "x*z"]]),
       st.integers(0, 2**16), st.booleans())
@settings(max_examples=60, deadline=None)
def test_ops_match_identity_chain_on_random_modules(F, rels, seed,
                                                    square_zero):
    names = ["x", "y", "z"] if any("z" in r for r in rels) else ["x", "y"]
    ring = ring_from_strings(F, names, rels)
    M = random_module(ring, seed, square_zero=square_zero)
    assert identical(M.ops(), loop_ops(M))

"""Constructions the tests check the engine with, and that no statement,
CLI command, explorer trial or benchmark workload needs: the Kronecker
pair on M (x)_k N, with the Hom_R basis and the isomorphism search built
from it (independent of the presentation route by which tensor_over_R
and hom_over_R are built), direct sums, the Gasharov-Peeva Betti
inequality, the corpus of monomial rings with m^3 = 0, and the dense
blockwise action of R on R^n with the column spans and syzygy modules
built from it."""

from itertools import permutations

import numpy as np

from socle.homology import betti_numbers
from socle.linalg import Subspace, kernel_basis, rank
from socle.modules import (
    FiniteModule,
    ModuleError,
    _require_closed,
    matlis_dual,
    require_same_ring,
)
from socle.ring import RingPresentation, build_ring, monomials


def kron(F, a, b):
    """The Kronecker product of matrices a and b.  Only the products of
    nonzero entries are written, into zeros(), so over Q every zero is the
    shared one; over GF(p) each product of residues is below 2^62."""
    (p, q), (r, s) = a.shape, b.shape
    out = F.zeros((p, r, q, s))
    ia, ja = np.nonzero(a)
    ib, jb = np.nonzero(b)
    out[ia[:, None], ib, ja[:, None], jb] = F.mod(
        np.multiply.outer(a[ia, ja], b[ib, jb]))
    return out.reshape(p * r, q * s)


def _kron_pair(a, b):
    """A (x)_k B with R acting on the left factor, and for each generator g
    the operator W_g = A_g (x) 1 - 1 (x) B_g on it."""
    require_same_ring(a, b)
    F = a.field
    eyea, eyeb = F.eye(a.dim), F.eye(b.dim)
    left = [kron(F, Aa, eyeb) for Aa in a.actions]
    W = [F.mod(L - kron(F, eyea, Ab)) for L, Ab in zip(left, b.actions)]
    return FiniteModule(a.ring, left, validate=False), W


def hom_basis(a, b):
    """A k-basis of Hom_R(a, b) as b.dim x a.dim matrices: the common
    kernel of the W_g on b (x)_k a^dual, row-major flattened maps."""
    hom_k, W = _kron_pair(b, matlis_dual(a))
    F = a.field
    S = Subspace.from_rows(F, kernel_basis(F, np.vstack(W)), hom_k.dim)
    return [S.basis[i].reshape(b.dim, a.dim) for i in range(S.dim)]


def is_isomorphic(a, b):
    """Randomized R-module isomorphism test: search Hom_R(a,b) for an
    invertible element.  Deterministic via a fixed seed; one-sided: a
    False can be a miss.  On an isomorphic pair each trial hits with
    probability |Aut(a)|/|End(a)|, which is near 1 for large p but can be
    small over GF(2) and GF(3), so those fields get 400 trials, not 24."""
    try:
        require_same_ring(a, b)
    except ModuleError:
        return False
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    basis = hom_basis(a, b)
    if not basis:
        return False
    F = a.field
    for B in basis:
        if rank(F, B) == a.dim:
            return True
    rng = np.random.default_rng(1729)
    for _ in range(400 if F.p is not None and F.p <= 3 else 24):
        if F.p is not None:
            coeffs = rng.integers(0, F.p, size=len(basis))
        else:
            coeffs = rng.integers(-20, 21, size=len(basis))
        cand = F.zeros((a.dim, a.dim))
        for c, B in zip(coeffs, basis):
            cand = F.mod(cand + F.scalar(int(c)) * B)
        if rank(F, cand) == a.dim:
            return True
    return False


def direct_sum(a, b):
    require_same_ring(a, b)
    F = a.field
    acts = []
    for Aa, Ab in zip(a.actions, b.actions):
        A = F.zeros((a.dim + b.dim, a.dim + b.dim))
        A[: a.dim, : a.dim] = Aa
        A[a.dim:, a.dim:] = Ab
        acts.append(A)
    return FiniteModule(a.ring, acts, validate=False)


def gasharov_peeva_ok(ring, module, n):
    """b_{i+1} >= e*b_i - (lambda(m^2)+2-h)*b_{i-1} for all computed i>=1."""
    b = betti_numbers(module, n)
    lam_m2 = sum(ring.hilbert[2:])
    c = lam_m2 + 2 - ring.h
    return all(b[i + 1] >= ring.e * b[i] - c * b[i - 1] for i in range(1, n))


def monomial_square_zero_rings(field, e_max=3):
    """All monomial quotients with m^3=0 and e <= e_max, up to permuting
    the generators.  Relations: a subset of the degree-2 monomials plus
    every degree-3 monomial."""
    out = []
    for e in range(1, e_max + 1):
        quad = monomials(e, 2)
        cubics = monomials(e, 3)
        seen = set()
        for mask in range(2 ** len(quad)):
            chosen = frozenset(q for i, q in enumerate(quad) if mask >> i & 1)
            canon = min(
                tuple(sorted(tuple(m[p] for p in perm) for m in chosen))
                for perm in permutations(range(e))
            )
            if canon in seen:
                continue
            seen.add(canon)
            rels = [{m: 1} for m in sorted(chosen, reverse=True)]
            rels += [{m: 1} for m in cubics]
            names = [f"x{i+1}" for i in range(e)]
            out.append(build_ring(RingPresentation(field, names, rels)))
    return out


def free_action(ring, rows, b):
    """Ring basis element b acting on each row, a vector of R^n with
    coordinate j*lambda + i for component j and ring basis element i:
    L_b applied to every length-lambda block, as one dense product."""
    k = rows.shape[0]
    lam = ring.length
    n = rows.shape[1] // lam
    blocks = ring.field.matmul(rows.reshape(k, n, lam), ring.left_mult[b].T)
    return blocks.reshape(k, n * lam)


def dense_column_span(ring, pres, low=None):
    """column_span as the dense loop built it: every ring basis element
    b < low applied to every column by free_action, each block cut to
    its first low coordinates, reduced once."""
    n, m, lam = pres.shape
    low = lam if low is None else low
    cols = pres.transpose(1, 0, 2).reshape(m, n * lam)
    spans = [free_action(ring, cols, b).reshape(m, n, lam)[:, :, :low]
             for b in range(low)]
    rows = np.vstack(spans).reshape(low * m, n * low)
    return Subspace.from_rows(ring.field, rows, n * low)


def dense_free_submodule(ring, S):
    """free_submodule as the dense path built it: generator g sends S's
    basis rows to free_action(ring, S.basis, g), read off in S's pivot
    coordinates, after the same closure check."""
    images = [free_action(ring, S.basis, g) for g in ring.gen_index]
    _require_closed(ring.field, images, S.projection())
    return FiniteModule(ring, [W[:, list(S.pivots)].T for W in images],
                        validate=False)

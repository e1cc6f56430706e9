"""Finite-length modules over a graded Artinian algebra.

A module is a k-vector space of dimension lambda(M) together with e
pairwise-commuting generator-action matrices satisfying the ring's
relations.  Everything downstream (duals, tensor/Hom over R, syzygies,
gamma-invariants, minor spans) is computed from this data by exact
linear algebra.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from .linalg import (
    DimensionError,
    SparseRows,
    Subspace,
    dense_rows,
    kernel_basis,
    kernel_subspace,
    rank,
)


class ModuleError(ValueError):
    pass


class FiniteModule:
    def __init__(self, ring, actions, validate=True):
        self.ring = ring
        self.field = ring.field
        self.actions = [np.asarray(A) for A in actions]
        self.dim = self.actions[0].shape[0] if self.actions else 0
        if len(self.actions) != ring.e:
            raise ModuleError("one action matrix per ring generator required")
        for A in self.actions:
            if A.shape != (self.dim, self.dim):
                raise ModuleError("action matrices must be square and consistent")
        self._ops = None
        self._mchain = None  # [mM, m^2 M, ...], extended on demand
        self._socle = None
        self._resolution = None
        self._dual = None
        self.presentation = None  # RMatrix it came from, if any
        self.is_syzygy = False
        if validate:
            self._validate()

    # -- structure ------------------------------------------------------

    def _validate(self):
        F = self.field
        for i in range(len(self.actions)):
            for j in range(i):
                d = F.mod(F.matmul(self.actions[i], self.actions[j])
                          - F.matmul(self.actions[j], self.actions[i]))
                if np.any(d):
                    raise ModuleError("generator actions do not commute")
        for f in self.ring.presentation.relations:
            if np.any(self._evaluate_poly(f)):
                raise ModuleError("ring relation does not annihilate the module")
        if self.msub(self.ring.h + 1).dim != 0:
            raise ModuleError("m^(h+1) does not act as zero")

    def _evaluate_poly(self, poly):
        F = self.field
        out = F.zeros((self.dim, self.dim))
        for mon, coeff in poly.items():
            term = F.eye(self.dim)
            for g, k in enumerate(mon):
                for _ in range(k):
                    term = F.matmul(term, self.actions[g])
            out = F.mod(out + F.scalar(coeff) * term)
        return out

    def ops(self):
        """Action of every ring basis element, stacked (lambda, dim, dim);
        an algebra map R -> End(M).

        Each basis monomial's action is one product with its predecessor,
        the monomial less its first variable: the standard monomials are
        closed under division, so the predecessor is a basis element of
        lower degree, already filled in."""
        if self._ops is None:
            F = self.field
            ring = self.ring
            ops = F.zeros((ring.length, self.dim, self.dim))
            ops[0] = F.eye(self.dim)  # basis element 0 is the monomial 1
            for b, (_, mon) in enumerate(ring.basis[1:], 1):
                g = next(g for g, k in enumerate(mon) if k)
                pred = mon[:g] + (mon[g] - 1,) + mon[g + 1:]
                ops[b] = F.matmul(ops[ring.index[pred]], self.actions[g])
            self._ops = ops
        return self._ops

    # -- invariants -----------------------------------------------------

    def mm(self):
        """The subspace mM."""
        return self.msub(1)

    def msub(self, j):
        """The subspace m^j M, from the cached chain mM, m^2 M, ...: mM is
        the span of the columns of the actions, and each further power the
        span of the actions applied to the last one, until one is zero."""
        F = self.field
        if j == 0:
            return Subspace.full(F, self.dim)
        if self._mchain is None:
            self._mchain = [Subspace.from_rows(F, np.hstack(self.actions).T,
                                               self.dim)]
        chain = self._mchain
        while len(chain) < j and chain[-1].dim:
            rows = [F.matmul(A, chain[-1].basis.T).T for A in self.actions]
            chain.append(Subspace.from_rows(F, np.vstack(rows), self.dim))
        return chain[min(j, len(chain)) - 1]

    def min_gens(self):
        return self.dim - self.mm().dim

    def generator_coords(self):
        """Minimal generators: unit vectors at the non-pivot coordinates
        of rref(mM) -- lifts of the echelon basis of M/mM."""
        return self.mm().complement_coords()

    def gamma(self):
        if self.dim == 0:
            raise ModuleError("gamma is undefined for the zero module")
        return Fraction(self.dim, self.min_gens()) - 1

    def socle(self):
        """Intersection of the kernels of all generator actions."""
        if self._socle is None:
            F = self.field
            self._socle = Subspace.from_rows(
                F, kernel_basis(F, np.vstack(self.actions)), self.dim)
        return self._socle

    def has_k_summand(self):
        """True iff Soc(M) is not contained in mM: a socle element that is
        a minimal generator splits off a copy of k."""
        return not self.mm().contains_space(self.socle())

    def is_free(self):
        # the minimal cover R^nu -> M is onto; equal lengths force it bijective
        return self.dim == self.min_gens() * self.ring.length

    def is_zero(self):
        return self.dim == 0

    def annihilator_is_zero(self):
        """Faithfulness: no nonzero ring element kills the whole module."""
        F = self.field
        ops = self.ops()
        flat = np.vstack([A.reshape(-1) for A in ops]).T  # (dim^2, lambda)
        return rank(F, flat) == self.ring.length

    def __repr__(self):
        return f"FiniteModule(dim={self.dim} over {self.ring!r})"


class ModuleMap:
    def __init__(self, source, target, matrix, validate=True):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix)
        if self.matrix.shape != (target.dim, source.dim):
            raise DimensionError("module map of wrong shape")
        if validate:
            F = source.field
            for As, At in zip(source.actions, target.actions):
                d = F.mod(F.matmul(self.matrix, As) - F.matmul(At, self.matrix))
                if np.any(d):
                    raise ModuleError("matrix is not R-linear")


# -- constructors -------------------------------------------------------


def regular_module(ring):
    """R acting on itself: basis element b acts as the ring's own L_b, so
    building R multiplies nothing and it is not cached."""
    return _regular_below(ring, ring.length)


def _regular_below(ring, low):
    """R/m^p for low = dim R/m^p (R at low = lambda), b acting as the
    corner L_b[:low, :low] of the ring's own operator (see column_span)."""
    L = ring.left_mult
    ops = L if low == ring.length else L[:, :low, :low]
    mod = FiniteModule(ring, [ops[g] for g in ring.gen_index], validate=False)
    mod._ops = ops
    return mod


def free_module(ring, n):
    """R^n, generator g acting blockwise as the ring's own L_g."""
    return copies(regular_module(ring), n)


def copies(mod, n):
    """N^n, generator g acting blockwise as N's A_g: only the nonzero
    entries are written into zeros(), so over Q every zero is shared."""
    acts = np.asarray(mod.actions)  # (e, d, d)
    e, d, diag = len(acts), mod.dim, np.arange(n)[:, None]
    g, i, j = np.nonzero(acts)
    out = mod.field.zeros((e, n, d, n, d))
    out[g, diag, i, diag, j] = acts[g, i, j]
    return FiniteModule(mod.ring, out.reshape(e, n * d, n * d),
                        validate=False)


def residue_field(ring):
    """k = R/m, every generator acting as zero."""
    F = ring.field
    return FiniteModule(ring, [F.zeros((1, 1)) for _ in range(ring.e)],
                        validate=False)


def rmatrix_from_polys(ring, rows):
    """RMatrix (rows x cols x lambda) from a grid of polynomial dicts."""
    F = ring.field
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    out = F.zeros((nrows, ncols, ring.length))
    for r, row in enumerate(rows):
        if len(row) != ncols:
            raise ModuleError("ragged presentation matrix")
        for c, poly in enumerate(row):
            out[r, c] = ring.normal_form(poly)
    return out


def _require_closed(F, images, proj):
    """Raise unless every row of every image lies in the subspace whose
    projection() is proj (one product checks them all)."""
    if np.any(F.matmul(np.vstack(images), proj.T)):
        raise ModuleError("subspace is not closed under the action")


def quotient_module(amb, S):
    """Quotient of a module by an action-closed subspace."""
    F = amb.field
    proj = S.projection()
    _require_closed(F, [F.matmul(S.basis, A.T) for A in amb.actions], proj)
    comp = S.complement_coords()
    acts = [F.matmul(proj, A[:, comp]) for A in amb.actions]
    return FiniteModule(amb.ring, acts, validate=False), proj


def submodule_module(amb, S):
    """Action-closed subspace as a module, with its inclusion map."""
    F = amb.field
    images = [F.matmul(S.basis, A.T) for A in amb.actions]
    _require_closed(F, images, S.projection())
    sub = FiniteModule(amb.ring, [W[:, list(S.pivots)].T for W in images],
                       validate=False)
    return sub, ModuleMap(sub, amb, S.basis.T, validate=False)


def realize(ring, delta, coeff_module):
    """Block matrix of an RMatrix acting on a coefficient module, as
    SparseRows: block (r, c) is the action of the ring element
    delta[r, c].  Each nonzero delta[r, c, b] times each nonzero entry
    (i, j) of ops()[b] adds to entry (r*n + i, c*n + j), so only the
    nonzero structure is touched, however large the blocks.  On R, column
    c*lambda + j is basis element j times column c, a vector of R^n."""
    rows, cols, lam = delta.shape
    n = coeff_module.dim
    ops = coeff_module.ops()
    acts = [[] for _ in range(lam)]  # the nonzero (i, j, value) of ops[b]
    nz = np.nonzero(ops)
    for b, i, j, y in zip(*(x.tolist() for x in nz), ops[nz].tolist()):
        acts[b].append((i, j, y))
    out = [{} for _ in range(rows * n)]
    nz = np.nonzero(delta)
    for r, c, b, x in zip(*(x.tolist() for x in nz), delta[nz].tolist()):
        for i, j, y in acts[b]:
            row, k = out[r * n + i], c * n + j
            row[k] = row[k] + x * y if k in row else x * y
    return SparseRows.from_sums(ring.field, out, cols * n)


def free_submodule(ring, S):
    """Action-closed subspace S of R^n as a module, acted on blockwise:
    generator g sends basis row t of S to column t*lambda + g of the
    rows realized on R, read off in S's pivot coordinates."""
    F, lam = ring.field, ring.length
    D = realize(ring, rmatrix_of_rows(ring, S.basis), regular_module(ring)).T
    images = [dense_rows(F, dict(enumerate(D[g::lam])), (S.dim, S.ambient))
              for g in ring.gen_index]
    _require_closed(F, images, S.projection())
    return FiniteModule(ring, [W[:, list(S.pivots)].T for W in images],
                        validate=False)


def column_span(ring, pres, low=None):
    """R-span of the columns of an RMatrix (n x m x lambda) as a subspace of
    R^n: the row span of pres realized on R, transposed.

    Given low = dim R/m^p, the span's image in R^n/m^p R^n instead, pres
    realized on R/m^p: the basis is degree-major, so m^p R^n is spanned by
    all but the first low coordinates of each block, which are kept, and
    the corner of L_b is zero for b >= low, of degree >= p."""
    n = pres.shape[0]
    low = ring.length if low is None else low
    D = realize(ring, pres, _regular_below(ring, low))
    return Subspace.from_rows(ring.field, D.T, n * low)


def truncated_cokernel(ring, pres, power):
    """M/m^power M for M the cokernel of the RMatrix pres, power >= 1, as
    one quotient of R^n/m^power R^n by the image of the columns.

    The pivots of im(pres) + m^power R^n are those of the truncated span
    together with every coordinate of m^power R^n, so the non-pivot
    coordinates, and with them the action matrices, are those of
    quotienting coker(pres) by m^power coker(pres).  No presentation is
    stored: pres presents M, not the truncation."""
    n, _, lam = pres.shape
    if lam != ring.length:
        raise ModuleError("presentation entries do not live in this ring")
    if power < 1:
        raise ModuleError(f"truncation power must be >= 1, not {power}")
    low = sum(ring.hilbert[:power])
    return quotient_module(copies(_regular_below(ring, low), n),
                           column_span(ring, pres, low))[0]


def from_presentation(ring, pres):
    """Cokernel of the free-module map with the given RMatrix columns."""
    mod = truncated_cokernel(ring, pres, ring.h + 1)
    mod.presentation = pres
    return mod


def presentation_of(mod):
    """A presentation matrix with cokernel M: the one M was built from,
    else delta_1 of M's minimal resolution, stored on M."""
    if mod.presentation is None:
        from .homology import resolve

        mod.presentation = resolve(mod, 1).delta(1)
    return mod.presentation


# -- duals ---------------------------------------------------------------


def matlis_dual(mod):
    """k-linear dual with transposed actions (graded equicharacteristic
    realization of Hom into the injective hull of k)."""
    if mod._dual is None:
        mod._dual = FiniteModule(mod.ring, [A.T.copy() for A in mod.actions],
                                 validate=False)
    return mod._dual


def canonical_module(ring):
    return matlis_dual(regular_module(ring))


DERIVED = {"k": residue_field, "R": regular_module, "omega": canonical_module}


def derived_module(ring, name):
    """The ring's k, R or omega: one object per ring while a caller holds
    it, so it is resolved once.  ring.derived holds it weakly, since it
    refers back to the ring; nothing else reads or writes that table."""
    mod = ring.derived.get(name)
    if mod is None:
        mod = ring.derived[name] = DERIVED[name](ring)
    return mod


# -- binary operations ---------------------------------------------------


def require_same_ring(a, b):
    """Raise unless modules a and b are over one ring: the same object, or
    two rings built from the same presentation, which have identical bases
    and structure constants, so their modules are directly comparable."""
    r1, r2 = a.ring, b.ring
    if r1 is not r2 and not (r1.field.p == r2.field.p
                             and r1.varnames == r2.varnames
                             and r1.hilbert == r2.hilbert
                             and np.array_equal(r1.left_mult, r2.left_mult)):
        raise ModuleError("modules over different rings")


def tensor_over_R(a, b):
    """M (x)_R N as the quotient of N^{b_0} by the image of pres (x) N, for
    the presentation pres of M with b_0 rows: (x) is right exact.  R acts
    blockwise."""
    require_same_ring(a, b)
    pres = presentation_of(a)
    D = realize(a.ring, pres, b)
    amb = copies(b, pres.shape[0])
    return quotient_module(amb, Subspace.from_rows(a.field, D.T, amb.dim))[0]


def hom_over_R(a, b):
    """Hom_R(M, N) as the kernel of Hom(pres, N): N^{b_0} -> N^{b_1}, for
    the presentation pres of M, a submodule of N^{b_0} = Hom_R(R^{b_0}, N):
    Hom is left exact.  R acts blockwise, which is post-composition."""
    require_same_ring(a, b)
    pres = presentation_of(a)
    D = realize(a.ring, pres.transpose(1, 0, 2), b)
    return submodule_module(copies(b, pres.shape[0]),
                            kernel_subspace(a.field, D))[0]


def hom_into_ring(mod):
    """M* = Hom_R(M, R)."""
    return hom_over_R(mod, regular_module(mod.ring))


# -- syzygies ------------------------------------------------------------


def cover_matrix(mod):
    """k-matrix (lambda(M) x nu*lambda) of the minimal cover R^nu -> M:
    column j*lambda + b is ring basis element b applied to the j-th chosen
    minimal generator."""
    gens = mod.generator_coords()
    return mod.ops()[:, :, gens].transpose(1, 2, 0).reshape(
        mod.dim, len(gens) * mod.ring.length)


def cover_map(mod):
    """Minimal cover R^{nu(M)} -> M sending free generator j to the j-th
    chosen minimal generator."""
    Fr = free_module(mod.ring, mod.min_gens())
    return Fr, ModuleMap(Fr, mod, cover_matrix(mod), validate=False)


def rmatrix_of_rows(ring, rows):
    """RMatrix (n x k x lambda) whose columns are the k rows: coordinate
    j*lambda + i of a row is component j's basis element i."""
    k, width = rows.shape
    return rows.reshape(k, width // ring.length, ring.length).transpose(1, 0, 2)


def min_gen_rmatrix(ring, K):
    """RMatrix (n x b x lambda) whose columns are minimal generators of an
    action-closed subspace K of R^n: the rows of K's basis that lift the
    echelon basis of K/mK, in basis order.

    mK is spanned by the images of K's basis rows under the generators,
    read in K's pivot coordinates, and is built as SparseRows: each
    nonzero K.basis[t, j*lambda + i] times each nonzero L_g[i2, i] adds to
    row (g, t) at the pivot index of coordinate j*lambda + i2.  The image
    lies in K, so its other coordinates are not read."""
    lam = ring.length
    L = ring.left_mult[ring.gen_index]  # (e, lambda, lambda)
    acts = [[] for _ in range(lam)]  # the nonzero (g, i2, value) of column i
    nz = np.nonzero(L)
    for g, i2, i, y in zip(*(x.tolist() for x in nz), L[nz].tolist()):
        acts[i].append((g, i2, y))
    at = {c: q for q, c in enumerate(K.pivots)}
    rows = [{} for _ in range(len(L) * K.dim)]
    nz = np.nonzero(K.basis)
    for t, col, x in zip(*(x.tolist() for x in nz), K.basis[nz].tolist()):
        block, i = divmod(col, lam)
        for g, i2, y in acts[i]:
            q = at.get(block * lam + i2)
            if q is not None:
                row = rows[g * K.dim + t]
                row[q] = row[q] + x * y if q in row else x * y
    mK = SparseRows.from_sums(ring.field, rows, K.dim)
    gens = Subspace.from_rows(ring.field, mK, K.dim).complement_coords()
    return rmatrix_of_rows(ring, K.basis[gens])


def syzygy(mod):
    """First syzygy: (M1, cover map, minimal presentation RMatrix), read
    off M's cached minimal resolution."""
    from .homology import resolve

    res = resolve(mod, 1)
    return res.syzygy_module(1), cover_map(mod)[1], res.delta(1)


# -- minors ---------------------------------------------------------------


def wedge_image(ring, phi):
    """R-span of the n x n minors of an n x g RMatrix presenting N in R^n:
    the column span, in R, of the 1-row matrix of minors.

    Every element of the span annihilates coker(phi); for faithful
    cokernels the span is zero."""
    n, g, lam = phi.shape
    if n > 8:
        raise ModuleError("refusing cofactor expansion beyond 8 x 8 minors")
    minors = [_det(ring, phi, 0, cols) for cols in combinations(range(g), n)]
    return column_span(ring, np.array(minors).reshape(1, len(minors), lam))


def _det(ring, phi, r, cols):
    """Determinant, in R, of the square block of phi on rows r.. and the
    columns cols, by cofactor expansion along its first row."""
    F = ring.field
    acc = F.zeros(phi.shape[2])
    if r == phi.shape[0]:
        acc[0] = F.one
        return acc
    for k, c in enumerate(cols):
        term = ring.multiply(phi[r, c],
                             _det(ring, phi, r + 1, cols[:k] + cols[k + 1:]))
        acc = F.mod(acc - term if k % 2 else acc + term)
    return acc


# -- randomized generation ----------------------------------------------


def random_presentation(ring, seed):
    """Deterministically seeded RMatrix with 1 or 2 rows and 1 to 3
    columns, whose entries combine the basis elements of degree 1 and 2:
    coefficients in [0, p) over GF(p), in [-5, 5] over Q, drawn in one
    call in (row, column, basis element) order."""
    rng = np.random.default_rng(seed)
    F = ring.field
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    degs = np.array([d for d, _ in ring.basis])
    eligible = np.flatnonzero((degs >= 1) & (degs <= 2))
    lo, hi = (0, F.p) if F.p is not None else (-5, 6)
    pres = F.zeros((n, m, ring.length))
    pres[:, :, eligible] = F.array(rng.integers(lo, hi,
                                                size=(n, m, len(eligible))))
    return pres


def random_module(ring, seed, square_zero=False):
    """Cokernel of random_presentation(ring, seed); with square_zero, its
    quotient by m^2 (see truncated_cokernel)."""
    pres = random_presentation(ring, seed)
    if square_zero:
        return truncated_cokernel(ring, pres, 2)
    return from_presentation(ring, pres)

"""Exact linear algebra over GF(p) or the rationals.

A matrix is a dense array or sparse rows.  Dense arrays are plain numpy
arrays: dtype int64 reduced mod p for prime fields, dtype object holding
Fraction for the rationals.  Rational zeros built here (zeros, eye, the
zero entries of a product) are all one shared Fraction(0), so a scan for
nonzeros can pass over them by identity; any other zero still fails the
truth test, so no answer depends on it.  SparseRows hold a matrix as a
list of {column: value} dicts of its nonzero entries, exact Python
scalars with ascending keys, together with its column count: the form
in which homology realizes the maps of a resolution, which are almost
all zero.

The one elimination kernel behind rref, rank and the subspaces works on
sparse rows: a dense array enters it through a scan of its nonzero
entries, so only nonzero entries are ever touched, and rows are inserted
in descending order of leading column.  Every basis choice made
downstream is fixed by the reduced row-echelon form, and a row space has
exactly one: the answer does not depend on the order in which rows are
eliminated, on any tie-breaking rule, or on the form the matrix came in.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class DimensionError(ValueError):
    pass


_QZERO = Fraction(0)  # the one rational zero that zeros() writes


class Field:
    """GF(p) for prime p < 2^31, or the rationals when p is None."""

    def __init__(self, p=101):
        if p is not None:
            if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
                raise ValueError(f"not a prime: {p}")
            if p >= 2**31:
                raise ValueError("p too large for word arithmetic")
            # inner-product terms per int64 partial sum: each term is at
            # most (p-1)^2 and the running residue adds at most p-1
            self._chunk = (2**63 - p) // (p - 1) ** 2
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    @property
    def zero(self):
        return 0 if self.p is not None else _QZERO

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def scalar(self, x):
        if self.p is not None:
            return int(x) % self.p
        return Fraction(x)

    def inv(self, x):
        if self.p is not None:
            return pow(int(x), self.p - 2, self.p)
        return Fraction(1) / x

    def mod(self, arr):
        if self.p is not None:
            return arr % self.p
        return arr

    def array(self, rows):
        if self.p is not None:
            return np.asarray(rows, dtype=np.int64) % self.p
        a = np.empty(np.shape(rows), dtype=object)
        flat = a.reshape(-1)
        src = np.asarray(rows, dtype=object).reshape(-1)
        for i, v in enumerate(src):
            flat[i] = Fraction(v)
        return a

    def zeros(self, shape):
        if self.p is not None:
            return np.zeros(shape, dtype=np.int64)
        a = np.empty(shape, dtype=object)
        a[...] = _QZERO
        return a

    def eye(self, n):
        a = self.zeros((n, n))
        for i in range(n):
            a[i, i] = self.one
        return a

    def matmul(self, a, b):
        """a @ b, exact in every accepted field.

        Over GF(p), entries lie in (-p, p) and the result is reduced mod
        p; once (p-1)^2 times the inner dimension could pass 2^63, the
        inner dimension is summed in chunks and reduced after each.  Over
        Q, both factors are scaled to integers, so the products are
        integer products; only the nonzero result entries become new
        Fractions, and the rest are the shared zero of zeros()."""
        if self.p is None:
            ia, da = _integral(a)
            ib, db = _integral(b)
            prod = np.asarray(ia @ ib)
            d = da * db
            out = self.zeros(prod.shape)
            flat, vals = out.reshape(-1), prod.reshape(-1)
            nz = np.flatnonzero(vals)
            xs = vals[nz].tolist()
            flat[nz] = ([Fraction(x, d) for x in xs] if d != 1
                        else list(map(Fraction, xs)))
            return out
        n = a.shape[-1]
        if n <= self._chunk:
            return (a @ b) % self.p
        out = 0
        for s in range(0, n, self._chunk):
            e = s + self._chunk
            part = b[s:e] if b.ndim == 1 else b[..., s:e, :]
            out = (out + a[..., s:e] @ part) % self.p
        return out


def _integral(a):
    """(n, d): an object array n of integers and an integer d with a = n/d;
    d is the lcm of the distinct denominators, and when it is 1 the
    numerators are taken as they are."""
    xs = a.ravel().tolist()
    d = math.lcm(*{x.denominator for x in xs})
    if d == 1:
        return _objects([x.numerator for x in xs], a.shape), 1
    return _objects([x.numerator * (d // x.denominator) for x in xs],
                    a.shape), d


def _objects(values, shape):
    out = np.empty(shape, dtype=object)
    out.flat = values
    return out


GF101 = Field(101)
QQ = Field(None)


class SparseRows(list):
    """A matrix as the list of its rows, each a {column: value} dict of
    its nonzero entries (Python ints mod p, or Fractions) with ascending
    keys, together with its column count.  shape, size and T read as an
    array's do (bench/spans.py reads the size of rank's input)."""

    def __init__(self, rows, ncols):
        super().__init__(rows)
        self.ncols = ncols

    @property
    def shape(self):
        return len(self), self.ncols

    @property
    def size(self):
        return len(self) * self.ncols

    @property
    def T(self):
        """The transpose; rows are read in order, so its keys ascend."""
        out = [{} for _ in range(self.ncols)]
        for r, row in enumerate(self):
            for c, v in row.items():
                out[c][r] = v
        return SparseRows(out, len(self))

    @staticmethod
    def from_dense(F, m):
        """The rows of a 2-D array.  Over GF(p) only the nonzero words are
        reduced mod p, and those that become 0 are dropped; over Q the
        shared zero of zeros() is passed over by identity."""
        m = np.asarray(m)
        if F.p is None:
            rows = [{c: v for c, v in enumerate(row) if v is not _QZERO and v}
                    for row in m.tolist()]
            return SparseRows(rows, m.shape[1])
        r, c = np.nonzero(m)
        v = m[r, c] % F.p
        keep = np.flatnonzero(v)
        rows = [{} for _ in range(m.shape[0])]
        for i, j, x in zip(r[keep].tolist(), c[keep].tolist(),
                           v[keep].tolist()):
            rows[i][j] = x
        return SparseRows(rows, m.shape[1])

    @staticmethod
    def from_sums(F, rows, ncols):
        """SparseRows from rows of {column: sum} dicts in any key order, the
        sums exact but unreduced: each is reduced mod p over GF(p), zeros
        are dropped and the keys sorted."""
        p = F.p
        if p is None:
            out = [{k: row[k] for k in sorted(row) if row[k]} for row in rows]
        else:
            out = [{k: v for k in sorted(row) if (v := row[k] % p)}
                   for row in rows]
        return SparseRows(out, ncols)


def _pivot_rows(F, m):
    """The nonzero rows of rref(m), keyed by pivot column, each a sparse
    {column: value} dict of Python ints (GF(p)) or Fractions (Q).

    m is SparseRows, or a dense array, which enters through the scan of
    SparseRows.from_dense.  The rows of m are never changed: a row is
    copied before anything is subtracted from it.  They are inserted one
    at a time into a pivot set that stays fully reduced: every pivot row
    is 1 at its own pivot column and 0 at the others.  A new row is
    therefore reduced in one pass (its entry at each pivot column is the
    multiple of that pivot row to subtract), scaled so that its leading
    entry is 1, and its leading column is cleared from the earlier pivot
    rows.  Rows go in by descending leading column, the sparser first
    among equal leads, so a new lead usually lies left of every pivot;
    then no pivot row holds that column and the clearing pass is skipped.
    Python ints are exact at every accepted p."""
    p = F.p
    if not isinstance(m, SparseRows):
        m = SparseRows.from_dense(F, m)
    # each row's keys ascend, so its first key is its leading column
    rows = sorted(filter(None, m), key=lambda row: (-next(iter(row)), len(row)))
    piv = {}
    left = m.ncols  # leftmost pivot column so far
    for row in rows:
        hits = [c for c in row if c in piv]
        if hits:
            row = dict(row)
            for c in hits:
                _subtract(row, row[c], piv[c], p)
        live = [k for k, v in row.items() if v]
        if not live:
            continue
        lead = min(live)
        inv = F.inv(row[lead])
        row = {k: F.mod(row[k] * inv) for k in live}
        if lead > left:
            for prow in piv.values():
                if lead in prow:
                    _subtract(prow, prow[lead], row, p)
                    for k in row:
                        if not prow[k]:
                            del prow[k]
        left = min(left, lead)
        piv[lead] = row
    return piv


def _subtract(dst, a, src, p):
    """dst -= a * src in place (mod p over GF(p)); entries that cancel
    stay, as zeros."""
    get = dst.get
    if p is None:
        for k, v in src.items():
            dst[k] = get(k, 0) - a * v
    else:
        for k, v in src.items():
            dst[k] = (get(k, 0) - a * v) % p


def dense_rows(F, rows, shape):
    """zeros(shape) with the {column: value} rows of a dict on top, in key
    order: the pivot rows of an rref in pivot-column order."""
    out = F.zeros(shape)
    at = [(i, k, v) for i, c in enumerate(sorted(rows))
          for k, v in rows[c].items()]
    if at:
        i, k, v = zip(*at)
        out[list(i), list(k)] = list(v)
    return out


def rref(F, m):
    """Reduced row-echelon form and pivot columns; row space preserved.

    The pivot rows, in pivot-column order, fill the top of an array of
    m's shape; the rest is zero."""
    piv = _pivot_rows(F, m)
    return dense_rows(F, piv, np.shape(m)), sorted(piv)


def rank(F, m):
    return len(_pivot_rows(F, m))


def kernel_basis(F, m):
    """Rows form a basis of the right null space: m @ row = 0."""
    return kernel_subspace(F, m).basis


@dataclass
class Subspace:
    """Subspace of a coordinate space, held as a row basis dual to its
    pivot coordinates: basis[j][pivots[k]] = delta_jk, which is all that
    reduce, coords and projection rely on.  Bases built by from_rows are
    in rref; kernel_subspace's are not (its pivots are the free columns
    of the matrix)."""

    field: Field
    ambient: int
    basis: np.ndarray = None
    pivots: tuple = ()

    def __post_init__(self):
        if self.basis is None:
            self.basis = self.field.zeros((0, self.ambient))

    @staticmethod
    def from_rows(F, rows, ambient=None):
        """The span of the rows (an array, one vector, or SparseRows), with
        its rref basis built straight from the pivot rows, so the basis
        owns its (dim x ambient) data and pins nothing of the input."""
        if not isinstance(rows, SparseRows):
            rows = np.asarray(rows)
            if rows.ndim == 1:
                rows = rows.reshape(1, -1)
        if ambient is None:
            ambient = rows.shape[1]
        piv = _pivot_rows(F, rows)
        return Subspace(F, ambient, dense_rows(F, piv, (len(piv), ambient)),
                        tuple(sorted(piv)))

    @staticmethod
    def full(F, n):
        return Subspace(F, n, F.eye(n), tuple(range(n)))

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        """The same span in the same coordinate space, whatever the bases."""
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.dim == other.dim and self.contains_space(other))

    def reduce(self, v):
        """Residual v - v[pivots] @ basis of v (or of each row of v): zero
        exactly when v lies in the subspace, as contains and coords read."""
        v, F = np.asarray(v), self.field
        return F.mod(v - F.matmul(v[..., list(self.pivots)], self.basis))

    def contains(self, v):
        return not np.any(self.reduce(v))

    def contains_space(self, other):
        return self.contains(other.basis)

    def coords(self, v):
        """Coefficients of v (or of its rows); raises if v is outside."""
        if not self.contains(v):
            raise DimensionError("vector not in subspace")
        return np.asarray(v)[..., list(self.pivots)]

    def add(self, other):
        self._match(other)
        return Subspace.from_rows(
            self.field, np.vstack([self.basis, other.basis]), self.ambient
        )

    def intersect(self, other):
        """Zassenhaus: reduce [[A,A],[B,0]]; the pivot rows that are zero on
        the left carry the intersection."""
        self._match(other)
        F, n = self.field, self.ambient
        a, b = self.basis, other.basis
        top = np.hstack([a, a])
        bot = np.hstack([b, F.zeros((b.shape[0], n))])
        piv = _pivot_rows(F, np.vstack([top, bot]))
        rows = [{k - n: v for k, v in piv[c].items()}
                for c in sorted(piv) if c >= n]
        return Subspace.from_rows(F, SparseRows(rows, n), n)

    def complement_coords(self):
        pivots = set(self.pivots)
        return [c for c in range(self.ambient) if c not in pivots]

    def projection(self):
        """Matrix of the quotient map onto the non-pivot coordinates.

        Column k is the residual of e_k on those coordinates: e_k itself
        when k is not a pivot, and e_k - basis[j] when k is pivot j (the
        basis is 1 at its own pivot and 0 at the others).  Only the
        nonzero entries are negated, so over Q every zero is the shared
        zero of zeros()."""
        comp = self.complement_coords()
        F = self.field
        proj = F.zeros((len(comp), self.ambient))
        proj[np.arange(len(comp)), comp] = F.one
        block = self.basis[:, comp].T
        k, j = np.nonzero(block)
        proj[k, np.asarray(self.pivots, dtype=np.intp)[j]] = F.mod(-block[k, j])
        return proj

    def section(self):
        """Right inverse of projection(): embeds quotient coordinates back."""
        comp = self.complement_coords()
        F = self.field
        sec = F.zeros((self.ambient, len(comp)))
        for k, c in enumerate(comp):
            sec[c, k] = F.one
        return sec

    def _match(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise DimensionError("ambient spaces differ")


def kernel_subspace(F, m):
    """Right null space of m (an array or SparseRows) as a Subspace, read
    straight off the pivot rows of rref(m): the rows of the quotient map
    onto the free (non-pivot) columns.

    Row k is 1 at the k-th free column f and -rref(m)[j, f] at the j-th
    pivot column.  That identity block on the free columns is the
    dual-basis property Subspace needs, with the free columns as pivots."""
    if not isinstance(m, SparseRows):
        m = np.asarray(m)
    n = m.shape[1]
    piv = _pivot_rows(F, m)
    free = [c for c in range(n) if c not in piv]
    at = {f: k for k, f in enumerate(free)}
    basis = F.zeros((len(free), n))
    basis[np.arange(len(free)), free] = F.one
    entries = [(at[f], c, F.mod(-v)) for c, row in piv.items()
               for f, v in row.items() if f != c]
    if entries:
        k, c, v = zip(*entries)
        basis[list(k), list(c)] = list(v)
    return Subspace(F, n, basis, tuple(free))

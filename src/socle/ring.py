"""Standard graded Artinian local algebras R = k[x_1..x_e]/I.

The quotient is computed degree by degree: in each degree d the span of
{monomial * relation} contributions is row-reduced over the monomial
coordinate space, and the non-pivot ("standard") monomials form the
basis of R_d.  Monomials are ordered graded-lex with x_1 > x_2 > ...,
so the standard basis is deterministic.
"""

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import Field, SparseRows, Subspace, kernel_subspace


DEGREE_CAP = 30  # a quotient with R_d != 0 here is taken to be not Artinian


class PresentationError(ValueError):
    pass


class NotArtinianError(ValueError):
    pass


# Each table depends only on the number of variables and the degrees, so
# every ring built in a process shares it; each cache is bounded, and
# callers only read the tables.
_TABLES = 256


@functools.lru_cache(maxsize=_TABLES)
def _mons(e, d):
    """The tuple of exponent vectors that monomials(e, d) lists."""
    if e == 1:
        return ((d,),)
    return tuple((k,) + rest for k in range(d, -1, -1)
                 for rest in _mons(e - 1, d - k))


def monomials(e, d):
    """Exponent vectors of degree d, lex-descending in x_1 > x_2 > ..."""
    return list(_mons(e, d))


@functools.lru_cache(maxsize=_TABLES)
def _index(e, d):
    """The position of each monomial of degree d in _mons(e, d)."""
    return {m: i for i, m in enumerate(_mons(e, d))}


@functools.lru_cache(maxsize=_TABLES)
def _products(e, du, dm):
    """table[i, j] is the position in _mons(e, du + dm) of u_i * m_j, for
    u_i the i-th monomial of degree du and m_j the j-th of degree dm.
    Multiplying by u keeps the lex order, so each row ascends."""
    idx = _index(e, du + dm)
    table = np.array([[idx[tuple(a + b for a, b in zip(u, m))]
                       for m in _mons(e, dm)] for u in _mons(e, du)],
                     dtype=np.intp)
    table.flags.writeable = False
    return table


def _poly_degree(poly):
    degs = {sum(m) for m in poly}
    if len(degs) != 1:
        raise PresentationError(f"relation not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


@dataclass
class RingPresentation:
    """Generators plus homogeneous relations of degree >= 2.

    Relations are dicts: exponent tuple -> integer coefficient.
    """

    field: Field
    varnames: list
    relations: list

    def __post_init__(self):
        if len(self.varnames) < 1:
            raise PresentationError("need at least one generator")
        if len(set(self.varnames)) != len(self.varnames):
            raise PresentationError("duplicate generator names")
        e = len(self.varnames)
        for f in self.relations:
            if not f:
                raise PresentationError("empty relation")
            for m in f:
                if len(m) != e:
                    raise PresentationError("exponent vector of wrong arity")
            if _poly_degree(f) < 2:
                raise PresentationError("relation of degree < 2")


class GradedRing:
    """Immutable after construction; all bookkeeping is precomputed except
    the socle, which is computed when first read."""

    def __init__(self, presentation, degrees, h):
        self.presentation = presentation
        self.field = presentation.field
        self.varnames = list(presentation.varnames)
        self.e = len(self.varnames)
        self.h = h
        # degrees: list over d of (std monomials, all monomials, matrix of
        # their normal forms over std, one row per monomial)
        self.std = [deg[0] for deg in degrees]
        self.hilbert = [len(s) for s in self.std]
        self.length = sum(self.hilbert)
        # every monomial of degree <= h and its normal form in global
        # coordinates: row self._row[mon] of self._nf
        mons = [m for deg in degrees for m in deg[1]]
        self._row = {m: i for i, m in enumerate(mons)}
        self._nf = self.field.zeros((len(mons), self.length))
        r = c = 0
        for std, ms, nfs in degrees:
            self._nf[r:r + len(ms), c:c + len(std)] = nfs
            r, c = r + len(ms), c + len(std)
        # global basis: (degree, monomial), degree-major, monomial order within
        self.basis = [(d, m) for d in range(h + 1) for m in self.std[d]]
        self.index = {m: i for i, (d, m) in enumerate(self.basis)}
        self.gen_index = []
        for g in range(self.e):
            mon = tuple(1 if i == g else 0 for i in range(self.e))
            self.gen_index.append(self.index[mon])
        self.derived = weakref.WeakValueDictionary()  # see derived_module
        self._build_mult_table()
        self.r = self.hilbert[2] if self.h >= 2 else 0
        self._socle = None  # computed on first read, by socle_subspace

    # -- construction ---------------------------------------------------

    def monomial_vector(self, mon):
        """Global coordinate vector of a monomial's normal form."""
        if sum(mon) > self.h:
            return self.field.zeros(self.length)
        return self._nf[self._row[mon]].copy()

    def _build_mult_table(self):
        """left_mult[i] is L_i, multiplication by basis monomial i: column
        j is the normal form of monomial i times monomial j, gathered in
        one step from the normal-form rows (and a zero row for the
        products of degree > h).  It is the ring's one multiplication
        table."""
        n = self.length
        exps = np.array([m for _, m in self.basis]).reshape(n, self.e)
        prods = (exps[:, None] + exps[None]).reshape(n * n, self.e)
        zero = len(self._row)
        rows = [self._row.get(tuple(m), zero) for m in prods.tolist()]
        nf = np.vstack([self._nf, self.field.zeros((1, n))])
        self.left_mult = nf[rows].reshape(n, n, n).transpose(0, 2, 1).copy()

    def socle_subspace(self):
        """The socle of R (that of the regular module), computed on first
        read; a and gorenstein are read from it."""
        if self._socle is None:
            from .modules import regular_module  # the layer above this one

            self._socle = regular_module(self).socle()
        return self._socle

    @property
    def a(self):
        """The type of R, the dimension of its socle."""
        return self.socle_subspace().dim

    @property
    def gorenstein(self):
        return self.a == 1

    # -- queries --------------------------------------------------------

    def multiply(self, u, v):
        """Product of two elements given as global coordinate vectors."""
        F = self.field
        return F.matmul(u, F.matmul(self.left_mult, v))

    def normal_form(self, poly):
        """Coordinate vector of a polynomial, given as exponent dict."""
        F = self.field
        v = F.zeros(self.length)
        for mon, coeff in poly.items():
            v = F.mod(v + F.scalar(coeff) * self.monomial_vector(mon))
        return v

    def invariants(self):
        return {
            "e": self.e,
            "lambda": self.length,
            "h": self.h,
            "a": self.a,
            "r": self.r,
            "gorenstein": self.gorenstein,
        }

    def __repr__(self):
        rels = len(self.presentation.relations)
        return (
            f"GradedRing({self.field}, vars={self.varnames}, {rels} relations, "
            f"hilbert={self.hilbert})"
        )


def graded_pieces(presentation):
    """The quotient degree by degree, stopping at the first zero degree:
    (degrees, h) as GradedRing takes them, where degrees[d] holds the
    standard monomials, all monomials and the normal-form matrix of R_d.

    The Macaulay rows of degree d, the multiples u * f of each relation
    f by the monomials u of degree d - deg f, are written straight as
    SparseRows from the cached table of monomial products.  They span
    the rows of the dense Macaulay matrix, and a row space has one rref,
    so every basis read from it is the same."""
    F = presentation.field
    e = len(presentation.varnames)
    rels = [
        {m: F.scalar(c) for m, c in f.items() if F.scalar(c) != F.zero}
        for f in presentation.relations
    ]
    rels = [(f, _poly_degree(f)) for f in rels if f]
    if any(deg < 2 for _, deg in rels):
        raise PresentationError("relation of degree < 2 after coefficient reduction")
    # each relation's term positions in _mons(e, deg), ascending, and its
    # coefficients in that order: then every multiple's keys ascend too
    terms = []
    for f, deg in rels:
        at = sorted((_index(e, deg)[m], c) for m, c in f.items())
        terms.append((deg, [i for i, _ in at], [c for _, c in at]))

    degrees = []
    d = 0
    while True:
        mons = monomials(e, d)
        rows = [dict(zip(cols, cs)) for deg, at, cs in terms if deg <= d
                for cols in _products(e, d - deg, deg)[:, at].tolist()]
        # the kernel basis is the quotient map onto the standard monomials,
        # its pivots; no multiples leave them all standard, without an rref
        quot = (kernel_subspace(F, SparseRows(rows, len(mons))) if rows
                else Subspace.full(F, len(mons)))
        std = [mons[i] for i in quot.pivots]
        if not std:
            h = d - 1
            break
        if d >= DEGREE_CAP:
            raise NotArtinianError(
                f"R_{d} is nonzero at degree cap {DEGREE_CAP}; quotient not Artinian?"
            )
        degrees.append((std, mons, quot.basis.T))
        d += 1
    return degrees, h


def build_ring(presentation):
    """Construct the graded quotient."""
    return GradedRing(presentation, *graded_pieces(presentation))


# -- convenience constructor used by tests and the canned corpus -------


def ring_from_strings(field, varnames, relation_strings):
    from .instancefile import parse_poly

    rels = [parse_poly(s, varnames) for s in relation_strings]
    return build_ring(RingPresentation(field, list(varnames), rels))


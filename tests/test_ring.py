"""Graded ring construction and invariants."""

from itertools import product

import numpy as np
import pytest
from conftest import identical
from oracles import monomial_square_zero_rings

from socle import explorer, ring as ring_module
from socle.explorer import random_ring
from socle.instancefile import parse_poly
from socle.linalg import QQ, Field, GF101, Subspace, kernel_subspace, rref
from socle.ring import (
    DEGREE_CAP,
    NotArtinianError,
    PresentationError,
    RingPresentation,
    _poly_degree,
    _products,
    build_ring,
    graded_pieces,
    monomials,
    ring_from_strings,
)
from socle.theorems import AGP_RELATIONS, canned_corpus

GF5 = Field(5)
FIELDS = [Field(2), Field(3), GF101, Field(2**31 - 1), QQ]


def test_monomial_order():
    # graded lex, x1 > x2
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def lex_monomials(e, d):
    """Exponent vectors of degree d, lex-descending, generated afresh."""
    return sorted((m for m in product(range(d + 1), repeat=e)
                   if sum(m) == d), reverse=True)


def test_product_tables_match_monomial_products():
    # each row of a table is one u times every m: the positions ascend,
    # which keeps the keys of every Macaulay row ascending
    for e in range(1, 5):
        for du in range(4):
            for dm in range(4):
                mons = lex_monomials(e, du + dm)
                assert monomials(e, du + dm) == mons
                table = _products(e, du, dm)
                assert table.tolist() == [
                    [mons.index(tuple(a + b for a, b in zip(u, m)))
                     for m in lex_monomials(e, dm)]
                    for u in lex_monomials(e, du)]
                assert all(np.all(np.diff(row) > 0) for row in table)
                assert not table.flags.writeable


def test_chain_ring(chain3):
    assert chain3.invariants() == {
        "e": 1, "lambda": 3, "h": 2, "a": 1, "r": 1, "gorenstein": True,
    }
    assert chain3.hilbert == [1, 1, 1]


def test_agp_ring_paper_values(agp):
    ring, _ = agp
    assert ring.hilbert == [1, 4, 3]
    inv = ring.invariants()
    assert inv["lambda"] == 8 and inv["e"] == 4
    assert inv["a"] == 3 and inv["r"] == 3
    assert not inv["gorenstein"]
    assert inv["e"] == inv["a"] + 1


def test_agp_quadric_rank_sympy_oracle():
    """dim R_2 = 10 - rank of the quadric coefficient matrix."""
    import sympy

    varnames = ["x1", "x2", "x3", "x4"]
    mons = monomials(4, 2)
    idx = {m: i for i, m in enumerate(mons)}
    rows = []
    for s in AGP_RELATIONS:
        poly = parse_poly(s, varnames)
        row = [0] * len(mons)
        for mon, c in poly.items():
            row[idx[mon]] = c
        rows.append(row)
    r = sympy.Matrix(rows).rank()
    assert len(mons) - r == 3


def test_multiplication_ring_axioms(agp):
    ring, _ = agp
    F = ring.field
    rng = np.random.default_rng(5)
    for _ in range(8):
        u, v, w = (F.array(rng.integers(0, 101, ring.length)) for _ in range(3))
        uv = ring.multiply(u, v)
        assert np.array_equal(uv, ring.multiply(v, u))
        assert np.array_equal(ring.multiply(uv, w),
                              ring.multiply(u, ring.multiply(v, w)))


def test_relations_die(agp):
    ring, _ = agp
    for s in AGP_RELATIONS:
        assert not np.any(ring.normal_form(parse_poly(s, ring.varnames)))


def test_presentation_errors():
    with pytest.raises(PresentationError):
        ring_from_strings(GF101, ["x", "y"], ["x^2 + y"])  # not homogeneous
    with pytest.raises(PresentationError):
        ring_from_strings(GF101, ["x"], ["x"])  # degree 1
    with pytest.raises(PresentationError):
        RingPresentation(GF101, ["x", "x"], [])  # duplicate names


def test_not_artinian():
    pres = RingPresentation(GF101, ["x", "y"],
                            [parse_poly("x^2", ["x", "y"])])
    with pytest.raises(NotArtinianError):
        build_ring(pres)


def test_socle_of_gorenstein(gor):
    soc = gor.socle_subspace()
    assert soc.dim == 1
    # the socle generator is the top-degree monomial xy
    vec = soc.basis[0]
    assert vec[gor.length - 1] != 0


def test_monomial_square_zero_corpus():
    rings = monomial_square_zero_rings(GF5, e_max=3)
    assert len(rings) == 28
    assert all(r.h <= 2 for r in rings)
    non_gor = [r for r in rings if not r.gorenstein]
    assert len(non_gor) >= 20


def test_hilbert_lengths():
    for e, lam in ((1, 3), (2, 6), (3, 10)):
        names = [f"x{i+1}" for i in range(e)]
        rels = [{m: 1} for m in monomials(e, 3)]
        ring = build_ring(RingPresentation(GF5, names, rels))
        assert ring.length == lam  # 1 + e + e(e+1)/2
        assert ring.h == 2


def reduced_normal_forms(ring):
    """Global normal-form vector of every monomial of degree <= h, each
    the residual of Subspace.reduce against its degree's relation span:
    the per-monomial path that build_ring no longer takes."""
    F, e = ring.field, ring.e
    out, off = {}, 0
    for d in range(ring.h + 1):
        mons = monomials(e, d)
        idx = {m: i for i, m in enumerate(mons)}
        rows = []
        for f in ring.presentation.relations:
            d0 = sum(next(iter(f)))
            for u in monomials(e, d - d0) if d0 <= d else []:
                row = F.zeros(len(mons))
                for m, c in f.items():
                    row[idx[tuple(a + b for a, b in zip(u, m))]] = F.scalar(c)
                rows.append(row)
        span = (Subspace.from_rows(F, np.vstack(rows)) if rows
                else Subspace(F, len(mons)))
        std = [idx[m] for m in ring.std[d]]
        eye = F.eye(len(mons))
        for m in mons:
            out[m] = F.zeros(ring.length)
            out[m][off:off + len(std)] = span.reduce(eye[idx[m]])[std]
        off += len(std)
    return out


def pairwise_table(ring, nf):
    """The structure table filled one pair of basis monomials at a time."""
    n = ring.length
    table = ring.field.zeros((n, n, n))
    for i, (_, mi) in enumerate(ring.basis):
        for j, (_, mj) in enumerate(ring.basis):
            prod = tuple(a + b for a, b in zip(mi, mj))
            if sum(prod) <= ring.h:
                table[i, j] = nf[prod]
    return table


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_mult_table_matches_pairwise_oracle(F):
    rings = [ring_from_strings(F, ["x", "y"], ["x^2 - y^2", "x*y"]),
             ring_from_strings(F, ["x"], ["x^4"]),
             ring_from_strings(F, ["x1", "x2", "x3", "x4"], AGP_RELATIONS)]
    rng = np.random.default_rng(7)
    rings += [r for r in (random_ring(F, rng) for _ in range(3)) if r]
    for ring in rings:
        nf = reduced_normal_forms(ring)
        for m, v in nf.items():
            assert identical(ring.monomial_vector(m), v)
        assert identical(ring.left_mult,
                         pairwise_table(ring, nf).transpose(0, 2, 1))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_multiply_is_an_einsum_over_left_mult(F):
    # u * v = sum over i, j of u_i v_j L_i[:, j], in exact integers over
    # GF(p) (the products pass 2^63 at the largest prime) and in Fractions
    rings = [ring_from_strings(F, ["x", "y"], ["x^2 - y^2", "x*y"]),
             ring_from_strings(F, ["x1", "x2", "x3", "x4"], AGP_RELATIONS)]
    rng = np.random.default_rng(3)
    for ring in rings:
        L = ring.left_mult.astype(object)
        for _ in range(10):
            u, v = (F.array(rng.integers(-9, 10, size=ring.length))
                    for _ in range(2))
            want = np.einsum("i,ikj,j->k", u.astype(object), L,
                             v.astype(object))
            if F.p is not None:
                want %= F.p
            assert ring.multiply(u, v).tolist() == want.tolist()


def old_graded_pieces(presentation):
    """graded_pieces as it was: one rref of the stacked relation
    multiples per degree, a branch for degrees without multiples, and the
    normal forms as the projection of a Subspace built from the rref."""
    F = presentation.field
    e = len(presentation.varnames)
    rels = [{m: F.scalar(c) for m, c in f.items() if F.scalar(c) != F.zero}
            for f in presentation.relations]
    rels = [f for f in rels if f]
    degrees, d = [], 0
    while True:
        mons = monomials(e, d)
        idx = {m: i for i, m in enumerate(mons)}
        span_rows = []
        for f in rels:
            d0 = sum(next(iter(f)))
            if d0 > d:
                continue
            for u in monomials(e, d - d0):
                row = F.zeros(len(mons))
                for m, c in f.items():
                    row[idx[tuple(a + b for a, b in zip(u, m))]] = c
                span_rows.append(row)
        if span_rows:
            red, piv = rref(F, np.vstack(span_rows))
        else:
            red, piv = F.zeros((0, len(mons))), []
        std = [m for i, m in enumerate(mons) if i not in piv]
        if not std:
            return degrees, d - 1
        span = Subspace(F, len(mons), red[: len(piv)], tuple(piv))
        degrees.append((std, mons, span.projection().T))
        d += 1


def pieces_or_error(pieces, presentation):
    try:
        return pieces(presentation)
    except (PresentationError, NotArtinianError) as exc:
        return type(exc), str(exc)


def assert_pieces_match(oracle, presentation):
    """graded_pieces and the oracle raise the same error, or give the same
    h, the same lists of standard and of all monomials, and identical
    normal-form arrays.  Returns the error's type, or None."""
    new = pieces_or_error(graded_pieces, presentation)
    old = pieces_or_error(oracle, presentation)
    if isinstance(old[0], type):
        assert new == old
        return old[0]
    (degrees, h), (odegrees, oh) = new, old
    assert h == oh and len(degrees) == len(odegrees)
    for (std, mons, nf), (ostd, omons, onf) in zip(degrees, odegrees):
        assert type(std) is type(mons) is list
        assert std == ostd and mons == omons
        assert identical(nf, onf)
    return None


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_graded_pieces_match_old_rref_path(F):
    # the monomial m^3 = 0 corpus (relations of degree 2 and 3), the
    # canned hosts (x^4 leaves degrees 0-3 without multiples) and random
    # rings with cubic guards
    rings = monomial_square_zero_rings(F)
    rings += [inst.ring for inst in canned_corpus(F)[:5]]
    rng = np.random.default_rng(11)
    rings += [r for r in (random_ring(F, rng) for _ in range(3)) if r]
    for ring in rings:
        assert_pieces_match(old_graded_pieces, ring.presentation)
    # relations whose coefficients vanish mod p, and a degree-3 start
    pres = RingPresentation(F, ["x", "y"], [{(2, 0): 6, (1, 1): 3},
                                            {(0, 3): 1}, {(3, 0): 1}])
    assert_pieces_match(old_graded_pieces, pres)


def dense_graded_pieces(presentation):
    """graded_pieces with a dense Macaulay matrix per degree, written one
    entry at a time from monomials generated afresh, and its kernel basis
    as the normal forms: the loop that the cached product tables and
    sparse rows replaced."""
    F = presentation.field
    e = len(presentation.varnames)
    rels = [{m: F.scalar(c) for m, c in f.items() if F.scalar(c) != F.zero}
            for f in presentation.relations]
    rels = [(f, _poly_degree(f)) for f in rels if f]
    if any(deg < 2 for _, deg in rels):
        raise PresentationError(
            "relation of degree < 2 after coefficient reduction")
    degrees, d = [], 0
    while True:
        mons = lex_monomials(e, d)
        idx = {m: i for i, m in enumerate(mons)}
        multiples = [(u, f) for f, deg in rels if deg <= d
                     for u in lex_monomials(e, d - deg)]
        span = F.zeros((len(multiples), len(mons)))
        for r, (u, f) in enumerate(multiples):
            for m, c in f.items():
                span[r, idx[tuple(a + b for a, b in zip(u, m))]] = c
        quot = (kernel_subspace(F, span) if multiples
                else Subspace.full(F, len(mons)))
        std = [mons[i] for i in quot.pivots]
        if not std:
            return degrees, d - 1
        if d >= DEGREE_CAP:
            raise NotArtinianError(
                f"R_{d} is nonzero at degree cap {DEGREE_CAP}; "
                "quotient not Artinian?")
        degrees.append((std, mons, quot.basis.T))
        d += 1


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_graded_pieces_match_dense_loop(F, monkeypatch):
    def ascending(F, rows):  # SparseRows keep each row's keys ascending
        assert all(list(row) == sorted(row) for row in rows)
        return kernel_subspace(F, rows)

    monkeypatch.setattr(ring_module, "kernel_subspace", ascending)
    for inst in canned_corpus(F):
        assert_pieces_match(dense_graded_pieces, inst.ring.presentation)
    # every presentation random_ring draws, the rejected draws included
    # (Loewy length >= 4 rejects most of them)
    drawn = []

    def record(presentation):
        drawn.append(presentation)
        return graded_pieces(presentation)

    monkeypatch.setattr(explorer, "graded_pieces", record)
    rng = np.random.default_rng(29)
    rings = [random_ring(F, rng, h_min=h) for h in (3, 3, 4)]
    assert len(drawn) > sum(r is not None for r in rings)
    for presentation in drawn:
        assert_pieces_match(dense_graded_pieces, presentation)
    # coefficients that vanish mod p (0 over Q): a term, and a relation;
    # terms listed against the monomial order
    vanish = F.p or 0
    pres = RingPresentation(F, ["x", "y", "z"], [
        {(0, 0, 2): 3, (1, 1, 0): 1, (2, 0, 0): vanish, (0, 1, 1): 5},
        {(0, 2, 0): vanish, (0, 1, 1): 2 * vanish},
        *({m: 1} for m in monomials(3, 3)),
    ])
    assert_pieces_match(dense_graded_pieces, pres)
    # relations changed after the presentation checked them: a term of
    # the wrong degree that vanishes is dropped, one that does not raises
    pres.relations.append({(1, 0, 0): vanish, (0, 1, 1): 1})
    assert assert_pieces_match(dense_graded_pieces, pres) is None
    pres.relations.append({(1, 0, 0): 1, (0, 1, 1): 1})
    assert assert_pieces_match(dense_graded_pieces, pres) is PresentationError
    pres.relations[-1] = {(1, 0, 0): 1, (0, 1, 0): vanish}
    assert assert_pieces_match(dense_graded_pieces, pres) is PresentationError
    pres = RingPresentation(F, ["x", "y"], [{(2, 0): 1, (1, 1): vanish}])
    assert assert_pieces_match(dense_graded_pieces, pres) is NotArtinianError

"""Finite module operations: duals, tensor/Hom, syzygies, invariants."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import cyclic, identical
from oracles import direct_sum, is_isomorphic
from socle.instancefile import parse_poly
from socle.modules import (
    FiniteModule,
    ModuleError,
    Subspace,
    canonical_module,
    from_presentation,
    hom_over_R,
    matlis_dual,
    presentation_of,
    quotient_module,
    random_module,
    regular_module,
    residue_field,
    rmatrix_from_polys,
    submodule_module,
    syzygy,
    tensor_over_R,
    wedge_image,
)
from socle.linalg import GF101, QQ, Field, rank
from socle.ring import ring_from_strings
from socle.theorems import AGP_PHI


def test_residue_field(gor):
    k = residue_field(gor)
    assert k.dim == 1 and k.min_gens() == 1
    assert k.gamma() == 0
    assert k.has_k_summand()


def test_regular_module(gor):
    R1 = regular_module(gor)
    assert R1.dim == gor.length == 4
    assert R1.is_free() and R1.annihilator_is_zero()
    assert R1.gamma() == gor.length - 1


def test_gamma_canonical_flat(flat):
    # omega over k[x,y]/m^2: lambda = 3, nu = type = 2, gamma = 1/2
    omega = canonical_module(flat)
    assert omega.dim == 3 and omega.min_gens() == 2
    assert omega.gamma() == Fraction(1, 2)


def test_dual_involution(gor, agp):
    ring, M = agp
    for mod in (cyclic(gor, ["x"]), M):
        dd = matlis_dual(matlis_dual(mod))
        assert is_isomorphic(mod, dd)


def test_dual_swaps_generators_and_socle(flat, agp):
    ring, M = agp
    for mod in (canonical_module(flat), M, residue_field(flat)):
        d = matlis_dual(mod)
        assert d.min_gens() == mod.socle().dim
        assert d.socle().dim == mod.min_gens()


def test_tensor_cyclic(gor):
    A = cyclic(gor, ["x"])
    T = tensor_over_R(A, A)
    # R/(x) (x)_R R/(x) = R/(x), of length 2
    assert T.dim == 2
    assert is_isomorphic(T, A)


def test_tensor_with_regular(gor, agp):
    ring, M = agp
    R1 = regular_module(ring)
    assert is_isomorphic(tensor_over_R(M, R1), M)


def test_tensor_with_residue_field(agp):
    ring, M = agp
    k = residue_field(ring)
    T = tensor_over_R(M, k)
    # M (x) k = M/mM, so lambda = nu(M)
    assert T.dim == M.min_gens() == 2


def test_hom_from_regular(gor):
    M = cyclic(gor, ["x"])
    H = hom_over_R(regular_module(gor), M)
    assert is_isomorphic(H, M)


def test_hom_from_residue_field(gor, flat):
    for ring in (gor, flat):
        M = cyclic(ring, ["x"])
        H = hom_over_R(residue_field(ring), M)
        # Hom(k, M) = Soc(M)
        assert H.dim == M.socle().dim


def test_direct_sum_additivity(gor):
    A, B = cyclic(gor, ["x"]), cyclic(gor, ["y"])
    S = direct_sum(A, B)
    assert S.dim == A.dim + B.dim
    assert S.min_gens() == A.min_gens() + B.min_gens()


def test_syzygy_periodic(gor):
    M = cyclic(gor, ["x"])
    M1, cover, pres = syzygy(M)
    # over k[x,y]/(x^2,y^2), R/(x) has syzygy xR = R/(x) again
    assert M1.dim == 2
    assert is_isomorphic(M1, M)
    # the cover is onto: rank equals dim M
    assert rank(GF101, cover.matrix) == M.dim


def test_syzygy_of_free_is_zero(gor):
    R1 = regular_module(gor)
    M1, _, _ = syzygy(R1)
    assert M1.dim == 0


def test_presentation_round_trip(agp):
    ring, M = agp
    pres = presentation_of(M)
    again = from_presentation(ring, pres)
    assert is_isomorphic(M, again)


def test_wedge_image_vanishing_determinant(agp):
    ring, M = agp
    phi = rmatrix_from_polys(
        ring,
        [[parse_poly(s, ring.varnames) for s in row] for row in AGP_PHI],
    )
    # det phi = x2*x3 - x1*x4 is a relation of the ring, so the span of
    # the maximal minors is zero
    assert wedge_image(ring, phi).dim == 0


def test_wedge_image_nonzero(gor):
    phi = rmatrix_from_polys(
        gor,
        [[parse_poly(s, gor.varnames) for s in row]
         for row in [["x", "0"], ["0", "y"]]],
    )
    W = wedge_image(gor, phi)
    # det = xy spans the socle; m * xy = 0 so the R-span is 1-dimensional
    assert W.dim == 1


def test_is_isomorphic_negative(gor):
    A = cyclic(gor, ["x"])
    k = residue_field(gor)
    kk = direct_sum(k, k)
    assert A.dim == kk.dim == 2
    assert not is_isomorphic(A, kk)


def test_random_module_deterministic(gor):
    a = random_module(gor, seed=5)
    b = random_module(gor, seed=5)
    assert a.dim == b.dim
    assert all(np.array_equal(x, y) for x, y in zip(a.actions, b.actions))
    c = random_module(gor, seed=6)
    assert c.dim != a.dim or not all(
        np.array_equal(x, y) for x, y in zip(a.actions, c.actions)
    )


def test_random_module_square_zero(gor3):
    m = random_module(gor3, seed=11, square_zero=True)
    assert m.msub(2).dim == 0


def test_quotient_kills_submodule(agp):
    ring, M = agp
    Q, _ = quotient_module(M, M.msub(2))
    assert Q.msub(2).dim == 0
    assert Q.min_gens() == M.min_gens()


def test_submodule_requires_closure(gor):
    R1 = regular_module(gor)
    # span{1} is not an R-submodule of R
    S = Subspace.from_rows(GF101, GF101.eye(4)[:1], 4)
    with pytest.raises(ModuleError):
        submodule_module(R1, S)


def test_gorenstein_by_reflexivity(gor, flat):
    # R is Gorenstein iff omega is isomorphic to its R-double-dual
    for ring, gorenstein in ((gor, True), (flat, False)):
        omega = canonical_module(ring)
        R1 = regular_module(ring)
        dd = hom_over_R(hom_over_R(omega, R1), R1)
        assert is_isomorphic(omega, dd) == gorenstein


def test_agp_module_invariants(agp):
    ring, M = agp
    assert M.dim == 8 and M.min_gens() == 2
    assert M.gamma() == 3
    omega = canonical_module(ring)
    assert omega.dim == 8 and omega.min_gens() == ring.a == 3


@pytest.mark.parametrize("F", [Field(2), Field(3), GF101, Field(2**31 - 1), QQ],
                         ids=repr)
def test_stacked_actions_give_the_listed_module(F):
    # actions may come as one (e, d, d) array as well as a list of e
    # matrices, the zero module (d = 0) included
    ring = ring_from_strings(F, ["x", "y"], ["x^2", "x*y", "y^2"])
    for M in (random_module(ring, 5), residue_field(ring), cyclic(ring, ["1"])):
        stacked = FiniteModule(ring, np.stack(M.actions))
        listed = FiniteModule(ring, list(M.actions))
        assert stacked.dim == listed.dim == M.dim
        assert all(identical(a, b)
                   for a, b in zip(stacked.actions, listed.actions, strict=True))
        assert stacked.min_gens() == listed.min_gens()
        assert identical(stacked.ops(), listed.ops())

"""Resolutions, Tor/Ext, complete resolutions, Koszul numerics."""

import gc
import weakref

import numpy as np
import pytest

from conftest import cyclic
from socle.homology import (
    betti_numbers,
    complete_betti,
    ext_dim,
    ext_dim_direct,
    gasharov_peeva_ok,
    koszul_test,
    realize,
    resolve,
    tor_dim,
    tor_induced_k,
    tor_profile,
    tor_window_zero,
)
from socle.linalg import GF101
from socle.ring import ring_from_strings
from socle.modules import (
    ModuleError,
    ModuleMap,
    canonical_module,
    direct_sum,
    is_isomorphic,
    matlis_dual,
    random_module,
    regular_module,
    residue_field,
)


def test_betti_k_flat(flat):
    # m^2 = 0 with e = 2: the resolution of k doubles each step
    assert betti_numbers(residue_field(flat), 6) == [1, 2, 4, 8, 16, 32, 64]


def test_betti_k_chain(chain3):
    # hypersurface: b_i(k) = 1 forever
    assert betti_numbers(residue_field(chain3), 6) == [1] * 7


def test_betti_free_module(gor):
    R2 = direct_sum(regular_module(gor), regular_module(gor))
    assert betti_numbers(R2, 4) == [2, 0, 0, 0, 0]


def test_betti_agp_constant(agp):
    ring, M = agp
    assert betti_numbers(M, 8) == [2] * 9


def test_resolution_is_a_complex(agp):
    ring, M = agp
    res = resolve(M, 5)
    R1 = regular_module(ring)
    for i in range(len(res.deltas) - 1):
        A = realize(ring, res.deltas[i], R1)
        B = realize(ring, res.deltas[i + 1], R1)
        assert not np.any(GF101.mod(A @ B))


def test_resolution_minimality(gor):
    # minimal differentials realize to matrices that kill nothing modulo m:
    # over k (via tensor with k) every differential realizes to zero
    M = cyclic(gor, ["x"])
    res = resolve(M, 4)
    k = residue_field(gor)
    for delta in res.deltas:
        assert not np.any(realize(gor, delta, k))


def test_tor_with_k_gives_betti(agp):
    ring, M = agp
    k = residue_field(ring)
    for i in range(5):
        assert tor_dim(M, k, i) == resolve(M, i + 1).betti_number(i)


def test_tor_with_free_vanishes(gor):
    M = cyclic(gor, ["x"])
    R1 = regular_module(gor)
    assert tor_dim(M, R1, 0) == M.dim
    for i in range(1, 5):
        assert tor_dim(M, R1, i) == 0


def test_tor_hand_oracle(gor):
    # Tor_i(R/(x), R/(x)) over k[x,y]/(x^2,y^2): periodicity gives dim 2
    # in every positive degree (computed once by hand from the periodic
    # resolution with differential multiplication-by-x)
    A = cyclic(gor, ["x"])
    for i in range(1, 6):
        assert tor_dim(A, A, i) == 2


def test_tor_symmetry_random(gor, gor3, flat):
    count = 0
    for ring in (gor, gor3, flat):
        for seed in range(4):
            M = random_module(ring, seed=100 + seed)
            N = random_module(ring, seed=200 + seed)
            for i in range(4):
                assert tor_dim(M, N, i) == tor_dim(N, M, i)
                count += 1
    assert count == 48


def test_ext_two_routes_agree(gor, gor3, agp):
    ring, M = agp
    cases = [
        (cyclic(gor, ["x"]), cyclic(gor, ["y"])),
        (random_module(gor3, seed=3), random_module(gor3, seed=4)),
        (M, canonical_module(ring)),
    ]
    for A, B in cases:
        for i in range(4):
            assert ext_dim(A, B, i) == ext_dim_direct(A, B, i)


def test_tor_profile_and_window(agp):
    ring, M = agp
    omega = canonical_module(ring)
    prof = tor_profile(M, omega, 8)
    assert prof.all_zero and prof.dims == [0] * 8
    assert tor_window_zero(M, omega, 1, 8)
    k = residue_field(ring)
    prof = tor_profile(M, k, 8, early_exit=True)
    assert prof.first_nonzero == 1


def test_complete_betti_periodic(gor):
    A = cyclic(gor, ["x"])
    view = complete_betti(A, 5)
    assert view.shift == 1
    assert view.table() == {i: 1 for i in range(-5, 6)}


def test_complete_betti_needs_gorenstein(flat):
    with pytest.raises(ModuleError):
        complete_betti(cyclic(flat, ["x"]), 3)


def test_syzygy_periodicity_by_isomorphism(gor):
    A = cyclic(gor, ["x"])
    res = resolve(A, 5)
    assert is_isomorphic(res.syzygy_module(1), res.syzygy_module(3))
    assert is_isomorphic(res.syzygy_module(2), res.syzygy_module(4))


def test_koszul_consistent_rings(gor, flat):
    for ring in (gor, flat):
        rep = koszul_test(ring, 8)
        assert rep.consistent and rep.first_mismatch == -1


def test_koszul_mismatch_reported(chain3):
    # k[x]/(x^3) is not quadratic: 1/Hilb(-t) has negative coefficients
    # while the Betti numbers of k are all 1; first divergence in degree 2
    rep = koszul_test(chain3, 6)
    assert not rep.consistent
    assert rep.first_mismatch == 2
    assert rep.computed == [1] * 7
    assert rep.expected[:3] == [1, 1, 0]


def test_gasharov_peeva(gor, gor3, agp):
    ring, M = agp
    assert gasharov_peeva_ok(gor, cyclic(gor, ["x"]), 5)
    assert gasharov_peeva_ok(gor3, residue_field(gor3), 5)
    assert gasharov_peeva_ok(ring, M, 5)


def test_tor_induced_by_identity(gor):
    A = cyclic(gor, ["x"])
    ident = ModuleMap(A, A, GF101.eye(A.dim))
    k = residue_field(gor)
    for i in range(4):
        assert tor_induced_k(ident, i) == tor_dim(k, A, i)


def test_tor_induced_by_zero(gor):
    A = cyclic(gor, ["x"])
    zero = ModuleMap(A, A, GF101.zeros((A.dim, A.dim)))
    for i in range(3):
        assert tor_induced_k(zero, i) == 0


def test_finite_resolution_terminates(gor):
    R1 = regular_module(gor)
    res = resolve(R1, 6)
    assert res.finite
    assert res.betti_number(0) == 1
    assert all(res.betti_number(i) == 0 for i in range(1, 7))


def test_dropped_ring_and_module_free_without_collector():
    # resolutions, kernels and cached R, k and omega hold large arrays;
    # none of them may sit in a reference cycle with the ring or module
    gc.collect()
    gc.disable()
    try:
        ring = ring_from_strings(GF101, ["x", "y"], ["x^2", "x*y", "y^2"])
        M = cyclic(ring, ["x"])
        k = residue_field(ring)
        omega = canonical_module(ring)
        resolve(M, 3)
        resolve(k, 3)
        assert tor_dim(M, k, 2) == betti_numbers(M, 2)[2] == 2
        tor_dim(M, omega, 2)
        ext_dim(M, regular_module(ring), 1)
        refs = [weakref.ref(x) for x in (ring, M, k, omega)]
        del ring, M, k, omega
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()

"""Resolutions, Tor/Ext, complete resolutions, Koszul numerics."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyclic, dense_realize, identical
from oracles import direct_sum, gasharov_peeva_ok, is_isomorphic
from socle.explorer import random_ring
from socle.homology import (
    betti_numbers,
    complete_betti,
    ext_dim,
    ext_dim_direct,
    koszul_test,
    resolve,
    tor_dim,
    tor_induced_k,
    tor_vanishes,
)
from socle.linalg import GF101, QQ, Field, kernel_basis, rank
from socle.ring import ring_from_strings
from socle.modules import (
    DERIVED,
    ModuleError,
    ModuleMap,
    canonical_module,
    cover_map,
    derived_module,
    free_module,
    random_module,
    random_presentation,
    realize,
    regular_module,
    residue_field,
    submodule_module,
    truncated_cokernel,
)
from socle.theorems import Instance, agp_example, canned_corpus


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
        A = dense_realize(ring, res.deltas[i], R1)
        B = dense_realize(ring, res.deltas[i + 1], R1)
        assert not np.any(GF101.mod(A @ B))


def test_resolution_minimality(gor):
    # minimal differentials realize to matrices that kill nothing modulo m:
    # over k (via tensor with k) every differential realizes to zero
    M = cyclic(gor, ["x"])
    res = resolve(M, 4)
    k = residue_field(gor)
    for delta in res.deltas:
        assert not any(realize(gor, delta, k))


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


def test_tor_vanishes_on_a_window(agp):
    ring, M = agp
    omega = canonical_module(ring)
    assert all(tor_vanishes(M, omega, i) for i in range(1, 9))
    assert not tor_vanishes(M, residue_field(ring), 1)
    zero = cyclic(ring, ["1"])
    assert tor_vanishes(M, zero, 0) and tor_vanishes(zero, M, 0)


@pytest.mark.parametrize("n", [0, -1])
def test_empty_windows_rejected(agp, n):
    # an empty window would read as consistent (explore's own cutoff
    # check is in test_explorer)
    ring, _ = agp
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        koszul_test(ring, n)


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


def test_derived_modules_free_without_collector():
    # the ring's table holds k, R and omega weakly and the instance holds
    # what it asked for, omega1 included: no cycle may keep any of them
    gc.collect()
    gc.disable()
    try:
        ring = ring_from_strings(GF101, ["x", "y"], ["x^2", "x*y", "y^2"])
        inst = Instance("x", ring, {"M": cyclic(ring, ["x"])})
        mods = [inst.module(name) for name in ("k", "R", "omega", "omega1")]
        for mod in mods:
            resolve(mod, 3)
        assert all(derived_module(ring, name) is mod
                   for name, mod in zip(("k", "R", "omega"), mods))
        refs = [weakref.ref(x) for x in (ring, inst, *mods)]
        del ring, inst, mods, mod
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_derived_module_is_one_object_while_held(gor):
    for name, build in DERIVED.items():
        mod = derived_module(gor, name)
        assert derived_module(gor, name) is mod
        fresh = build(gor)
        assert all(identical(a, b) for a, b in zip(mod.actions, fresh.actions))
    # koszul_test and tor_induced_k resolve the k a caller holds
    k = derived_module(gor, "k")
    koszul_test(gor, 3)
    assert resolve(k, 0).length == 3
    tor_induced_k(ModuleMap(k, k, gor.field.eye(1)), 4)
    assert resolve(k, 0).length == 4


# -- the realized differential against the code it replaced -------------

FIELDS = [Field(2), Field(3), Field(101), Field(2**31 - 1), QQ]
HOSTS = [["x^2", "y^2"], ["x^2", "x*y", "y^2"], ["x^2 - y^2", "x*y"],
         ["x^2", "y^3"]]


def old_complex_maps(M, N, i):
    """Realized differentials d_i and d_{i+1} of F(M) (x) N."""
    res = resolve(M, i + 1)
    ring = M.ring
    n = N.dim

    def dmat(j):
        if j <= res.length:
            return dense_realize(ring, res.deltas[j - 1], N)
        b_from = res.betti_number(j)
        b_to = res.betti_number(j - 1)
        return ring.field.zeros((b_to * n, b_from * n))

    return dmat(i) if i >= 1 else None, dmat(i + 1)


def old_tor_dim(M, N, i):
    F = M.ring.field
    if M.dim == 0 or N.dim == 0:
        return 0
    d_i, d_next = old_complex_maps(M, N, i)
    if i == 0:
        return resolve(M, 1).betti_number(0) * N.dim - rank(F, d_next)
    return d_i.shape[1] - rank(F, d_i) - rank(F, d_next)


def old_ext_dim_direct(M, N, i):
    F = M.ring.field
    if M.dim == 0 or N.dim == 0:
        return 0
    res = resolve(M, i + 1)
    n = N.dim

    def dmat(j):
        if j <= res.length:
            return dense_realize(M.ring, res.deltas[j - 1].transpose(1, 0, 2),
                                 N)
        return F.zeros((res.betti_number(j) * n, res.betti_number(j - 1) * n))

    up = dmat(i + 1)
    if i == 0:
        return up.shape[1] - rank(F, up)
    return up.shape[1] - rank(F, up) - rank(F, dmat(i))


def old_tor_induced_k(f, i):
    """Cycles and boundaries realized separately, f as a block diagonal."""
    A, B = f.source, f.target
    ring = A.ring
    F = ring.field
    res = resolve(residue_field(ring), i + 1)
    bi = res.betti_number(i)
    if bi == 0 or A.dim == 0:
        return 0
    if i == 0:
        ZA = F.eye(res.betti_number(0) * A.dim)
    elif i <= res.length:
        ZA = kernel_basis(F, dense_realize(ring, res.deltas[i - 1], A))
    else:
        ZA = F.eye(bi * A.dim)
    if i + 1 <= res.length:
        BB = dense_realize(ring, res.deltas[i], B).T
    else:
        BB = F.zeros((0, bi * B.dim))
    fmap = F.zeros((bi * B.dim, bi * A.dim))
    for j in range(bi):
        fmap[j * B.dim:(j + 1) * B.dim, j * A.dim:(j + 1) * A.dim] = f.matrix
    mapped = F.matmul(fmap, ZA.T).T
    stacked = np.vstack([BB, mapped]) if BB.shape[0] else mapped
    return rank(F, stacked) - rank(F, BB)


def module_maps(N):
    """Maps into N: its identity, the inclusion of mN and its cover."""
    F = N.field
    maps = [ModuleMap(N, N, F.eye(N.dim), validate=False),
            cover_map(N)[1]]
    mN = N.msub(1)
    if mN.dim:
        maps.append(ModuleMap(submodule_module(N, mN), N, mN.basis.T,
                              validate=False))
    return maps


def assert_homology_matches_oracles(M, N, depth=3):
    # i = 0 and, for free or zero M, every i >= 1 lie outside the resolution
    for i in range(depth + 1):
        assert tor_dim(M, N, i) == old_tor_dim(M, N, i)
        assert ext_dim_direct(M, N, i) == old_ext_dim_direct(M, N, i)
    for f in module_maps(N):
        for i in range(depth):
            assert tor_induced_k(f, i) == old_tor_induced_k(f, i)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_canonical_homology_matches_oracles(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    k, omega, R1 = (residue_field(ring), canonical_module(ring),
                    regular_module(ring))
    for M in (k, omega, R1, direct_sum(R1, R1), free_module(ring, 0)):
        for N in (k, omega, R1):
            assert_homology_matches_oracles(M, N)
    assert resolve(R1, 3).finite and resolve(R1, 3).length == 0


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_agp_homology_matches_oracles(F):
    ring, M = agp_example(F)
    assert_homology_matches_oracles(M, canonical_module(ring), depth=2)


@given(st.sampled_from(FIELDS), st.sampled_from(HOSTS),
       st.integers(0, 2**16), st.integers(0, 2**16), st.booleans())
@settings(max_examples=40, deadline=None)
def test_random_homology_matches_oracles(F, rels, s1, s2, square_zero):
    ring = ring_from_strings(F, ["x", "y"], rels)
    M = random_module(ring, s1, square_zero=square_zero)
    N = random_module(ring, s2)
    assert_homology_matches_oracles(M, N)


# -- d_{i+1} read off the frontier kernel ---------------------------------


def fresh_pairs(F, rels, seed):
    """A fresh ring with its residue field (held, so its resolution keeps
    its module) and fresh (M, N) pairs: a random M, and the free R and
    R^2, whose resolutions end at length 0 with a zero frontier kernel."""
    ring = ring_from_strings(F, ["x", "y"], rels)
    N = random_module(ring, seed + 1)
    Ms = [random_module(ring, seed), canonical_module(ring),
          regular_module(ring), free_module(ring, 2)]
    return residue_field(ring), [(M, N) for M in Ms]


@pytest.mark.parametrize("rels", HOSTS, ids="/".join)
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_frontier_route_matches_oracles(F, rels):
    # each degree on fresh modules, new route first: the oracles lift
    # stage i+1, which would leave the new route nothing to read
    for i in range(4):
        k, pairs = fresh_pairs(F, rels, 7 * i)
        for M, N in pairs:
            got = (tor_dim(M, N, i), ext_dim_direct(M, N, i))
            res = resolve(M, i)
            assert res.length == i or (res.finite and res.length == 0)
            assert got == (old_tor_dim(M, N, i), old_ext_dim_direct(M, N, i))
        N = pairs[0][1]
        got = [tor_induced_k(f, i) for f in module_maps(N)]
        assert resolve(k, i).length == i
        assert got == [old_tor_induced_k(f, i) for f in module_maps(N)]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_modules_past_the_end_of_the_frontier(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    N = canonical_module(ring)
    for M in (regular_module(ring), free_module(ring, 2)):
        # a fresh free module: length 0, not yet known to be finite, and
        # its frontier kernel ker(R^b -> M) is 0
        assert tor_dim(M, N, 0) == M.min_gens() * N.dim
        res = resolve(M, 0)
        assert (res.length, res.finite) == (0, False)
        assert res.image_generators(1).shape == (M.min_gens(), 0, ring.length)
        assert old_tor_dim(M, N, 0) == M.min_gens() * N.dim
        for i in range(1, 4):
            assert tor_dim(M, N, i) == ext_dim_direct(M, N, i) == 0
            assert res.finite and res.image_generators(i + 1).shape[1] == 0


@pytest.mark.parametrize("rels", HOSTS, ids="/".join)
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tor_does_not_lift_the_next_stage(F, rels):
    # after Tor_i only stage i is lifted; lifting i+1 from the cached
    # frontier gives delta_{i+1} exactly as a resolution that never
    # cached one, and the stage after it starts from a new kernel
    for i in range(3):
        M, M2 = (random_module(ring_from_strings(F, ["x", "y"], rels), 11 + i)
                 for _ in range(2))
        tor_dim(M, canonical_module(M.ring), i)
        assert resolve(M, i).length == i
        assert M2._resolution is None
        assert identical(resolve(M, i + 1).delta(i + 1),
                         resolve(M2, i + 1).delta(i + 1))
        assert identical(resolve(M, i + 2).delta(i + 2),
                         resolve(M2, i + 2).delta(i + 2))
        assert resolve(M, i + 2).betti == resolve(M2, i + 2).betti


# -- Tor_i != 0 certified by counting cycles ------------------------------


def explorer_pairs(F, seed, count):
    """(M/m^2 M, N/m^2 N) from random presentations over a random ring, as
    the explorer draws them, each module fresh (nothing resolved)."""
    ring = random_ring(F, np.random.default_rng(seed))
    return [tuple(truncated_cokernel(ring, random_presentation(ring, s), 2)
                  for s in (2 * t, 2 * t + 1)) for t in range(count)]


def cycles_and_bound(M, N, i):
    """dim of the cycles of F_i (x) N from the dense d_i, and b_i dim mN,
    which bounds the boundaries; lifts M's resolution through i + 1."""
    d_i, _ = old_complex_maps(M, N, i)
    z = d_i.shape[1] - rank(M.ring.field, d_i)
    return z, resolve(M, i).betti_number(i) * N.mm().dim


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_cycle_count_certifies_only_nonzero_tor(F):
    # Tor_1..Tor_4 of the canned pairs and of random pairs over the small
    # hosts; the explorer's pairs resolve too fast for dense oracles past
    # Tor_1, where each of them already has its first nonzero Tor
    cases = [((inst.modules["M"], inst.modules["N"]), 4)
             for inst in canned_corpus(F)]
    for j, rels in enumerate(HOSTS):
        ring = ring_from_strings(F, ["x", "y"], rels)
        cases += [((random_module(ring, 2 * j, square_zero=True),
                    random_module(ring, 2 * j + 1)), 4)]
    cases += [(pair, 1) for pair in explorer_pairs(F, 3, 3)]
    counted = exact = 0
    for (M, N), depth in cases:
        for i in range(1, depth + 1):
            vanishes = tor_vanishes(M, N, i)
            assert vanishes == (old_tor_dim(M, N, i) == 0)
            z, bound = cycles_and_bound(M, N, i)
            _, d_next = old_complex_maps(M, N, i)
            assert bound >= rank(F, d_next)
            if not vanishes:
                counted += z > bound
                exact += z <= bound
    # both routes to a nonzero Tor are taken
    assert counted and exact


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_counted_tor_builds_no_frontier_kernel(F):
    # once the cycles outnumber b_i dim mN, Tor_i != 0 is read off d_i:
    # M's resolution stops at stage i and ker delta_i is never built
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    pairs = [(cyclic(ring, ["x"]), residue_field(ring))]
    pairs += explorer_pairs(F, 5, 3)
    counted = 0
    for M, N in pairs:
        i = next(i for i in range(1, 7) if not tor_vanishes(M, N, i))
        res = M._resolution
        lifted = (res.length, res._frontier)
        z, bound = cycles_and_bound(M, N, i)
        if z > bound:
            counted += 1
            assert lifted == (i, None)
    assert counted >= 2

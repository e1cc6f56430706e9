"""One code path per routine, tested against the second paths it lost.

Zero-size branches in linalg, realize, FiniteModule, theorems and the
explorer were dropped because the general code returns the same thing;
the cached free_rank hint gave way to the dimension test; Hom_R and
(x)_R are built from a presentation through realize, and are isomorphic
to the submodule and quotient of their k-linear counterparts, one
Kronecker pair built by one kron, which the oracles keep; the ring
socle is the socle of the regular module; one rule decides when two
modules are over the same ring; m^2 R^n is read off its unit rows, and
S27 acts by the whole minor span in one product, whose minors come from
cofactor expansion; the work cap is one rule, Resolution.reach, in
place of the stage walkers theorems kept; S8's series and the Koszul
test's inverse of Hilb(-t) are one series_quotient, and c(N) is an
integer bit length in place of a float log2; derived modules stay off
Instance.modules, so a dossier writes exactly the modules it was given;
R acts by the ring's own operators, and m^j M comes from one cached
chain in place of a loop from mM.  Each old path is kept
here as an oracle, over GF(2), GF(3), GF(101), GF(2^31-1) and Q, on
zero-size inputs as well as ordinary ones."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from unittest.mock import patch

import numpy as np
import pytest
from conftest import cyclic, dense_realize, densify, identical
from oracles import (
    _kron_pair,
    direct_sum,
    free_action,
    hom_basis,
    is_isomorphic,
    kron,
    monomial_square_zero_rings,
)

from socle import homology, linalg, theorems
from socle.explorer import random_ring
from socle.homology import (
    Resolution,
    betti_numbers,
    ext_dim_direct,
    koszul_test,
    resolve,
    series_quotient,
    tor_dim,
)
from socle.instancefile import parse_instance
from socle.linalg import QQ, Field, Subspace, kernel_basis, rref
from socle.modules import (
    FiniteModule,
    ModuleError,
    canonical_module,
    column_span,
    free_module,
    from_presentation,
    hom_over_R,
    matlis_dual,
    presentation_of,
    quotient_module,
    random_module,
    realize,
    regular_module,
    residue_field,
    tensor_over_R,
    truncated_cokernel,
    wedge_image,
)
from socle.ring import ring_from_strings
from socle.theorems import VACUOUS, Instance, canned_corpus, check

FIELDS = [Field(2), Field(3), Field(101), Field(2**31 - 1), QQ]
HOSTS = [["x^2", "y^2"], ["x^2", "x*y", "y^2"], ["x^2 - y^2", "x*y"],
         ["x^2", "y^3"]]
SEEDS = range(4)


# -- the old paths --------------------------------------------------------


def old_from_rows(F, rows, ambient=None):
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if ambient is None:
        ambient = rows.shape[1]
    if rows.shape[0] == 0:
        return Subspace(F, ambient)
    r, piv = rref(F, rows)
    return Subspace(F, ambient, r[: len(piv)], tuple(piv))


def old_kernel_subspace(F, m):
    rows, cols = m.shape
    if cols == 0:
        return Subspace(F, 0)
    if rows == 0:
        return Subspace.full(F, cols)
    r, pivots = rref(F, m)
    free = np.setdiff1d(np.arange(cols), pivots)
    out = F.zeros((free.size, cols))
    out[np.arange(free.size), free] = F.one
    if pivots:
        out[:, pivots] = F.mod(-r[: len(pivots), free].T)
    return Subspace(F, cols, out, tuple(int(f) for f in free))


def old_realize(ring, delta, coeff_module):
    rows, cols, _ = delta.shape
    n = coeff_module.dim
    if rows == 0 or cols == 0 or n == 0:
        return ring.field.zeros((rows * n, cols * n))
    return dense_realize(ring, delta, coeff_module)


def old_mm(mod):
    if mod.dim == 0:
        return Subspace(mod.field, 0)
    return Subspace.from_rows(mod.field, np.hstack(mod.actions).T, mod.dim)


def old_has_k_summand(mod):
    if mod.dim == 0:
        return False
    return mod.socle().add(mod.mm()).dim > mod.mm().dim


def old_is_free(mod, free_rank=None):
    if free_rank is not None or mod.dim == 0:
        return True
    return mod.dim == mod.min_gens() * mod.ring.length


def old_annihilator_is_zero(mod):
    if mod.dim == 0:
        return mod.ring.length == 0
    return mod.annihilator_is_zero()


def old_max_depth(mod, n):
    """Deepest resolution depth <= n affordable under the work cap, by
    the walker theorems used to keep: it lifts one stage past the last
    Betti number it reads."""
    lam = mod.ring.length
    res = resolve(mod, 1)
    depth = 1
    while depth < n:
        if res.finite:
            return n
        if res.betti_number(depth) * lam > homology.WORK_CAP:
            return depth
        res.extend(depth + 1)
        depth += 1
    return n


def old_afford(mod, i):
    """True if Tor_i computed from mod's resolution is within the cap."""
    return old_max_depth(mod, i + 1) > i


def old_loewy_truncate(mod, power):
    """M/m^power M as the explorer built it before truncated_cokernel: the
    quotient by the m-adic chain's subspace, or M itself when that is
    zero."""
    S = mod.msub(power)
    return quotient_module(mod, S)[0] if S.dim else mod


def old_hom_over_R(a, b):
    """Hom_R(M, N) with its post-composition action written out inline."""
    F = a.field
    m, n = a.dim, b.dim
    if m == 0 or n == 0:
        hom = free_module(a.ring, 0)
        hom.hom_basis = []
        return hom
    blocks = []
    eyem, eyen = F.eye(m), F.eye(n)
    for Aa, Ab in zip(a.actions, b.actions):
        blocks.append(F.mod(np.kron(eyen, Aa.T) - np.kron(Ab, eyem)))
    K = kernel_basis(F, np.vstack(blocks))
    S = Subspace.from_rows(F, K, n * m)
    acts = []
    for Ab in b.actions:
        post = F.mod(np.kron(Ab, eyem))
        W = F.matmul(post, S.basis.T)
        acts.append(W[list(S.pivots), :])
    hom = FiniteModule(a.ring, acts, validate=False)
    hom.hom_basis = [S.basis[i].reshape(n, m) for i in range(S.dim)]
    return hom


def old_tensor(a, b):
    """M (x)_R N as the quotient written out inline, without the closure
    check."""
    F = a.field
    m, n = a.dim, b.dim
    if m == 0 or n == 0:
        return free_module(a.ring, 0)
    rel_rows = []
    eyem, eyen = F.eye(m), F.eye(n)
    for Aa, Ab in zip(a.actions, b.actions):
        W = np.kron(Aa, eyen) - np.kron(eyem, Ab)
        rel_rows.append(F.mod(W).T)
    Wspan = Subspace.from_rows(F, np.vstack(rel_rows), m * n)
    proj = Wspan.projection()
    comp = Wspan.complement_coords()
    acts = [F.matmul(proj, F.mod(np.kron(Aa, eyen)[:, comp]))
            for Aa in a.actions]
    return FiniteModule(a.ring, acts, validate=False)


def old_ring_socle(ring):
    F = ring.field
    gens = [ring.left_mult[g] for g in ring.gen_index]
    return Subspace.from_rows(F, kernel_basis(F, np.vstack(gens)), ring.length)


def old_m_square_part(ring, n=1):
    F, lam = ring.field, ring.length
    idx = [j * lam + i for j in range(n)
           for i, (d, _) in enumerate(ring.basis) if d >= 2]
    return Subspace.from_rows(F, F.eye(n * lam)[idx], n * lam)


def old_s6_span_holds(M):
    """S6's m M_1 = m^2 R^{b0} as subspaces of R^{b0}: the generators
    applied to the column span of delta_1, against m^2 R^{b0}."""
    ring = M.ring
    M1 = column_span(ring, resolve(M, 1).delta(1))
    rows = [free_action(ring, M1.basis, g) for g in ring.gen_index]
    mM1 = Subspace.from_rows(ring.field, np.vstack(rows), M1.ambient)
    return mM1 == old_m_square_part(ring, betti_numbers(M, 0)[0])


def old_perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def old_wedge_image(ring, phi):
    """wedge_image with each minor a Leibniz sum over permutations."""
    F = ring.field
    n, g, lam = phi.shape
    minors = []
    for cols in combinations(range(g), n):
        acc = F.zeros(lam)
        for perm in permutations(range(n)):
            prod = F.zeros(lam)
            prod[0] = F.one
            for r in range(n):
                prod = ring.multiply(prod, phi[r, cols[perm[r]]])
            acc = F.mod(acc + F.scalar(old_perm_sign(perm)) * prod)
        minors.append(acc)
    if not minors:
        return Subspace(F, lam)
    return column_span(ring, np.vstack(minors)[None])


def old_minors_annihilate(M, img):
    """S27's per-row loop: each basis row of the minor span made into one
    action matrix on M."""
    n = M.dim
    ops = M.ops().reshape(M.ring.length, n * n)
    return not any(np.any(M.field.matmul(row, ops).reshape(n, n))
                   for row in img.basis)


def old_s8_series(gM, gN, gT, n):
    """S8's expansion of (1 - gT t) / ((1 - gM t)(1 - gN t)) through t^n."""
    denom = [Fraction(1), -(gM + gN), gM * gN]
    numer = [Fraction(1), -gT]
    series = []
    for d in range(n + 1):
        c = (numer[d] if d < len(numer) else Fraction(0))
        c -= sum(denom[j] * series[d - j] for j in range(1, min(d, 2) + 1))
        series.append(c)
    return series


def old_hilbert_inverse(hilb, n):
    """koszul_test's power-series inverse of Hilb(-t) through t^n."""
    h = [Fraction((-1) ** d * hilb[d]) if d < len(hilb) else Fraction(0)
         for d in range(n + 1)]
    inv = [Fraction(1)]
    for d in range(1, n + 1):
        inv.append(-sum(h[j] * inv[d - j] for j in range(1, d + 1)))
    return inv


def old_c(b1):
    """S5's and S19's float c(N) = floor(log2 b_1(N)) + 2, for b_1 >= 1."""
    return int(math.floor(math.log2(b1))) + 2


# -- helpers --------------------------------------------------------------


def same_space(a, b):
    return (a.ambient == b.ambient and tuple(a.pivots) == tuple(b.pivots)
            and identical(a.basis, b.basis))


def same_actions(a, b):
    return (a.dim == b.dim and len(a.actions) == len(b.actions)
            and all(identical(x, y) for x, y in zip(a.actions, b.actions)))


def random_matrix(F, shape, seed, density=0.4):
    rng = np.random.default_rng(seed)
    vals = rng.integers(-4, 5, size=shape) * (rng.random(shape) < density)
    return F.array(vals) if vals.size else F.zeros(shape)


def zero_modules(ring):
    """The zero module as the engine builds it along different routes."""
    M = random_module(ring, 1)
    unit = ring.field.zeros((1, 1, ring.length))
    unit[0, 0, 0] = ring.field.one
    return [
        free_module(ring, 0),
        quotient_module(M, Subspace.full(ring.field, M.dim))[0],
        resolve(free_module(ring, 2), 1).syzygy_module(1),
        from_presentation(ring, unit),
    ]


def some_modules(ring):
    mods = [residue_field(ring), regular_module(ring), free_module(ring, 2),
            canonical_module(ring)]
    mods += [random_module(ring, s, square_zero=s % 2 == 0) for s in SEEDS]
    return mods


def rings(F):
    return [ring_from_strings(F, ["x", "y"], rels) for rels in HOSTS]


SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3), (6, 6)]


# -- linalg ---------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_from_rows_on_empty_and_ordinary_inputs(F):
    for shape in SHAPES:
        for seed in SEEDS:
            m = random_matrix(F, shape, seed)
            for ambient in (None, shape[1]):
                assert same_space(Subspace.from_rows(F, m, ambient),
                                  old_from_rows(F, m, ambient))
    assert same_space(Subspace.from_rows(F, F.zeros((0, 3)), 3),
                      Subspace(F, 3))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_kernel_subspace_matches_its_branches(F):
    for shape in SHAPES:
        for seed in SEEDS:
            for density in (0.0, 0.4, 1.0):
                m = random_matrix(F, shape, seed, density)
                assert same_space(linalg.kernel_subspace(F, m),
                                  old_kernel_subspace(F, m))
    assert same_space(linalg.kernel_subspace(F, F.zeros((0, 4))),
                      Subspace.full(F, 4))
    assert same_space(linalg.kernel_subspace(F, F.zeros((4, 0))),
                      Subspace(F, 0))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_kron_matches_numpy(F):
    top = F.mod(-F.array(np.ones((2, 3), dtype=np.int64)))  # all p - 1
    mats = [random_matrix(F, shape, seed, density) for shape in SHAPES[:5]
            for seed in SEEDS[:2] for density in (0.0, 0.4, 1.0)]
    for a in mats + [top]:
        for b in mats[::3] + [top, F.eye(3)]:
            assert identical(kron(F, a, b), F.mod(np.kron(a, b)))


def test_rational_kron_zeros_are_shared():
    # so the Hom_k and (x)_k actions built from them carry no other zero
    mats = [random_matrix(QQ, shape, seed, density) for shape in SHAPES
            for seed in SEEDS for density in (0.0, 0.4, 1.0)]
    for a in mats[::5]:
        for b in mats[::7]:
            out = kron(QQ, a, b)
            assert all(v is linalg._QZERO for v in out.flat if not v)
    ring = ring_from_strings(QQ, ["x", "y"], HOSTS[1])
    mods = some_modules(ring)[:6] + zero_modules(ring)[:1]
    for a in mods:
        for b in mods[::2]:
            for pair in (_kron_pair(a, b), _kron_pair(b, matlis_dual(a))):
                for A in pair[0].actions:
                    assert all(v is linalg._QZERO for v in A.flat if not v)


def test_rational_hom_and_tensor_read_only_shared_zeros(monkeypatch):
    # every zero the products inside Hom_R and (x)_R read is the shared one
    ring = ring_from_strings(QQ, ["x", "y"], HOSTS[1])
    M, N = random_module(ring, 1), random_module(ring, 2)
    read = []
    real = linalg._integral

    def integral(a):
        read.extend(a.flat)
        return real(a)

    monkeypatch.setattr(linalg, "_integral", integral)
    for build in (hom_over_R, tensor_over_R):
        read.clear()
        build(M, N)
        zeros = [v for v in read if not v]
        assert zeros and all(v is linalg._QZERO for v in zeros)


def test_rational_kernel_zeros_are_shared():
    # a zero the kernel writes is the one shared zero, so elimination and
    # products pass over it by identity
    mats = [random_matrix(QQ, shape, seed, density)
            for shape in SHAPES for seed in SEEDS for density in (0.4, 1.0)]
    ring = ring_from_strings(QQ, ["x", "y"], HOSTS[1])
    res = resolve(canonical_module(ring), 3)
    mats += [realize(ring, d, regular_module(ring)) for d in res.deltas]
    for m in mats:
        basis = linalg.kernel_subspace(QQ, m).basis
        zeros = [v for v in basis.reshape(-1).tolist() if not v]
        assert all(v is linalg._QZERO for v in zeros)
    assert any(v is linalg._QZERO
               for v in linalg.kernel_subspace(QQ, mats[-1]).basis.flat)


def test_rational_projection_and_free_module_zeros_are_shared():
    # the quotient map negates only nonzero entries and R^n places L_g
    # into zeros(), so neither writes a zero other than the shared one
    spaces = [make(QQ, random_matrix(QQ, shape, seed, density))
              for make in (lambda F, m: Subspace.from_rows(F, m, m.shape[1]),
                           linalg.kernel_subspace)
              for shape in SHAPES for seed in SEEDS for density in (0.4, 1.0)]
    for S in spaces:
        assert all(v is linalg._QZERO for v in S.projection().flat if not v)
    for rels in HOSTS:
        ring = ring_from_strings(QQ, ["x", "y"], rels)
        for n in (0, 1, 3):
            for A in free_module(ring, n).actions:
                assert all(v is linalg._QZERO for v in A.flat if not v)


# -- homology -------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_realize_on_zero_maps_and_zero_modules(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[2])
    coeffs = some_modules(ring)[:3] + zero_modules(ring)
    # delta_0, the zero maps past a finite resolution, and ordinary ones
    deltas = []
    for M in (free_module(ring, 2), residue_field(ring),
              random_module(ring, 3)):
        res = resolve(M, 3)
        end = res.length + (3 if res.finite else 1)
        deltas += [res.delta(i) for i in range(end)]
    assert any(0 in d.shape for d in deltas)
    for delta in deltas:
        for N in coeffs:
            assert identical(densify(F, realize(ring, delta, N)),
                             old_realize(ring, delta, N))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tor_past_a_finite_resolution_is_zero(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[0])
    for N in some_modules(ring)[:3] + zero_modules(ring)[:1]:
        for i in range(1, 4):
            assert tor_dim(free_module(ring, 2), N, i) == 0


# -- modules --------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_module_invariants_match_their_zero_branches(F):
    for ring in rings(F):
        for mod in zero_modules(ring) + some_modules(ring):
            assert same_space(mod.mm(), old_mm(mod))
            assert mod.has_k_summand() == old_has_k_summand(mod)
            assert mod.is_free() == old_is_free(mod)
            assert mod.annihilator_is_zero() == old_annihilator_is_zero(mod)
        for mod in zero_modules(ring):
            assert not mod.has_k_summand() and mod.is_free()
            assert not mod.annihilator_is_zero()


def old_msub(mod, j):
    """m^j M as msub built it before the chain: from mM, one product per
    generator per power, keeping nothing past mM."""
    if j == 0:
        return Subspace.full(mod.field, mod.dim)
    S = old_mm(mod)
    for _ in range(j - 1):
        if S.dim == 0:
            return S
        rows = [mod.field.matmul(A, S.basis.T).T for A in mod.actions]
        S = Subspace.from_rows(mod.field, np.vstack(rows), mod.dim)
    return S


def old_regular_ops(ring):
    """Each basis element's action on R as a product of generator
    actions, starting from the identity."""
    F = ring.field
    ops = F.zeros((ring.length, ring.length, ring.length))
    for b, (_, mon) in enumerate(ring.basis):
        A = F.eye(ring.length)
        for g, k in enumerate(mon):
            for _ in range(k):
                A = F.matmul(A, ring.left_mult[ring.gen_index[g]])
        ops[b] = A
    return ops


def counting(calls, fn):
    def wrapper(*args):
        calls.append(1)
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_regular_module_acts_by_the_rings_own_operators(F):
    for ring in rings(F) + [inst.ring for inst in canned_corpus(F)[:5]]:
        calls = []
        with patch.object(Field, "matmul", counting(calls, Field.matmul)):
            R = regular_module(ring)
            ops = R.ops()
        assert calls == [] and ops is ring.left_mult
        assert identical(ops, old_regular_ops(ring))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_msub_chain_matches_the_loop_and_is_built_once(F):
    mods = [mod for inst in canned_corpus(F) for mod in inst.modules.values()]
    for ring in rings(F):
        mods += zero_modules(ring) + some_modules(ring)
    for n, mod in enumerate(mods):
        # the first calls go up the chain or jump to its far end
        js = range(mod.ring.h + 3)
        for j in (js if n % 2 else reversed(js)):
            assert same_space(mod.msub(j), old_msub(mod, j))
        assert same_space(mod.mm(), old_mm(mod))
    calls = []
    with patch.object(Subspace, "from_rows",
                      staticmethod(counting(calls, Subspace.from_rows))):
        for mod in mods:
            mod.mm()
            for j in range(1, mod.ring.h + 3):
                mod.msub(j)
    assert calls == []


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_modules_are_free_without_a_rank_hint(F):
    for ring in rings(F):
        for n in range(4):
            mod = free_module(ring, n)
            assert mod.is_free() == old_is_free(mod, free_rank=n)
            assert mod.min_gens() == n
        assert regular_module(ring).is_free()
        assert not hasattr(free_module(ring, 1), "free_rank")


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_hom_is_a_submodule_of_the_k_linear_hom(F):
    for ring in rings(F)[1:3]:
        mods = some_modules(ring)[:6] + zero_modules(ring)[:2]
        for a in mods:
            for b in mods[:4] + mods[-1:]:
                new, old = hom_over_R(a, b), old_hom_over_R(a, b)
                assert new.dim == old.dim and is_isomorphic(new, old)
                basis = hom_basis(a, b)
                assert len(basis) == len(old.hom_basis) == new.dim
                assert all(identical(x, y)
                           for x, y in zip(basis, old.hom_basis))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tensor_is_a_quotient_of_the_k_linear_tensor(F):
    for ring in rings(F)[1:3]:
        mods = some_modules(ring)[:6] + zero_modules(ring)[:2]
        for a in mods:
            for b in mods[:4] + mods[-1:]:
                new, old = tensor_over_R(a, b), old_tensor(a, b)
                assert new.dim == old.dim and is_isomorphic(new, old)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_modules_over_twin_rings_combine_and_unrelated_ones_do_not(F):
    ring = ring_from_strings(F, ["x", "y"], HOSTS[1])
    twin = ring_from_strings(F, ["x", "y"], HOSTS[1])
    other = ring_from_strings(F, ["x", "y"], HOSTS[0])
    assert twin is not ring
    M, N = random_module(ring, 1), random_module(ring, 2)
    N2 = random_module(twin, 2)
    for i in (1, 2):
        assert tor_dim(M, N2, i) == tor_dim(M, N, i)
        assert tor_dim(N2, M, i) == tor_dim(N, M, i)
        assert ext_dim_direct(M, N2, i) == ext_dim_direct(M, N, i)
    for build in (hom_over_R, tensor_over_R, direct_sum):
        assert build(M, N2).dim == build(M, N).dim
        assert build(N2, M).dim == build(N, M).dim
    assert is_isomorphic(N, N2)
    X = random_module(other, 2)
    for build in (lambda a, b: tor_dim(a, b, 1),
                  lambda a, b: ext_dim_direct(a, b, 1),
                  hom_over_R, tensor_over_R, direct_sum):
        for a, b in ((M, X), (X, M)):
            with pytest.raises(ModuleError):
                build(a, b)
    assert not is_isomorphic(N, X) and not is_isomorphic(X, N)


# -- ring, theorems, explorer ----------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_ring_socle_is_the_regular_module_socle(F):
    rs = rings(F) + monomial_square_zero_rings(F, e_max=2)
    rng = np.random.default_rng(5)
    rs += [r for r in (random_ring(F, rng, h_min=2) for _ in range(3)) if r]
    rs += [inst.ring for inst in canned_corpus(F)[:5]]
    for ring in rs:
        assert same_space(ring.socle_subspace(), old_ring_socle(ring))
        assert ring.a == old_ring_socle(ring).dim


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_max_depth_and_truncation_match_their_zero_branches(F):
    canned = [mod for inst in canned_corpus(F)[:5]
              for mod in (inst.module("M"), inst.module("N"))]
    for cap in (homology.WORK_CAP, 40):
        with patch.object(homology, "WORK_CAP", cap):
            for ring in rings(F):
                for mod in zero_modules(ring) + some_modules(ring):
                    assert_reach_matches_walkers(mod)
            for mod in canned:
                assert_reach_matches_walkers(mod)
    for ring in rings(F):
        for mod in zero_modules(ring) + some_modules(ring):
            pres = presentation_of(mod)
            M = from_presentation(ring, pres)
            for power in range(1, 4):
                new = truncated_cokernel(ring, pres, power)
                assert same_actions(new, old_loewy_truncate(M, power))
                assert new.dim == old_loewy_truncate(mod, power).dim


def assert_reach_matches_walkers(mod):
    res = resolve(mod, 0)
    for n in range(6):
        assert res.reach(n) == old_max_depth(mod, n)
        # reach(n + 1) > n is the one way to ask whether Tor_n is affordable
        assert (res.reach(n + 1) > n) == old_afford(mod, n)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_m_square_part_is_its_unit_rows(F):
    for ring in rings(F) + [theorems.agp_example(F)[0]]:
        assert same_space(theorems._m_square_part(ring),
                          old_m_square_part(ring))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_s6_span_equality_is_a_dimension_count(F):
    # m M_1 lies in m^2 R^{b0}, so S6 compares dimensions only
    rs = rings(F) + [theorems.agp_example(F)[0]]
    seen = set()
    for ring in rs:
        for M in some_modules(ring):
            holds = old_s6_span_holds(M)
            b0, m2 = betti_numbers(M, 0)[0], sum(ring.hilbert[2:])
            mM1 = resolve(M, 1).syzygy_module(1).mm().dim
            assert (mM1 == b0 * m2) == holds
            seen.add(holds)
    assert seen == {False, True}


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_wedge_image_matches_leibniz_expansion(F):
    for ring in rings(F) + [theorems.agp_example(F)[0]]:
        for n in range(5):
            for g in (n, n + 1, n + 2):
                phi = random_matrix(F, (n, g, ring.length), 10 * n + g,
                                    density=0.6)
                if g > n:  # entries in m: the minors span a proper ideal
                    phi[..., 0] = F.zero
                assert same_space(wedge_image(ring, phi),
                                  old_wedge_image(ring, phi))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_s27_annihilation_matches_per_row_loop(F, monkeypatch):
    fails = "a minor-span element fails to annihilate coker"
    cases = []
    for ring in rings(F)[:2]:
        for mod in some_modules(ring)[:6]:
            inst = Instance("x", ring, {"M": mod})
            cases.append((inst, wedge_image(ring, presentation_of(mod))))
    for inst, img in cases:
        v = check("S27", inst)
        assert (fails in v.conclusion) == (
            not old_minors_annihilate(inst.module("M"), img))
    # a span holding the unit annihilates no nonzero module
    monkeypatch.setattr(theorems, "wedge_image",
                        lambda ring, pres: Subspace.full(F, ring.length))
    for inst, _ in cases:
        full = Subspace.full(F, inst.ring.length)
        assert not old_minors_annihilate(inst.module("M"), full)
        assert fails in check("S27", inst).conclusion


def test_plain_key_error_in_a_body_propagates(agp, monkeypatch):
    # only a missing module reads as VACUOUS; any other KeyError is a bug
    ring, M = agp
    inst = Instance("x", ring, {"M": M})

    def broken(inst, n, M):
        return {}["no such key"]

    monkeypatch.setitem(theorems._BY_ID, "S3",
                        replace(theorems._BY_ID["S3"], body=broken))
    with pytest.raises(KeyError) as info:
        check("S3", inst)
    assert not isinstance(info.value, theorems.MissingModule)


def test_missing_module_verdict_text(agp):
    ring, M = agp
    v = check("S1", Instance("x", ring, {"M": M}))
    assert v.status == VACUOUS
    assert str(v) == ("S1: VACUOUS (missing module: "
                      "\"instance 'x' has no module 'N'\")")


def count_builds(monkeypatch):
    """Record every (resolution, i) syzygy build, and count the tensor
    products, while a statement runs."""
    syz, left = [], []
    real_syzygy = Resolution.syzygy_module
    real_tensor = theorems.tensor_over_R

    def syzygy_module(res, i):
        syz.append((id(res), i))
        return real_syzygy(res, i)

    def tensor(a, b):
        left.append(a.dim)
        return real_tensor(a, b)

    monkeypatch.setattr(Resolution, "syzygy_module", syzygy_module)
    monkeypatch.setattr(theorems, "tensor_over_R", tensor)
    return syz, left


def test_s10_builds_each_syzygy_once(agp, monkeypatch):
    ring, M = agp
    inst = Instance("agp", ring, {"M": M})
    syz, _ = count_builds(monkeypatch)
    assert check("S10", inst, 8).status != VACUOUS
    assert len(syz) == len(set(syz)) > 1


def test_s18_builds_each_syzygy_and_tensor_once(gor3, monkeypatch):
    inst = Instance("gorenstein-cube", gor3,
                    {"M": cyclic(gor3, ["x"]), "N": cyclic(gor3, ["x + y"])})
    syz, left = count_builds(monkeypatch)
    v = check("S18", inst, 12)
    assert v.status != VACUOUS
    assert len(syz) == len(set(syz))
    # M_0 (x) N through M_(j+1) (x) N
    assert len(left) == v.data["j"] + 2


def same_fractions(a, b):
    return a == b and all(type(x) is Fraction for x in a + b)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_series_quotient_matches_both_old_loops(F):
    rs = rings(F) + [theorems.agp_example(F)[0]]
    rs += monomial_square_zero_rings(F, e_max=2)
    gammas = sorted({mod.gamma() for ring in rings(F)
                     for mod in some_modules(ring) if mod.dim})
    gammas += [Fraction(0), Fraction(-3, 7)]
    for n in range(9):
        for ring in rs:
            hilb_minus_t = [(-1) ** d * h for d, h in enumerate(ring.hilbert)]
            new = series_quotient([1], hilb_minus_t, n)
            assert same_fractions(new, old_hilbert_inverse(ring.hilbert, n))
        for gM, gN, gT in combinations(gammas, 3):
            new = series_quotient([1, -gT], [1, -(gM + gN), gM * gN], n)
            assert same_fractions(new, old_s8_series(gM, gN, gT, n))
    for ring in rings(F):
        assert koszul_test(ring, 4).expected == [
            int(c) for c in old_hilbert_inverse(ring.hilbert, 4)]


def test_c_bit_length_matches_float_log2():
    for b in range(1, 4097):
        assert b.bit_length() + 1 == old_c(b)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_c_of_a_module_matches_float_log2(F):
    for ring in rings(F):
        for mod in zero_modules(ring) + some_modules(ring):
            b1 = betti_numbers(mod, 1)[1]
            # b_1 = 0 only for free modules, where S19's c is max(4, 1)
            assert theorems._c(mod) == (old_c(b1) if b1 else 1)


def test_dossier_writes_exactly_the_given_modules(gor3, monkeypatch):
    # a user module named R is not the regular module, and omega and
    # omega1, derived by S15, are not the instance's own
    M, R = cyclic(gor3, ["x + y"]), cyclic(gor3, ["x"])
    inst = Instance("x", gor3, {"M": M, "R": R})
    assert check("S15", inst).status != VACUOUS
    assert inst.module("R") is R
    assert inst.module("omega") is inst.module("omega")
    assert set(inst.modules) == {"M", "R"}

    def broken(inst, n, M):
        return False, "forced failure", {}

    monkeypatch.setitem(theorems._BY_ID, "S3",
                        replace(theorems._BY_ID["S3"], body=broken))
    v = check("S3", inst)
    assert v.status == theorems.FAIL
    ring, mods = parse_instance(v.counterexample)
    assert list(mods) == ["M", "R"]
    assert ring.hilbert == gor3.hilbert
    assert is_isomorphic(mods["M"], M) and is_isomorphic(mods["R"], R)

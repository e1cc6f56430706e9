"""Minimal free resolutions, Betti numbers, Tor/Ext, complete
resolutions over Gorenstein rings, and the Koszul numeric test.

Resolutions are cached on the module and extended incrementally: asking
for more stages resumes from the last differential computed.  Tor and
Ext in degree i resolve only through stage i and read d_{i+1} off the
kernel of delta_i, which the resolution caches until it lifts it.
Whether Tor_i vanishes is decided by tor_vanishes alone, and a window
of Tor_i (or of Ext^i(M, X) = Tor_i(M, X^v)) is walked by tor_window
alone; tor_dim is for callers that report the dimension.  The work cap
on how deep a resolution may be lifted is decided by Resolution.reach
and nowhere else: Tor_i is affordable when reach(i + 1) > i, and a Betti
depth is clamped to reach(n).
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import SparseRows, kernel_basis, kernel_subspace, rank
from .modules import (
    FiniteModule,
    ModuleError,
    column_span,
    cover_matrix,
    derived_module,
    hom_into_ring,
    matlis_dual,
    min_gen_rmatrix,
    realize,
    regular_module,
    require_same_ring,
    rmatrix_of_rows,
    submodule_module,
)

# Resolutions with rapidly growing Betti numbers are cut off once the
# realized differential would exceed this many columns; the statements
# treat an unaffordable window as unverified (VACUOUS), never as evidence.
WORK_CAP = 1500


class Resolution:
    """Minimal free resolution data: Betti numbers and differentials.

    deltas[i] is the RMatrix of delta_{i+1}: R^{b_{i+1}} -> R^{b_i},
    shaped (b_i, b_{i+1}, lambda) with every entry in m.

    Beyond the last lifted stage the resolution may hold a frontier
    kernel: the kernel of delta_length (of the cover R^{b_0} -> M at
    length 0) as a k-subspace of R^{b_length}.  It is computed only when
    image_generators asks for it, is always ker delta_length, and is
    dropped once extend lifts it, so deltas, betti and every basis choice
    are the same whether or not it was ever cached.

    The module caches its resolution, so the resolution refers back to
    it weakly: a dropped module is freed without the cyclic collector.
    """

    def __init__(self, module):
        self._module = weakref.ref(module)
        self.ring = module.ring
        self.betti = [module.min_gens()]
        self.deltas = []
        self._zero_deltas = {}  # delta_0 and those past a finite end
        self._frontier = None  # ker delta_length, until it is lifted
        self.finite = False  # some b_i hit zero: finite projective dimension
        self._vanishes = None  # N -> {i: Tor_i = 0}, made by tor_vanishes

    @property
    def module(self):
        return self._module()

    @property
    def length(self):
        return len(self.deltas)

    def betti_number(self, i):
        if i < len(self.betti):
            return self.betti[i]
        if self.finite:
            return 0
        raise IndexError("resolution not computed that far")

    def _frontier_kernel(self):
        """ker delta_length as a Subspace of R^{b_length}, computed once:
        the kernel of the realized last differential, or of the minimal
        cover R^{b_0} -> M at length 0."""
        if self._frontier is None:
            ring = self.ring
            if self.deltas:
                D = realize(ring, self.deltas[-1], regular_module(ring))
            else:
                D = cover_matrix(self.module)
            self._frontier = kernel_subspace(ring.field, D)
        return self._frontier

    def extend(self, n):
        """Ensure differentials delta_1..delta_n are available.

        Every stage is one step: the frontier kernel K = ker delta_length
        (taken from the cache when image_generators already computed it),
        then minimal generators of K as the next differential, every
        entry of which must lie in m.  K is dropped as it is lifted."""
        while self.length < n and not self.finite:
            K = self._frontier_kernel()
            self._frontier = None
            if K.dim == 0:
                self.finite = True
                break
            delta = min_gen_rmatrix(self.ring, K)
            if np.any(delta[:, :, 0]):
                raise ModuleError("non-minimal differential (unit entry)")
            self.deltas.append(delta)
            self.betti.append(delta.shape[1])
        return self

    def reach(self, n):
        """The first j in [1, n) with b_j * lambda > WORK_CAP, or n when
        there is none (b_j = 0 past a finite end).  Tor_i and Ext^i
        realize d_i, which has b_i * lambda columns, so degree i is
        affordable exactly when reach(i + 1) > i.  Lifts stage by stage,
        and only through the last stage it reads."""
        for j in range(1, n):
            self.extend(j)
            if self.betti_number(j) * self.ring.length > WORK_CAP:
                return j
        return n

    def image_generators(self, j):
        """RMatrix whose columns generate im delta_j as an R-module, for
        j <= length + 1: delta_j itself once lifted (and the zero map past
        a finite end); at j = length + 1 the k-basis of the frontier
        kernel ker delta_{j-1}, as an RMatrix (b_{j-1}, dim K, lambda).

        Right-exactness makes im(delta_j (x) N) = im(K (x) N), and a
        map out of F_{j-1} kills im delta_j iff it kills K, so this
        RMatrix gives Tor and Ext the same ranks as delta_j without
        lifting minimal generators of K."""
        if j != self.length + 1 or self.finite:
            return self.delta(j)
        return rmatrix_of_rows(self.ring, self._frontier_kernel().basis)

    def delta(self, i):
        """RMatrix of delta_i: R^{b_i} -> R^{b_{i-1}} of a resolution
        computed through stage i.  delta_0 is the zero map R^{b_0} -> 0,
        and past the end of a finite resolution delta_i has zero columns;
        each such zero map is built once and returned on every call."""
        if 1 <= i <= self.length:
            return self.deltas[i - 1]
        if i not in self._zero_deltas:
            rows = self.betti_number(i - 1) if i else 0
            self._zero_deltas[i] = self.ring.field.zeros(
                (rows, self.betti_number(i), self.ring.length))
        return self._zero_deltas[i]

    def syzygy_module(self, i):
        """The i-th syzygy M_i as a FiniteModule (M_0 = M itself): the
        R-span of delta_i's columns inside R^{b_{i-1}}, acted on blockwise
        (the zero module past the end of a finite resolution)."""
        if i == 0:
            return self.module
        self.extend(i)
        sub = submodule_module(regular_module(self.ring),
                               column_span(self.ring, self.delta(i)))
        sub.is_syzygy = True
        return sub


def resolve(module, n):
    """Minimal free resolution of M through homological degree n."""
    if module._resolution is None:
        module._resolution = Resolution(module)
    return module._resolution.extend(n)


def betti_numbers(module, n):
    res = resolve(module, n)
    return [res.betti_number(i) for i in range(n + 1)]


def _differential(res, j, N, hom=False):
    """Realized d_j: F_j (x) N -> F_{j-1} (x) N of the resolution F, or
    with hom the map d^j: Hom(F_{j-1}, N) -> Hom(F_j, N), realized from
    res.image_generators(j): exact for j <= res.length, and at
    res.length + 1 exact in the image of d_j and the kernel of d^j."""
    delta = res.image_generators(j)
    return realize(res.ring, delta.transpose(1, 0, 2) if hom else delta, N)


def _cycles(M, N, i):
    """M's resolution F through stage i, and dim_k of the cycles of
    F_i (x) N, b_i dim N - rank(d_i (x) N), from the exact d_i."""
    res = resolve(M, i)
    d = _differential(res, i, N)
    return res, d.shape[1] - rank(M.ring.field, d)


def _boundaries(res, N, i):
    """rank(d_{i+1} (x) N), from the frontier kernel of delta_i unless
    delta_{i+1} is already lifted."""
    return rank(res.ring.field, _differential(res, i + 1, N))


def tor_dim(M, N, i):
    """dim_k Tor_i(M, N), computed from a minimal resolution of M through
    stage i: the cycles from the exact d_i, the boundaries from the
    frontier kernel of delta_i unless delta_{i+1} is already lifted."""
    require_same_ring(M, N)
    if M.dim == 0 or N.dim == 0:
        return 0
    res, z = _cycles(M, N, i)
    return z - _boundaries(res, N, i)


def require_cutoff(cutoff):
    """An empty Tor window would read as vanishing."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")


def tor_vanishes(M, N, i):
    """Whether Tor_i(M, N) = 0, from a minimal resolution of M through
    stage i; the dimension itself is not computed.

    Every entry of a minimal resolution lies in m, so every boundary of
    F_i (x) N lies in F_i (x) mN, of dimension b_i dim mN.  When the
    cycles outnumber that, Tor_i != 0 is certified from d_i alone, and
    the frontier kernel of delta_i is never built; otherwise the
    boundary rank is computed exactly, as tor_dim does.  Each (M, N, i)
    is computed once: M's resolution keeps the answer, holding N weakly."""
    require_same_ring(M, N)
    if M.dim == 0 or N.dim == 0:
        return True
    res = resolve(M, 0)
    if res._vanishes is None:
        res._vanishes = weakref.WeakKeyDictionary()
    answers = res._vanishes.setdefault(N, {})
    if i not in answers:
        _, z = _cycles(M, N, i)
        answers[i] = z <= res.betti_number(i) * N.mm().dim \
            and z == _boundaries(res, N, i)
    return answers[i]


def tor_window(M, Ns, lo, hi, width=1):
    """(start, stop) for the first start in [lo, hi] with Tor_i(M, N) = 0
    for every N in Ns and i in [start, start + width - 1].  stop says why
    the walk ended: "vanished" (start found), "nonzero", "work_cap" (at
    the first window with reach(start + width) < start + width, before
    asking any of its indices) or "empty" (lo > hi); start is None
    unless "vanished".  Each index is asked once, in increasing order,
    so M is resolved only through the last window the cap admits; a
    width-0 window is found at its start."""
    start = lo
    while start <= hi:
        if resolve(M, 0).reach(start + width) < start + width:
            return None, "work_cap"
        bad = next((i for i in range(start, start + width)
                    if not all(tor_vanishes(M, N, i) for N in Ns)), None)
        if bad is None:
            return start, "vanished"
        start = bad + 1
    return None, "empty" if lo > hi else "nonzero"


def ext_dim(M, N, i):
    """dim_k Ext^i(M, N) via Matlis duality: Tor_i(M, N^dual)."""
    return tor_dim(M, matlis_dual(N), i)


def ext_dim_direct(M, N, i):
    """dim_k Ext^i(M, N) as homology of Hom(F, N) directly, from a
    resolution through stage i: the cocycles are the kernel of the
    transposed frontier map (or of d^{i+1} once delta_{i+1} is lifted),
    the coboundaries the image of the exact d^i."""
    require_same_ring(M, N)
    F = M.ring.field
    if M.dim == 0 or N.dim == 0:
        return 0
    res = resolve(M, i)
    up = _differential(res, i + 1, N, hom=True)
    return up.shape[1] - rank(F, up) - rank(F, _differential(res, i, N, hom=True))


def tor_induced_k(f, i):
    """Rank of Tor_i(k, f) for an R-linear map f: A -> B, from the
    resolution of k through stage i: cycles of F (x) A from the exact d_i,
    boundaries of F (x) B through the frontier kernel of delta_i unless
    delta_{i+1} is already lifted."""
    A, B = f.source, f.target
    F = A.ring.field
    k = derived_module(A.ring, "k")  # held: at length 0 the frontier needs it
    res = resolve(k, i)
    bi = res.betti_number(i)
    if bi == 0 or A.dim == 0:
        return 0
    ZA = kernel_basis(F, _differential(res, i, A))  # cycles of F (x) A
    BB = _differential(res, i + 1, B).T  # boundaries of F (x) B, as rows
    # images of the A-cycles in F_i (x) B: f applied block by block
    mapped = F.matmul(ZA.reshape(-1, A.dim), f.matrix.T).reshape(
        len(ZA), bi * B.dim)
    both = SparseRows([*BB, *SparseRows.from_dense(F, mapped)], BB.ncols)
    return rank(F, both) - rank(F, BB)


@dataclass
class CompleteResolutionView:
    module: FiniteModule
    window: list  # (i, b_i) pairs
    shift: int  # 1 if the module was replaced by its first syzygy

    def table(self):
        return dict(self.window)


def complete_betti(M, s):
    """Betti table of a complete resolution on the window [-s, s].

    Requires a Gorenstein ring.  If M is not already realized as a first
    syzygy it is replaced by syzygy(M), with the shift recorded."""
    ring = M.ring
    if not ring.gorenstein:
        raise ModuleError("complete resolutions require a Gorenstein ring")
    shift = 0
    if not M.is_syzygy and not M.is_free():
        M = resolve(M, 1).syzygy_module(1)
        shift = 1
    if M.is_free():
        window = [(i, 0) for i in range(-s, s + 1)]
        return CompleteResolutionView(M, window, shift)
    pos = betti_numbers(M, s)
    Mstar = hom_into_ring(M)
    neg = betti_numbers(Mstar, s)
    # gluing consistency at index 0: M** must look like M
    Mss = hom_into_ring(Mstar)
    if (Mss.dim, Mss.min_gens()) != (M.dim, M.min_gens()):
        raise ModuleError("complete resolution gluing inconsistency at 0")
    window = [(-i, neg[i - 1]) for i in range(s, 0, -1)]
    window += [(i, pos[i]) for i in range(0, s + 1)]
    return CompleteResolutionView(M, window, shift)


def series_quotient(numer, denom, n):
    """Coefficients 0..n of the power series numer/denom, as Fractions;
    numer and denom are coefficient lists from degree 0 and denom[0] = 1."""
    out = []
    for d in range(n + 1):
        c = Fraction(numer[d]) if d < len(numer) else Fraction(0)
        out.append(c - sum(denom[j] * out[d - j]
                           for j in range(1, min(d, len(denom) - 1) + 1)))
    return out


@dataclass
class KoszulReport:
    consistent: bool
    degree: int
    first_mismatch: int  # -1 when consistent through the tested degree
    expected: list
    computed: list


def koszul_test(ring, n):
    """Necessary numeric condition for Koszulness: the Betti numbers of k
    must match the power-series inverse of Hilb(-t) through degree n."""
    require_cutoff(n)
    hilb_minus_t = [(-1) ** d * h for d, h in enumerate(ring.hilbert)]
    expected = [int(c) for c in series_quotient([1], hilb_minus_t, n)]
    computed = betti_numbers(derived_module(ring, "k"), n)
    first = -1
    for d in range(n + 1):
        if expected[d] != computed[d]:
            first = d
            break
    return KoszulReport(first == -1, n, first, expected, computed)


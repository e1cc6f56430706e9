"""Executable statement registry S1-S29.

Each statement is a predicate over an instance (ring + named modules +
integer parameters) returning VACUOUS (a hypothesis clause failed),
PASS, or FAIL with a serialized counterexample.  For the conjecture
statements the passing status is NO_COUNTEREXAMPLE instead of PASS.

Proved statements can only FAIL on an engine defect, so any FAIL is a
bug report in disguise; the suite runner treats it as fatal.

The structural hypotheses are the named clauses of `_HYPOTHESES`, which
`check` tests in a statement's `needs` order before its body runs.

Every vanishing question is homology.tor_vanishes.  Windows of Tor or
Ext go through homology.tor_window; S14's Tor_l, S17's Tor_2 and Tor_3,
S18's Tor_(i+1) and S28's and S29's Tor_2 ask tor_vanishes directly,
and only S17 part 2 computes a dimension, the Tor_1 it prints.
"""

import inspect
from dataclasses import dataclass, field as dfield, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .homology import (
    betti_numbers,
    koszul_test,
    require_cutoff,
    resolve,
    series_quotient,
    tor_dim,
    tor_induced_k,
    tor_vanishes,
    tor_window,
)
from .instancefile import parse_poly, serialize_instance
from .linalg import GF101, Subspace
from .modules import (
    DERIVED,
    column_span,
    derived_module,
    from_presentation,
    matlis_dual,
    min_gen_rmatrix,
    random_module,
    rmatrix_from_polys,
    submodule_module,
    tensor_over_R,
    presentation_of,
    wedge_image,
)
from .ring import ring_from_strings

VACUOUS = "VACUOUS"
PASS = "PASS"
FAIL = "FAIL"
NO_COUNTEREXAMPLE = "NO_COUNTEREXAMPLE"

DEFAULT_CUTOFF = 12


class MissingModule(KeyError):
    """An instance does not provide a module a statement asks for."""


@dataclass
class Instance:
    name: str
    ring: object
    modules: dict
    provenance: str = "canned"
    # the derived modules asked for, held: the ring's table holds them weakly
    _derived: dict = dfield(default_factory=dict, init=False, repr=False,
                            compare=False)

    def module(self, name):
        """The instance's own module, else the ring's k, R or omega, else omega1."""
        if name in self.modules:
            return self.modules[name]
        if name not in self._derived:
            if name in DERIVED:
                self._derived[name] = derived_module(self.ring, name)
            elif name == "omega1":
                self._derived[name] = resolve(
                    self.module("omega"), 1).syzygy_module(1)
            else:
                raise MissingModule(
                    f"instance {self.name!r} has no module {name!r}")
        return self._derived[name]


@dataclass
class Verdict:
    statement: str
    status: str
    hypothesis: str
    conclusion: str
    cutoff: int
    counterexample: str = None
    data: dict = dfield(default_factory=dict)

    def __str__(self):
        msg = f"{self.statement}: {self.status}"
        if self.status == VACUOUS:
            msg += f" ({self.hypothesis})"
        elif self.conclusion:
            msg += f" ({self.conclusion})"
        return msg


class _Vacuous(Exception):
    def __init__(self, clause):
        self.clause = clause


def _need(cond, clause):
    if not cond:
        raise _Vacuous(clause)


def _m_square_part(ring):
    """m^2 as a subspace of R: the coordinates of degree >= 2, whose unit
    rows are already in rref."""
    F, lam = ring.field, ring.length
    idx = [i for i, (d, _) in enumerate(ring.basis) if d >= 2]
    return Subspace(F, lam, F.eye(lam)[idx], tuple(idx))


def _kills_m_squared(mod):
    return mod.msub(2).dim == 0


def _nu_of_subquotient(mod, j):
    """nu(m^j M) = lambda(m^j M / m^(j+1) M)."""
    return mod.msub(j).dim - mod.msub(j + 1).dim


def _conclude(parts, vacuous_if_empty=None):
    """A statement body's result from its record of (label, holds) parts:
    the conclusion holds when every part does, and reads "label: holds"
    joined by "; ".  Given a clause, an empty record is VACUOUS with it."""
    if vacuous_if_empty is not None:
        _need(parts, vacuous_if_empty)
    return (all(holds for _, holds in parts),
            "; ".join(f"{label}: {holds}" for label, holds in parts), {})


def _c(N):
    """c(N) = floor(log2 b_1(N)) + 2, in integers; 1 when b_1(N) = 0."""
    return betti_numbers(N, 1)[1].bit_length() + 1


def _on(name, holds):
    """holds, asked of the instance's module name."""
    return lambda inst: holds(inst.module(name))


# the structural hypotheses, id -> (clause, predicate on the instance);
# the first of a statement's needs that fails is its VACUOUS clause
_HYPOTHESES = {
    **{hid: hyp for X in ("M", "N") for hid, hyp in {
        f"{X}_nonzero": (f"{X} is zero", _on(X, lambda L: not L.is_zero())),
        f"{X}_nonfree": (f"{X} is free", _on(X, lambda L: not L.is_free())),
        f"{X}_kills_m2": (f"m^2 {X} != 0", _on(X, _kills_m_squared)),
    }.items()},
    "m3_zero": ("m^3 != 0", lambda inst: inst.ring.h <= 2),
    # h == 2 excludes m^2 = 0, where every syzygy is a k-vector space and
    # S10's equality criterion degenerates (equality holds while k is
    # trivially a summand of each syzygy)
    "h_is_2": ("need m^3 = 0 and m^2 != 0", lambda inst: inst.ring.h == 2),
    "m2_zero": ("m^2 != 0", lambda inst: inst.ring.h <= 1),
    "m2_nonzero": ("m^2 = 0", lambda inst: inst.ring.h >= 2),
    "nongorenstein": ("ring is Gorenstein",
                      lambda inst: not inst.ring.gorenstein),
    "both_nonzero": ("a module is zero",
                     lambda inst: not inst.module("M").is_zero()
                     and not inst.module("N").is_zero()),
    "M_no_k_summand": ("k is a direct summand of M",
                       _on("M", lambda L: not L.has_k_summand())),
    "N_infinite_pd": ("N has finite projective dimension",
                      _on("N", lambda L: not L.is_free())),
}


def _assume(inst, hid):
    clause, holds = _HYPOTHESES[hid]
    _need(holds(inst), clause)


def _vanishing_index(M, N, lo, n):
    """The first i in [lo, n] with Tor_i(M, N) = 0, else VACUOUS."""
    i, _ = tor_window(M, [N], lo, n)
    _need(i is not None, f"no vanishing Tor index in [{lo},{n}]")
    return i


def _vanishing_window(M, N, width):
    """VACUOUS unless Tor_1 .. Tor_width(M, N) are verified zero."""
    _need(tor_window(M, [N], 1, 1, width)[0],
          f"Tor window [1,{width}] not verified zero")


# the clauses two bodies share
_TOR_1_2 = "Tor_1 or Tor_2 nonzero"
_NO_EXT_WINDOW = "no vanishing Ext window satisfied"


# ---------------------------------------------------------------------
# statement bodies: called with the statement's modules once its needs
# hold; raise _Vacuous or return (ok, conclusion_report, data)
# ---------------------------------------------------------------------


def _s1(inst, n, M, N):
    i = _vanishing_index(M, N, 1, n)
    res = resolve(M, i)
    bad = [j for j in range(i)
           if res.syzygy_module(j).has_k_summand()]
    return not bad, f"k-summand-free syzygies M_0..M_{i-1}" if not bad else \
        f"k is a summand of M_{bad[0]}", {"i": i}


def _s2(inst, n, M, N):
    n = min(n, 6)
    _vanishing_window(M, N, n)
    T = tensor_over_R(M, N)
    for L in (M, N, T):
        n = resolve(L, 0).reach(n)
    pT = betti_numbers(T, n)
    pM = betti_numbers(M, n)
    pN = betti_numbers(N, n)
    prod = [sum(pM[j] * pN[i - j] for j in range(i + 1)) for i in range(n + 1)]
    ok = pT == prod
    return ok, f"P(M(x)N)={pT} vs P(M)*P(N)={prod}", {}


def _s3(inst, n, M):
    g = M.gamma()
    lam_r = M.ring.length
    checks = [
        0 <= g <= lam_r - 1,
        (g == 0) == (M.mm().dim == 0),
        (g == lam_r - 1) == M.is_free(),
        M.dim == M.min_gens() * (g + 1),
    ]
    return all(checks), f"gamma={g}, range/extreme/identity checks {checks}", {}


def _s4(inst, n, M, N):
    i = _vanishing_index(M, N, 1, n)
    resN = resolve(N, i)
    b = betti_numbers(N, i)
    Ni = resN.syzygy_module(i)
    Nprev = resN.syzygy_module(i - 1)
    TMi = tensor_over_R(M, Ni)
    TMprev = tensor_over_R(M, Nprev)
    gM = M.gamma()
    gTi = TMi.gamma() if not TMi.is_zero() else Fraction(0)
    gTp = TMprev.gamma() if not TMprev.is_zero() else Fraction(0)
    report = []
    ok = True
    eq1 = (gTi + 1) * b[i] == (gM - gTp) * b[i - 1]
    ineq = b[i] <= gM * b[i - 1]
    ok &= eq1 and ineq
    report.append(f"(1) identity {eq1}, b_i <= gamma(M) b_(i-1) {ineq}")
    if _kills_m_squared(M):
        part2 = TMi.mm().dim == 0 and b[i] == (gM - gTp) * b[i - 1]
        ok &= part2
        report.append(f"(2) m(M(x)N_i)=0 and exact ratio {part2}")
    return ok, "; ".join(report), {"i": i}


def _s5(inst, n, M, N):
    parts = []
    nu = N.min_gens()
    if nu <= n and tor_window(M, [N], 1, 1, nu)[0]:
        parts.append((f"(1) gamma(M)={M.gamma()} >= 1", M.gamma() >= 1))
    if _kills_m_squared(M):
        c = _c(N)  # N is not free, so b_1(N) >= 1
        if c <= n and tor_window(M, [N], 1, 1, c)[0]:
            parts.append((f"(2) gamma(M)={M.gamma()} integral",
                          M.gamma().denominator == 1))
    return _conclude(parts, "no sub-hypothesis window satisfied")


def _s6(inst, n, M, N):
    _need(tor_window(M, [N], 1, 1, 2)[0], _TOR_1_2)
    b = betti_numbers(M, 1)
    gM = M.gamma()
    eq1 = b[1] == (M.ring.e - gM) * b[0]
    # every entry of delta_1 lies in m, so m M_1 lies in m^2 R^{b0}, and
    # the two are equal exactly when their dimensions are
    mM1 = resolve(M, 1).syzygy_module(1).mm().dim
    m2 = b[0] * sum(M.ring.hilbert[2:])
    return _conclude([("b1=(e-gamma)b0", eq1), ("mM1=m^2R^b0", mM1 == m2)])


def _s7(inst, n, M, N):
    _need(tor_window(M, [N], 1, 1, 2)[0], _TOR_1_2)
    T = tensor_over_R(M, N)
    ok = M.gamma() + N.gamma() - T.gamma() == M.ring.e
    return ok, f"gamma(M)+gamma(N)-gamma(M(x)N) = {M.gamma()+N.gamma()-T.gamma()} vs e={M.ring.e}", {}


def _s8(inst, n, M, N):
    n = min(n, 6)
    _vanishing_window(M, N, n)
    k = inst.module("k")
    n = resolve(k, 0).reach(n)
    T = tensor_over_R(M, N)
    gM, gN, gT = M.gamma(), N.gamma(), T.gamma()
    series = series_quotient([1, -gT], [1, -(gM + gN), gM * gN], n)
    pk = betti_numbers(k, n)
    ok = [Fraction(x) for x in pk] == series
    return ok, f"P_k={pk} vs series={[str(c) for c in series]}", {}


def _s9(inst, n, M, N):
    i = _vanishing_index(M, N, 2, n)
    ok = M.is_free() or N.is_free()
    return ok, f"M free: {M.is_free()}, N free: {N.is_free()}", {"i": i}


def _s10(inst, n, M):
    depth = min(5, n, resolve(M, 0).reach(n + 1) - 1)
    _need(depth >= 1, "resolution work cap leaves no checkable depth")
    res = resolve(M, depth + 1)
    b = betti_numbers(M, depth + 1)
    e, a = inst.ring.e, inst.ring.a
    report = []
    Mnext = res.syzygy_module(0)
    for i in range(depth):
        Mi, Mnext = Mnext, res.syzygy_module(i + 1)
        nu_m = _nu_of_subquotient(Mi, 1)
        lhs, rhs = b[i + 1], e * b[i] - nu_m
        if lhs < rhs:
            report.append(f"(1) b_{i+1}={lhs} < e*b_{i}-nu(mM_{i})={rhs}")
        summand = Mnext.has_k_summand()
        if (lhs == rhs) != (not summand):
            report.append(f"(1) equality/k-summand mismatch at i={i}")
        if i > 1 and not Mi.has_k_summand() and nu_m != a * b[i - 1]:
            report.append(f"(2) nu(mM_{i})={nu_m} != a*b_{i-1}={a*b[i-1]}")
    return not report, \
        "; ".join(report) or f"Lescot bounds hold through i={depth-1}", {}


def _s11(inst, n, M):
    ok = M.socle() == M.mm()
    return ok, f"Soc(M) dim {M.socle().dim} vs mM dim {M.mm().dim}", {}


def _s12(inst, n, M, N):
    i = _vanishing_index(M, N, 3, n)
    soc, m2 = inst.ring.socle_subspace(), _m_square_part(inst.ring)
    ok = soc == m2
    return ok, f"Soc(R) dim {soc.dim} vs m^2 dim {m2.dim}", {"i": i}


def _three_tor_hyp(M, N, n):
    """The first j with Tor_j = Tor_(j+1) = Tor_(j+2) = 0 in [1, n], with
    N resolved through it."""
    j, _ = tor_window(M, [N], 1, n - 2, width=3)
    _need(j is not None, f"no triple-zero Tor window in [1,{n}]")
    _need(resolve(N, 0).reach(j + 2) > j + 1,
          "N resolution exceeds work cap")
    return j


def _s13(inst, n, M, N):
    j = _three_tor_hyp(M, N, n)
    e, a = inst.ring.e, inst.ring.a
    gM, gN = M.gamma(), N.gamma()
    bM, bN = betti_numbers(M, j + 2), betti_numbers(N, j + 2)
    resM, resN = resolve(M, j + 2), resolve(N, j + 2)
    report = []
    if not (gM.denominator == 1 and gM >= 1 and gN.denominator == 1 and gN >= 1):
        report.append(f"(1) gamma(M)={gM}, gamma(N)={gN} not positive integers")
    for i in range(j + 2):
        if bM[i + 1] != gN * bM[i] or bN[i + 1] != gM * bN[i]:
            report.append(f"(2) Betti ratio fails at i={i}")
    for i in range(j + 1):
        if resM.syzygy_module(i).gamma() != gM or resN.syzygy_module(i).gamma() != gN:
            report.append(f"(3) gamma of syzygy differs at i={i}")
    if gM + gN != e or gM * gN != a:
        report.append(f"(4) sum={gM+gN} vs e={e}, product={gM*gN} vs a={a}")
    return not report, \
        "; ".join(report) or f"all four conclusions hold (j={j})", {"j": j}


def _s14(inst, n, M, N):
    j = _three_tor_hyp(M, N, n)
    l = min(n, j + 4)
    _need(l >= j + 3, f"l={l} < j+3={j+3}")
    _need(resolve(M, 0).reach(l + 1) > l and resolve(N, 0).reach(l) > l - 1,
          f"resolution work cap below l={l}")
    _need(tor_vanishes(M, N, l), f"Tor_{l} != 0")
    gM, gN = M.gamma(), N.gamma()
    bM = betti_numbers(M, l)
    bN = betti_numbers(N, l)
    ok = all(bM[i + 1] == gN * bM[i] and bN[i + 1] == gM * bN[i]
             for i in range(l - 1))
    return ok, f"Betti ratios extend through i={l-1}: {ok}", {"j": j, "l": l}


def _s15(inst, n):
    ring = inst.ring
    omega = inst.module("omega")
    N = inst.module("omega1")
    e, a, r, lam = ring.e, ring.a, ring.r, ring.length
    report = []
    if not (omega.dim == lam == 1 + r + e):
        report.append(f"(1) lambda(omega)={omega.dim}, lambda(R)={lam}, 1+r+e={1+r+e}")
    nu_momega = _nu_of_subquotient(omega, 1)
    if nu_momega != e + r - a:
        report.append(f"(2) nu(m omega)={nu_momega} != e+r-a={e+r-a}")
    if N.dim != (a - 1) * (1 + r + e):
        report.append(f"(3) lambda(omega_1)={N.dim} != (a-1)(1+r+e)")
    if not N.is_zero() and not N.has_k_summand() and a == r and \
            (N.min_gens() != e * (a - 1) or N.gamma() != Fraction(1 + a, e)):
        report.append(f"(4) nu={N.min_gens()}, gamma={N.gamma()}")
    return not report, "; ".join(report) or "dualizing-module numerics hold", {}


def _s16(inst, n, M, omega):
    j, _ = tor_window(M, [omega], 2, n - 2, width=3)
    _need(j is not None, f"no triple-zero Tor(M,omega) window from 2 in [2,{n}]")
    e, a = inst.ring.e, inst.ring.a
    omega1 = inst.module("omega1")
    b = betti_numbers(M, j + 2)
    checks = {
        "e=a+1": e == a + 1,
        "gamma(omega_1)=1": omega1.gamma() == 1,
        "gamma(M)=a": M.gamma() == a,
        "constant Betti": len(set(b[: j + 3])) == 1,
    }
    ok = all(checks.values())
    return ok, ", ".join(f"{k}: {v}" for k, v in checks.items()), {"j": j, "e": e, "a": a,
                                                                  "gammaM": M.gamma()}


def _s17(inst, n, part=None):
    omega = inst.module("omega")
    parts = []
    if inst.ring.gorenstein:
        # omega is free here, so the walk never meets the work cap
        parts.append((f"Gorenstein: Tor_i(omega,omega)=0 through {n}",
                      bool(tor_window(omega, [omega], 1, 1, n)[0])))
    else:
        if part in (None, 2):
            t1 = tor_dim(omega, omega, 1)
            parts.append((f"(2=>1) Tor_1(omega,omega)={t1} > 0", t1 > 0))
        if part in (None, 3):
            parts.append(("(3=>1) Tor_2,Tor_3 not both zero",
                          not (tor_vanishes(omega, omega, 2)
                               and tor_vanishes(omega, omega, 3))))
        if part in (None, 4):
            parts.append((f"(4=>1) no triple-zero window from j>=3 through {n}",
                          tor_window(omega, [omega], 3, n - 2, 3)[0] is None))
    return _conclude(parts)


def _s18(inst, n, M, N):
    j = _three_tor_hyp(M, N, n)
    resM = resolve(M, j + 1)
    report = []
    # N (x) M_i from N's presentation: a syzygy is never resolved for one
    Tnext = tensor_over_R(N, resM.syzygy_module(0))
    for i in range(j + 1):
        lhs = tor_vanishes(M, N, i + 1)
        Ti, Tnext = Tnext, tensor_over_R(N, resM.syzygy_module(i + 1))
        rhs = Ti.mm().dim == 0 and Tnext.mm().dim == 0
        if lhs != rhs:
            report.append(f"iff fails at i={i}: Tor zero {lhs}, m-kills {rhs}")
    return not report, "; ".join(report) or f"iff holds for 0<=i<={j}", {"j": j}


def _s19(inst, n, M, N):
    ring = inst.ring
    lam_m2 = sum(ring.hilbert[2:])
    _need(ring.e >= lam_m2 - ring.h + 4,
          f"e={ring.e} < lambda(m^2)-h+4={lam_m2 - ring.h + 4}")
    _assume(inst, "both_nonzero")
    parts = []
    if _kills_m_squared(M):
        c = max(4, _c(N))
        if c <= n and tor_window(M, [N], 1, 1, c)[0]:
            parts.append((f"(1) c(N)={c}: M or N free",
                          M.is_free() or N.is_free()))
    if ring.h <= 2:
        j, _ = tor_window(M, [N], 2, n - 2, width=3)
        if j is not None:
            parts.append((f"(2) triple window at j={j}: M or N free",
                          M.is_free() or N.is_free()))
    return _conclude(parts, "no vanishing window satisfied")


def _s20(inst, n, M):
    parts = []
    dual = matlis_dual(M)
    s, _ = tor_window(M, [dual, inst.module("omega")], 2, n - 3, width=4)
    if s is not None:
        parts.append((f"(1) Ext(M,M+R)=0 on [{s},{s+3}]: M free",
                      M.is_free()))
    i = tor_window(M, [dual], 1, n)[0] if inst.ring.gorenstein else None
    if i is not None:
        parts.append((f"(2) Gorenstein, Ext^{i}(M,M)=0: M free", M.is_free()))
    return _conclude(parts, _NO_EXT_WINDOW)


def _ar_bound(M):
    """max(3, nu(M), nu(mM)): the length of the Ext window from 1 that
    S21 and S23 ask to vanish."""
    return max(3, M.min_gens(), _nu_of_subquotient(M, 1))


def _s21(inst, n, M):
    bound = _ar_bound(M)
    _need(bound <= n, f"window bound {bound} exceeds cutoff {n}")
    _, stop = tor_window(M, [matlis_dual(M), inst.module("omega")], 1, 1,
                         bound)
    _need(stop != "work_cap", f"resolution work cap below {bound}")
    _need(stop == "vanished", f"Ext(M, M+R) window [1,{bound}] not all zero")
    ok = M.is_free()
    return ok, f"M free: {ok} (window [1,{bound}])", {}


def _s22(inst, n, M):
    i, _ = tor_window(M, [matlis_dual(M)], 1, n)
    _need(i is not None, f"no vanishing Ext^i(M,M) in [1,{n}]")
    gM = M.gamma()
    if gM == 0:
        return False, "gamma(M)=0 with vanishing Ext (engine defect)", {"i": i}
    gD = matlis_dual(M).gamma()
    ok = gD == 1 / gM
    return ok, f"gamma(M^v)={gD} vs 1/gamma(M)={1/gM}", {"i": i}


def _s23(inst, n, M):
    dual = matlis_dual(M)
    if inst.ring.h <= 2:
        # a zero window [1, bound] with bound >= 3 holds the triple at 1
        window = tor_window(M, [dual], 1, n - 2, width=3)[0]
    else:
        bound = _ar_bound(M)
        window = bound <= n and tor_window(M, [dual], 1, 1, bound)[0]
    _need(window, _NO_EXT_WINDOW)
    flat = inst.ring.h <= 1
    dual_free = dual.is_free()
    ok = flat and (M.is_free() or dual_free)
    return ok, f"m^2=0: {flat}; M free: {M.is_free()}; M injective: {dual_free}", {}


def _s24(inst, n, M, N):
    _vanishing_window(M, N, n)
    ok = inst.ring.h <= 2
    return ok, f"m^3=0: {ok} (window verified through {n})", {"conjecture": True}


def _s25(inst, n, M, N):
    ok, concl, _ = _s24(inst, n, M, N)
    inst.module("k")  # inst holds k, so koszul_test resolves S26's k
    return ok, concl + " [graded case: proved]", {
        "koszul_consistent": koszul_test(inst.ring, min(n, 5)).consistent}


def _s26(inst, n, M, N):
    k = inst.module("k")
    j = resolve(k, 0).reach(n)
    _need(j >= 2, "j < 2 (or residue-field resolution exceeds work cap)")
    _vanishing_window(M, N, j)
    mN = N.msub(1)
    _, incl = submodule_module(N, mN)
    bad = [i for i in range(j) if tor_induced_k(incl, i) != 0]
    ok = not bad
    return ok, f"Tor_i(k, mu_N)=0 for i in [0,{j-1}]: {ok}" + \
        (f" (fails at {bad[0]})" if bad else ""), {"j": j}


def _s27(inst, n, M):
    pres = presentation_of(M)
    nrows = pres.shape[0]
    _need(nrows <= 8, "presentation wider than the 8x8 minor guard")
    img = wedge_image(M.ring, pres)
    report = []
    ops = M.ops().reshape(M.ring.length, M.dim * M.dim)
    if np.any(M.field.matmul(img.basis, ops)):
        report.append("a minor-span element fails to annihilate coker")
    if M.annihilator_is_zero() and img.dim != 0:
        report.append("faithful cokernel with nonzero wedge image")
    return not report, "; ".join(report) or f"wedge span (dim {img.dim}) annihilates coker", {}


def _s28(inst, n, M):
    pres = presentation_of(M)
    _need(pres.shape[0] == 2, "presentation does not embed N in R^2")
    _need(tor_vanishes(M, M, 2), "Tor_2(M,M) != 0")
    _need(M.annihilator_is_zero(), "M is not faithful")
    nu = min_gen_rmatrix(M.ring, column_span(M.ring, pres)).shape[1]
    return nu <= 1, f"nu(N)={nu}", {}


def _s29(inst, n):
    ring = inst.ring
    _need(ring.a <= 2, f"type {ring.a} > 2")
    omega = inst.module("omega")
    _need(tor_vanishes(omega, omega, 2), "Tor_2(omega,omega) != 0")
    ok = ring.gorenstein
    return ok, f"Gorenstein: {ok} (type {ring.a})", {}


@dataclass
class Statement:
    id: str
    title: str
    statement: str
    body: callable
    conjecture: bool = False
    # the hypothesis ids check tests, in order, before the body runs
    needs: tuple = ()
    # the instance's modules check fetches first and passes to the body:
    # its parameters after (inst, n) that are positional-or-keyword and
    # have no default
    modules: tuple = dfield(init=False)

    def __post_init__(self):
        params = list(inspect.signature(self.body).parameters.values())[2:]
        self.modules = tuple(p.name for p in params
                             if p.kind is p.POSITIONAL_OR_KEYWORD
                             and p.default is p.empty)


# both modules non-free with m^2 killing each: S7 and S8, and with
# m^3 = 0 the three-Tor statements; S24's hypotheses are S25's too
_BOTH_M2 = ("M_nonfree", "M_kills_m2", "N_nonfree", "N_kills_m2")
_THREE_TOR = ("m3_zero", *_BOTH_M2)
_LOEWY = ("both_nonzero", "M_kills_m2", "N_kills_m2")


_REGISTRY = [
    Statement("S1", "tor-vanishing-forbids-k-summands",
              "Tor_i(M,N)=0, N of infinite projective dimension => k is not a "
              "direct summand of M_0..M_(i-1)", _s1,
              needs=("N_nonzero", "N_infinite_pd", "M_nonzero")),
    Statement("S2", "truncated-poincare-product",
              "Tor_[1,n](M,N)=0 => [P_(M(x)N)]_<=n = [P_M * P_N]_<=n", _s2,
              needs=("both_nonzero",)),
    Statement("S3", "gamma-range-and-extremes",
              "gamma(M) in [0, lambda(R)-1]; gamma=0 <=> mM=0; "
              "gamma=lambda(R)-1 <=> M free; lambda(M)=nu(M)(gamma(M)+1)", _s3,
              needs=("M_nonzero",)),
    Statement("S4", "gamma-betti-identities",
              "(gamma(M(x)N_i)+1) b_i(N) = (gamma(M)-gamma(M(x)N_(i-1))) b_(i-1)(N), "
              "with sharper forms when m^2 M=0", _s4,
              needs=("M_nonzero", "N_nonfree")),
    Statement("S5", "gamma-at-least-one-and-integrality",
              "long Tor vanishing forces gamma(M)>=1, and integrality when "
              "m^2 M=0", _s5, needs=("M_nonzero", "N_nonfree")),
    Statement("S6", "first-betti-and-syzygy-span",
              "b_1(M)=(e-gamma(M)) b_0(M) and m M_1 = m^2 R^(b_0)", _s6,
              needs=("M_nonfree", "N_nonfree", "M_kills_m2")),
    Statement("S7", "gamma-sum-rule",
              "gamma(M)+gamma(N)-gamma(M(x)N) = e", _s7, needs=_BOTH_M2),
    Statement("S8", "residue-field-poincare-form",
              "[P_k]_<=n equals the truncation of "
              "(1-gamma(M(x)N)t)/((1-gamma(M)t)(1-gamma(N)t))", _s8,
              needs=_BOTH_M2),
    Statement("S9", "square-zero-vanishing-forces-free",
              "m^2=0 and Tor_i(M,N)=0 for some i>1 => M or N free", _s9,
              needs=("m2_zero",)),
    Statement("S10", "lescot-betti-recurrence",
              "b_(i+1) >= e b_i - nu(mM_i), equality iff no k-summand of "
              "M_(i+1); nu(mM_i)=a b_(i-1) when i>1 and no k-summand", _s10,
              needs=("h_is_2", "M_nonfree", "M_kills_m2")),
    Statement("S11", "socle-equals-radical",
              "m^2 M=0 and no k-summand => Soc(M)=mM", _s11,
              needs=("M_nonzero", "M_kills_m2", "M_no_k_summand")),
    Statement("S12", "ring-socle-is-m-squared",
              "Tor_i(M,N)=0 for some i>=3, M,N non-free => Soc(R)=m^2", _s12,
              needs=("m3_zero", "M_nonfree", "N_nonfree")),
    Statement("S13", "three-tors-structure",
              "three consecutive vanishing Tors => gamma(M),gamma(N) positive "
              "integers, geometric Betti growth, gamma(M)+gamma(N)=e, "
              "gamma(M)gamma(N)=a", _s13, needs=_THREE_TOR),
    Statement("S14", "extended-betti-ratios",
              "b_(i+1)(N)=e b_i(N)-a b_(i-1)(N) extends the geometric ratios "
              "to i<=l-1 when Tor_l also vanishes", _s14, needs=_THREE_TOR),
    Statement("S15", "dualizing-module-numerics",
              "lambda(omega)=lambda(R)=1+r+e, nu(m omega)=e+r-a, "
              "lambda(omega_1)=(a-1)(1+r+e), gamma(omega_1)=(1+a)/e when a=r", _s15,
              needs=("h_is_2",)),
    Statement("S16", "three-tors-against-omega",
              "triple Tor(M,omega) vanishing from j>=2 => e=a+1, "
              "gamma(omega_1)=1, gamma(M)=a, constant Betti numbers", _s16,
              needs=("m3_zero", "nongorenstein", "M_nonfree", "M_kills_m2")),
    Statement("S17", "omega-tor-gorenstein-equivalences",
              "Gorenstein <=> Tor_1(omega,omega)=0 <=> Tor_2=Tor_3=0 <=> a "
              "triple-zero window from some j>=3", _s17, needs=("m3_zero",)),
    Statement("S18", "tor-vanishing-vs-m-killing-tensors",
              "Tor_(i+1)(M,N)=0 iff m(M_i (x) N)=0=m(M_(i+1) (x) N)", _s18,
              needs=_THREE_TOR),
    Statement("S19", "large-embedding-dimension-forces-free",
              "e >= lambda(m^2)-h+4 and enough Tor vanishing => M or N free", _s19),
    Statement("S20", "auslander-reiten-m3-zero",
              "Ext^i(M, M+R)=0 for four consecutive i>=2 => M free; "
              "Gorenstein with one vanishing Ext^i(M,M) => M free", _s20,
              needs=("m3_zero", "M_nonzero")),
    Statement("S21", "auslander-reiten-square-zero-module",
              "m^2 M=0 and Ext^i(M,M+R)=0 for 0<i<=max(3,nu(M),nu(mM)) => "
              "M free", _s21, needs=("M_kills_m2", "M_nonzero")),
    Statement("S22", "gamma-inverts-under-duality",
              "m^2!=0, m^2 M=0, some Ext^i(M,M)=0 => gamma(M^v)=1/gamma(M)", _s22,
              needs=("m2_nonzero", "M_nonzero", "M_kills_m2")),
    Statement("S23", "self-ext-vanishing-collapses-ring",
              "m^2 M=0 with a vanishing self-Ext window => m^2=0 and M free "
              "or injective", _s23, needs=("M_nonzero", "M_kills_m2")),
    Statement("S24", "loewy-conjecture-probe",
              "m^2 M=m^2 N=0 and Tor_i(M,N)=0 for all i>0 => m^3=0 "
              "(conjectural; probe only)", _s24, conjecture=True,
              needs=_LOEWY),
    Statement("S25", "loewy-conjecture-graded-case",
              "standard graded: m^2 M=m^2 N=0 and full Tor vanishing => "
              "m^3=0", _s25, needs=_LOEWY),
    Statement("S26", "induced-map-on-tor-vanishes",
              "Tor_[1,j](M,N)=0 with m^2 M=0 => Tor_i(k, mN -> N)=0 for "
              "i in [0,j-1]", _s26,
              needs=("M_kills_m2", "N_nonfree", "M_nonzero")),
    Statement("S27", "minor-span-annihilates-cokernel",
              "every element of the n x n minor span of a presentation "
              "annihilates the cokernel; faithful cokernel => span zero", _s27),
    Statement("S28", "faithful-tor2-forces-cyclic-kernel",
              "0->N->R^2->M->0 with M faithful and Tor_2(M,M)=0 => nu(N)<=1", _s28),
    Statement("S29", "type-two-tachikawa",
              "type(R)<=2 and Tor_2(omega,omega)=0 => R Gorenstein", _s29),
]

_BY_ID = {s.id: s for s in _REGISTRY}
# the three implications of S17 can also be checked one at a time
_BY_ID.update({f"S17.{p}": replace(_BY_ID["S17"], id=f"S17.{p}",
                                   body=partial(_s17, part=p))
               for p in (2, 3, 4)})


def registry():
    return list(_REGISTRY)


def _statement(statement_id):
    """The statement with this id (S1-S29, or S17.2-S17.4 for one part of
    S17); KeyError for any other id."""
    if statement_id not in _BY_ID:
        raise KeyError(f"unknown statement {statement_id!r}")
    return _BY_ID[statement_id]


def check(statement_id, inst, cutoff=DEFAULT_CUTOFF):
    """Evaluate one statement on one instance."""
    require_cutoff(cutoff)
    stmt = _statement(statement_id)
    try:
        modules = [inst.module(name) for name in stmt.modules]
        for hid in stmt.needs:
            _assume(inst, hid)
        ok, concl, data = stmt.body(inst, cutoff, *modules)
    except _Vacuous as v:
        return Verdict(statement_id, VACUOUS, v.clause, "", cutoff)
    except MissingModule as exc:
        # a statement asking for a module the instance does not provide
        # has an unverifiable hypothesis
        return Verdict(statement_id, VACUOUS, f"missing module: {exc}", "",
                       cutoff)
    status = (NO_COUNTEREXAMPLE if stmt.conjecture else PASS) if ok else FAIL
    counterexample = None if ok else _serialize_counterexample(inst)
    return Verdict(statement_id, status, "hypotheses hold", concl, cutoff,
                   counterexample=counterexample, data=data)


def _serialize_counterexample(inst):
    try:
        return serialize_instance(inst.ring, inst.modules)
    except Exception as exc:  # serialization must not mask the FAIL
        return f"# serialization failed: {exc}"


@dataclass
class SuiteReport:
    verdicts: list  # (instance name, Verdict)

    @property
    def counts(self):
        out = {PASS: 0, FAIL: 0, VACUOUS: 0, NO_COUNTEREXAMPLE: 0}
        for _, v in self.verdicts:
            out[v.status] += 1
        return out

    @property
    def failed(self):
        return [(n, v) for n, v in self.verdicts if v.status == FAIL]


# examples/agp.ring holds the same ring and module: the package cannot
# read examples/ once installed, so the canned example keeps its own copy
# (test_agp_copies_agree checks that the two agree)
AGP_RELATIONS = [
    "x1^2", "x1*x2 - x3*x4", "x1*x2 - x4^2", "x1*x3 - x2*x4",
    "x1*x4 - x2^2", "x1*x4 - x2*x3", "x1*x4 - x3^2",
]
AGP_PHI = [["x3", "x1"], ["x4", "x2"]]


def _from_rows(ring, rows):
    """Cokernel of the matrix with the given rows of polynomial strings;
    one row [f1, ..., fk] gives R/(f1, ..., fk)."""
    grid = [[parse_poly(s, ring.varnames) for s in row] for row in rows]
    return from_presentation(ring, rmatrix_from_polys(ring, grid))


def agp_example(field=None):
    """The rank-two periodic pair: a length-8 ring with m^3=0 and a
    cokernel with constant Betti number 2 and Ext^i(M,R)=0 for i>0."""
    field = field or GF101
    ring = ring_from_strings(field, ["x1", "x2", "x3", "x4"], AGP_RELATIONS)
    M = _from_rows(ring, AGP_PHI)
    return ring, M


# (name, variables, relations, M's generator, N's generator): each
# instance is R with the cyclic modules R/(M's generator), R/(N's)
_CANNED = [
    ("chain-length-4", ["x"], ["x^4"], "x", "x^2"),
    ("gorenstein-square", ["x", "y"], ["x^2", "y^2"], "x", "x"),
    ("flat-square-zero", ["x", "y"], ["x^2", "x*y", "y^2"], "x", "y"),
    ("gorenstein-cube", ["x", "y"], ["x^2 - y^2", "x*y"], "x", "x + y"),
]


def canned_corpus(field=None, seed=7):
    """Deterministic instance corpus for suite runs and tests: the canned
    rings, agp, then four random instances."""
    field = field or GF101
    out = []
    for name, varnames, rels, m, n in _CANNED:
        ring = ring_from_strings(field, varnames, rels)
        out.append(Instance(name, ring, {"M": _from_rows(ring, [[m]]),
                                         "N": _from_rows(ring, [[n]])}))
    # the three two-variable rings host the random instances
    hosts = [inst.ring for inst in out[1:]]

    ring, M = agp_example(field)
    out.append(Instance("agp", ring,
                        {"M": M, "N": derived_module(ring, "omega")}))

    for t in range(4):
        host = hosts[t % len(hosts)]
        Mr = random_module(host, seed + 2 * t, square_zero=True)
        Nr = random_module(host, seed + 2 * t + 1)
        out.append(Instance(f"random-{t}", host, {"M": Mr, "N": Nr},
                            provenance=f"seed={seed + 2 * t}"))
    return out


def check_suite(corpus, ids=None, cutoff=DEFAULT_CUTOFF):
    """Every statement in ids (default: the registry) on every instance;
    KeyError or ValueError before anything runs for a bad id or cutoff."""
    require_cutoff(cutoff)
    ids = ids or [s.id for s in _REGISTRY]
    for sid in ids:
        _statement(sid)
    verdicts = []
    for inst in corpus:
        for sid in ids:
            verdicts.append((inst.name, check(sid, inst, cutoff=cutoff)))
    return SuiteReport(verdicts)

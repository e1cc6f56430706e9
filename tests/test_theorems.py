"""Executable statement registry: verdicts on canned instances."""

from contextlib import contextmanager
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from conftest import flat_free_instance
from hypothesis import given, settings, strategies as st
from test_one_path import old_afford

from socle import homology, theorems
from socle.homology import resolve
from socle.instancefile import parse_instance
from socle.linalg import GF101, QQ, Field
from socle.modules import (
    FiniteModule, canonical_module, matlis_dual, random_module,
    regular_module)
from socle.ring import ring_from_strings
from socle.theorems import (
    FAIL,
    NO_COUNTEREXAMPLE,
    PASS,
    VACUOUS,
    Instance,
    agp_example,
    canned_corpus,
    check,
    check_suite,
    registry,
)


def test_registry_shape():
    reg = registry()
    assert [s.id for s in reg] == [f"S{i}" for i in range(1, 30)]
    assert all(s.title and s.statement for s in reg)
    conjectures = [s.id for s in reg if s.conjecture]
    assert conjectures == ["S24"]


def test_unknown_statement_raises(agp):
    ring, M = agp
    inst = Instance("x", ring, {"M": M})
    for sid in ("S99", "S0", "S17.9", "S3.2", "S17.x", "S17.", "S17.02", "",
                "s1"):
        with pytest.raises(KeyError):
            check(sid, inst)
        # the suite rejects its ids before it checks anything
        with patch.object(theorems, "check", side_effect=AssertionError):
            with pytest.raises(KeyError):
                check_suite([inst], ["S1", sid])


def test_s16_on_agp():
    ring, M = agp_example(GF101)
    inst = Instance("agp", ring, {"M": M, "N": canonical_module(ring)})
    v = check("S16", inst, 8)
    assert v.status == PASS
    assert v.data.get("e") == 4 and v.data.get("a") == 3
    assert v.data.get("gammaM") == 3


def test_s4_on_agp():
    ring, M = agp_example(GF101)
    inst = Instance("agp", ring, {"M": M, "N": canonical_module(ring)})
    assert check("S4", inst, 8).status == PASS


def test_s17_part_on_flat(flat):
    inst = Instance("flat", flat, {})
    v = check("S17.2", inst, 6)
    assert v.status == PASS
    whole = check("S17", inst, 6).conclusion.split("; ")
    for part, text in zip((2, 3, 4), whole):
        v = check(f"S17.{part}", inst, 6)
        assert v.statement == f"S17.{part}" and v.conclusion == text


def test_s13_vacuous_on_free(gor):
    inst = Instance("free", gor, {"M": regular_module(gor),
                                  "N": regular_module(gor)})
    v = check("S13", inst, 6)
    assert v.status == VACUOUS


def test_s24_never_passes():
    for inst in canned_corpus(GF101):
        v = check("S24", inst, 6)
        assert v.status in (VACUOUS, NO_COUNTEREXAMPLE, FAIL)
        assert v.status != PASS


def test_s27_minor_annihilation():
    ring, M = agp_example(GF101)
    inst = Instance("agp", ring, {"M": M})
    assert check("S27", inst, 6).status in (PASS, VACUOUS)


def test_pass_verdict_has_no_dossier(gor):
    inst = Instance("gor", gor, {"M": regular_module(gor)})
    v = check("S3", inst, 6)
    assert v.status == PASS
    assert v.counterexample is None


def test_flat_rings_reach_the_free_module_conclusions():
    # M = R over k[x,y]/(x,y)^2 and k[x,y,z]/(x,y,z)^2: free, so every
    # window vanishes and the conclusions of S9, S19, S20, S21 and S23 run
    runs = []
    for names in (["x", "y"], ["x", "y", "z"]):
        ring, mods = parse_instance(flat_free_instance(names))
        inst = Instance("flat-free", ring, mods)
        runs.append({s.id: check(s.id, inst, cutoff=12) for s in registry()})
    for sid in ("S9", "S19", "S20", "S21", "S23"):
        assert any(run[sid].status != VACUOUS for run in runs), sid
    assert [v for run in runs for v in run.values() if v.status == FAIL] == []
    assert [str(run["S22"]) for run in runs] == ["S22: VACUOUS (m^2 = 0)"] * 2
    assert str(runs[1]["S19"]) == (
        "S19: PASS ((1) c(N)=4: M or N free: True; "
        "(2) triple window at j=2: M or N free: True)")


# statements no tier-1 instance reaches, each with its reason; the list
# only shrinks
UNREACHED = {
    "S22": "no instance found meets m^2 != 0, m^2 M = 0 and a vanishing "
           "Ext^i(M, M): 528 random linear presentations left it VACUOUS",
}


def test_every_statement_reached_on_canned_and_coverage_instances():
    texts = [flat_free_instance(["x", "y", "z"]),
             # coker[[1],[x]]: a free module, presented non-minimally
             "[ring]\nvars = x y\nrel = x^2\nrel = y^2\n"
             "[module M]\nrow = 1\nrow = x\n"]
    corpus = canned_corpus(GF101) + [
        Instance(f"coverage-{i}", *parse_instance(t))
        for i, t in enumerate(texts)]
    report = check_suite(corpus, cutoff=4)
    assert report.counts[FAIL] == 0
    reached = {v.statement for _, v in report.verdicts if v.status != VACUOUS}
    assert reached == {s.id for s in registry()} - set(UNREACHED)


def resolutions_made(monkeypatch):
    """(ring, dim, equals omega) for each Resolution made from now on."""
    made = []
    init = homology.Resolution.__init__

    def counting(self, module):
        ring = module.ring
        omega = all(np.array_equal(A, ring.left_mult[g].T)
                    for A, g in zip(module.actions, ring.gen_index))
        made.append((ring, module.dim, omega))
        init(self, module)

    monkeypatch.setattr(homology.Resolution, "__init__", counting)
    return made


def test_a_canned_pass_resolves_omega_once_per_ring(monkeypatch):
    corpus = canned_corpus(GF101)
    made = resolutions_made(monkeypatch)
    check_suite(corpus, cutoff=4)
    assert len(made) <= 29
    for ring in {id(inst.ring): inst.ring for inst in corpus}.values():
        assert sum(r is ring and omega for r, _, omega in made) <= 1


def test_s25_and_s26_resolve_one_k(monkeypatch):
    inst = Instance("flat-free", *parse_instance(flat_free_instance(["x", "y"])))
    made = resolutions_made(monkeypatch)
    check_suite([inst], cutoff=4)
    assert [dim for _, dim, _ in made].count(1) == 1


def test_a_user_module_named_omega_defines_omega1():
    text = ("[ring]\nvars = x y\nrel = x^2\nrel = y^2\n"
            "[module M]\nrow = y\n[module omega]\nrow = x\n")
    ring, mods = parse_instance(text)
    inst = Instance("user-omega", ring, mods)
    assert inst.module("omega") is mods["omega"]
    omega1 = inst.module("omega1")
    assert inst.module("omega1") is omega1
    # (x), the first syzygy of R/(x); the ring's own omega is free
    syz = resolve(mods["omega"], 1).syzygy_module(1)
    assert omega1.dim == syz.dim == 2
    assert all(np.array_equal(a, b) for a, b in zip(omega1.actions, syz.actions))


def test_suite_counts_consistent():
    corpus = canned_corpus(GF101)[:6]
    report = check_suite(corpus, ids=["S3", "S7", "S11", "S24"], cutoff=6)
    counts = report.counts
    assert sum(counts.values()) == len(report.verdicts) == 4 * len(corpus)
    assert counts[FAIL] == 0
    assert not report.failed


def test_verdict_str_readable(gor):
    inst = Instance("gor", gor, {"M": regular_module(gor)})
    v = check("S3", inst, 6)
    assert str(v).startswith("S3: PASS")


# -- the window walker against the mechanisms it replaced ----------------

SPAN = range(7)  # lo and hi
WIDTHS = range(1, 5)


class RecordedTor:
    """homology.tor_vanishes, which the window walk asks, and
    homology.tor_dim, which the oracles ask, each memoized on its own,
    logging each (N, i) either is asked for.  `patched` installs them
    where the walk and the oracles look them up, so every walk is checked
    against an oracle that never reads the predicate, and it fails if the
    walk asked the recorder nothing: a patch the walk no longer reads
    would otherwise pass blind."""

    def __init__(self):
        # bound before patching, or the recorder would call itself
        self._vanishes, self._dim = homology.tor_vanishes, homology.tor_dim
        self.memo = {}
        self.log = []
        self.vanishing_asks = 0

    def _ask(self, fn, M, N, i):
        self.log.append((id(N), i))
        key = (fn, id(M), id(N), i)
        if key not in self.memo:
            self.memo[key] = fn(M, N, i)
        return self.memo[key]

    def vanishes(self, M, N, i):
        self.vanishing_asks += 1
        return self._ask(self._vanishes, M, N, i)

    def dim(self, M, N, i):
        return self._ask(self._dim, M, N, i)

    @contextmanager
    def patched(self):
        with patch.object(homology, "tor_vanishes", self.vanishes), \
                patch.object(theorems, "tor_dim", self.dim):
            yield
        assert self.vanishing_asks, "the walk never asked the recorder"

    def run(self, fn, *args):
        """fn(*args) and the (N, i) pairs it asked for."""
        self.log = []
        out = fn(*args)
        return out, self.log


def old_first_zero_window(M, N, width, lo, hi):
    run = 0
    for i in range(lo, hi + width):
        if not old_afford(M, i):
            return None
        if theorems.tor_dim(M, N, i) == 0:
            run += 1
            if run >= width:
                return i - width + 1
        else:
            run = 0
    return None


def old_window_ok(M, N, lo, hi):
    for i in range(lo, hi + 1):
        if not old_afford(M, i) or theorems.tor_dim(M, N, i) != 0:
            return False
    return True


def old_tor_window_zero(M, N, lo, hi):
    return all(theorems.tor_dim(M, N, i) == 0 for i in range(lo, hi + 1))


def old_start_loop(M, Ns, lo, hi, width):
    """The S20/S23 loops: each start's whole window is re-evaluated
    (Ext^i(M, X) written as Tor_i(M, X^v)).  Returns the start, or None,
    and whether the loop ended on the work cap."""
    for s in range(lo, hi + 1):
        if not old_afford(M, s + width - 1):
            return None, True
        if all(theorems.tor_dim(M, N, i) == 0
               for i in range(s, s + width) for N in Ns):
            return s, False
    return None, False


def assert_stop_explained(M, Ns, lo, hi, width, got, stop, asked, capped):
    """tor_window's stop against the old start loop, which answered
    (got, capped), and the tor_dim oracle: "empty" exactly when hi < lo,
    "vanished" exactly when a start was found, "work_cap" only where the
    old loop ended on the cap, and "nonzero" only when every window
    starting in [lo, hi] holds an index the walk asked at which some Tor
    is nonzero, so that no window exists whatever the cap.  The old loop
    can still end on the cap there: it checks each start's last index
    before it reads the nonzero Tor that rules the start out."""
    assert (stop == "empty") == (hi < lo)
    assert (stop == "vanished") == (got is not None)
    if stop == "work_cap":
        assert capped
    if stop == "nonzero":
        bad = {i for _, i in asked
               if any(theorems.tor_dim(M, X, i) != 0 for X in Ns)}
        assert all(bad & set(range(s, s + width)) for s in range(lo, hi + 1))


def old_first_index(M, Ns, lo, hi):
    """S22's search, which skips over unaffordable indices."""
    return next((i for i in range(lo, hi + 1) if old_afford(M, i)
                 and all(theorems.tor_dim(M, N, i) == 0 for N in Ns)), None)


def assert_scan_matches_oracles(M, N):
    tor = RecordedTor()
    dual = matlis_dual(M)
    families = [[N], [dual, canonical_module(M.ring)], [dual]]
    with tor.patched():
        for lo in SPAN:
            for hi in SPAN:
                for Ns in families:
                    for w in WIDTHS:
                        (got, stop), asked = tor.run(
                            homology.tor_window, M, Ns, lo, hi, w)
                        # every index once, in increasing order
                        assert len(set(asked)) == len(asked)
                        assert [i for _, i in asked] == \
                            sorted(i for _, i in asked)
                        if hi < lo:
                            assert got is None and not asked
                        (want, capped), old = tor.run(
                            old_start_loop, M, Ns, lo, hi, w)
                        assert got == want and set(asked) <= set(old)
                        assert_stop_explained(M, Ns, lo, hi, w, got, stop,
                                              asked, capped)
                        if Ns == [N]:
                            want, old = tor.run(
                                old_first_zero_window, M, N, w, lo, hi)
                            assert got == want and set(asked) <= set(old)
                    (got, _), asked = tor.run(homology.tor_window, M, Ns,
                                              lo, hi)
                    want, old = tor.run(old_first_index, M, Ns, lo, hi)
                    assert got == want and set(asked) <= set(old)
                # all-zero windows [lo, hi]; statements ask for [1, n],
                # which is empty at cutoff 0
                if hi < lo and lo != 1:
                    continue
                (ok, _), asked = tor.run(homology.tor_window, M, [N], lo, lo,
                                         hi - lo + 1)
                want, old = tor.run(old_window_ok, M, N, lo, hi)
                assert (ok is not None) == want and set(asked) <= set(old)
                if old_afford(M, hi):
                    assert (ok is not None) == old_tor_window_zero(M, N, lo, hi)


@pytest.mark.parametrize("cap", [homology.WORK_CAP, 40])
def test_scan_matches_oracles_on_canned(cap):
    with patch.object(homology, "WORK_CAP", cap):
        for inst in canned_corpus(GF101):
            assert_scan_matches_oracles(inst.module("M"), inst.module("N"))


@given(st.sampled_from([GF101, Field(2)]),
       st.sampled_from([["x^2", "y^2"], ["x^2", "x*y", "y^2"],
                        ["x^2 - y^2", "x*y"], ["x^3", "y^2"]]),
       st.integers(0, 2**16), st.integers(0, 2**16), st.booleans(),
       st.sampled_from([homology.WORK_CAP, 40]))
@settings(max_examples=60, deadline=None)
def test_scan_matches_oracles_on_random_pairs(F, rels, s1, s2, square_zero,
                                              cap):
    ring = ring_from_strings(F, ["x", "y"], rels)
    M = random_module(ring, s1, square_zero=square_zero)
    N = random_module(ring, s2)
    with patch.object(homology, "WORK_CAP", cap):
        assert_scan_matches_oracles(M, N)


@pytest.mark.parametrize("cap", [homology.WORK_CAP, 40])
def test_scan_lifts_only_the_stages_it_reads(cap):
    """On a fresh module, a scan that finds its window, or steps one index
    at a time through hi, leaves M resolved exactly through the largest
    Tor index it computed; no scan resolves past the last index its
    windows can read, and reach(n) stops short of stage n."""
    tor = RecordedTor()
    with patch.object(homology, "WORK_CAP", cap), tor.patched():
        for inst in canned_corpus(GF101):
            M, N = inst.module("M"), inst.module("N")
            if M.is_free():
                continue
            for n in range(6):
                fresh = FiniteModule(M.ring, M.actions, validate=False)
                resolve(fresh, 0).reach(n)
                assert resolve(fresh, 0).length <= max(0, n - 1)
            for lo, hi, w in product(range(1, 4), range(5), range(1, 4)):
                fresh = FiniteModule(M.ring, M.actions, validate=False)
                tor.memo.clear()  # its keys are ids, which a new module may reuse
                (got, _), asked = tor.run(homology.tor_window, fresh, [N],
                                          lo, hi, w)
                length = resolve(fresh, 0).length
                top = max((i for _, i in asked), default=0)
                if got is not None or hi < lo or (w == 1 and top == hi):
                    assert length == top
                else:
                    assert length <= hi + w - 1


@pytest.mark.parametrize("cutoff", [0, -1])
def test_cutoff_below_one_rejected(cutoff):
    # an empty window would read as vanishing: S24 would FAIL on the
    # chain ring and S25 would run koszul_test on nothing
    inst = canned_corpus(GF101)[0]
    for sid in ("S24", "S25", "S3"):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            check(sid, inst, cutoff=cutoff)
    for corpus in ([inst], []):
        with patch.object(theorems, "check", side_effect=AssertionError):
            with pytest.raises(ValueError, match="cutoff must be >= 1"):
                check_suite(corpus, ["S24"], cutoff=cutoff)


def test_canned_verdicts_agree_over_every_field():
    # the canned instances have integer presentations, and every verdict
    # on them reads the same over each field the engine accepts
    want = None
    for F in (Field(2), Field(3), GF101, Field(2**31 - 1), QQ):
        corpus = [inst for inst in canned_corpus(F)
                  if inst.provenance == "canned"]
        assert len(corpus) == 5
        report = check_suite(corpus, cutoff=4)
        assert report.counts == {PASS: 51, FAIL: 0, VACUOUS: 93,
                                 NO_COUNTEREXAMPLE: 1}
        got = [f"{name} {v}" for name, v in report.verdicts]
        want = want or got
        assert got == want, F

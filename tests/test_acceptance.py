"""Acceptance gate: eleven end-to-end criteria, all exact arithmetic.

Each test prints a single PASS/FAIL line (bypassing capture so the line
is visible in the pytest log) and asserts the criterion.
"""

import time
from pathlib import Path

import numpy as np
from oracles import is_isomorphic, monomial_square_zero_rings
from test_explorer import old_random_ring

from socle.explorer import explore
from socle.homology import (
    betti_numbers,
    complete_betti,
    ext_dim,
    ext_dim_direct,
    koszul_test,
    resolve,
    tor_dim,
)
from socle.instancefile import parse_instance
from socle.linalg import Field, GF101
from socle.modules import (
    canonical_module,
    random_module,
    regular_module,
    quotient_module,
)
from socle.ring import (
    RingPresentation,
    build_ring,
    monomials,
    ring_from_strings,
)
from socle.theorems import Instance, agp_example, canned_corpus, check, check_suite

GF5 = Field(5)


def _report(capsys, number, ok, detail):
    line = f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _submod_nu(mod, j):
    from socle.modules import submodule_module

    S = mod.msub(j)
    if S.dim == 0:
        return 0
    sub, _ = submodule_module(mod, S)
    return sub.min_gens()


def test_acceptance_01_agp_reproduction(capsys):
    t0 = time.monotonic()
    agp_path = Path(__file__).resolve().parents[1] / "examples" / "agp.ring"
    with open(agp_path, encoding="utf-8") as fh:
        ring, mods = parse_instance(fh.read())
    M = mods["M"]
    inst = Instance("agp", ring, dict(mods))
    omega = inst.module("omega")
    omega1 = inst.module("omega1")
    R1 = regular_module(ring)
    ok = (
        ring.hilbert == [1, 4, 3]
        and ring.length == 8
        and ring.e == 4
        and ring.a == 3
        and ring.e == ring.a + 1
        and betti_numbers(M, 12) == [2] * 13
        and all(tor_dim(M, omega, i) == 0 for i in range(1, 13))
        and all(ext_dim(M, R1, i) == 0 for i in range(1, 13))
        and M.gamma() == 3
        and omega1.gamma() == 1
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 10.0
    _report(capsys, 1, ok, f"periodic example reproduced exactly in {elapsed:.2f}s")


def test_acceptance_02_nongorenstein_tor1_omega(capsys):
    t0 = time.monotonic()
    rings = [r for r in monomial_square_zero_rings(GF5, e_max=3)
             if not r.gorenstein]
    assert len(rings) >= 20
    bad = []
    for r in rings:
        omega = canonical_module(r)
        if tor_dim(omega, omega, 1) == 0:
            bad.append(r)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed <= 30.0
    _report(capsys, 2, ok, f"Tor_1(omega,omega) > 0 on all {len(rings)} "
                   f"non-Gorenstein m^3=0 rings in {elapsed:.2f}s")


def _random_case_corpus():
    hosts = [
        ring_from_strings(GF101, ["x"], ["x^4"]),
        ring_from_strings(GF101, ["x", "y"], ["x^2", "y^2"]),
        ring_from_strings(GF101, ["x", "y"], ["x^2", "x*y", "y^2"]),
        ring_from_strings(GF101, ["x", "y"], ["x^2 - y^2", "x*y"]),
    ]
    for t in range(2):
        # two generators: random_ring draws 2 to 4, its oracle any range;
        # at h_min=3 these draws find no ring, at 2 they give m^3 = 0 rings
        # with m^2 != 0
        hosts.append(old_random_ring(GF101, np.random.default_rng((77, t)),
                                     e_range=(2, 2), h_min=2))
    assert all(r is not None for r in hosts), "a random host draw failed"
    cases = []
    for idx in range(200):
        ring = hosts[idx % len(hosts)]
        M = random_module(ring, seed=1000 + idx)
        N = random_module(ring, seed=2000 + idx)
        cases.append((ring, M, N, idx % 7))
    return cases


_CASES = None


def _cases():
    global _CASES
    if _CASES is None:
        _CASES = _random_case_corpus()
    return _CASES


def test_acceptance_03_ext_duality_crosscheck(capsys):
    mismatches = 0
    for ring, M, N, i in _cases():
        if ext_dim(M, N, i) != ext_dim_direct(M, N, i):
            mismatches += 1
    _report(capsys, 3, mismatches == 0,
            f"ext via duality == ext via Hom complex on {len(_cases())} "
            f"cases ({mismatches} exceptions)")


def test_acceptance_04_tor_symmetry(capsys):
    mismatches = 0
    for ring, M, N, i in _cases():
        if tor_dim(M, N, i) != tor_dim(N, M, i):
            mismatches += 1
    _report(capsys, 4, mismatches == 0,
            f"tor symmetric on {len(_cases())} cases "
            f"({mismatches} exceptions)")


def test_acceptance_05_truncated_coefficient_identities(capsys):
    results = []
    # free-module instances: the product identity holds trivially but must
    # be verified, not skipped
    for rel in (["x^2", "y^2"], ["x^2", "x*y", "y^2"]):
        ring = ring_from_strings(GF101, ["x", "y"], rel)
        R1 = regular_module(ring)
        inst = Instance("free", ring, {"M": R1, "N": R1})
        results.append(check("S2", inst, 6).status)
    # the derived pair (M_1, omega_1) of the periodic example: the shifted
    # Tor window vanishes, so both rational identities must hold exactly
    ring, M = agp_example(GF101)
    M1 = resolve(M, 1).syzygy_module(1)
    omega1 = Instance("tmp", ring, {}).module("omega1")
    inst = Instance("agp-derived", ring, {"M": M1, "N": omega1})
    results.append(check("S2", inst, 6).status)
    results.append(check("S8", inst, 6).status)
    ok = all(s == "PASS" for s in results)
    _report(capsys, 5, ok, f"rational identities verified (statuses: {results})")


def _lescot_rings(count=10):
    """Random graded rings with m^3 = 0 and m^2 != 0: random quadrics
    plus every cubic monomial."""
    rng = np.random.default_rng(1234)
    out = []
    guard = 0
    while len(out) < count and guard < 400:
        guard += 1
        e = int(rng.integers(2, 4))
        names = [f"x{i+1}" for i in range(e)]
        quad = monomials(e, 2)
        rels = [{m: 1} for m in monomials(e, 3)]
        nquad = int(rng.integers(1, len(quad)))
        for _ in range(nquad):
            coeffs = rng.integers(0, 101, size=len(quad))
            poly = {m: int(c) for m, c in zip(quad, coeffs) if int(c)}
            if poly:
                rels.append(poly)
        try:
            ring = build_ring(RingPresentation(GF101, names, rels))
        except Exception:
            continue
        if ring.h == 2:
            out.append(ring)
    return out


def test_acceptance_06_lescot_suite(capsys):
    rings = _lescot_rings(10)
    assert len(rings) >= 10
    modules_checked = 0
    violations = []
    for rn, ring in enumerate(rings):
        for ms in range(10):
            M = random_module(ring, seed=(rn + 1) * 100 + ms)
            if M.dim and M.msub(2).dim:
                M, _ = quotient_module(M, M.msub(2))
            if M.is_zero() or M.is_free():
                continue
            modules_checked += 1
            res = resolve(M, 4)
            b = [res.betti_number(i) for i in range(5)]
            for i in range(3):
                Mi = res.syzygy_module(i)
                nu_m = _submod_nu(Mi, 1)
                lhs, rhs = b[i + 1], ring.e * b[i] - nu_m
                if lhs < rhs:
                    violations.append((rn, ms, i, "inequality"))
                summand = res.syzygy_module(i + 1).has_k_summand()
                if (lhs == rhs) != (not summand):
                    violations.append((rn, ms, i, "equality/detector"))
    ok = modules_checked >= 100 and not violations
    _report(capsys, 6, ok, f"Lescot bound and k-summand detector agree on "
                   f"{modules_checked} modules over {len(rings)} rings "
                   f"({len(violations)} violations)")


def test_acceptance_07_square_zero_tor2_never_vanishes(capsys):
    rings = [r for r in monomial_square_zero_rings(GF101, e_max=3)
             if r.h == 1]
    trials = 0
    failures = 0
    seed = 0
    while trials < 100:
        ring = rings[trials % len(rings)]
        seed += 1
        M = random_module(ring, seed=seed)
        N = random_module(ring, seed=10_000 + seed)
        if M.is_zero() or N.is_zero() or M.is_free() or N.is_free():
            continue
        trials += 1
        if tor_dim(M, N, 2) == 0:
            failures += 1
    _report(capsys, 7, failures == 0,
            f"tor_2(M,N) > 0 in {trials - failures}/{trials} non-free "
            f"pairs over m^2=0 rings")


def test_acceptance_08_periodicity(capsys):
    ring = ring_from_strings(GF101, ["x", "y"], ["x^2", "y^2"])
    from socle.instancefile import parse_poly
    from socle.modules import from_presentation, rmatrix_from_polys

    M = from_presentation(
        ring, rmatrix_from_polys(ring, [[parse_poly("x", ["x", "y"])]])
    )
    view = complete_betti(M, 5)
    flat_betti = view.table()
    tor_ok = all(tor_dim(M, M, i) == 2 for i in range(1, 9))
    res = resolve(M, 4)
    iso_ok = (is_isomorphic(res.syzygy_module(1), res.syzygy_module(3))
              and is_isomorphic(res.syzygy_module(2), res.syzygy_module(4)))
    ok = (flat_betti == {i: 1 for i in range(-5, 6)}) and tor_ok and iso_ok
    _report(capsys, 8, ok, "complete resolution of R/(x) over k[x,y]/(x^2,y^2) is "
                   "1-periodic with Tor dimension 2")


def test_acceptance_09_koszul_consistency(capsys):
    # every m^2=0 ring with e <= 2, plus the complete intersection
    # k[x,y]/(x^2,y^2); e=3 to degree 10 would need b_10 = 3^10 and is
    # outside desk scale, so the corpus stops at e=2 (recorded decision)
    rings = [
        ring_from_strings(GF101, ["x"], ["x^2"]),
        ring_from_strings(GF101, ["x", "y"], ["x^2", "x*y", "y^2"]),
        ring_from_strings(GF101, ["x", "y"], ["x^2", "y^2"]),
    ]
    reports = [koszul_test(r, 10) for r in rings]
    consistent = all(rep.consistent for rep in reports)
    # deliberately non-Koszul-consistent fixture: k[x]/(x^3)
    bad = koszul_test(ring_from_strings(GF101, ["x"], ["x^3"]), 10)
    mismatch_ok = (not bad.consistent) and bad.first_mismatch == 2
    ok = consistent and mismatch_ok
    _report(capsys, 9, ok, f"koszul numeric test to degree 10: {len(reports)} "
                   f"consistent rings; mismatch reported at degree "
                   f"{bad.first_mismatch} on the cubic hypersurface")


def test_acceptance_10_explorer_soundness(capsys):
    t0 = time.monotonic()
    rep1 = explore(seed=42, budget=1000, cutoff=12)
    rep2 = explore(seed=42, budget=1000, cutoff=12)
    elapsed = time.monotonic() - t0
    lines1 = "\n".join(rep1.machine_lines())
    lines2 = "\n".join(rep2.machine_lines())
    ok = (
        len(rep1.candidates) == 0
        and not rep1.found_counterexample
        and lines1 == lines2
        and sum(rep1.histogram.values()) == rep1.trials
        and elapsed <= 300.0
    )
    _report(capsys, 10, ok, f"explorer: {rep1.trials} trials, 0 candidates, "
                    f"byte-identical re-run, {elapsed:.1f}s for both runs")


def test_acceptance_11_suite_soundness(capsys):
    ids = [f"S{i}" for i in range(1, 24)] + [f"S{i}" for i in range(26, 30)]
    corpus = canned_corpus(GF101)
    report = check_suite(corpus, ids, cutoff=6)
    counts = report.counts
    ok = counts["FAIL"] == 0 and counts["PASS"] > 0
    _report(capsys, 11, ok, f"statement suite over {len(corpus)} instances: "
                    f"{counts['PASS']} PASS, {counts['FAIL']} FAIL, "
                    f"{counts['VACUOUS']} VACUOUS")

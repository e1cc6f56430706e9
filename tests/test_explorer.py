"""Randomized counterexample explorer: determinism and constraints."""

from unittest.mock import patch

import numpy as np
import pytest
from conftest import identical

from socle import explorer
from socle.explorer import REJECTION_CAP, explore, random_ring
from socle.instancefile import parse_instance, serialize_instance
from socle.linalg import GF101, QQ
from socle.ring import (
    GradedRing,
    NotArtinianError,
    PresentationError,
    RingPresentation,
    build_ring,
    monomials,
)


def test_budget_zero_is_empty():
    rep = explore(seed=1, budget=0)
    assert rep.trials == 0 and rep.candidates == []
    assert not rep.found_counterexample


def test_p_one_is_vacuous():
    rep = explore(seed=1, budget=10, p=1)
    assert rep.vacuous and rep.trials == 0
    assert "explore.vacuous=1" in rep.machine_lines()


def test_bad_powers_rejected():
    with pytest.raises(ValueError):
        explore(seed=1, budget=1, p=0)


@pytest.mark.parametrize("cutoff", [0, -2])
def test_cutoff_below_one_rejected(cutoff):
    # an empty Tor window would make every trial an all-zero candidate;
    # rejected before any trial, even with no budget or a vacuous p
    for kwargs in ({"budget": 2}, {"budget": 0}, {"budget": 2, "p": 1}):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            explore(3, cutoff=cutoff, **kwargs)


def test_machine_report_deterministic():
    a = explore(seed=9, budget=12, cutoff=6)
    b = explore(seed=9, budget=12, cutoff=6)
    assert "\n".join(a.machine_lines()) == "\n".join(b.machine_lines())
    c = explore(seed=10, budget=12, cutoff=6)
    assert "\n".join(a.machine_lines()) != "\n".join(c.machine_lines())


def test_histogram_accounts_for_trials():
    rep = explore(seed=3, budget=15, cutoff=6)
    assert sum(rep.histogram.values()) == rep.trials
    assert rep.trials + rep.rejected_rings == 15


def test_all_zero_profiles_become_confirmed_candidates(monkeypatch):
    asked = []

    def vanishing(M, N, i):
        asked.append(i)
        return True

    monkeypatch.setattr(explorer, "tor_vanishes", vanishing)
    rep = explore(42, 2, cutoff=3)
    # each trial walks the window, then the doubled window
    assert asked == 2 * [*range(1, 4), *range(1, 7)]
    lines = rep.machine_lines()
    assert rep.trials == 2 and "explore.candidates=2" in lines
    assert [l for l in lines if ".confirmed=" in l] == [
        "explore.candidate.0.confirmed=1", "explore.candidate.1.confirmed=1"]
    assert rep.found_counterexample
    for c in rep.candidates:
        ring, mods = parse_instance(c.dossier)
        assert sorted(mods) == ["M", "N"]
        assert serialize_instance(ring, mods) == c.dossier


def test_random_ring_constraints():
    for trial in range(10):
        rng = np.random.default_rng((99, trial))
        ring = random_ring(GF101, rng, h_min=3)
        if ring is None:
            continue
        assert ring.h >= 3
        assert ring.length <= 30
        assert 2 <= ring.e <= 4


def test_random_ring_deterministic():
    r1 = random_ring(GF101, np.random.default_rng(5))
    r2 = random_ring(GF101, np.random.default_rng(5))
    assert (r1 is None) == (r2 is None)
    if r1 is not None:
        assert r1.hilbert == r2.hilbert
        assert np.array_equal(r1.left_mult, r2.left_mult)


def old_random_ring(field, rng, e_range=(2, 4), h_min=3, lam_max=30):
    """Every draw built as a whole ring, then rejected."""
    lo, hi = e_range
    for _ in range(REJECTION_CAP):
        e = int(rng.integers(lo, hi + 1))
        names = [f"x{i+1}" for i in range(e)]
        quad = monomials(e, 2)
        rels = [{tuple(3 if j == i else 0 for j in range(e)): 1}
                for i in range(e)]
        for _ in range(int(rng.integers(max(1, e - 2), e + 1))):
            if field.p is not None:
                coeffs = rng.integers(0, field.p, size=len(quad))
            else:
                coeffs = rng.integers(-5, 6, size=len(quad))
            poly = {m: int(c) for m, c in zip(quad, coeffs) if int(c) != 0}
            if poly:
                rels.append(poly)
        try:
            ring = build_ring(RingPresentation(field, names, rels))
        except (PresentationError, NotArtinianError):
            continue
        if ring.h >= h_min and ring.length <= lam_max:
            return ring
    return None


@pytest.mark.parametrize("field", [GF101, QQ], ids=str)
def test_random_ring_matches_build_first_oracle(field):
    built = []
    real_init = GradedRing.__init__

    def counting_init(self, *args):
        built.append(self)
        real_init(self, *args)

    for seed in range(6):
        for h_min, lam_max in ((2, 30), (3, 30), (3, 12)):
            rng, old_rng = (np.random.default_rng((seed, h_min)),
                            np.random.default_rng((seed, h_min)))
            built.clear()
            with patch.object(GradedRing, "__init__", counting_init), \
                    patch.object(explorer, "LENGTH_CAP", lam_max):
                ring = random_ring(field, rng, h_min=h_min)
            want = old_random_ring(field, old_rng, h_min=h_min,
                                   lam_max=lam_max)
            # the same draws, and only the accepted ring is built
            assert rng.bit_generator.state == old_rng.bit_generator.state
            assert built == ([] if ring is None else [ring])
            assert (ring is None) == (want is None)
            if ring is not None:
                assert ring.hilbert == want.hilbert
                assert ring.presentation.relations == \
                    want.presentation.relations
                assert identical(ring.left_mult, want.left_mult)


def test_candidate_dossiers_present_the_truncated_modules(monkeypatch):
    """A truncated module stores no presentation, so a dossier writes
    delta_1 of its minimal resolution, even where truncation removed
    nothing.  With all Tor forced to zero, every dossier of 60 trials at
    (p, q) = (2, 2) and 10 at (2, 3) and (3, 2) (64 candidates; rings of
    Loewy length 4 are mostly rejected draws, hence the smaller budget)
    parses back to modules of the trial's dimensions and re-serializes
    byte for byte."""
    dims = []

    def vanishing(M, N, i):
        if i == 1:  # each trial's window, then its recheck
            dims.append((M.dim, N.dim))
        return True

    monkeypatch.setattr(explorer, "tor_vanishes", vanishing)
    count = 0
    for p, q, budget in ((2, 2, 60), (2, 3, 10), (3, 2, 10)):
        dims.clear()
        rep = explore(42, budget, cutoff=3, p=p, q=q)
        assert len(rep.candidates) == rep.trials
        for c, trial_dims in zip(rep.candidates, dims[::2], strict=True):
            ring, mods = parse_instance(c.dossier)
            assert (mods["M"].dim, mods["N"].dim) == trial_dims
            assert serialize_instance(ring, mods) == c.dossier
        count += len(rep.candidates)
    assert count == 64

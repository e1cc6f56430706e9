"""Randomized counterexample explorer.

Searches for pairs (M, N) with m^p M = 0 = m^q N over rings with
m^(p+q-1) != 0 whose Tor modules all vanish up to a cutoff.  For the
standard graded rings generated here no candidate should survive (the
graded case is a theorem), so a confirmed candidate is an engine bug.

Each trial draws a ring and two random presentations, and builds M and N
straight in R^n/m^p R^n and R^n/m^q R^n (modules.truncated_cokernel),
so neither cokernel is built in full first.  It then walks i = 1, 2, ...
with homology.tor_vanishes, the vanishing test the statements ask too,
and stops at the first nonzero Tor_i.

Determinism contract: identical (seed, budget, params, field) produce a
byte-identical machine report.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .homology import require_cutoff, tor_vanishes
from .instancefile import serialize_instance
from .linalg import GF101
from .modules import random_presentation, truncated_cokernel
from .ring import (
    GradedRing,
    NotArtinianError,
    PresentationError,
    RingPresentation,
    graded_pieces,
    monomials,
)

REJECTION_CAP = 100
LENGTH_CAP = 30  # largest lambda(R) a drawn ring may have


@dataclass
class Candidate:
    trial: int
    dossier: str  # serialized instance file
    confirmed: bool  # Tor still vanishes through twice the cutoff


@dataclass
class ExploreReport:
    seed: int
    budget: int
    cutoff: int
    p: int
    q: int
    trials: int = 0
    rejected_rings: int = 0
    histogram: dict = dfield(default_factory=dict)
    candidates: list = dfield(default_factory=list)
    vacuous: bool = False

    def machine_lines(self):
        lines = [
            f"explore.seed={self.seed}",
            f"explore.budget={self.budget}",
            f"explore.cutoff={self.cutoff}",
            f"explore.p={self.p}",
            f"explore.q={self.q}",
            f"explore.trials={self.trials}",
            f"explore.rejected_rings={self.rejected_rings}",
        ]
        if self.vacuous:
            lines.append("explore.vacuous=1")
            lines.append("explore.note=vacuously consistent: p=1 or q=1")
        if self.trials == 0 and self.rejected_rings:
            lines.append("explore.note=no ring reached Loewy length "
                         f"{self.p + self.q - 1}")
        for key in sorted(self.histogram):
            lines.append(f"explore.hist.{key}={self.histogram[key]}")
        lines.append(f"explore.candidates={len(self.candidates)}")
        for i, c in enumerate(self.candidates):
            lines.append(f"explore.candidate.{i}.trial={c.trial}")
            lines.append(f"explore.candidate.{i}.confirmed={int(c.confirmed)}")
        return lines

    @property
    def found_counterexample(self):
        return any(c.confirmed for c in self.candidates)


def random_ring(field, rng, h_min=3):
    """Random standard graded Artinian ring on 2 to 4 generators, with
    Loewy length >= h_min.

    Each generator gets a cubic guard relation x_i^3 so the quotient is
    always Artinian; random quadrics are layered on top and the draw is
    rejected if they crush R_3 or make lambda(R) exceed LENGTH_CAP (which
    keeps per-trial homology at desk scale).  Returns None after
    REJECTION_CAP tries.
    """
    for _ in range(REJECTION_CAP):
        e = int(rng.integers(2, 5))
        names = [f"x{i+1}" for i in range(e)]
        quad = monomials(e, 2)
        rels = []
        for i in range(e):
            exp = tuple(3 if j == i else 0 for j in range(e))
            rels.append({exp: 1})
        nquad = int(rng.integers(max(1, e - 2), e + 1))
        for _ in range(nquad):
            if field.p is not None:
                coeffs = rng.integers(0, field.p, size=len(quad))
            else:
                coeffs = rng.integers(-5, 6, size=len(quad))
            poly = {m: int(c) for m, c in zip(quad, coeffs) if int(c) != 0}
            if poly:
                rels.append(poly)
        pres = RingPresentation(field, names, rels)
        try:
            degrees, h = graded_pieces(pres)
        except (PresentationError, NotArtinianError):
            continue
        # reject on the Hilbert function, before the tables are built
        if h >= h_min and sum(len(deg[0]) for deg in degrees) <= LENGTH_CAP:
            return GradedRing(pres, degrees, h)
    return None


def _trial_modules(ring, rng, p, q):
    for _ in range(REJECTION_CAP):
        s1 = int(rng.integers(0, 2 ** 31))
        s2 = int(rng.integers(0, 2 ** 31))
        M = truncated_cokernel(ring, random_presentation(ring, s1), p)
        N = truncated_cokernel(ring, random_presentation(ring, s2), q)
        if M.is_zero() or N.is_zero() or M.is_free() or N.is_free():
            continue
        return M, N
    return None


def _first_nonzero(M, N, n):
    """The first i in [1, n] with Tor_i(M, N) != 0, or 0 if there is none."""
    return next((i for i in range(1, n + 1) if not tor_vanishes(M, N, i)), 0)


def explore(seed, budget, cutoff=12, p=2, q=2, field=None):
    """Run `budget` random trials; report the first-nonzero-Tor histogram
    and any candidate counterexamples (re-tested at doubled cutoff)."""
    require_cutoff(cutoff)
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    field = field or GF101
    report = ExploreReport(seed=seed, budget=budget, cutoff=cutoff, p=p, q=q)
    if p == 1 or q == 1:
        report.vacuous = True
        return report
    h_min = p + q - 1
    for trial in range(budget):
        rng = np.random.default_rng((seed, trial))
        ring = random_ring(field, rng, h_min=h_min)
        if ring is None:
            report.rejected_rings += 1
            continue
        pair = _trial_modules(ring, rng, p, q)
        if pair is None:
            report.rejected_rings += 1
            continue
        M, N = pair
        report.trials += 1
        key = _first_nonzero(M, N, cutoff)
        report.histogram[key] = report.histogram.get(key, 0) + 1
        if key == 0:
            confirmed = _first_nonzero(M, N, 2 * cutoff) == 0
            dossier = serialize_instance(ring, {"M": M, "N": N})
            report.candidates.append(Candidate(trial, dossier, confirmed))
    return report

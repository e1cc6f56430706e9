"""The benchmark's three workloads.

Each workload turns a seed into a list of independent operations (ops).
`build(seed)` is the set-up: it makes every input the ops need and
returns them as `Op`s, so the timed loop only runs `op.run()`.  An op
returns a one-line output string that is compared with the recorded
reference for its key, and raises `CheckFailed` when a seed-independent
check fails (a FAIL verdict, a confirmed explorer candidate, a broken
cross-check identity).

Op keys name the op's input, not its position, so one reference table
serves every seed whose ops fall inside the recorded range.  Calls into
socle go through module attributes, so the traced run's wrappers see
them.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from socle import explorer, homology, modules, ring, theorems
from socle.linalg import GF101, QQ

BENCH = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH, "reference")
SUITE_CUTOFF = 4  # at cutoff 5, S26 on agp alone takes about 40 s
EXPLORE_CUTOFF = 12
EXPLORE_POOL = 600  # trial seeds 0..599, recorded in reference/explore.json
# 150 strata of 4 pool seeds, one trial per stratum; frozen so that
# re-recording cannot move a trial from one stratum to another.  Read
# once: set-up only picks.
with open(os.path.join(BENCH, "explore_strata.json"), encoding="utf-8") as _fh:
    EXPLORE_STRATA = json.load(_fh)["strata"]
RATIONAL_CLASSES = 48  # 4 hosts x 3 degrees x 4 shape pairs
RATIONAL_QUERIES = 2 * RATIONAL_CLASSES
# (rows, cols) of the presentations; query class p pairs shape p for M
# with shape 3 - p for N.
RATIONAL_SHAPES = ((1, 1), (1, 2), (2, 2), (2, 3))
COEFF = 5  # coefficients in [-5, 5], random_module's range over Q
# Hosts over Q with lambda <= 4, so Fraction elimination stays affordable.
RATIONAL_HOSTS = (
    (["x"], ["x^4"]),
    (["x", "y"], ["x^2", "y^2"]),
    (["x", "y"], ["x^2", "x*y", "y^2"]),
    (["x", "y"], ["x^2 - y^2", "x*y"]),
)


class CheckFailed(Exception):
    """A seed-independent check on an op's output failed."""


@dataclass
class Op:
    key: str
    run: Callable[[], str]


def build_suite(seed):
    """Every statement on every instance of the canned corpus, in
    check_suite order (instance-major, registry order within)."""
    ids = [s.id for s in theorems.registry()]
    return [suite_op(sid, inst)
            for inst in theorems.canned_corpus(GF101, seed) for sid in ids]


def suite_op(sid, inst):
    def run():
        verdict = theorems.check(sid, inst, cutoff=SUITE_CUTOFF)
        if verdict.status == theorems.FAIL:
            raise CheckFailed(f"FAIL verdict: {verdict}")
        return str(verdict)
    return Op(f"{inst.provenance}/{inst.name}/{sid}", run)


def build_explore(seed):
    """150 explorer trials drawn from a fixed pool of trial
    seeds by stratified sampling: the seed picks one trial from each of
    the strata in explore_strata.json, which sort the pool by elimination
    work.  Every seed thus runs different trials with the same spread of
    sizes, so run-to-run spread measures the machine, not the draw."""
    rng = np.random.default_rng(seed)
    picks = sorted(stratum[int(rng.integers(len(stratum)))]
                   for stratum in EXPLORE_STRATA)
    return [explore_op(t) for t in picks]


def explore_op(t):
    def run():
        report = explorer.explore(t, budget=1, cutoff=EXPLORE_CUTOFF)
        if report.found_counterexample:
            raise CheckFailed("explorer candidate confirmed")
        # the first five lines echo the inputs (seed, budget, cutoff, p, q)
        lines = report.machine_lines()[5:]
        return ";".join(line.removeprefix("explore.") for line in lines)
    return Op(f"trial_seed={t}", run)


def build_rational(seed):
    """Queries seed, seed+1, ..., seed+RATIONAL_QUERIES-1 over Q."""
    hosts = rational_hosts()
    return [rational_op(hosts, t)
            for t in range(seed, seed + RATIONAL_QUERIES)]


def rational_hosts():
    return [ring.ring_from_strings(QQ, names, rels)
            for names, rels in RATIONAL_HOSTS]


def rational_op(hosts, t):
    """Query t: class t mod 48 fixes the host, the degree i in {1, 2, 3}
    and the presentation shapes of M and N; a generator seeded by t
    draws the coefficients.  RATIONAL_QUERIES is a multiple of 48, so
    every seed runs each class equally often and seeds differ in the
    numbers far more than in the amount of work.  Each query gets its
    own module objects: no resolution is shared between ops."""
    c = t % RATIONAL_CLASSES
    host = hosts[c % 4]
    i = 1 + (c // 4) % 3
    pair = c // 12
    rng = np.random.default_rng(t)
    M = _random_cokernel(host, RATIONAL_SHAPES[pair], rng)
    N = _random_cokernel(host, RATIONAL_SHAPES[3 - pair], rng)

    def run():
        tor_mn = homology.tor_dim(M, N, i)
        tor_nm = homology.tor_dim(N, M, i)
        ext_dual = homology.ext_dim(M, N, i)
        ext_hom = homology.ext_dim_direct(M, N, i)
        if tor_mn != tor_nm:
            raise CheckFailed(f"Tor_{i} not symmetric: {tor_mn} != {tor_nm}")
        if ext_dual != ext_hom:
            raise CheckFailed(f"Ext^{i} routes differ: {ext_dual} != {ext_hom}")
        return f"i={i} dimM={M.dim} dimN={N.dim} tor={tor_mn} ext={ext_dual}"
    return Op(f"query={t}", run)


def _random_cokernel(host, shape, rng):
    """Cokernel of a rows x cols matrix drawn as random_module draws it
    over Q (entries combine the degree-1 and degree-2 basis elements with
    coefficients in [-5, 5]), but with the shape fixed by the caller."""
    rows, cols = shape
    F = host.field
    pres = F.zeros((rows, cols, host.length))
    for b, (d, _) in enumerate(host.basis):
        if 1 <= d <= 2:
            for r in range(rows):
                for c in range(cols):
                    coeff = int(rng.integers(-COEFF, COEFF + 1))
                    pres[r, c, b] = F.scalar(coeff)
    return modules.from_presentation(host, pres)


WORKLOADS = {
    "suite": build_suite,
    "explore": build_explore,
    "rational": build_rational,
}
DEFAULT_SEEDS = {"suite": 7, "explore": 42, "rational": 0}

"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the socle modules at run time, from
the benchmark's side: src/ is not edited.  Every call into a wrapped
function records one span [name, start, end, parent, op] in a list kept
in memory; `write` dumps the list once the run is over.  Self time of a
span is its duration minus the durations of its direct children, which
exactly covers the interval its children occupy because calls nest on
one thread.

A few wrappers also count properties of their inputs or results (matrix
cells, nonzeros, repeated Tor keys, verdict statuses) at the same
boundary, so ratios are measured where the work happens.  That probing
runs outside the wrapped span, so its cost lands in the parent's self
time and in trace.overhead_ratio, never in the probed layer.
"""

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.  Names are the per-layer metric
# prefixes; two functions sharing a name share a metric.
FUNCTIONS = {
    ("socle.linalg", "rref"): "linalg.rref",
    ("socle.linalg", "rank"): "linalg.rank",
    ("socle.linalg", "kernel_basis"): "linalg.kernel",
    ("socle.linalg", "kernel_subspace"): "linalg.kernel",
    ("socle.ring", "build_ring"): "ring.build_ring",
    ("socle.modules", "from_presentation"): "modules.from_presentation",
    ("socle.modules", "quotient_module"): "modules.quotient_module",
    ("socle.modules", "syzygy"): "modules.syzygy",
    ("socle.modules", "random_module"): "modules.random_module",
    ("socle.modules", "tensor_over_R"): "modules.tensor_hom",
    ("socle.modules", "hom_over_R"): "modules.tensor_hom",
    ("socle.homology", "tor_dim"): "homology.tor_dim",
    ("socle.homology", "realize"): "homology.realize",
    ("socle.homology", "ext_dim_direct"): "homology.ext_dim_direct",
    ("socle.homology", "tor_induced_k"): "homology.tor_induced_k",
    ("socle.theorems", "check"): "theorems.check",
    ("socle.explorer", "random_ring"): "explorer.random_ring",
    ("socle.explorer", "explore"): "explorer.explore",
}

SUBSPACE_METHODS = (
    "from_rows", "full", "reduce", "contains", "contains_space", "coords",
    "add", "intersect", "complement_coords", "projection", "section",
)

# (module, class, method) -> span name
METHODS = {
    ("socle.linalg", "Subspace", m): "linalg.subspace" for m in SUBSPACE_METHODS
}
METHODS[("socle.modules", "FiniteModule", "msub")] = "modules.msub"
METHODS[("socle.homology", "Resolution", "extend")] = "homology.extend"

LAYERS = sorted(set(FUNCTIONS.values()) | set(METHODS.values()))
FIRST_NONZERO_MAX = 12  # the explore workload's cutoff
VERDICTS = ("PASS", "FAIL", "VACUOUS", "NO_COUNTEREXAMPLE")


def per_layer_names():
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        if layer == "linalg.rref":
            names += ["linalg.rref.cells", "linalg.rref.max_cells",
                      "linalg.rref.nnz_ratio"]
        elif layer == "linalg.rank":
            names.append("linalg.rank.zero_input_ratio")
        elif layer == "homology.tor_dim":
            names.append("homology.tor_dim.repeat_ratio")
        elif layer == "homology.realize":
            names.append("homology.realize.max_cells")
    names.append("explorer.ring_accept_ratio")
    names += [f"explorer.first_nonzero.{i}" for i in range(FIRST_NONZERO_MAX + 1)]
    names += [f"theorems.verdict.{v}" for v in VERDICTS]
    names.append("trace.overhead_ratio")
    return names


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """Records spans while installed; `pass_table` turns them into metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self._tor_keys = set()
        self._patches = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def install(self):
        """Swap every traced function for its wrapper, in every socle
        module that bound it by name (`from .linalg import rref`)."""
        mods = [m for k, m in sys.modules.items()
                if k == "socle" or k.startswith("socle.")]
        for (modname, attr), name in FUNCTIONS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, val, wrapper)
        for (modname, clsname, attr), name in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
            self._patch(cls, attr, raw, wrapper)

    def _patch(self, owner, attr, orig, new):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def begin_pass(self):
        """Forget the spans and counts of the previous traced pass."""
        self.spans.clear()
        self.counts.clear()
        self._tor_keys.clear()
        self.op = -1

    # -- reporting -----------------------------------------------------

    def pass_table(self):
        """Per-layer metrics of the spans recorded since begin_pass."""
        child = [0.0] * len(self.spans)
        calls, self_s = Counter(), Counter()
        ring_builds = 0
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
            if (name == "ring.build_ring" and parent >= 0
                    and self.spans[parent][0] == "explorer.random_ring"):
                ring_builds += 1
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = float(self_s[layer])
        out["linalg.rref.cells"] = c["rref.cells"]
        out["linalg.rref.max_cells"] = c["rref.max_cells"]
        out["linalg.rref.nnz_ratio"] = _ratio(c["rref.nnz"], c["rref.cells"])
        out["linalg.rank.zero_input_ratio"] = _ratio(c["rank.zero"],
                                                     calls["linalg.rank"])
        out["homology.tor_dim.repeat_ratio"] = _ratio(
            c["tor_dim.repeat"], calls["homology.tor_dim"])
        out["homology.realize.max_cells"] = c["realize.max_cells"]
        out["explorer.ring_accept_ratio"] = _ratio(c["random_ring.accepted"],
                                                   ring_builds)
        for i in range(FIRST_NONZERO_MAX + 1):
            out[f"explorer.first_nonzero.{i}"] = c[f"first_nonzero.{i}"]
        for v in VERDICTS:
            out[f"theorems.verdict.{v}"] = c[f"verdict.{v}"]
        return out

    def write(self, path, passes):
        """Write every traced pass's spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for p, spans in enumerate(passes):
                for name, start, end, parent, op in spans:
                    fh.write(json.dumps([p, name, start, end, parent, op]))
                    fh.write("\n")


def _ratio(num, den):
    return num / den if den else 0.0


# -- probes: count properties of inputs and results at the boundary -----


def _rref_in(tr, args):
    m = args[1]
    cells = int(np.size(m))
    tr.counts["rref.cells"] += cells
    tr.counts["rref.nnz"] += int(np.count_nonzero(m))
    if cells > tr.counts["rref.max_cells"]:
        tr.counts["rref.max_cells"] = cells


def _rank_in(tr, args):
    m = args[1]
    if m.size and not np.any(m):  # a zero matrix that still gets reduced
        tr.counts["rank.zero"] += 1


def _tor_in(tr, args):
    key = tuple(args[:3])  # modules hash by identity; the set keeps them alive
    if key in tr._tor_keys:
        tr.counts["tor_dim.repeat"] += 1
    else:
        tr._tor_keys.add(key)


def _realize_in(tr, args):
    rows, cols, _ = args[1].shape
    n = args[2].dim
    cells = rows * n * cols * n
    if cells > tr.counts["realize.max_cells"]:
        tr.counts["realize.max_cells"] = cells


def _random_ring_out(tr, ring):
    if ring is not None:
        tr.counts["random_ring.accepted"] += 1


def _explore_out(tr, report):
    for key, count in report.histogram.items():
        tr.counts[f"first_nonzero.{key}"] += count


def _check_out(tr, verdict):
    tr.counts[f"verdict.{verdict.status}"] += 1


_BEFORE = {
    "linalg.rref": _rref_in,
    "linalg.rank": _rank_in,
    "homology.tor_dim": _tor_in,
    "homology.realize": _realize_in,
}
_AFTER = {
    "explorer.random_ring": _random_ring_out,
    "explorer.explore": _explore_out,
    "theorems.check": _check_out,
}

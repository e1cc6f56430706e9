"""socle benchmark: one workload, one process, outputs checked.

    python3 bench/run.py --workload suite|explore|rational --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  A pass builds the workload's
inputs from the seed (set-up) and then runs its ops in a closed loop,
one after another on this one thread.  Passes repeat, each from fresh
inputs, until --seconds of passes have run.

--trace 0 prints the end-to-end metrics: setup_s (the median import
time of five fresh interpreters plus the median of at least nine
set-ups), wall_s (median time to run all ops of a pass) and
peak_rss_mb.
--trace 1 alternates an untraced and a traced pass, prints the per-layer
metrics of the traced passes (medians) with trace.overhead_ratio, and
writes the spans to .bench_out/.

Every op's output is compared with bench/reference/<workload>.json
where the reference has its key, and must be identical in every pass.
The last line of stdout is the result JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# One process, no extra threads: every BLAS/OpenMP pool is capped at 1,
# which is within nproc on any machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREAD_CAP = 1
# A run never starts a pass it could not finish in this many seconds.
RUN_LIMIT_S = 150.0
MIN_SETUPS = 9  # setup_s takes the median of at least this many set-ups
IMPORT_SAMPLES = 5  # and the median import time of this many interpreters
# Times the imports a run makes, in a fresh interpreter whose sys.path
# starts with the arguments.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("suite", "explore", "rational"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import socle from ./src; exit 2 without a result if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "socle", "__init__.py")):
        sys.exit(f"bench: no program at {SRC}/socle; run from a socle checkout")
    sys.path.insert(0, SRC)
    import socle

    here = os.path.realpath(os.path.dirname(socle.__file__))
    if here != os.path.realpath(os.path.join(SRC, "socle")):
        sys.exit(f"bench: imported socle from {here}, not from {SRC}")


def environment(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of ROOT's own .git, read directly (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_digest():
    """SHA-256 over src/socle's files, naming the code when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "socle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def import_seconds():
    """Median time to import the program and the workloads, each sample
    in a fresh interpreter, so that no module is cached yet."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, BENCH, SRC], cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def load_reference(workload):
    with open(os.path.join(BENCH, "reference", f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


class Pass:
    """One set-up plus one closed-loop sweep over the ops."""

    def __init__(self, build, seed, tracer=None):
        from workloads import CheckFailed

        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
        try:
            t = perf_counter()
            ops = build(seed)
            self.setup_s = perf_counter() - t
            self.keys = [op.key for op in ops]
            self.outputs, self.failed = [], set()
            start = perf_counter()
            for k, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = k
                try:
                    out = op.run()
                except CheckFailed as exc:
                    out = f"check failed: {exc}"
                    self.failed.add(k)
                except Exception as exc:  # an op that raises is a failed op
                    traceback.print_exc(file=sys.stderr)
                    out = f"raised {type(exc).__name__}: {exc}"
                    self.failed.add(k)
                self.outputs.append(out)
            self.wall_s = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.table = tracer.pass_table() if tracer is not None else None
        self.spans = list(tracer.spans) if tracer is not None else None


def check_pass(p, reference, first):
    """Mark ops whose output differs from the reference or from the
    first pass.  Returns the number of reference comparisons made."""
    compared = 0
    for k, (key, out) in enumerate(zip(p.keys, p.outputs)):
        if key in reference:
            compared += 1
            if out != reference[key]:
                p.failed.add(k)
                print(f"bench: {key}: {out!r} != reference "
                      f"{reference[key]!r}", file=sys.stderr)
        if out != first.outputs[k]:
            p.failed.add(k)
            print(f"bench: {key}: output changed between passes: "
                  f"{first.outputs[k]!r} -> {out!r}", file=sys.stderr)
    return compared


def main():
    args = parse_args()
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    import_program()
    import workloads
    import spans

    seed = args.seed
    if seed is None:
        seed = workloads.DEFAULT_SEEDS[args.workload]
    build = workloads.WORKLOADS[args.workload]
    reference = load_reference(args.workload)
    tracer = spans.Tracer() if args.trace else None

    plain, traced = [], []
    begin = perf_counter()
    while True:
        t = perf_counter()
        plain.append(Pass(build, seed))
        if tracer is not None:
            traced.append(Pass(build, seed, tracer))
        elapsed = perf_counter() - begin
        if elapsed >= args.seconds:
            break
        if elapsed + (perf_counter() - t) > RUN_LIMIT_S:
            break

    compared = 0
    for p in plain + traced:
        compared += check_pass(p, reference, plain[0])
    attempted = sum(len(p.outputs) for p in plain + traced)
    failed = sum(len(p.failed) for p in plain + traced)

    if tracer is None:
        setups = [p.setup_s for p in plain]
        while len(setups) < MIN_SETUPS:
            t = perf_counter()
            build(seed)
            setups.append(perf_counter() - t)
        values = {
            "setup_s": import_seconds() + statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics = {}
        for name in spans.per_layer_names():
            if name == "trace.overhead_ratio":
                value = (statistics.median(p.wall_s for p in traced)
                         / statistics.median(p.wall_s for p in plain))
            else:
                value = statistics.median(p.table[name] for p in traced)
            metrics[name] = {"value": value, "unit": spans.unit_of(name)}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{seed}.jsonl.gz")
        tracer.write(path, [p.spans for p in traced])
        print(f"bench: spans written to {os.path.relpath(path, ROOT)}",
              file=sys.stderr)

    info = environment(seed)
    info.update(workload=args.workload, trace=args.trace,
                passes=len(plain) + len(traced),
                ops_per_pass=len(plain[0].outputs),
                reference_comparisons=compared,
                error_rate=failed / attempted)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

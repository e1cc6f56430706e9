"""Record the reference outputs the benchmark checks ops against.

    python3 bench/record_reference.py

Writes bench/reference/{suite,explore,rational}.json: the canned suite
instances (which every seed runs), the random suite instances of seeds
[0, SUITE_SEEDS), the whole explore pool, and the rational queries of
seeds [0, RATIONAL_SEEDS).  Only outputs are written: the explore
strata in bench/explore_strata.json stay as they are.  Re-record only when a change is meant to alter
the program's answers, and say so.  Every op must pass its
seed-independent checks while recording.
"""

import json
import os
import sys

import run

run.import_program()
import workloads  # noqa: E402


SUITE_SEEDS = 10  # each seed adds 116 verdicts
RATIONAL_SEEDS = 100


def outputs_of(ops):
    return {op.key: op.run() for op in ops}  # a CheckFailed aborts recording


def record():
    suite = {}
    for seed in range(SUITE_SEEDS):
        ops = workloads.build_suite(seed)
        if seed:  # canned instances do not depend on the seed
            ops = [op for op in ops if not op.key.startswith("canned/")]
        suite.update(outputs_of(ops))
    hosts = workloads.rational_hosts()
    rational = outputs_of(
        workloads.rational_op(hosts, t)
        for t in range(RATIONAL_SEEDS - 1 + workloads.RATIONAL_QUERIES))
    explore = outputs_of(
        workloads.explore_op(t) for t in range(workloads.EXPLORE_POOL))
    return {"suite": suite, "explore": explore, "rational": rational}


def main():
    for name, outputs in record().items():
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"outputs": outputs, "workload": name,
                       "commit": run.git_commit(),
                       "src_sha256": run.src_digest()},
                      fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(outputs)} outputs -> "
              f"{os.path.relpath(path)}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Command-line surface.

Commands: invariants | betti | tor | ext | check | suite | explore |
example.  Reports are human-readable by default; --machine switches to a
deterministic key=value stream.  Exit codes: 0 ok / PASS / VACUOUS,
1 FAIL or candidate counterexample, 2 usage or parse error.
"""

import argparse
import os
import sys

from .explorer import explore
from .homology import betti_numbers, ext_dim, tor_dim
from .instancefile import (
    ParseError, parse_instance, serialize_instance, _parse_field)
from .ring import NotArtinianError, PresentationError
from .theorems import (
    DEFAULT_CUTOFF, FAIL, Instance, _statement, agp_example, canned_corpus,
    check, check_suite, registry)

EXAMPLES = {"agp": agp_example}


class UsageError(Exception):
    pass


def _default_cutoff():
    raw = os.environ.get("SOCLE_CUTOFF")
    if raw is None:
        return DEFAULT_CUTOFF
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"bad SOCLE_CUTOFF value {raw!r}")


def _default_field(flag_value):
    raw = flag_value or os.environ.get("SOCLE_FIELD")
    if raw is None:
        return None
    return _parse_field(raw, None)


def _load(path, field_flag):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(str(exc))
    return parse_instance(text, default_field=_default_field(field_flag))


def _emit(args, lines, human):
    if args.machine:
        for line in lines:
            print(line)
    else:
        for line in human:
            print(line)


def _instance_from(ring, modules, name="file"):
    return Instance(name, ring, dict(modules), provenance="file")


def _check_ids(ids):
    """Unknown ids are a usage error; a KeyError a statement raises is not."""
    try:
        for sid in ids:
            _statement(sid)
    except KeyError as exc:
        raise UsageError(exc.args[0])


def _get_module(ring, modules, name):
    inst = _instance_from(ring, modules)
    try:
        return inst.module(name)
    except KeyError as exc:
        raise UsageError(exc.args[0])


def cmd_invariants(args):
    ring, modules = _load(args.file, args.field)
    inv = ring.invariants()
    machine = [f"ring.{k}={int(v) if isinstance(v, bool) else v}"
               for k, v in inv.items()]
    machine.append("ring.hilbert=" + ",".join(str(n) for n in ring.hilbert))
    human = [f"{k} = {v}" for k, v in inv.items()]
    human.append(f"hilbert = {ring.hilbert}")
    for name, mod in modules.items():
        machine.append(f"module.{name}.length={mod.dim}")
        machine.append(f"module.{name}.nu={mod.min_gens()}")
        human.append(f"module {name}: length {mod.dim}, {mod.min_gens()} generators")
    _emit(args, machine, human)
    return 0


def cmd_betti(args):
    ring, modules = _load(args.file, args.field)
    mod = _get_module(ring, modules, args.module)
    b = betti_numbers(mod, args.to)
    machine = [f"betti.{args.module}.{i}={v}" for i, v in enumerate(b)]
    human = [f"b_{i}({args.module}) = {v}" for i, v in enumerate(b)]
    _emit(args, machine, human)
    return 0


def _pairing(args, fn, label):
    ring, modules = _load(args.file, args.field)
    left = _get_module(ring, modules, args.left)
    right = _get_module(ring, modules, args.right)
    dims = [fn(left, right, i) for i in range(args.to + 1)]
    machine = [f"{label}.{args.left}.{args.right}.{i}={v}"
               for i, v in enumerate(dims)]
    sym = "^" if label == "ext" else "_"
    human = [f"{label.capitalize()}{sym}{i}({args.left},{args.right}) = {v}"
             for i, v in enumerate(dims)]
    _emit(args, machine, human)
    return 0


def cmd_tor(args):
    return _pairing(args, tor_dim, "tor")


def cmd_ext(args):
    return _pairing(args, ext_dim, "ext")


def cmd_check(args):
    ring, modules = _load(args.file, args.field)
    _check_ids([args.statement])
    verdict = check(args.statement, _instance_from(ring, modules),
                    cutoff=args.to)
    machine = [
        f"check.{verdict.statement}.status={verdict.status}",
        f"check.{verdict.statement}.cutoff={verdict.cutoff}",
    ]
    for k, v in sorted(verdict.data.items()):
        machine.append(f"check.{verdict.statement}.{k}={v}")
    human = [str(verdict)]
    if verdict.counterexample:
        human += ["counterexample:", verdict.counterexample]
        machine.append(f"check.{verdict.statement}.counterexample=1")
    _emit(args, machine, human)
    return 1 if verdict.status == FAIL else 0


def cmd_suite(args):
    if args.file:
        ring, modules = _load(args.file, args.field)
        corpus = [_instance_from(ring, modules)]
    else:
        corpus = canned_corpus(field=_default_field(args.field))
    ids = args.statement.split(",") if args.statement else \
        [s.id for s in registry()]
    _check_ids(ids)
    report = check_suite(corpus, ids, cutoff=args.to)
    machine = []
    human = []
    for name, v in report.verdicts:
        machine.append(f"suite.{name}.{v.statement}={v.status}")
        human.append(f"{name:>20}  {v}")
    counts = report.counts
    for k in sorted(counts):
        machine.append(f"suite.count.{k}={counts[k]}")
    human.append("; ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    _emit(args, machine, human)
    return 1 if report.failed else 0


def cmd_explore(args):
    if args.budget < 0:
        raise UsageError("budget must be >= 0")
    if args.p < 1 or args.q < 1:
        raise UsageError("p and q must be >= 1")
    report = explore(args.seed, args.budget, cutoff=args.to,
                     p=args.p, q=args.q,
                     field=_default_field(args.field))
    machine = report.machine_lines()
    human = list(machine)
    for c in report.candidates:
        human += [f"candidate at trial {c.trial} "
                  f"(confirmed: {c.confirmed}):", c.dossier]
    _emit(args, machine, human)
    return 1 if report.found_counterexample else 0


def cmd_example(args):
    if args.name not in EXAMPLES:
        raise UsageError(f"unknown example {args.name!r}; have: "
                         + ", ".join(sorted(EXAMPLES)))
    ring, mod = EXAMPLES[args.name]()
    inst = _instance_from(ring, {"M": mod}, name=args.name)
    omega = inst.module("omega")
    b = betti_numbers(mod, args.to)
    tors = [tor_dim(mod, omega, i) for i in range(1, args.to + 1)]
    machine = ["example.name=" + args.name]
    machine += [f"ring.{k}={int(v) if isinstance(v, bool) else v}"
                for k, v in ring.invariants().items()]
    machine += [f"betti.M.{i}={v}" for i, v in enumerate(b)]
    machine += [f"tor.M.omega.{i}={v}" for i, v in enumerate(tors, start=1)]
    human = [serialize_instance(ring, {"M": mod}).rstrip(), "",
             f"hilbert = {ring.hilbert}",
             f"betti(M) = {b}",
             f"tor(M, omega) on [1,{args.to}] = {tors}"]
    _emit(args, machine, human)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="socle",
        description="Exact homological algebra over graded Artinian algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by the subcommands, each declared once
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--to", type=int, default=None,
                        help=f"homological cutoff (default {DEFAULT_CUTOFF})")
    report.add_argument("--machine", action="store_true",
                        help="key=value report")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default=None, help="GF(p) or Q")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("file", help="instance file path")
    on_file = [instance, report, field]

    p = sub.add_parser("invariants", help="ring and module invariants",
                       parents=on_file)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("betti", help="Betti numbers of a module",
                       parents=on_file)
    p.add_argument("--module", default="M")
    p.set_defaults(fn=cmd_betti)

    for name, fn in (("tor", cmd_tor), ("ext", cmd_ext)):
        p = sub.add_parser(name, help=f"{name} dimensions of a pair",
                           parents=on_file)
        p.add_argument("--left", default="M")
        p.add_argument("--right", default="N")
        p.set_defaults(fn=fn)

    p = sub.add_parser("check", help="evaluate one statement", parents=on_file)
    p.add_argument("--statement", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("suite", help="evaluate statements over a corpus",
                       parents=[report, field])
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--statement", default=None,
                   help="comma-separated statement ids")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("explore", help="randomized counterexample search",
                       parents=[report, field])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("example", help="run a canned example",
                       parents=[report])
    p.add_argument("name")
    p.set_defaults(fn=cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.to is None:
            args.to = _default_cutoff()
        if args.to < 1:
            raise UsageError("cutoff must be >= 1")
        return args.fn(args)
    except (UsageError, ParseError, PresentationError, NotArtinianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

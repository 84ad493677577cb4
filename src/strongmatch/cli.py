"""Command line front end.

Subcommands: stats, match, exact, verify, gen, fuzz.  Input files are
edge-list or DIMACS ("-" reads standard input); all results go to standard
output (one JSON object with --json), diagnostics to standard error.

Exit codes are a stable contract: 0 success, 1 guarantee or verification
violation, 2 input error, 3 resource budget exceeded.

main runs each request with the cyclic garbage collector off, because a
request makes no reference cycles, and puts the caller's setting back.

The gen names and fuzz families live in one table each, which both the
parser's choices and the command read.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from math import ceil
from typing import Optional

from .generators import (
    SplitMix64,
    gen_c5_blowup,
    gen_extremal_cubic,
    gen_k33plus,
    gen_odd_regular_extremal,
    gen_random_cubic,
    gen_random_forest,
    gen_random_girth6,
    gen_random_subcubic,
)
from .certify import (
    BoundReport,
    _audit,
    _bound_report,
    count_invariants,
    verify_induced_matching,
)
from .graph import Graph, GraphError, _walk_components, parse_graph, write_edge_list
from .greedy import (
    forest_greedy_induced_matching,
    girth6_induced_matching,
    greedy_induced_matching,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    exact_strong_matching_number,
)
from .reduction import (
    LedgerViolationError,
    _edges_text,
    _format_audited,
    find_induced_matching_subcubic,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for "-".  A file's bytes that are
    not UTF-8 become surrogate escapes, which the parsers reject with their
    line; stdin decodes as Python set it up, and a failure is bad input."""
    if path == "-":
        try:
            return sys.stdin.read()
        except UnicodeDecodeError as e:
            raise _CliError(EXIT_INPUT, f"-: {e}") from None
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.read()
    except OSError as e:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {e}") from None


def _load_graph(path: str, fmt: str) -> Graph:
    try:
        return parse_graph(_read_text(path), fmt)
    except GraphError as e:
        raise _CliError(EXIT_INPUT, f"{path}: {e}") from None


def _girth_repr(gi: Optional[int]):
    return "acyclic" if gi is None else gi


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n" if lines else "")


def _print_record(record: dict, as_json: bool) -> None:
    """Print record as one JSON object, or as one key=value line for each
    field that is not None."""
    if as_json:
        print(json.dumps(record))
    else:
        _emit([f"{key}={value}" for key, value in record.items() if value is not None])


# -- stats ------------------------------------------------------------------


def cmd_stats(args) -> int:
    g = _load_graph(args.input, args.format)
    rep = count_invariants(g)
    record = {
        "n": rep.n,
        "m": rep.m,
        "i": rep.isolated,
        "n33plus": rep.n33plus,
        "max_degree": rep.max_degree,
        "min_degree": g.min_degree(),
        "girth": _girth_repr(rep.girth),
        "components": sum(1 for _ in _walk_components(g.adj)),
    }
    _print_record(record, args.json)
    return EXIT_OK


# -- match ------------------------------------------------------------------

_METHODS = ("reduction", "greedy", "forest", "girth6")


def _certify(g: Graph, method: str, rep: BoundReport):
    """Run one method on g and check its result without trusting it.

    Returns ``(matching, bound, witness, audit, trace)``: the method's
    matching; its guaranteed size, read from ``rep`` only once the method
    has returned (the forest and girth-6 methods raise GraphError on exactly
    the graphs whose bound is None); verify_induced_matching's witness, None
    when the matching is induced; and for the reduction, its trace and the
    trace's one _audit (ledger verdict and the bound recomputed from rep's
    census of g, not from the engine's), both None for the other methods.
    A method's GraphError propagates; a matching edge that is not an edge
    of g raises _CliError with the violation exit code.
    """
    trace = audit = None
    if method == "reduction":
        matching, trace = find_induced_matching_subcubic(g)
        bound = rep.thm2_bound
        audit = _audit(trace, (rep.isolated, rep.n33plus))
    elif method == "greedy":
        matching = greedy_induced_matching(g)
        bound = ceil(rep.greedy_general_bound)
    elif method == "forest":
        matching = forest_greedy_induced_matching(g)
        bound = ceil(rep.greedy_forest_bound)
    else:
        matching = girth6_induced_matching(g)
        bound = rep.prop1_bound
    try:
        witness = verify_induced_matching(g, matching)
    except GraphError as e:
        raise _CliError(EXIT_VIOLATION, f"{method}: invalid matching: {e}") from e
    return matching, bound, witness, audit, trace


def cmd_match(args) -> int:
    g = _load_graph(args.input, args.format)
    if args.json:
        rep = count_invariants(g)
    else:
        # text output shows only the method's bound, which may be taken as
        # for an acyclic graph: the forest method accepts nothing else, the
        # girth-6 method checks the girth itself and rejects girth < 6, and
        # the reduction and greedy bounds ignore the girth
        rep = _bound_report(g, None)
    matching, bound, witness, audit, trace = _certify(g, args.method, rep)
    verified = witness is None
    ok = verified and len(matching) >= bound and (audit is None or audit[0].ok)
    if args.json:
        obj = {
            "n": rep.n,
            "m": rep.m,
            "i": rep.isolated,
            "n33plus": rep.n33plus,
            "girth": _girth_repr(rep.girth),
            "bound_thm1": rep.thm1_bound,
            "bound_thm2": rep.thm2_bound,
            "bound_prop1": rep.prop1_bound,
            "bound": bound,
            "matching": matching,
            "size": len(matching),
            "verified": verified,
        }
        if args.trace:
            obj["trace"] = (
                None
                if trace is None
                else [
                    {
                        "rule": s.rule,
                        "removed": s.removed,
                        "added": s.added,
                        "isolated": s.isolated_created,
                    }
                    for s in trace.steps
                ]
            )
        print(json.dumps(obj))
    else:
        lines = []
        if args.trace and audit is not None:
            lines.extend(_format_audited(trace, audit))
        lines.extend([
            f"matching={_edges_text(matching)}",
            f"size={len(matching)}",
            f"bound={bound}",
            f"verified={str(verified).lower()}",
        ])
        _emit(lines)
    if not ok:
        print("guarantee or verification failure", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# -- exact ------------------------------------------------------------------


def cmd_exact(args) -> int:
    if args.budget < 0:
        raise _CliError(EXIT_INPUT, f"--budget must be >= 0, got {args.budget}")
    g = _load_graph(args.input, args.format)
    value, witness = exact_strong_matching_number(g, args.budget)
    verified = verify_induced_matching(g, witness) is None and len(witness) == value
    if args.json:
        obj = {
            "n": g.n,
            "m": g.m,
            "size": value,
            "matching": witness,
            "verified": verified,
        }
        print(json.dumps(obj))
    else:
        _emit([
            f"size={value}",
            f"matching={_edges_text(witness)}",
            f"verified={str(verified).lower()}",
        ])
    return EXIT_OK if verified else EXIT_VIOLATION


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    g = _load_graph(args.input, args.format)
    mg = _load_graph(args.matching, "edge-list")
    witness = verify_induced_matching(g, mg.edges)
    if args.json:
        obj = {
            "verified": witness is None,
            "witness": witness,
        }
        print(json.dumps(obj))
    else:
        if witness is None:
            print("valid")
        else:
            print(f"invalid witness={witness[0]},{witness[1]}")
    return EXIT_OK if witness is None else EXIT_VIOLATION


# -- gen --------------------------------------------------------------------


# name -> (generator, the options it takes in order); the header comment
# names the same options in the same order
_GENERATORS = {
    "k33plus": (gen_k33plus, ()),
    "extremal-cubic": (gen_extremal_cubic, ()),
    "c5-blowup": (gen_c5_blowup, ("delta",)),
    "odd-regular": (gen_odd_regular_extremal, ("delta",)),
    "random-subcubic": (gen_random_subcubic, ("n", "target_m", "seed")),
    "random-cubic": (gen_random_cubic, ("n", "seed")),
    "random-girth6": (gen_random_girth6, ("n", "max_degree", "seed")),
    "random-forest": (gen_random_forest, ("n", "seed")),
}


def cmd_gen(args) -> int:
    if args.target_m is None:
        args.target_m = (3 * args.n) // 2
    elif args.target_m < 0:
        raise _CliError(EXIT_INPUT, f"--target-m must be >= 0, got {args.target_m}")
    generate, options = _GENERATORS[args.name]
    if "delta" in options and args.delta is None:
        raise _CliError(EXIT_INPUT, f"{args.name} requires --delta")
    values = [getattr(args, option) for option in options]
    g = generate(*values)
    comments = [" ".join([f"gen={args.name}", *map("{}={}".format, options, values)])]
    if generate is gen_odd_regular_extremal:
        # this generator also returns comment lines recording its attachment
        g, extra = g
        comments.extend(extra)
    sys.stdout.write(write_edge_list(g, comments))
    return EXIT_OK


# -- fuzz -------------------------------------------------------------------

ORACLE_FUZZ_EDGE_CAP = 25


# family -> its instance of a size and seed; a family's own parameters are
# drawn from the instance's SplitMix64
_FUZZ_FAMILIES = {
    "subcubic": lambda size, seed, rng: gen_random_subcubic(
        size, rng.below(3 * size // 2 + 1), seed
    ),
    "cubic": lambda size, seed, rng: gen_random_cubic(max(4, size + size % 2), seed),
    "girth6": lambda size, seed, rng: gen_random_girth6(size, 2 + rng.below(4), seed),
    "forest": lambda size, seed, rng: gen_random_forest(size, seed),
}


def _fuzz_instance(family: str, size: int, instance_seed: int) -> list[str]:
    """Build one instance, run the applicable algorithms, return failures."""
    g = _FUZZ_FAMILIES[family](size, instance_seed, SplitMix64(instance_seed))
    problems: list[str] = []
    rep = count_invariants(g)
    # the reduction runs, and thm2 is a guarantee, only for max degree <= 3
    subcubic = rep.max_degree <= 3
    methods = ["reduction"] if subcubic else []
    methods.append("greedy")
    # a family that shares its name with a method (forest, girth6) runs it
    if family in _METHODS:
        methods.append(family)
    sizes: list[tuple[str, int]] = []
    for method in methods:
        try:
            matching, bound, witness, audit, _ = _certify(g, method, rep)
        except GraphError as e:
            problems.append(f"{method}: precondition unexpectedly failed: {e}")
            continue
        except _CliError as e:
            problems.append(str(e))
            continue
        got = len(matching)
        if audit is not None and not audit[0].ok:
            problems.append(
                f"reduction: ledger check failed at step {audit[0].violation_step}"
            )
        if witness is not None:
            problems.append(f"{method}: invalid matching, witness {witness}")
        if got < bound:
            problems.append(f"{method}: size {got} below bound {bound}")
        if method == "reduction" and g.is_cubic() and got < rep.thm1_bound:
            problems.append(f"reduction: size {got} below cubic bound {rep.thm1_bound}")
        sizes.append((method, got))
    if g.m <= ORACLE_FUZZ_EDGE_CAP:
        exact, _ = exact_strong_matching_number(g)
        for method, got in sizes:
            if got > exact:
                problems.append(f"{method}: size {got} exceeds exact value {exact}")
        for bname, b in (
            ("thm1", rep.thm1_bound),
            ("thm2", rep.thm2_bound if subcubic else None),
            ("prop1", rep.prop1_bound),
        ):
            if b is not None and b > exact:
                problems.append(f"bound {bname}={b} exceeds exact value {exact}")
    return problems


def cmd_fuzz(args) -> int:
    if min(args.count, args.size) < 0:
        raise _CliError(EXIT_INPUT, "--count and --size must be >= 0")
    passed = 0
    failed = 0
    first_failure: Optional[int] = None
    for i in range(args.count):
        instance_seed = args.seed + i
        problems = _fuzz_instance(args.family, args.size, instance_seed)
        if problems:
            failed += 1
            if first_failure is None:
                first_failure = instance_seed
                for p in problems:
                    print(f"seed {instance_seed}: {p}", file=sys.stderr)
        else:
            passed += 1
    record = {
        "family": args.family,
        "instances": args.count,
        "pass": passed,
        "fail": failed,
        "first_failure_seed": first_failure,
    }
    _print_record(record, args.json)
    return EXIT_OK if failed == 0 else EXIT_VIOLATION


# -- wiring -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongmatch",
        description="Induced matchings in subcubic graphs with certified size.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph file, or - for standard input")
        p.add_argument(
            "--format",
            choices=("edge-list", "dimacs"),
            default="edge-list",
            help="input format (default edge-list)",
        )

    p = sub.add_parser("stats", help="print structural invariants")
    add_input(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("match", help="compute an induced matching with a guarantee")
    add_input(p)
    p.add_argument("--method", choices=_METHODS, default="reduction")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true", help="include the reduction trace")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("exact", help="exact strong matching number (small graphs)")
    add_input(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="NODES")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("verify", help="check a matching file against a graph")
    add_input(p)
    p.add_argument("matching", help="edge-list file holding the matching")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    p.add_argument("name", choices=_GENERATORS)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--target-m", dest="target_m", type=int, default=None)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fuzz", help="randomized invariant checking")
    p.add_argument("family", choices=_FUZZ_FAMILIES)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--size", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fuzz)

    return parser


# parse_args keeps no state between calls, and help and usage text are
# formatted when printed, so every call of main shares one parser
_PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    # a request makes no reference cycles, so the cyclic collector would only
    # rescan live objects; the caller's setting comes back on every exit,
    # SystemExit from argparse included
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except LedgerViolationError as e:
        print(f"ledger violation: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except GraphError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

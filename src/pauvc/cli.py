"""Command line front end.

Subcommands: solve (optimum pre-assignment for a DIMACS graph), check
(feasibility of a given pre-assignment), generate (seeded benchmark
instances with a unique minimum cover), reduce (instance translations),
and bench (CSV timing table over a directory of instances).

Exit codes: 0 success / feasible / decision-yes, 1 infeasible or
decision-no, 2 malformed input, 3 a size, time, memory or recursion limit
was hit (a vertex count too large for an index is one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import LimitExceeded, ParseError
from .graph import Graph, PreAssignment, parse_dimacs, render_dimacs
from .limits import DEFAULT_ENUM_VERTEX_LIMIT, ENV_VERTEX_LIMIT, general_vertex_limit
from .random_graphs import gnp_graph, random_tree
from .reductions import build_bipartite_gadget, build_gc, parse_dimacs_cnf
from .solvers import PauResult, solve
from .uniqueness import has_unique_min_vc, is_feasible, reduce_instance
from .vertex_cover import SolveStats

__all__ = ["main"]

_CSV_HEADER = "instance,n,m,tau,model,algo,opt_size,nodes,elapsed_ms,agrees"


def _deadline(time_cap: float | None) -> float | None:
    if time_cap is None:
        return None
    if not 0 < time_cap < float("inf"):  # also false for nan
        raise ValueError("time cap must be positive and finite")
    return time.perf_counter() + time_cap


def _check_limits(args: argparse.Namespace) -> None:
    for flag in ("vertex_limit", "enum_limit"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must not be negative")
    if "vertex_limit" in vars(args) and args.vertex_limit is None:
        general_vertex_limit()  # refuses a malformed override before any work


def _solve(g: Graph, args: argparse.Namespace, deadline: float | None) -> PauResult:
    return solve(
        g,
        args.model,
        args.algo,
        vertex_limit=args.vertex_limit,
        enum_vertex_limit=args.enum_limit,
        deadline=deadline,
    )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def _dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _print_result(args: argparse.Namespace, result) -> None:
    if args.json:
        print(json.dumps(result.to_json_dict(), sort_keys=True))
        return
    print(f"model        {result.model.value}")
    print(f"opt_size     {result.opt_size}")
    print(f"include      {sorted(result.pre.include)}")
    print(f"exclude      {sorted(result.pre.exclude)}")
    print(f"unique_cover {sorted(result.unique_cover)}")
    stats = result.stats
    print(f"nodes        {stats.nodes_explored}")
    print(f"elapsed_s    {stats.elapsed:.6f}")


def cmd_solve(args: argparse.Namespace) -> int:
    result = _solve(parse_dimacs(_read(args.graph)), args, _deadline(args.time_cap))
    _print_result(args, result)
    if args.k is not None and result.opt_size > args.k:
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    g = parse_dimacs(_read(args.graph))
    try:
        data = json.loads(_read(args.pre))
    except json.JSONDecodeError as exc:
        raise ParseError(f"pre-assignment file: {exc}") from None
    pre = PreAssignment.from_json_dict(data, g.n)
    stats = SolveStats(_deadline(args.time_cap))
    report = is_feasible(g, pre, vertex_limit=args.vertex_limit, stats=stats)
    if args.json:
        payload = {
            "feasible": report.feasible,
            "reason": None if report.reason is None else report.reason.value,
            "witness": None if report.witness is None else sorted(report.witness),
        }
        print(json.dumps(payload, sort_keys=True))
    elif report.feasible:
        print(f"feasible: unique cover {sorted(report.witness)}")
    else:
        print(f"infeasible: {report.reason.value}")
    return 0 if report.feasible else 1


def cmd_generate(args: argparse.Namespace) -> int:
    if args.input is not None:
        g = parse_dimacs(_read(args.input))
    elif args.family == "tree":
        g = random_tree(args.n, args.seed)
    else:
        g = gnp_graph(args.n, args.p, args.seed)
    deadline = _deadline(args.time_cap)
    result = _solve(g, args, deadline)
    checks = {"vertex_limit": args.vertex_limit, "stats": SolveStats(deadline)}
    reduced, expected_tau, _ = reduce_instance(g, result.pre, **checks)
    unique, solution = has_unique_min_vc(reduced, **checks)
    if not unique or solution.tau != expected_tau:
        raise AssertionError("generated instance failed verification")
    meta = {
        "expected_tau": expected_tau,
        "source_seed": None if args.input is not None else args.seed,
        "pre_assignment": result.pre.to_json_dict(),
    }
    _write(args.output, render_dimacs(reduced))
    _write(args.output + ".json", _dump_json(meta))
    print(
        f"wrote {args.output}: n={reduced.n} m={reduced.m} "
        f"expected_tau={expected_tau}"
    )
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    if args.kind == "fcp":
        cnf = parse_dimacs_cnf(_read(args.input))
        g, labeling = build_gc(cnf)
        meta = labeling.to_json_dict()
    else:
        src = parse_dimacs(_read(args.input))
        g = build_bipartite_gadget(src)
        meta = {
            "original_n": src.n,
            "pendant": {str(v): src.n + v for v in range(src.n)},
        }
    _write(args.output, render_dimacs(g))
    _write(args.output + ".json", _dump_json(meta))
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    _deadline(args.time_cap)  # refuse an invalid cap before any instance runs
    names = sorted(
        name
        for name in os.listdir(args.directory)
        if os.path.isfile(os.path.join(args.directory, name))
        and not name.endswith(".json")
    )
    print(_CSV_HEADER)
    for name in names:
        path = os.path.join(args.directory, name)
        try:
            g = parse_dimacs(_read(path))
            result = _solve(g, args, _deadline(args.time_cap))
            tau = len(result.unique_cover)
            agrees = ""
            if args.algo != "enum" and g.n <= args.enum_limit:
                deadline = _deadline(args.time_cap)
                reference = solve(g, args.model, "enum", deadline=deadline,
                                  enum_vertex_limit=args.enum_limit)
                agrees = "true" if reference.opt_size == result.opt_size else "false"
            print(
                f"{name},{g.n},{g.m},{tau},{args.model},{args.algo},"
                f"{result.opt_size},{result.stats.nodes_explored},"
                f"{result.stats.elapsed * 1000.0:.3f},{agrees}"
            )
        except (ParseError, ValueError, LimitExceeded, OSError, OverflowError):
            print(f"{name},,,,{args.model},{args.algo},,,,error")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauvc",
        description=(
            "Minimum pre-assignments forcing a unique minimum vertex cover. "
            f"The {ENV_VERTEX_LIMIT} environment variable overrides the "
            "default vertex cap."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model",
            choices=["include", "exclude", "mixed"],
            default="exclude",
            help="pre-assignment model (default: exclude)",
        )
        p.add_argument(
            "--algo",
            choices=["auto", "enum", "fpt", "tree"],
            default="auto",
            help="strategy (default: auto)",
        )
        p.add_argument("--vertex-limit", type=int, default=None)
        p.add_argument("--time-cap", type=float, default=None, metavar="SECONDS")
        p.add_argument(
            "--enum-limit",
            type=int,
            default=DEFAULT_ENUM_VERTEX_LIMIT,
            help="vertex cap for the enumeration strategy",
        )

    p_solve = sub.add_parser("solve", help="optimum pre-assignment of a graph")
    p_solve.add_argument("graph", help="DIMACS graph file")
    common(p_solve)
    p_solve.add_argument("--k", type=int, default=None,
                         help="decision variant: exit 1 when opt_size > k")
    p_solve.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="feasibility of a pre-assignment")
    p_check.add_argument("graph", help="DIMACS graph file")
    p_check.add_argument("pre", help="pre-assignment JSON file")
    p_check.add_argument("--vertex-limit", type=int, default=None)
    p_check.add_argument("--time-cap", type=float, default=None, metavar="SECONDS")
    p_check.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("generate", help="emit a unique-cover benchmark instance")
    src = p_gen.add_mutually_exclusive_group()
    src.add_argument("--input", help="solve this DIMACS graph instead of sampling")
    src.add_argument("--family", choices=["gnp", "tree"], default="gnp")
    p_gen.add_argument("--n", type=int, default=12)
    p_gen.add_argument("--p", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True)
    common(p_gen)

    p_red = sub.add_parser("reduce", help="translate an instance")
    p_red.add_argument("kind", choices=["fcp", "ids"],
                       help="fcp: CNF to cover gadget; ids: pendant gadget")
    p_red.add_argument("input")
    p_red.add_argument("--output", required=True)

    p_bench = sub.add_parser("bench", help="CSV timing table for a directory")
    p_bench.add_argument("directory")
    common(p_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "check": cmd_check,
        "generate": cmd_generate,
        "reduce": cmd_reduce,
        "bench": cmd_bench,
    }
    try:
        _check_limits(args)
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"error: resource limit hit ({type(exc).__name__})", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

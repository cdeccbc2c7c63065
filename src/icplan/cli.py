"""Command-line entry points.

Subcommands::

    icplan solve    INSTANCE [--method flow|powerset|adaptive] [--out PLAN]
    icplan verify   INSTANCE PLAN
    icplan cluster  INSTANCE [--k K] [--out JSON] [--dot-out DOT]
    icplan explore  [--instance WORLD | --seed N] [--out LOG] [--log-level L]
    icplan bench    [--methods ...] [--n-range 4:16:2] [--out CSV]

Exit codes: 0 success, 1 infeasible, 2 verification failure, 3 solver or
input error, 4 exploration stall / cycle limit.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from io import StringIO

from . import baselines, verify
from .cluster import cluster_instance, clusters_to_dot
from .errors import GuardExceeded, IcplanError
from .explore import MAX_CYCLES, run_exploration
from .ilp import assemble
from .instances import exploration_world, line_instance
from .io import (check_writable, load_exploration, load_instance, load_solution,
                 save_solution, write_json, write_text)
from .network import to_dot
from .solver import export_lp, solve_problem

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_VERIFICATION = 2
EXIT_ERROR = 3
EXIT_STALL = 4


def _load_spec(path: str):
    net, _, spec, _ = load_instance(path)
    if spec is None:
        raise IcplanError(f"{path} has no 'problem' section to solve")
    return net, spec


def _num(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def _solve_flow(spec, time_limit, gap) -> baselines.BaselineRun:
    _, result, plan = solve_problem(spec, time_limit=time_limit, gap=gap)
    return baselines.BaselineRun(result, plan, wall_time=result.wall_time)


# method name -> solver(spec, time_limit, gap); the baselines take no gap
METHODS = {
    "flow": _solve_flow,
    "powerset": lambda spec, time_limit, gap:
        baselines.solve_powerset(spec, time_limit=time_limit),
    "adaptive": lambda spec, time_limit, gap:
        baselines.solve_adaptive_powerset(spec, time_limit=time_limit),
}


def _cmd_solve(args) -> int:
    net, spec = _load_spec(args.instance)
    if args.lp_out:
        write_text(args.lp_out, export_lp(assemble(spec)))
        print(f"wrote {args.lp_out}")
    if args.dot_out:
        write_text(args.dot_out, to_dot(net))
        print(f"wrote {args.dot_out}")
    run = METHODS[args.method](spec, args.time_limit, args.gap)
    result, plan = run.result, run.plan
    if args.method != "flow":
        print(f"rounds={run.rounds} cuts={run.cuts_added}")
    print(f"status={result.status} objective={_num(result.objective)} "
          f"wall={run.wall_time:.2f}s assemble={result.assemble_s:.2f}s "
          f"matrix={result.matrix_s:.2f}s highs={result.highs_s:.2f}s "
          f"extract={result.extract_s:.2f}s "
          f"vars={result.n_variables} rows={result.n_constraints} "
          f"nonzeros={result.nonzeros} nodes={_num(result.nodes)} "
          f"dual_bound={_num(result.dual_bound)} gap={_num(result.gap)}")
    if plan is not None and args.out:
        save_solution(plan, args.out)
        print(f"wrote {args.out}")
    if plan is not None:
        return EXIT_OK
    return EXIT_INFEASIBLE if result.status == "infeasible" else EXIT_ERROR


def _cmd_verify(args) -> int:
    _, spec = _load_spec(args.instance)
    plan = load_solution(args.solution)
    violations = verify.plan_violations(plan, spec)
    for line in violations:
        print(f"violation: {line}")
    print("verification: " + ("ok" if not violations
                              else f"{len(violations)} violation(s)"))
    return EXIT_OK if not violations else EXIT_VERIFICATION


def _cmd_cluster(args) -> int:
    net, agents, _, _ = load_instance(args.instance)
    if agents is None:
        raise IcplanError(f"{args.instance} has no 'agents' section")
    clustering = cluster_instance(net, agents, k=args.k)
    print(f"clusters={len(clustering.groups)} "
          f"active={clustering.cluster_ids()} "
          f"submasters={dict(sorted(clustering.submasters.items()))} "
          f"split_rounds={clustering.split_rounds}")
    if args.out:
        write_json(args.out, clustering.to_dict())
        print(f"wrote {args.out}")
    if args.dot_out:
        write_text(args.dot_out, clusters_to_dot(
            net, clustering, initial=dict(agents.initial)))
        print(f"wrote {args.dot_out}")
    return EXIT_OK


def _cmd_explore(args) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("icplan.explore").setLevel(args.log_level)
    if args.out:
        check_writable(args.out)
    if args.instance:
        net, agents, base, initially_known = load_exploration(args.instance)
    else:
        net, agents, base = exploration_world(seed=args.seed,
                                              n_states=args.n_states,
                                              n_agents=args.n_agents)
        initially_known = None
    log = run_exploration(net, agents, base, initially_known=initially_known,
                          max_cycles=args.max_cycles, trace_dir=args.trace_dir)
    for o in log.outcomes:
        print(f"cycle {o.cycle}: clusters={o.n_clusters} "
              f"frontiers={o.frontiers_before} new={len(o.new_states)} "
              f"base+={o.base_gain} slowest_solve={o.max_solve_time:.1f}s "
              f"plan={o.plan_s:.2f}s pre={o.pre_s:.1f}s post={o.post_s:.1f}s "
              f"end={o.end}")
    data = log.to_dict()
    for f in data["failures"]:
        print(f"violation: cycle {f['cycle']} cluster {f['cluster']} "
              f"{f['phase']} T={f['horizon']} status={f['status']}: "
              + "; ".join(f["violations"]))
    print(f"status={log.status} cycles={log.cycles} "
          f"coverage={log.coverage:.2f} base={log.base_coverage:.2f} "
          f"subproblems={len(log.subproblems)} verified={log.all_verified} "
          f"wall={log.wall_time:.1f}s")
    if args.out:
        write_json(args.out, data)
        print(f"wrote {args.out}")
    if log.status == "complete":
        return EXIT_OK
    if log.status == "verification_failed":
        return EXIT_VERIFICATION
    return EXIT_STALL


def _parse_n_range(text: str) -> list[int]:
    """Sizes from start:stop[:step], stop included, or from a comma list."""
    try:
        if ":" in text:
            start, stop, *step = [int(p) for p in text.split(":")]
            sizes = list(range(start, stop + 1, *step))  # a zero step or a 4th field raises
        else:
            sizes = [int(p) for p in text.split(",") if p]
    except (TypeError, ValueError):
        raise IcplanError(f"malformed --n-range {text!r}: expected "
                          f"start:stop[:step] with a nonzero step, or N,N,...") from None
    if not sizes or min(sizes) < 2:
        raise IcplanError(f"--n-range {text!r} gives no sizes, or one below 2")
    return sizes


def bench_rows(methods, sizes, time_limit=None):
    """One CSV row dict per (method, N) pair on the line relay family."""
    rows = []
    for n in sizes:
        net, spec = line_instance(n)
        for method in methods:
            try:
                run = METHODS[method](spec, time_limit, None)
                status, wall, obj = (run.result.status, run.wall_time,
                                     run.result.objective)
            except GuardExceeded:
                status, wall, obj = "refused", 0.0, None
            rows.append({"method": method, "N": n, "T": spec.T,
                         "status": status, "wall_time": f"{wall:.3f}",
                         "objective": ("" if obj is None else f"{obj:.6g}")})
    return rows


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise IcplanError(f"unknown bench method {m!r}")
    sizes = _parse_n_range(args.n_range)
    if args.out:
        check_writable(args.out)
    rows = bench_rows(methods, sizes, time_limit=args.time_limit)
    out = StringIO()
    writer = csv.DictWriter(out, fieldnames=["method", "N", "T", "status",
                                             "wall_time", "objective"])
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        write_text(args.out, out.getvalue())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icplan",
        description="plan, verify, and benchmark intermittent-connectivity "
                    "multi-agent missions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a planning instance")
    p.add_argument("instance")
    p.add_argument("--method", default="flow",
                   choices=tuple(METHODS))
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--out", help="write the solution JSON here")
    p.add_argument("--lp-out", help="export the model in LP format")
    p.add_argument("--dot-out", help="export the network in DOT format")
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a saved solution")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cluster", help="cluster agents and territories")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", help="write the clustering JSON here")
    p.add_argument("--dot-out", help="write a colored DOT view here")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("explore", help="run the exploration loop")
    p.add_argument("--instance", help="exploration world JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-states", type=int, default=100)
    p.add_argument("--n-agents", type=int, default=10)
    p.add_argument("--max-cycles", type=int, default=MAX_CYCLES)
    p.add_argument("--trace-dir", help="write per-cycle DOT/JSON traces here")
    p.add_argument("--out", help="write the run log JSON here")
    p.add_argument("--log-level", default="WARNING",
                   choices=("WARNING", "INFO", "DEBUG"),
                   help="level of the icplan.explore log on stderr")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("bench", help="benchmark on line relay instances")
    p.add_argument("--methods", default="flow,powerset,adaptive")
    p.add_argument("--n-range", default="4:12:2",
                   help="sizes as start:stop[:step] or a comma list")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IcplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

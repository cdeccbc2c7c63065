#!/usr/bin/env python3
"""icplan benchmark: one workload per run, closed loop, one case at a time.

    python3 perfbench/run.py --workload relay --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see workloads.py): relay, explore, oracle, cluster.

The run re-executes itself with PYTHONHASHSEED=0 before anything is
imported: exploration picks BFS parents in set order, so its path, and its
time, follow the hash seed.  Pinning it makes every run do the same work.
--seed sets the order in which each pass visits the cases.

--trace 0 repeats untraced passes over the workload's cases while the next
pass fits in --seconds and prints the end-to-end metrics.  On a shared host
the same code runs up to twice as slow for seconds or minutes at a time, so
an untraced pass also times a fixed reference task before each case and
after the last: every end-to-end time is the measured time scaled to the
host speed at which the reference takes REF_S.  --trace 1 runs pairs of an
untraced and a traced pass instead and prints the per-layer metrics, which
come from spans recorded around the calls into each layer; those are not
scaled.  Both modes check every output and require every pass to give the
same per-case records.

Everything the program prints goes to .perfbench/<run>.log, including
HiGHS's own writes to file descriptor 1.  The benchmark writes its summary
and, as the last line, one JSON object with the keys correct, attempted,
failed and metrics to the original standard output.  Per-case records go
to .perfbench/<run>.json and the spans of a traced run to
.perfbench/<run>.spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# workloads.WORKLOADS, named here because the package may be imported only
# once the hash seed is pinned
WORKLOAD_NAMES = ("relay", "explore", "oracle", "cluster")
HASH_SEED = "0"         # PYTHONHASHSEED of every process of a run
SETUP_SAMPLES = 5       # setup_s is the median of this many cold set-ups
# About the reference's time on the undisturbed 2-vCPU host of the README's
# figures, so that scaled times read close to undisturbed wall times.
# Every end-to-end time scales with it, so it must never change.
REF_S = 0.012


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="sets the order of the cases in a pass")
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time; a pass that would end later "
                             "is not started, but the first always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, and print the scaled seconds it took")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def reference():
    """Time a fixed task outside the program and return it in seconds.

    A Python loop and a small HiGHS knapsack, the two kinds of work the
    program does.  Its time next to a case gives the host's speed then.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    rng = np.random.default_rng(0)
    cost, weight = -rng.integers(10, 100, 30), rng.integers(5, 50, 30)
    knapsack = LinearConstraint(weight[None, :], 0, weight.sum() // 3)
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(40_000):
        table[i % 977] = table.get(i % 977, 0) + i
        total += i * i % 7
    milp(cost, constraints=knapsack, integrality=np.ones(30), bounds=Bounds(0, 1))
    return time.perf_counter() - start


def scaled_setup(setup: float) -> float:
    """`setup` at the reference speed, timed right after the set-up."""
    reference()                 # the first call pays for imports
    return setup * REF_S / statistics.median(reference() for _ in range(3))


def load_program(workload: str):
    """Import the package from this checkout and build the workload's cases.

    Returns (workload, cases, seconds taken): the set-up a user pays.
    """
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "icplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'icplan'}; "
                 "run from the root of an icplan checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import icplan
    if Path(icplan.__file__).resolve().parent != src / "icplan":
        sys.exit(f"perfbench: imported icplan from {icplan.__file__}, "
                 f"not from {src}")
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    cases = wl.make_cases()
    return wl, cases, time.perf_counter() - start


def setup_samples(args, first: float) -> list[float]:
    """`first` and the scaled set-up times of fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(cmd, check=True, capture_output=True, text=True,
                               timeout=120)
        samples.append(float(child.stdout.split()[-1]))
    return samples


# -- passes -------------------------------------------------------------------


@dataclass
class Pass:
    """The case results of one pass over the workload, in corpus order."""

    traced: bool
    results: list = field(default_factory=list)
    scale: list = field(default_factory=list)   # per case, REF_S / reference
    work_s: float = 0.0         # program time, summed over the cases
    elapsed_s: float = 0.0      # the same plus references and checks
    tracer: object = None

    @property
    def done(self) -> int:
        return sum(r.done for r in self.results)

    def comparable_records(self):
        """Records without their timings, for comparing passes."""
        return [{k: v for k, v in r.record.items() if not k.endswith("_s")}
                for r in self.results]


def run_pass(wl, cases, order, traced: bool) -> Pass:
    """Run the cases in `order`, keeping the results in corpus order.

    An untraced pass times the reference before each case and after the
    last, and scales each case by the mean of the two around it.
    """
    from workloads import CaseResult
    p = Pass(traced, [None] * len(cases), [None] * len(cases),
             tracer=make_tracer() if traced else None)
    start = time.perf_counter()
    ref = None if traced else reference()
    with p.tracer or contextlib.nullcontext():
        for i in order:
            if p.tracer is not None:
                p.tracer.case = i
            try:
                result = wl.run_case(cases[i])
            except Exception:       # a crashing case is a failed operation
                traceback.print_exc()
                error = traceback.format_exc(limit=1).strip().splitlines()[-1]
                result = CaseResult(False, False, 0.0, [],
                                    {"case": i, "error": error})
            p.results[i] = result
            if not traced:
                before, ref = ref, reference()
                p.scale[i] = REF_S / ((before + ref) / 2)
    p.elapsed_s = time.perf_counter() - start
    p.work_s = sum(r.work_s for r in p.results)
    return p


def measure(wl, cases, order, seconds: int, trace: bool) -> list[Pass]:
    """Closed loop: untraced passes, or untraced/traced pairs, while they fit."""
    passes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_pass(wl, cases, order, traced=False))
        if trace:
            passes.append(run_pass(wl, cases, order, traced=True))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return passes


# -- tracing ------------------------------------------------------------------


def make_tracer():
    """A Tracer with a span around each layer's public functions.

    Each function is wrapped at every module attribute the program or the
    benchmark calls it through.
    """
    from icplan import cluster, explore, network, solver, verify
    from spans import Tracer
    from workloads import nonzeros

    def on_model(counts, model):
        counts["ilp.models"] += 1
        counts["ilp.vars"] += model.n_variables
        counts["ilp.rows"] += model.n_constraints
        counts["ilp.nonzeros"] += nonzeros(model)

    def on_solve(counts, result):
        counts["solver.calls"] += 1
        counts["solver.limit_exits"] += result.status == "limit"
        counts["solver.infeasible"] += result.status == "infeasible"

    def on_oracle(counts, result):
        counts["verify.oracle_candidates"] += result.candidates

    def on_cluster(counts, clustering):
        counts["cluster.split_rounds"] += clustering.split_rounds

    checks = ("check_dynamics", "check_flows", "check_consistency",
              "information_reachability", "master_token_layers")
    tracer = Tracer()
    tracer.wrap([(solver, "assemble")], "ilp.assemble", on_model)
    tracer.wrap([(solver, "solve")], "solver.solve", on_solve)
    tracer.wrap([(verify, "extract_solution")], "verify.extract")
    tracer.wrap([(verify, name) for name in checks], "verify.check")
    tracer.wrap([(verify, "brute_force_solve")], "verify.oracle", on_oracle)
    tracer.wrap([(cluster, "cluster_instance"), (explore, "cluster_instance")],
                "cluster.cluster", on_cluster)
    tracer.wrap([(cluster, "prune_dead_states"), (explore, "prune_dead_states")],
                "cluster.prune")
    tracer.wrap([(network, "betweenness_centrality"),
                 (explore, "betweenness_centrality")], "network.betweenness")
    tracer.wrap([(explore, "build_network")], "network.build")
    tracer.wrap([(explore, "run_exploration")], "explore.self")
    return tracer


SPAN_METRICS = ("ilp.assemble", "solver.solve", "verify.extract",
                "verify.check", "verify.oracle", "cluster.cluster",
                "cluster.prune", "network.betweenness", "network.build",
                "explore.self")
COUNT_METRICS = ("ilp.models", "ilp.vars", "ilp.rows", "ilp.nonzeros",
                 "solver.calls", "solver.limit_exits", "solver.infeasible",
                 "verify.oracle_candidates", "cluster.split_rounds")


def layer_metrics(untraced: Pass, traced: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, paired with its untraced twin."""
    own = traced.tracer.self_times()
    out = {f"{name}_s": (own.get(name, 0.0), "s") for name in SPAN_METRICS}
    out.update({name: (traced.tracer.counts[name], "count")
                for name in COUNT_METRICS})
    records = [r.record for r in traced.results]
    explored = [r for r in records if "cycles" in r]
    solve_calls = sum(r["solve_calls"] for r in explored)
    out["explore.cycles"] = (sum(r["cycles"] for r in explored), "count")
    out["explore.subproblems"] = (sum(r["subproblems"] for r in explored),
                                  "count")
    out["explore.solve_calls"] = (solve_calls, "count")
    out["explore.useful_ratio"] = (
        sum(r["verified"] for r in explored) / solve_calls
        if solve_calls else 0.0, "ratio")
    wall = traced.work_s
    out["solver.solve_share"] = (out["solver.solve_s"][0] / wall, "ratio")
    out["verify.oracle_share"] = (out["verify.oracle_s"][0] / wall, "ratio")
    out["trace.overhead_s"] = (traced.work_s - untraced.work_s, "s")
    out["trace.spans"] = (len(traced.tracer.spans), "count")
    return out


# -- metrics ------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q of them at or below."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(passes: list[Pass], setup: list[float]):
    """Each case, and each unit a user waits on, scaled to the reference
    speed and taken as its median over the passes."""
    wall, latencies = 0.0, []
    for i in range(len(passes[0].results)):
        runs = [p.results[i] for p in passes]
        scales = [p.scale[i] for p in passes]
        wall += statistics.median(r.work_s * k for r, k in zip(runs, scales))
        for unit in zip(*(r.latencies_s for r in runs)):
            latencies.append(statistics.median(
                t * k for t, k in zip(unit, scales)))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "verified_per_h": (passes[0].done / wall * 3600, "1/h"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.50), "ms"),
        "latency_p95_ms": (1000 * percentile(latencies, 0.95), "ms"),
    }


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": "scipy (HiGHS); glpk and lp-file are not measured",
            "pythonhashseed": os.environ["PYTHONHASHSEED"],
            "machine": platform.machine()}


def main():
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)

    wl, cases, setup_first = load_program(args.workload)
    setup_first = scaled_setup(setup_first)
    if args.setup_only:
        print(repr(setup_first))
        return 0
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # keep the program's and HiGHS's writes to fd 1 out of the results
    sys.stdout.flush()
    report = os.fdopen(os.dup(1), "w")
    with open(OUT / f"{stem}.log", "w") as log:
        os.dup2(log.fileno(), 1)

    setup = [setup_first] if args.trace else setup_samples(args, setup_first)
    passes = measure(wl, cases, order, args.seconds, bool(args.trace))
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    first = passes[0].comparable_records()
    agree = all(p.comparable_records() == first for p in passes[1:])
    correct = agree and all(r.ok for p in passes for r in p.results)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.done for p in passes for r in p.results)

    if args.trace:
        per_pair = [layer_metrics(u, t) for u, t in zip(untraced, traced)]
        metrics = {name: (statistics.median(m[name][0] for m in per_pair), unit)
                   for name, (_, unit) in per_pair[0].items()}
        traced[-1].tracer.dump(OUT / f"{stem}.spans.json")
    else:
        metrics = end_to_end_metrics(untraced, setup)

    summary = {
        "workload": args.workload, "seed": args.seed,
        "environment": environment(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "order": order,
        "pass_work_s": [p.work_s for p in passes],
        "pass_median_scale": [statistics.median(p.scale) for p in untraced],
        "pass_elapsed_s": [p.elapsed_s for p in passes],
        "setup_samples_s": setup, "records_agree": agree,
        "attempted": attempted, "failed": failed,
        "records": [[r.record for r in p.results] for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")

    for r in passes[0].results:
        print("case", json.dumps(r.record), file=report)
    print("environment", json.dumps(summary["environment"]), file=report)
    print("passes", json.dumps(summary["passes"]), "records agree:", agree,
          file=report)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}", file=report)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": summary["metrics"]}
    print(json.dumps(result), file=report, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

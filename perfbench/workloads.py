"""The four benchmark workloads: fixed case corpora, one runner per case.

Every corpus is fixed by index, so the per-case records of two commits
compare case by case; the benchmark seed only orders the cases (see
run.py).  Each case is short, so that a run repeats it several times and
takes a median per case.  Each runner calls the package through module
attributes (``solver.solve_problem``, ``verify.brute_force_solve``, ...) so
that the tracer's wrappers see every call, and returns a CaseResult.  Only the
program's work is timed; the benchmark's own checks run outside the clock.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from icplan import cluster, explore, instances, network, solver, verify

TOL = 1e-6

# N = 9 already takes 3.5 s and N = 12 11 s; 6-8 take 0.4-0.7 s each
RELAY_SIZES = (6, 7, 8)
# optimal objectives of line_instance(N) with T = ceil(N/2) at the seed commit
RELAY_OBJECTIVE = {6: -3.0, 7: -4.0, 8: -5.0}

# The 100-state worlds of the C7 gate take 17-97 s each, too long to repeat
# in one run; 30 states and 5 agents keep about 25 subproblems per world.
EXPLORE_WORLDS = range(4)
EXPLORE_STATES = 30
EXPLORE_AGENTS = 5

ORACLE_SEEDS = range(6)         # the first 6 seeds of the C1 corpus
CLUSTER_SEEDS = range(100)      # the C6 family


@dataclass
class CaseResult:
    ok: bool                    # the output passed the workload's check
    done: bool                  # a finished, verified output (counts per hour)
    work_s: float               # time inside the program for this case
    latencies_s: list[float]    # one per unit a user waits on
    record: dict = field(default_factory=dict)


def nonzeros(model) -> int:
    return sum(len(coeffs) for coeffs, _, _, _ in model.constraints)


# -- relay ------------------------------------------------------------------


def relay_cases():
    return [(n, instances.line_instance(n)[1]) for n in RELAY_SIZES]


def run_relay(case) -> CaseResult:
    n, spec = case
    start = time.perf_counter()
    model, result, plan = solver.solve_problem(spec)
    planned = time.perf_counter()
    ok = (plan is not None and result.status == "optimal"
          and abs(result.objective - RELAY_OBJECTIVE[n]) <= TOL
          and not verify.check_dynamics(plan, spec)
          and not verify.check_flows(plan, spec)
          and verify.information_reachability(plan, spec).all_reachable)
    work = time.perf_counter() - start
    record = {"N": n, "status": result.status, "objective": result.objective,
              "vars": model.n_variables, "rows": model.n_constraints,
              "nonzeros": nonzeros(model), "solve_s": result.wall_time}
    return CaseResult(ok, ok, work, [planned - start], record)


# -- explore ----------------------------------------------------------------


@contextmanager
def counting_solves(counts: dict):
    """Count explore's solve_problem calls and their time-limit exits."""
    original = explore.solve_problem

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        counts["calls"] += 1
        counts["limit_exits"] += out[1].status == "limit"
        return out

    explore.solve_problem = counted
    try:
        yield counts
    finally:
        explore.solve_problem = original


def explore_cases():
    return [(w, *instances.exploration_world(seed=w, n_states=EXPLORE_STATES,
                                             n_agents=EXPLORE_AGENTS))
            for w in EXPLORE_WORLDS]


def _subproblem_digest(log) -> str:
    rows = [(r.cycle, r.cluster, r.phase, r.horizon, r.status,
             None if r.objective is None else round(r.objective, 6))
            for r in log.subproblems]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def run_explore(case) -> CaseResult:
    w, truth, agents, base = case
    with counting_solves({"calls": 0, "limit_exits": 0}) as counts:
        start = time.perf_counter()
        log = explore.run_exploration(truth, agents, base)
        work = time.perf_counter() - start
    verified = sum(r.verified for r in log.subproblems)
    done = log.status == "complete" and log.all_verified
    record = {"world": w, "status": log.status, "cycles": log.cycles,
              "subproblems": len(log.subproblems), "verified": verified,
              "limit_exits": counts["limit_exits"],
              "solve_calls": counts["calls"],
              "digest": _subproblem_digest(log)}
    return CaseResult(log.all_verified, done, work,
                      [r.wall_time for r in log.subproblems], record)


# -- oracle -----------------------------------------------------------------


def oracle_cases():
    return [(seed, klass, instances.random_oracle_instance(seed, klass)[1])
            for seed in ORACLE_SEEDS for klass in instances.ORACLE_CLASSES]


def run_oracle(case) -> CaseResult:
    seed, klass, spec = case
    start = time.perf_counter()
    _, result, _ = solver.solve_problem(spec)
    planned = time.perf_counter()
    oracle = verify.brute_force_solve(spec)
    work = time.perf_counter() - start
    if oracle.status == "optimal":
        ok = result.ok and abs(result.objective - oracle.objective) <= TOL
    else:
        ok = result.status == "infeasible"
    record = {"seed": seed, "class": klass, "status": result.status,
              "objective": result.objective, "oracle": oracle.status,
              "candidates": oracle.candidates}
    return CaseResult(ok, ok, work, [planned - start], record)


# -- cluster ----------------------------------------------------------------


def cluster_cases():
    out = []
    for seed in CLUSTER_SEEDS:
        net, agents = instances.random_cluster_graph(seed)
        k = random.Random(f"acc6:{seed}").randint(1, agents.count)
        out.append((seed, net, agents, k))
    return out


def c6_violations(net, agents, clustering) -> list[str]:
    """The C6 invariants: agent partition, disjoint connected territories
    covering the network, and activation edges on communication edges."""
    bad = []
    ids = clustering.cluster_ids()
    members = sorted(r for cid in ids for r in clustering.groups[cid])
    if members != list(range(agents.count)):
        bad.append("agents are not partitioned")
    seen: set[str] = set()
    for cid in ids:
        states = set(clustering.state_sets[cid])
        if states & seen:
            bad.append(f"cluster {cid} overlaps another territory")
        seen |= states
        if not all(agents.initial[r] in states for r in clustering.groups[cid]):
            bad.append(f"cluster {cid} misses a member's start")
        if len(cluster.weak_components(net, states)) != 1:
            bad.append(f"cluster {cid} territory is disconnected")
    if seen | set(clustering.unassigned) != set(net.states):
        bad.append("territories do not cover the network")
    if clustering.parents.get(1, 0) is not None or 0 not in clustering.groups[1]:
        bad.append("cluster 1 is not the master's root")
    for cid in ids:
        if cid == 1:
            continue
        pid = clustering.parents.get(cid)
        u, v = clustering.activation_edges.get(cid, (None, None))
        if (pid not in ids or (u, v) not in net.comm
                or u not in clustering.state_sets[pid]
                or v != agents.initial[clustering.submasters[cid]]
                or clustering.submasters[cid] not in clustering.groups[cid]):
            bad.append(f"cluster {cid} has a bad activation edge")
    return bad


def run_cluster(case) -> CaseResult:
    seed, net, agents, k = case
    start = time.perf_counter()
    kept = cluster.prune_dead_states(net, None,
                                     protected=set(agents.initial.values()))
    plan_net = explore.induced_network(net, kept)
    clustering = cluster.cluster_instance(plan_net, agents, k=k)
    centrality = network.betweenness_centrality(plan_net)
    work = time.perf_counter() - start
    bad = c6_violations(plan_net, agents, clustering)
    if set(centrality) != set(plan_net.states):
        bad.append("centrality misses states")
    record = {"seed": seed, "k": k, "states": len(plan_net.states),
              "clusters": len(clustering.groups),
              "split_rounds": clustering.split_rounds, "violations": bad}
    return CaseResult(not bad, not bad, work, [work], record)


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: object
    run_case: object


WORKLOADS = {w.name: w for w in (
    Workload("relay", relay_cases, run_relay),
    Workload("explore", explore_cases, run_explore),
    Workload("oracle", oracle_cases, run_oracle),
    Workload("cluster", cluster_cases, run_cluster),
)}

"""Cluster-decomposed exploration of a partially known environment.

Each cycle: the known subgraph is pruned of explored dead ends, agents are
re-clustered around their current positions (the cluster count tracks the
size of the known graph so territories stay within planning range), and
every activated cluster solves up to two small problems on its territory.

* pre phase (top-down): an information-consistent plan seeded at the
  cluster's submaster.  Frontier states carry decaying terminal rewards
  gated by awareness, interior states carry a distance-decayed approach
  reward so agents drift toward far frontiers across cycles, and child
  submaster stations appear as static pseudo agents whose awareness-gated
  value rewards pay the parent for delivering the plan into the next
  cluster.  Clusters with nothing to chase and nobody to endow skip the
  solve.

* post phase (bottom-up): a collection problem routing findings to the
  submaster.  Only members holding news the submaster lacks (plus members
  the pre plan provably could not reach with the plan token, which regroup
  here) appear as sources; a cluster with nothing to deliver skips the
  solve.  Since children report before their parents, fresh discoveries
  climb the whole hierarchy within one cycle, and the master cluster
  additionally requires a returning agent near the base.  Each collection
  problem is posed at its farthest source's hop count + 1 (POST_SLACK; a
  reward plan gets + 2, PRE_SLACK), since HiGHS's root work grows with the
  horizon.

Both phases solve each cluster's problem once (`_solve_cluster`).  One that
ends infeasible, or at the time limit without a plan, is not recorded and
moves nobody; a rejected plan or a HiGHS error ends the run.

Movement reveals the one-hop mobility neighbourhood of every visited state.
The loop ends when no frontiers remain and the base knows every revealed
state; a cycle that reveals nothing, delivers nothing and moves no agent
aborts as a stall.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import verify
from .cluster import Clustering, cluster_instance, clusters_to_dot, prune_dead_states
from .errors import InstanceError
from .ilp import AgentConfig, ProblemSpec
from .io import write_json, write_text
# build_network is unused here but stays an attribute: perfbench's traced
# runs wrap explore.build_network in their network.build span
from .network import MobilityCommNetwork, betweenness_centrality, build_network, hop_bfs
from .solver import solve_problem

FRONTIER_REWARD = 100.0     # base value of reaching a frontier state
REWARD_DECAY = 0.5          # value multiplier per extra agent tier
K_MAX = 2                   # reward tiers per state
CENTRALITY_WEIGHT = 1.0     # tier-1 bonus per unit of betweenness
GRADIENT_DECAY = 0.6        # approach-reward falloff per hop from a frontier
GRADIENT_MIN = 0.5          # approach rewards below this are dropped
NEWS_REWARD = 25.0          # station bonus when a child subtree holds news
EVAC_REWARD = 50.0          # border rewards for clusters with nothing left
T_MAX = 8                   # horizon cap per subproblem
TERRITORY_SPAN = 2.0        # target territory size, in states per horizon step
MAX_CYCLES = 40
SOLVE_TIME_LIMIT = 55.0
PRE_GAP = 0.05              # relative MIP gap: reward plans near-optimal
POST_GAP = 0.25             # collection plans only need to be feasible
PRE_SLACK = 2               # reward-plan horizon: farthest member's hops + 2
POST_SLACK = 1              # collection horizon: farthest source's hops + 1

logger = logging.getLogger(__name__)


# -- world bookkeeping ------------------------------------------------------


def reveal_neighborhood(truth: MobilityCommNetwork, s: str) -> set[str]:
    """States revealed by visiting s: itself plus its mobility neighbours."""
    row = truth.undirected_mobility()[truth.index(s)]
    return {s} | {truth.states[v] for v in row}


def detect_frontiers(truth: MobilityCommNetwork, known: set[str]) -> tuple[str, ...]:
    """Known states with at least one unknown mobility neighbour."""
    rows = truth.undirected_mobility()
    return tuple(s for s, row in zip(truth.states, rows)
                 if s in known and any(truth.states[v] not in known for v in row))


def induced_network(net: MobilityCommNetwork, states) -> MobilityCommNetwork:
    """Subnetwork on `states` keeping every edge inside it, in `net`'s state
    and edge order (`MobilityCommNetwork.induced`): no edge is checked
    again and no adjacency list re-sorted."""
    return net.induced(states)


def _hop_distances(net: MobilityCommNetwork, sources, within=None) -> dict[str, int]:
    """Undirected multi-source hop distances, optionally restricted."""
    dist: dict[str, int] = {}
    for s, p in hop_bfs(net, sources, within).items():
        dist[s] = 0 if s == p else dist[p] + 1
    return dist


def _delivery_corridor(net: MobilityCommNetwork, allowed, initial,
                       src_positions, sm_position) -> tuple[set[str], list[int]]:
    """States needed to route each source to the submaster, and each
    source's hop count to it.

    Every agent position plus, per source, the hops of one shortest
    undirected path to the submaster; keeps collection problems small even
    in large territories.  A source with no path counts |corridor| + 1 hops.
    """
    parent = hop_bfs(net, [sm_position], within=allowed)
    corridor = {sm_position} | set(initial.values())
    hops = []
    for p in src_positions:
        n = 0
        while p in parent and p != sm_position:
            corridor.add(p)
            p, n = parent[p], n + 1
        hops.append(n if p in parent else None)
    return corridor, [len(corridor) + 1 if n is None else n for n in hops]


# -- records ----------------------------------------------------------------


@dataclass
class SubproblemRecord:
    cycle: int
    cluster: int
    phase: str                       # "pre" | "post"
    roster: tuple                    # world ids; pseudo entries are ("station", id)
    horizon: int
    status: str
    objective: float | None
    wall_time: float
    verified: bool
    violations: tuple[str, ...] = ()
    n_variables: int = 0             # size of the model HiGHS was given
    nodes: int | None = None         # branch-and-bound nodes, None without a plan
    gap: float | None = None         # HiGHS's relative MIP gap at exit
    highs_s: float = 0.0             # seconds inside HiGHS


@dataclass
class CycleOutcome:
    cycle: int
    n_clusters: int
    endowed: tuple[int, ...]
    frontiers_before: int
    new_states: tuple[str, ...]
    base_gain: int
    max_solve_time: float
    plan_s: float                    # seconds in _plan_cycle
    pre_s: float                     # seconds in _pre_phase
    post_s: float                    # seconds in _post_phase, 0 when it did not run


@dataclass
class ExplorationLog:
    status: str
    cycles: int
    outcomes: list[CycleOutcome] = field(default_factory=list)
    subproblems: list[SubproblemRecord] = field(default_factory=list)
    known: frozenset[str] = frozenset()
    base_knowledge: frozenset[str] = frozenset()
    n_states: int = 0
    wall_time: float = 0.0

    @property
    def coverage(self) -> float:
        return len(self.known) / self.n_states if self.n_states else 0.0

    @property
    def base_coverage(self) -> float:
        return len(self.base_knowledge) / self.n_states if self.n_states else 0.0

    @property
    def all_verified(self) -> bool:
        return all(rec.verified for rec in self.subproblems)

    @property
    def max_solve_time(self) -> float:
        return max((rec.wall_time for rec in self.subproblems), default=0.0)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "cycles": self.cycles,
            "coverage": self.coverage,
            "base_coverage": self.base_coverage,
            "subproblems": len(self.subproblems),
            "all_verified": self.all_verified,
            "max_solve_time": self.max_solve_time,
            "wall_time": self.wall_time,
            "phases": {phase: {
                "solves": sum(rec.phase == phase for rec in self.subproblems),
                "solve_time": sum(rec.wall_time for rec in self.subproblems
                                  if rec.phase == phase),
            } for phase in ("pre", "post")},
            "outcomes": [{
                "cycle": o.cycle, "clusters": o.n_clusters,
                "endowed": list(o.endowed), "frontiers": o.frontiers_before,
                "new_states": len(o.new_states), "base_gain": o.base_gain,
                "max_solve_time": o.max_solve_time,
                "plan_s": o.plan_s, "pre_s": o.pre_s, "post_s": o.post_s,
            } for o in self.outcomes],
            "subproblem_stats": [{
                "cycle": rec.cycle, "cluster": rec.cluster, "phase": rec.phase,
                "horizon": rec.horizon, "status": rec.status,
                "wall_time": rec.wall_time, "n_variables": rec.n_variables,
                "nodes": rec.nodes, "gap": rec.gap, "highs_s": rec.highs_s,
            } for rec in self.subproblems],
            "failures": [{
                "cycle": rec.cycle, "cluster": rec.cluster, "phase": rec.phase,
                "horizon": rec.horizon, "status": rec.status,
                "roster": [list(e) if isinstance(e, tuple) else e
                           for e in rec.roster],
                "violations": list(rec.violations),
            } for rec in self.subproblems if not rec.verified],
        }


# -- subproblem assembly -----------------------------------------------------


def _world_id(entry) -> int:
    """World agent id of a roster entry: a member id or ("station", id)."""
    return entry[1] if isinstance(entry, tuple) else entry


def _sub_agents(positions, clustering: Clustering, cid, children, static):
    """AgentConfig over cluster members plus static pseudo agents at stations.

    Members in the world's `static` set stay static, as does the submaster.
    Returns (config, roster, sm_index, stations): roster[i] is the world agent
    id for local index i, or ("station", world_id) for a child submaster's
    station, and stations is the set of station states.
    """
    members = list(clustering.groups[cid])
    roster = members + [("station", clustering.submasters[c]) for c in children]
    initial = {i: positions[_world_id(entry)] for i, entry in enumerate(roster)}
    sm_index = roster.index(clustering.submasters[cid])
    sub_static = set(range(len(members), len(roster))) | {sm_index}
    sub_static |= {i for i, r in enumerate(members) if r in static}
    config = AgentConfig(count=len(roster), initial=initial,
                         static=frozenset(sub_static),
                         masters=frozenset({sm_index}))
    stations = {initial[i] for i in range(len(members), len(roster))}
    return config, roster, sm_index, stations


def _horizon(hops, slack: int) -> int:
    """Subproblem horizon: the farthest hop count plus `slack`, within
    1..T_MAX.  Reward plans take PRE_SLACK and collection plans POST_SLACK:
    a collection plan only has to route its sources to the submaster, and
    every extra step grows the model and HiGHS's root work.  With no slack
    at all, more collection problems turn infeasible and their sources wait
    for a later cycle."""
    return max(1, min(T_MAX, max(hops) + slack))


def _solve_summary(T, result) -> str:
    """One solve for the run log: "T=8, 2,436 vars, 1 node, gap 0.17, 10.2 s"."""
    nodes = "no" if result.nodes is None else f"{result.nodes:,}"
    gap = "none" if result.gap is None else f"{result.gap:.2f}"
    return (f"T={T}, {result.n_variables:,} vars, {nodes} node"
            f"{'' if result.nodes == 1 else 's'}, gap {gap}, {result.wall_time:.1f} s")


def _solve_cluster(truth, plan, phase, cycle, cid, roster, spec, positions,
                   reveals, records):
    """Solve one cluster's subproblem at the phase's gap and execute its plan.

    Returns (solution, failed).  A solve with no plan (infeasible, or
    stopped at the time limit) is not recorded and moves nobody.  Any other
    is recorded and fails when the verifier rejects the plan or HiGHS
    errors; a plan that passes moves the roster's members, adding what they
    reveal to `reveals`.
    """
    _, result, sol = solve_problem(spec, time_limit=SOLVE_TIME_LIMIT,
                                   gap=PRE_GAP if phase == "pre" else POST_GAP)
    logger.debug("%s c%d depth=%d roster=%s status=%s obj=%s: %s", phase, cid,
                 plan.clustering.depth(cid), roster, result.status,
                 result.objective, _solve_summary(spec.T, result))
    if sol is None and result.status in ("infeasible", "limit"):
        return None, False
    if sol is None:
        violations = [result.message or result.status]
    else:
        violations = verify.plan_violations(sol, spec)
    records.append(SubproblemRecord(cycle, cid, phase, tuple(roster), spec.T,
                                    result.status, result.objective,
                                    result.wall_time, not violations,
                                    tuple(violations), result.n_variables,
                                    result.nodes, result.gap, result.highs_s))
    if violations:
        return None, True
    for i, entry in enumerate(roster):
        if not isinstance(entry, tuple):
            positions[entry] = sol.paths[i][-1]
            for s in sol.paths[i]:
                reveals[entry] |= reveal_neighborhood(truth, s)
    return sol, False


# -- cycle stages ---------------------------------------------------------------


@dataclass(frozen=True)
class _CyclePlan:
    """One cycle's planning network, clustering and shared reward inputs."""
    net: MobilityCommNetwork
    k: int
    clustering: Clustering
    frontiers: frozenset[str]
    frontier_dist: dict[str, int]
    centrality: dict[str, float]
    static: frozenset[int]               # world agents that never move
    by_depth: list[int]                  # active clusters, root first
    children: dict[int, list[int]]
    subtree_value: dict[int, float]      # frontier value, decayed per tier
    subtree_members: dict[int, set[int]]


def _plan_cycle(truth, known, positions, frontiers, base, master,
                static) -> _CyclePlan:
    """Prune, induce, cluster and rank the known world for one cycle."""
    R = len(positions)
    plan_states = prune_dead_states(
        truth, known, protected=set(positions.values()) | set(frontiers) | {base})
    net = induced_network(truth, plan_states)
    cycle_agents = AgentConfig(count=R, initial=dict(positions),
                               masters=frozenset({master}),
                               static=static)
    k = max(math.ceil(R / 4),
            min(R // 2, math.ceil(len(net.states) / (TERRITORY_SPAN * T_MAX))))
    clustering = cluster_instance(net, cycle_agents, k=k)
    centrality = betweenness_centrality(net)
    frontier_dist = _hop_distances(net, [s for s in frontiers if net.has_state(s)])

    by_depth = sorted(clustering.cluster_ids(),
                      key=lambda c: (clustering.depth(c), c))
    children = {cid: [c for c in by_depth if clustering.parents.get(c) == cid]
                for cid in by_depth}
    frontier_set = frozenset(frontiers)
    subtree_value: dict[int, float] = {}
    subtree_members: dict[int, set[int]] = {}
    for cid in reversed(by_depth):
        own = sum(FRONTIER_REWARD for s in clustering.state_sets[cid]
                  if s in frontier_set)
        subtree_value[cid] = own + sum(REWARD_DECAY * subtree_value[c]
                                       for c in children[cid])
        subtree_members[cid] = set(clustering.groups[cid]).union(
            *(subtree_members[c] for c in children[cid]))
    return _CyclePlan(net, k, clustering, frontier_set, frontier_dist, centrality,
                      static, by_depth, children, subtree_value, subtree_members)


def _pre_phase(truth, plan: _CyclePlan, cycle, positions, knowledge, reveals,
               records):
    """Top-down consistent plans, each executed as soon as it verifies.

    Moves members in `positions`, adds what they reveal to `reveals` and
    every solve to `records`.  Returns (endowed, frozen, failed): a child is
    endowed when the master token covers its station, and frozen[cid] holds
    the members the token never reached, which therefore stayed put.
    """
    cl = plan.clustering
    logger.debug("cycle %d: k=%d groups=%s parents=%s submasters=%s",
                 cycle, plan.k, cl.groups, cl.parents, cl.submasters)
    endowed = {plan.by_depth[0]}
    frozen: dict[int, set[int]] = {}
    for cid in plan.by_depth:
        if cid not in endowed:
            logger.debug("pre c%d: not endowed (members %s)", cid, cl.groups[cid])
            continue
        sm_world, children = cl.submasters[cid], plan.children[cid]
        news_children = {c for c in children
                         if any(knowledge[r] - knowledge[sm_world]
                                for r in plan.subtree_members[c])}
        rewards = _cluster_rewards(plan, cid, positions, news_children)
        if not rewards and not children:
            continue    # nothing to chase, nobody to endow
        config, roster, _, stations = _sub_agents(positions, cl, cid, children,
                                                  plan.static)
        territory = cl.state_sets[cid]
        reach = _hop_distances(plan.net, [positions[r] for r in cl.groups[cid]],
                               within=territory)
        T = _horizon(reach.values(), PRE_SLACK)
        # states beyond T hops are unreachable within the horizon;
        # trimming them keeps the model small without losing plans
        in_range = {s for s in territory if reach.get(s, T_MAX + 1) <= T}
        sub_net = induced_network(plan.net, in_range | stations)
        rewards = {(s, kk): v for (s, kk), v in rewards.items()
                   if sub_net.has_state(s)}
        spec = ProblemSpec(net=sub_net, agents=config, T=T, src=(), snk=(),
                           rewards=rewards, information_consistent=True,
                           awareness_reward=True)
        sol, failed = _solve_cluster(truth, plan, "pre", cycle, cid, roster, spec,
                                     positions, reveals, records)
        if failed:
            return endowed, frozen, True
        if sol is None:
            continue    # no plan: nobody moves and no child is endowed
        covered = set().union(*verify.master_token_layers(spec, sol.paths))
        frozen[cid] = {r for i, r in enumerate(cl.groups[cid])
                       if len(set(sol.paths[i])) == 1
                       and sol.paths[i][0] not in covered}
        endowed |= {c for c in children if positions[cl.submasters[c]] in covered}
    return endowed, frozen, False


def _post_phase(truth, plan: _CyclePlan, cycle, endowed, frozen, positions,
                knowledge, reveals, records) -> bool:
    """Bottom-up collection of findings at each endowed cluster's submaster.

    Sources are members holding news the submaster lacks plus the frozen
    members, which regroup here.  Each cluster's problem is solved once
    (`_solve_cluster`): one with no plan moves nobody, so its sources
    deliver in a later cycle.  A plan moves members and merges delivered
    knowledge into the submaster's.  Returns True when a solve fails.
    """
    cl = plan.clustering
    for cid in sorted(endowed, key=lambda c: (-cl.depth(c), c)):
        sm_world = cl.submasters[cid]
        config, roster, sm_index, stations = _sub_agents(
            positions, cl, cid, plan.children[cid], plan.static)
        src = [i for i, entry in enumerate(roster)
               if knowledge[_world_id(entry)] - knowledge[sm_world]
               or _world_id(entry) in frozen.get(cid, ())]
        if not src:
            continue    # nothing to deliver, nobody to regroup
        corridor, hops = _delivery_corridor(
            plan.net, set(cl.state_sets[cid]) | stations, config.initial,
            [config.initial[i] for i in src], config.initial[sm_index])
        at_base = cid == plan.by_depth[0] and config.count > len(config.static)
        spec = ProblemSpec(net=induced_network(plan.net, corridor), agents=config,
                           T=_horizon(hops, POST_SLACK), src=tuple(src),
                           snk=(sm_index,), rewards={}, return_to_base=at_base)
        sol, failed = _solve_cluster(truth, plan, "post", cycle, cid, roster, spec,
                                     positions, reveals, records)
        if failed:
            return True
        if sol is not None:
            for i in src:
                knowledge[sm_world] |= knowledge[_world_id(roster[i])]
    return False


# -- the loop -----------------------------------------------------------------


def run_exploration(truth: MobilityCommNetwork, agents: AgentConfig, base: str,
                    initially_known=None, max_cycles: int = MAX_CYCLES,
                    trace_dir=None) -> ExplorationLog:
    """Explore `truth` until the base knows every reachable state.

    Each cycle plans (`_plan_cycle`), pushes plans down the hierarchy
    (`_pre_phase`) and collects findings back up (`_post_phase`).
    """
    start = time.perf_counter()
    R = agents.count
    master = agents.anchor()
    static = agents.static | {master}
    positions = {r: agents.initial[r] for r in range(R)}
    known: set[str] = set(initially_known or ())
    for r in range(R):
        known |= reveal_neighborhood(truth, positions[r])
    knowledge = {r: set(known) for r in range(R)}

    if trace_dir is not None:
        try:
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InstanceError(f"cannot write trace directory "
                                f"{str(trace_dir)!r}: {exc}") from None
    log = ExplorationLog(status="running", cycles=0, n_states=len(truth.states))
    for cycle in range(1, max_cycles + 1):
        frontiers = detect_frontiers(truth, known)
        if not frontiers and knowledge[master] >= known:
            log.status = "complete"
            break
        base_before, positions_before = len(knowledge[master]), dict(positions)
        t0 = time.perf_counter()
        plan = _plan_cycle(truth, known, positions, frontiers, base, master,
                           static)
        plan_s = time.perf_counter() - t0
        if trace_dir is not None:
            _write_trace(trace_dir, cycle, plan.net, plan.clustering, positions,
                         known)
        reveals = {r: set() for r in range(R)}
        records: list[SubproblemRecord] = []
        t0 = time.perf_counter()
        endowed, frozen, failed = _pre_phase(truth, plan, cycle, positions,
                                             knowledge, reveals, records)
        pre_s, post_s = time.perf_counter() - t0, 0.0
        if not failed:
            for r in range(R):      # knowledge gained while exploring
                knowledge[r] |= reveals[r]
            t0 = time.perf_counter()
            failed = _post_phase(truth, plan, cycle, endowed, frozen, positions,
                                 knowledge, reveals, records)
            post_s = time.perf_counter() - t0

        log.subproblems.extend(records)
        new_states = set().union(*reveals.values()) - known
        for r in range(R):
            knowledge[r] |= reveals[r]
        known |= new_states
        base_gain = len(knowledge[master]) - base_before
        log.outcomes.append(CycleOutcome(
            cycle=cycle, n_clusters=len(plan.clustering.groups),
            endowed=tuple(sorted(endowed)),
            frontiers_before=len(frontiers),
            new_states=tuple(sorted(new_states,
                                    key=lambda s: truth.index(s))),
            base_gain=base_gain,
            max_solve_time=max((rec.wall_time for rec in records), default=0.0),
            plan_s=plan_s, pre_s=pre_s, post_s=post_s))
        log.cycles = cycle

        if failed:
            log.status = "verification_failed"
            break
        if not new_states and base_gain == 0 and positions == positions_before:
            log.status = "stalled"
            break
    else:
        log.status = "cycle_limit"

    log.known = frozenset(known)
    log.base_knowledge = frozenset(knowledge[master])
    log.wall_time = time.perf_counter() - start
    return log


def _cluster_rewards(plan: _CyclePlan, cid, positions, news_children):
    """Frontier tiers, approach gradients, child values, evac fallbacks."""
    rewards: dict[tuple[str, int], float] = {}
    territory = plan.clustering.state_sets[cid]
    for s in territory:
        if s in plan.frontiers:
            for k in range(1, K_MAX + 1):
                value = FRONTIER_REWARD * REWARD_DECAY ** (k - 1)
                if k == 1:
                    value += CENTRALITY_WEIGHT * plan.centrality.get(s, 0.0)
                rewards[(s, k)] = rewards.get((s, k), 0.0) + value
        elif s in plan.frontier_dist:
            value = FRONTIER_REWARD * GRADIENT_DECAY ** plan.frontier_dist[s]
            if value >= GRADIENT_MIN:
                rewards[(s, 1)] = rewards.get((s, 1), 0.0) + value
    for c in plan.children[cid]:
        value = REWARD_DECAY * plan.subtree_value[c]
        if c in news_children:
            value += NEWS_REWARD
        if value > 0:
            station = positions[plan.clustering.submasters[c]]
            rewards[(station, 1)] = rewards.get((station, 1), 0.0) + value
    if not rewards:
        for s in detect_frontiers(plan.net, set(territory)):
            for k in range(1, K_MAX + 1):
                rewards[(s, k)] = EVAC_REWARD * REWARD_DECAY ** (k - 1)
    return rewards


def _write_trace(trace_dir, cycle, plan_net, clustering, positions, known):
    path = Path(trace_dir)
    dot = clusters_to_dot(plan_net, clustering, initial=dict(positions))
    write_text(path / f"cycle{cycle:03d}_clusters.dot", dot)
    state = {"cycle": cycle,
             "positions": {str(r): s for r, s in sorted(positions.items())},
             "known": sorted(known),
             "clusters": clustering.to_dict()}
    write_json(path / f"cycle{cycle:03d}_state.json", state)

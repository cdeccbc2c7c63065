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
  additionally requires a returning agent near the base.

Movement reveals the one-hop mobility neighbourhood of every visited state.
The loop ends when no frontiers remain and the base knows every revealed
state; a cycle that neither reveals nor delivers anything new aborts as a
stall.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import verify
from .cluster import Clustering, cluster_instance, clusters_to_dot, prune_dead_states
from .ilp import AgentConfig, ProblemSpec
from .network import (MobilityCommNetwork, betweenness_centrality, build_network,
                      hop_bfs)
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
POST_T_CAP = 12             # retry ceiling for infeasible collection problems
TERRITORY_SPAN = 2.0        # target territory size, in states per horizon step
MAX_CYCLES = 40
SOLVE_TIME_LIMIT = 55.0
PRE_GAP = 0.05              # relative MIP gap: reward plans near-optimal
POST_GAP = 0.25             # collection plans only need to be feasible

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
    """Subnetwork on `states` keeping every edge and cost override inside it."""
    keep = set(states)
    ordered = [s for s in net.states if s in keep]
    mobility = [(a, b, w) for (a, b), w in net.mobility.items()
                if a in keep and b in keep]
    comm = [(a, b, w) for (a, b), w in net.comm.items() if a in keep and b in keep]

    def kept(overrides):
        return {(t, a, b): w for (t, a, b), w in overrides.items()
                if a in keep and b in keep}

    return build_network(ordered, mobility, comm, self_loops=False,
                         mobility_overrides=kept(net.mobility_overrides),
                         comm_overrides=kept(net.comm_overrides))


def _hop_distances(net: MobilityCommNetwork, sources, within=None) -> dict[str, int]:
    """Undirected multi-source hop distances, optionally restricted."""
    dist: dict[str, int] = {}
    for s, p in hop_bfs(net, sources, within).items():
        dist[s] = 0 if s == p else dist[p] + 1
    return dist


def _delivery_corridor(net: MobilityCommNetwork, allowed, initial,
                       src_positions, sm_position) -> set[str]:
    """States needed to route each source to the submaster.

    Every agent position plus, per source, the hops of one shortest
    undirected path to the submaster; keeps collection problems small even
    in large territories.
    """
    parent = hop_bfs(net, [sm_position], within=allowed)
    corridor = {sm_position} | set(initial.values())
    for p in src_positions:
        while p in parent and p != sm_position:
            corridor.add(p)
            p = parent[p]
    return corridor


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


@dataclass
class CycleOutcome:
    cycle: int
    n_clusters: int
    endowed: tuple[int, ...]
    frontiers_before: int
    new_states: tuple[str, ...]
    base_gain: int
    max_solve_time: float


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
            "outcomes": [{
                "cycle": o.cycle, "clusters": o.n_clusters,
                "endowed": list(o.endowed), "frontiers": o.frontiers_before,
                "new_states": len(o.new_states), "base_gain": o.base_gain,
                "max_solve_time": o.max_solve_time,
            } for o in self.outcomes],
        }


# -- subproblem assembly -----------------------------------------------------


def _sub_agents(positions, locals_, stations, submaster):
    """AgentConfig over cluster members plus static pseudo agents at stations.

    Returns (config, roster): roster[i] is the world agent id for local
    index i, or ("station", world_id) for a child submaster's station.
    """
    roster = [r for r in locals_] + [("station", r) for r, _ in stations]
    initial = {}
    static = set()
    for i, entry in enumerate(roster):
        if isinstance(entry, tuple):
            initial[i] = dict(stations)[entry[1]]
            static.add(i)
        else:
            initial[i] = positions[entry]
    sm_index = roster.index(submaster)
    static.add(sm_index)
    config = AgentConfig(count=len(roster), initial=initial,
                         static=frozenset(static),
                         masters=frozenset({sm_index}))
    return config, roster, sm_index


def _pre_spec(sub_net, config, T, rewards):
    return ProblemSpec(net=sub_net, agents=config, T=T, src=(), snk=(),
                       rewards=rewards, information_consistent=True,
                       awareness_reward=True)


def _post_spec(sub_net, config, T, sm_index, src, at_base):
    return ProblemSpec(net=sub_net, agents=config, T=T,
                       src=tuple(src), snk=(sm_index,), rewards={},
                       return_to_base=at_base)


def _verify_plan(spec, plan, phase):
    violations = list(verify.check_dynamics(plan, spec))
    violations += verify.check_flows(plan, spec)
    if phase == "pre":
        violations += verify.check_consistency(plan, spec)
    else:
        report = verify.information_reachability(plan, spec)
        violations += [f"undelivered source {i} -> sink {j}"
                       for (i, j) in report.unreachable()]
    return violations


# -- the loop -----------------------------------------------------------------


def run_exploration(truth: MobilityCommNetwork, agents: AgentConfig, base: str,
                    initially_known=None, t_max: int = T_MAX,
                    max_cycles: int = MAX_CYCLES, trace_dir=None) -> ExplorationLog:
    """Explore `truth` until the base knows every reachable state."""
    start = time.time()
    R = agents.count
    master = min(agents.masters) if agents.masters else 0
    positions = {r: agents.initial[r] for r in range(R)}
    known: set[str] = (set(initially_known) if initially_known is not None
                       else set())
    for r in range(R):
        known |= reveal_neighborhood(truth, positions[r])
    knowledge = {r: set(known) for r in range(R)}

    log = ExplorationLog(status="running", cycles=0, n_states=len(truth.states))
    for cycle in range(1, max_cycles + 1):
        frontiers = detect_frontiers(truth, known)
        if not frontiers and knowledge[master] >= known:
            log.status = "complete"
            break
        base_before = len(knowledge[master])

        plan_states = prune_dead_states(
            induced_network(truth, known), None,
            protected=set(positions.values()) | set(frontiers) | {base})
        plan_net = induced_network(truth, plan_states)
        cycle_agents = AgentConfig(count=R, initial=dict(positions),
                                   masters=frozenset({master}),
                                   static=frozenset({master}))
        k = max(math.ceil(R / 4),
                min(R // 2,
                    math.ceil(len(plan_net.states) / (TERRITORY_SPAN * t_max))))
        clustering = cluster_instance(plan_net, cycle_agents, k=k)
        centrality = betweenness_centrality(plan_net)
        frontier_dist = _hop_distances(plan_net,
                                       [s for s in frontiers
                                        if plan_net.has_state(s)])
        if trace_dir is not None:
            _write_trace(trace_dir, cycle, plan_net, clustering, positions, known)

        by_depth = sorted(clustering.active_ids(),
                          key=lambda c: (clustering.depth(c), c))
        children = {cid: [c for c in by_depth
                          if clustering.parents.get(c) == cid]
                    for cid in by_depth}
        frontier_set = set(frontiers)
        subtree_value: dict[int, float] = {}
        subtree_members: dict[int, set[int]] = {}
        for cid in reversed(by_depth):
            own = sum(FRONTIER_REWARD for s in clustering.state_sets[cid]
                      if s in frontier_set)
            subtree_value[cid] = own + sum(REWARD_DECAY * subtree_value[c]
                                           for c in children[cid])
            subtree_members[cid] = set(clustering.groups[cid]).union(
                *(subtree_members[c] for c in children[cid]))

        endowed = {by_depth[0]} if by_depth else set()
        cycle_reveals: dict[int, set[str]] = {r: set() for r in range(R)}
        post_reveals: dict[int, set[str]] = {r: set() for r in range(R)}
        frozen: dict[int, set[int]] = {}
        records: list[SubproblemRecord] = []
        failed = False

        # pre phase, top-down
        logger.debug("cycle %d: k=%d groups=%s parents=%s submasters=%s",
                     cycle, k, clustering.groups, clustering.parents,
                     clustering.submasters)
        for cid in by_depth:
            if cid not in endowed:
                logger.debug("pre c%d: not endowed (members %s)",
                             cid, clustering.groups[cid])
                continue
            territory = clustering.state_sets[cid]
            sm_world = clustering.submasters[cid]
            news_children = {
                c for c in children[cid]
                if any(knowledge[r] - knowledge[sm_world]
                       for r in subtree_members[c])}
            rewards = _cluster_rewards(plan_net, clustering, cid, frontier_set,
                                       frontier_dist, centrality, children[cid],
                                       subtree_value, positions, news_children)
            if not rewards and not children[cid]:
                continue    # nothing to chase, nobody to endow
            stations = [(clustering.submasters[c],
                         positions[clustering.submasters[c]])
                        for c in children[cid]]
            config, roster, sm_index = _sub_agents(
                positions, clustering.groups[cid], stations, sm_world)
            member_pos = [positions[r] for r in clustering.groups[cid]]
            reach = _hop_distances(plan_net, member_pos, within=territory)
            T = max(1, min(t_max,
                           max((d for d in reach.values()), default=0) + 2))
            # states beyond T hops are unreachable within the horizon;
            # trimming them keeps the model small without losing plans
            in_range = {s for s in territory if reach.get(s, t_max + 1) <= T}
            sub_net = induced_network(
                plan_net, in_range | {s for _, s in stations})
            rewards = {(s, kk): v for (s, kk), v in rewards.items()
                       if sub_net.has_state(s)}
            spec = _pre_spec(sub_net, config, T, rewards)
            model, result, plan = solve_problem(spec,
                                                time_limit=SOLVE_TIME_LIMIT,
                                                gap=PRE_GAP)
            if plan is None:
                records.append(SubproblemRecord(
                    cycle, cid, "pre", tuple(roster), T, result.status,
                    result.objective, result.wall_time, False,
                    (result.message or result.status,)))
                failed = True
                break
            violations = _verify_plan(spec, plan, "pre")
            records.append(SubproblemRecord(
                cycle, cid, "pre", tuple(roster), T, result.status,
                result.objective, result.wall_time, not violations,
                tuple(violations)))
            if violations:
                failed = True
                break
            master_layers = verify.master_token_layers(spec, plan.paths)
            covered = set().union(*master_layers) if master_layers else set()
            if logger.isEnabledFor(logging.DEBUG):
                sta = {c: (positions[clustering.submasters[c]],
                           positions[clustering.submasters[c]] in covered)
                       for c in children[cid]}
                logger.debug("pre c%d depth=%d members=%s sm=%d |terr|=%d T=%d "
                             "obj=%.1f rewards=%d stations=%s pos=%s",
                             cid, clustering.depth(cid), clustering.groups[cid],
                             sm_world, len(territory), T, result.objective,
                             len(rewards), sta, member_pos)
            # execute: move members, record reveals, spot stranded members
            for i, entry in enumerate(roster):
                if isinstance(entry, tuple):
                    continue
                path = plan.paths[i]
                positions[entry] = path[-1]
                for s in path:
                    cycle_reveals[entry] |= reveal_neighborhood(truth, s)
                if len(set(path)) == 1 and path[0] not in covered:
                    frozen.setdefault(cid, set()).add(entry)
            # endow children whose stations the master token covered
            for c in children[cid]:
                if positions[clustering.submasters[c]] in covered:
                    endowed.add(c)

        # knowledge gained while exploring
        if not failed:
            for r in range(R):
                knowledge[r] |= cycle_reveals[r]

            # post phase, bottom-up
            for cid in sorted(endowed,
                              key=lambda c: (-clustering.depth(c), c)):
                territory = clustering.state_sets[cid]
                sm_world = clustering.submasters[cid]
                stations = [(clustering.submasters[c],
                             positions[clustering.submasters[c]])
                            for c in children[cid]]
                config, roster, sm_index = _sub_agents(
                    positions, clustering.groups[cid], stations, sm_world)
                src = []
                for i, entry in enumerate(roster):
                    wid = entry[1] if isinstance(entry, tuple) else entry
                    has_news = bool(knowledge[wid] - knowledge[sm_world])
                    if has_news or wid in frozen.get(cid, ()):
                        src.append(i)
                if not src:
                    continue    # nothing to deliver, nobody to regroup
                allowed = set(territory) | {s for _, s in stations}
                corridor = _delivery_corridor(
                    plan_net, allowed, config.initial,
                    [config.initial[i] for i in src],
                    config.initial[sm_index])
                sub_net = induced_network(plan_net, corridor)
                n_dynamic = sum(1 for i in range(config.count)
                                if i not in config.static)
                at_base = cid == by_depth[0] and n_dynamic > 0
                record, plan, used_src = _solve_post(
                    sub_net, config, t_max, sm_index, src, at_base,
                    cycle, cid, roster)
                if record is None:
                    continue    # every source proved unreachable; regroup later
                records.append(record)
                if plan is None or not record.verified:
                    failed = True
                    break
                delivered = set()
                for i in used_src:
                    entry = roster[i]
                    wid = entry[1] if isinstance(entry, tuple) else entry
                    delivered |= knowledge[wid]
                knowledge[sm_world] |= delivered
                for i, entry in enumerate(roster):
                    if isinstance(entry, tuple):
                        continue
                    path = plan.paths[i]
                    positions[entry] = path[-1]
                    for s in path:
                        post_reveals[entry] |= reveal_neighborhood(truth, s)

        log.subproblems.extend(records)
        revealed = set().union(*cycle_reveals.values()) \
            | set().union(*post_reveals.values())
        new_states = revealed - known
        for r in range(R):
            knowledge[r] |= post_reveals[r]
        known |= new_states
        base_gain = len(knowledge[master]) - base_before
        log.outcomes.append(CycleOutcome(
            cycle=cycle, n_clusters=len(clustering.groups),
            endowed=tuple(sorted(endowed)),
            frontiers_before=len(frontiers),
            new_states=tuple(sorted(new_states,
                                    key=lambda s: truth.index(s))),
            base_gain=base_gain,
            max_solve_time=max((rec.wall_time for rec in records), default=0.0)))
        log.cycles = cycle

        if failed:
            log.status = "verification_failed"
            break
        if not new_states and base_gain == 0:
            log.status = "stalled"
            break
    else:
        log.status = "cycle_limit"

    log.known = frozenset(known)
    log.base_knowledge = frozenset(knowledge[master])
    log.wall_time = time.time() - start
    return log


def _cluster_rewards(plan_net, clustering: Clustering, cid, frontier_set,
                     frontier_dist, centrality, child_ids, subtree_value,
                     positions, news_children):
    """Frontier tiers, approach gradients, child values, evac fallbacks."""
    rewards: dict[tuple[str, int], float] = {}
    territory = clustering.state_sets[cid]
    for s in territory:
        if s in frontier_set:
            for k in range(1, K_MAX + 1):
                value = FRONTIER_REWARD * REWARD_DECAY ** (k - 1)
                if k == 1:
                    value += CENTRALITY_WEIGHT * centrality.get(s, 0.0)
                rewards[(s, k)] = rewards.get((s, k), 0.0) + value
        elif s in frontier_dist:
            value = FRONTIER_REWARD * GRADIENT_DECAY ** frontier_dist[s]
            if value >= GRADIENT_MIN:
                rewards[(s, 1)] = rewards.get((s, 1), 0.0) + value
    for c in child_ids:
        value = REWARD_DECAY * subtree_value[c]
        if c in news_children:
            value += NEWS_REWARD
        if value > 0:
            station = positions[clustering.submasters[c]]
            rewards[(station, 1)] = rewards.get((station, 1), 0.0) + value
    if not rewards:
        inside = set(territory)
        rows = plan_net.undirected_mobility()
        border = [s for s in territory
                  if any(plan_net.states[v] not in inside
                         for v in rows[plan_net.index(s)])]
        for s in border:
            for k in range(1, K_MAX + 1):
                rewards[(s, k)] = EVAC_REWARD * REWARD_DECAY ** (k - 1)
    return rewards


def _solve_post(sub_net, config, t_max, sm_index, src, at_base,
                cycle, cid, roster):
    """Collection problem with horizon-retry and source-drop ladders.

    Infeasibility is first answered by lengthening the horizon; once the
    ceiling is hit, the source farthest from the submaster is postponed to
    a later cycle and the ladder restarts.  Returns (record, plan, sources
    actually served); record is None when every source was postponed.
    """
    dist = _hop_distances(sub_net, [config.initial[sm_index]])
    far = len(sub_net.states) + 1
    src_left = sorted(src)
    t0 = max(1, min(t_max,
                    max((dist.get(config.initial[i], far) for i in src_left),
                        default=1) + 2))
    horizon = t0
    while src_left:
        spec = _post_spec(sub_net, config, horizon, sm_index, src_left, at_base)
        model, result, plan = solve_problem(spec,
                                            time_limit=SOLVE_TIME_LIMIT,
                                            gap=POST_GAP)
        if plan is not None:
            violations = _verify_plan(spec, plan, "post")
            return SubproblemRecord(
                cycle, cid, "post", tuple(roster), horizon, result.status,
                result.objective, result.wall_time, not violations,
                tuple(violations)), plan, src_left
        if result.status in ("infeasible", "limit"):
            if result.status == "infeasible" and horizon + 2 <= POST_T_CAP:
                horizon += 2
                continue
            # out of ladder: postpone the farthest source to a later cycle
            drop = max(src_left,
                       key=lambda i: (dist.get(config.initial[i], far), i))
            src_left.remove(drop)
            horizon = t0
            continue
        return SubproblemRecord(
            cycle, cid, "post", tuple(roster), horizon, result.status,
            result.objective, result.wall_time, False,
            (result.message or result.status,)), None, src_left
    return None, None, []


def _write_trace(trace_dir, cycle, plan_net, clustering, positions, known):
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    dot = clusters_to_dot(plan_net, clustering, initial=dict(positions))
    (path / f"cycle{cycle:03d}_clusters.dot").write_text(dot)
    state = {"cycle": cycle,
             "positions": {str(r): s for r, s in sorted(positions.items())},
             "known": sorted(known),
             "clusters": clustering.to_dict()}
    (path / f"cycle{cycle:03d}_state.json").write_text(
        json.dumps(state, indent=2, sort_keys=True) + "\n")

"""World bookkeeping, reward shaping, and the exploration loop end to end."""

import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import icplan
from icplan.cluster import Clustering
from icplan import cli, explore
from icplan.explore import (_cluster_rewards, _CyclePlan, _delivery_corridor,
                            _hop_distances, _plan_cycle, _post_phase,
                            _pre_phase, _solve_summary, detect_frontiers,
                            induced_network, reveal_neighborhood, run_exploration)
from icplan.ilp import AgentConfig
from icplan.instances import exploration_world
from icplan.network import build_network
from icplan.solver import SolveResult

from _helpers import line_network


def _bidirectional(states, pairs):
    mobility = []
    for a, b in pairs:
        mobility += [(a, b, 1.0), (b, a, 1.0)]
    comm = [(a, b, 0.0) for a, b, _ in mobility]
    return build_network(states, mobility, comm)


# -- world bookkeeping ---------------------------------------------------------


def test_visiting_reveals_the_one_hop_neighbourhood():
    net = line_network(5)
    assert reveal_neighborhood(net, "s2") == {"s1", "s2", "s3"}
    assert reveal_neighborhood(net, "s0") == {"s0", "s1"}


def test_frontiers_are_known_states_with_unknown_neighbours():
    net = line_network(5)
    assert detect_frontiers(net, {"s0", "s1"}) == ("s1",)
    assert detect_frontiers(net, {"s1", "s2"}) == ("s1", "s2")
    assert detect_frontiers(net, set(net.states)) == ()


def test_induced_network_keeps_interior_edges_only():
    net = line_network(5)
    sub = induced_network(net, {"s0", "s1", "s2"})
    assert sub.states == ("s0", "s1", "s2")
    # the parent's explicit self-loops survive; edges to s3/s4 do not
    loops = {(s, s) for s in sub.states}
    assert set(sub.mobility) == loops | {("s0", "s1"), ("s1", "s0"),
                                         ("s1", "s2"), ("s2", "s1")}
    assert set(sub.comm) == set(sub.mobility) - loops


def test_hop_diameter_on_lines_and_fragments():
    net = line_network(5)

    def diameter(within):
        return max(max(_hop_distances(net, [s], within=within).values())
                   for s in within)

    assert diameter(set(net.states)) == 4
    assert diameter({"s2"}) == 0
    # a disconnected restriction measures within components only
    assert diameter({"s0", "s4"}) == 0


def test_hop_distances_respect_the_restriction():
    net = line_network(5)
    assert _hop_distances(net, ["s0"]) == {"s0": 0, "s1": 1, "s2": 2,
                                           "s3": 3, "s4": 4}
    assert _hop_distances(net, ["s0"], within={"s0", "s1", "s2"}) == \
        {"s0": 0, "s1": 1, "s2": 2}


def test_reach_radius_is_the_farthest_hop():
    net = line_network(5)
    assert max(_hop_distances(net, ["s2"], within=set(net.states)).values()) == 2
    assert max(_hop_distances(net, ["s0"], within=set(net.states)).values()) == 4


def test_delivery_corridor_routes_each_source_home():
    net = line_network(6)
    corridor, hops = _delivery_corridor(net, net.states, {0: "s0", 1: "s5"},
                                        ["s2", "s0"], "s0")
    # submaster, all agent positions, and the s2 -> s0 shortest path
    assert corridor == {"s0", "s1", "s2", "s5"}
    assert hops == [2, 0]
    # a source outside the allowed states has no path: |corridor| + 1 hops
    corridor, hops = _delivery_corridor(net, {"s0", "s1", "s2"},
                                        {0: "s0", 1: "s5"}, ["s2", "s5"], "s0")
    assert corridor == {"s0", "s1", "s2", "s5"}
    assert hops == [2, 5]


def test_delivery_corridor_takes_the_lower_index_parent_on_ties():
    # diamond hub-{z, a}-src: both middles are one hop from each end; "z"
    # precedes "a" in state order though not in name order
    net = _bidirectional(["hub", "z", "a", "src"],
                         [("hub", "z"), ("hub", "a"), ("z", "src"), ("a", "src")])
    corridor, hops = _delivery_corridor(net, net.states, {0: "hub", 1: "src"},
                                        ["src"], "hub")
    assert corridor == {"hub", "z", "src"}
    assert hops == [2]


# -- reward shaping --------------------------------------------------------------


def _solo_clustering(states):
    return Clustering(groups={1: (0,)}, state_sets={1: tuple(states)},
                      submasters={1: 0}, parents={1: None}, activation_edges={})


def _reward_plan(net, clustering, frontiers=(), frontier_dist=None,
                 centrality=None, children=(), subtree_value=None):
    """A _CyclePlan holding what _cluster_rewards reads for cluster 1."""
    return _CyclePlan(net, 1, clustering, frozenset(frontiers), frontier_dist or {},
                      centrality or {}, frozenset(), [1], {1: list(children)},
                      subtree_value or {}, {})


def test_frontier_rewards_decay_per_tier_and_per_hop():
    net = line_network(3)
    plan = _reward_plan(net, _solo_clustering(net.states), {"s2"},
                        _hop_distances(net, ["s2"]))
    rewards = _cluster_rewards(plan, 1, {}, set())
    assert rewards[("s2", 1)] == pytest.approx(100.0)
    assert rewards[("s2", 2)] == pytest.approx(50.0)
    assert rewards[("s1", 1)] == pytest.approx(60.0)
    assert rewards[("s0", 1)] == pytest.approx(36.0)
    assert ("s0", 2) not in rewards


def test_faint_gradients_are_dropped():
    net = line_network(13)
    plan = _reward_plan(net, _solo_clustering(net.states), {"s12"},
                        _hop_distances(net, ["s12"]))
    rewards = _cluster_rewards(plan, 1, {}, set())
    assert ("s0", 1) not in rewards      # 100 * 0.6^12 < 0.5
    assert ("s1", 1) not in rewards
    assert rewards[("s2", 1)] == pytest.approx(100.0 * 0.6 ** 10)


def test_central_frontiers_get_a_tiebreak_bonus():
    net = line_network(3)
    plan = _reward_plan(net, _solo_clustering(net.states), {"s2"}, {"s2": 0},
                        {"s2": 7.5})
    rewards = _cluster_rewards(plan, 1, {}, set())
    assert rewards[("s2", 1)] == pytest.approx(107.5)
    assert rewards[("s2", 2)] == pytest.approx(50.0)


def test_child_stations_earn_subtree_value_and_news_bonus():
    net = line_network(4)
    clustering = Clustering(groups={1: (0,), 2: (1,)},
                            state_sets={1: ("s0", "s1"), 2: ("s2", "s3")},
                            submasters={1: 0, 2: 1},
                            parents={1: None, 2: 1},
                            activation_edges={2: ("s1", "s2")})
    plan = _reward_plan(net, clustering, children=[2], subtree_value={2: 200.0})
    positions = {0: "s0", 1: "s1"}
    quiet = _cluster_rewards(plan, 1, positions, set())
    assert quiet == {("s1", 1): pytest.approx(100.0)}
    noisy = _cluster_rewards(plan, 1, positions, {2})
    assert noisy == {("s1", 1): pytest.approx(125.0)}


def test_spent_clusters_fall_back_to_border_rewards():
    net = line_network(5)
    plan = _reward_plan(net, _solo_clustering(["s1", "s2"]))
    rewards = _cluster_rewards(plan, 1, {}, set())
    assert rewards == {("s1", 1): 50.0, ("s1", 2): 25.0,
                       ("s2", 1): 50.0, ("s2", 2): 25.0}
    # a territory with no outside neighbours has nowhere to evacuate to
    whole = _reward_plan(net, _solo_clustering(net.states))
    assert _cluster_rewards(whole, 1, {}, set()) == {}


# -- cycle stages ------------------------------------------------------------------


def test_plan_cycle_ranks_clusters_root_first_with_subtree_values():
    net = line_network(40)
    positions = {0: "s0", 1: "s1", 2: "s2", 3: "s37", 4: "s38", 5: "s39"}
    plan = _plan_cycle(net, set(net.states), positions, ("s39",), "s0", 0,
                       frozenset({0}))
    # max(ceil(6 / 4), min(6 // 2, ceil(40 states / (2.0 * T_MAX = 8))))
    assert plan.k == 3
    assert plan.by_depth == [1, 2, 3]
    assert [plan.clustering.depth(c) for c in plan.by_depth] == [0, 1, 2]
    assert plan.children == {1: [2], 2: [3], 3: []}
    assert plan.clustering.submasters[1] == 0
    # the frontier's 100 halves per tier on its way up to the root
    assert plan.subtree_value == {3: 100.0, 2: 50.0, 1: 25.0}
    assert plan.subtree_members == {1: set(range(6)), 2: {2, 3, 4, 5}, 3: {4, 5}}
    assert plan.frontier_dist["s39"] == 0 and plan.frontier_dist["s0"] == 39


def test_pre_phase_endows_covered_stations_and_freezes_unreached_members():
    # b - c - d - y, plus an island "far"; the master (0) sits at b and its
    # only member (1) at y, where no one can carry the master token
    net = _bidirectional(["b", "c", "d", "y", "far"],
                         [("b", "c"), ("c", "d"), ("d", "y")])
    clustering = Clustering(groups={1: (0, 1), 2: (2,), 3: (3,)},
                            state_sets={1: ("b", "d", "y"), 2: ("c",),
                                        3: ("far",)},
                            submasters={1: 0, 2: 2, 3: 3},
                            parents={1: None, 2: 1, 3: 1},
                            activation_edges={2: ("b", "c"), 3: ("y", "far")})
    plan = _CyclePlan(net, 3, clustering, frozenset(), {}, {}, frozenset({0}),
                      [1, 2, 3], {1: [2, 3], 2: [], 3: []},
                      {1: 0.0, 2: 100.0, 3: 100.0},
                      {1: {0, 1, 2, 3}, 2: {2}, 3: {3}})
    positions = {0: "b", 1: "y", 2: "c", 3: "far"}
    reveals = {r: set() for r in range(4)}
    records = []
    endowed, frozen, failed = _pre_phase(net, plan, 1, positions,
                                         {r: set() for r in range(4)},
                                         reveals, records)
    assert not failed
    # station c is one comm hop from the master; the island is never reached
    assert endowed == {1, 2}
    assert frozen[1] == {1}
    assert positions == {0: "b", 1: "y", 2: "c", 3: "far"}
    assert reveals[1] == {"d", "y"} and reveals[3] == set()
    assert [(r.cluster, r.phase, r.roster, r.horizon, r.verified)
            for r in records] == [
        (1, "pre", (0, 1, ("station", 2), ("station", 3)), 3, True),
        (2, "pre", (2,), 2, True)]


def test_a_reward_problem_without_a_plan_moves_nobody(monkeypatch):
    # a solve stopped at the time limit with no incumbent rejects no plan:
    # it is not recorded, moves nobody, endows no child and fails no run
    def no_plan(spec, **kwargs):
        return None, SolveResult("limit", None, message="time limit reached"), None

    monkeypatch.setattr(explore, "solve_problem", no_plan)
    net = _bidirectional(["b", "c", "d"], [("b", "c"), ("c", "d")])
    clustering = Clustering(groups={1: (0, 1), 2: (2,)},
                            state_sets={1: ("b", "d"), 2: ("c",)},
                            submasters={1: 0, 2: 2}, parents={1: None, 2: 1},
                            activation_edges={2: ("b", "c")})
    plan = _CyclePlan(net, 2, clustering, frozenset({"d"}), {}, {}, frozenset({0}),
                      [1, 2], {1: [2], 2: []}, {1: 100.0, 2: 0.0},
                      {1: {0, 1, 2}, 2: {2}})
    positions = {0: "b", 1: "d", 2: "c"}
    reveals = {r: set() for r in range(3)}
    records = []
    assert _pre_phase(net, plan, 1, positions, {r: set() for r in range(3)},
                      reveals, records) == ({1}, {}, False)
    assert positions == {0: "b", 1: "d", 2: "c"}
    assert reveals == {0: set(), 1: set(), 2: set()} and records == []
    truth, agents, base = exploration_world(seed=0, n_states=20, n_agents=4)
    log = run_exploration(truth, agents, base, max_cycles=1)
    assert log.status == "stalled" and log.subproblems == []


def _spy_solves(monkeypatch):
    calls = []
    solve = explore.solve_problem

    def spy(spec, **kwargs):
        out = solve(spec, **kwargs)
        calls.append((spec.T, spec.src, out[1].status))
        return out

    monkeypatch.setattr(explore, "solve_problem", spy)
    return calls


def test_an_infeasible_collection_problem_is_solved_once_and_left(monkeypatch):
    # a - b plus an island x: member 1 on x holds news it can never deliver
    net = _bidirectional(["a", "b", "x"], [("a", "b")])
    clustering = Clustering(groups={1: (0, 1)}, state_sets={1: net.states},
                            submasters={1: 0}, parents={1: None},
                            activation_edges={})
    plan = _CyclePlan(net, 1, clustering, frozenset(), {}, {}, frozenset({0}),
                      [1], {1: []}, {1: 0.0}, {1: {0, 1}})
    calls = _spy_solves(monkeypatch)
    positions = {0: "a", 1: "x"}
    knowledge = {0: {"a"}, 1: {"a", "x"}}
    reveals = {0: set(), 1: set()}
    records = []
    assert not _post_phase(net, plan, 1, {1}, {}, positions, knowledge,
                           reveals, records)
    # x, cut off, counts as |S| + 1 = 3 hops from the submaster: T = 3 + 1
    assert calls == [(4, (1,), "infeasible")]
    assert records == []
    assert knowledge == {0: {"a"}, 1: {"a", "x"}}
    assert positions == {0: "a", 1: "x"}
    assert reveals == {0: set(), 1: set()}


@pytest.mark.parametrize("far", [3, explore.T_MAX])
def test_a_collection_problem_is_posed_at_its_farthest_source_plus_one(
        monkeypatch, far):
    # a line s0 - ... - s<far>: sources 1 and 2 hold news 1 and `far` hops
    # from the submaster on s0, so T = far + 1, capped at T_MAX
    states = [f"s{i}" for i in range(far + 1)]
    net = _bidirectional(states, zip(states, states[1:]))
    clustering = Clustering(groups={1: (0, 1, 2)}, state_sets={1: net.states},
                            submasters={1: 0}, parents={1: None},
                            activation_edges={})
    plan = _CyclePlan(net, 1, clustering, frozenset(), {}, {}, frozenset({0}),
                      [1], {1: []}, {1: 0.0}, {1: {0, 1, 2}})
    calls = _spy_solves(monkeypatch)
    positions = {0: "s0", 1: "s1", 2: states[-1]}
    knowledge = {0: {"s0"}, 1: {"s0", "s1"}, 2: set(states)}
    records = []
    assert not _post_phase(net, plan, 1, {1}, {}, positions, knowledge,
                           {r: set() for r in positions}, records)
    assert calls == [(min(far + 1, explore.T_MAX), (1, 2), "optimal")]
    assert [r.horizon for r in records] == [calls[0][0]]
    assert knowledge[0] == set(states)


# -- the loop ---------------------------------------------------------------------


def test_fully_known_world_completes_without_planning():
    truth, agents, base = exploration_world(seed=3, n_states=12, n_agents=2)
    log = run_exploration(truth, agents, base,
                          initially_known=set(truth.states))
    assert log.status == "complete"
    assert log.cycles == 0
    assert log.subproblems == []
    assert log.coverage == 1.0 and log.base_coverage == 1.0
    assert log.all_verified and log.max_solve_time == 0.0


def test_small_world_is_explored_and_certified(tmp_path):
    truth, agents, base = exploration_world(seed=0, n_states=20, n_agents=4)
    log = run_exploration(truth, agents, base, trace_dir=tmp_path)
    assert log.status == "complete"
    assert log.coverage == 1.0
    assert log.base_coverage == 1.0
    assert log.all_verified
    assert log.cycles >= 1
    traces = sorted(p.name for p in tmp_path.iterdir())
    assert "cycle001_clusters.dot" in traces
    assert "cycle001_state.json" in traces
    state = json.loads((tmp_path / "cycle001_state.json").read_text())
    assert set(state) == {"cycle", "positions", "known", "clusters"}
    assert set(state["positions"].values()) <= set(truth.states)


def test_cycle_budget_cuts_the_loop_short():
    truth, agents, base = exploration_world(seed=0, n_states=20, n_agents=4)
    log = run_exploration(truth, agents, base, max_cycles=1)
    assert log.status == "cycle_limit"
    assert log.cycles == 1


def test_debug_log_describes_each_pre_solve(caplog):
    caplog.set_level(logging.DEBUG, logger="icplan.explore")
    truth, agents, base = exploration_world(seed=0, n_states=20, n_agents=4)
    run_exploration(truth, agents, base, max_cycles=1)
    messages = [rec.getMessage() for rec in caplog.records]   # formats every record
    assert messages[0].startswith("cycle 1: k=")
    assert any(m.startswith("pre c1 depth=0 ") for m in messages)
    summary = r": T=\d+, [\d,]+ vars, [\d,]+ nodes?, gap \d+\.\d\d, \d+\.\d s$"
    assert any(re.search(summary, m) for m in messages if m.startswith("pre c1 "))


def test_solve_summary_reads_like_the_run_log():
    result = SolveResult("optimal", -3.0, wall_time=10.24, nodes=1, gap=0.171,
                         n_variables=2436)
    assert _solve_summary(8, result) == "T=8, 2,436 vars, 1 node, gap 0.17, 10.2 s"
    result = SolveResult("error", None, wall_time=0.01, n_variables=12)
    assert _solve_summary(2, result) == "T=2, 12 vars, no nodes, gap none, 0.0 s"


def test_unreachable_islands_do_not_block_completion():
    net = _bidirectional(["s0", "s1", "s2", "s3", "x", "y"],
                         [("s0", "s1"), ("s1", "s2"), ("s2", "s3"),
                          ("x", "y")])
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"},
                         masters=frozenset({0}), static=frozenset({0}))
    log = run_exploration(net, agents, "s0")
    assert log.status == "complete"
    assert log.known == frozenset({"s0", "s1", "s2", "s3"})
    assert log.coverage == pytest.approx(4 / 6)
    assert log.base_coverage == pytest.approx(4 / 6)
    assert log.all_verified


def test_a_team_that_cannot_move_stalls():
    # a lone static master, and a master with a member the world declares
    # static: had the member moved, it would have revealed s2
    for agents in (AgentConfig(count=1, initial={0: "s0"},
                               masters=frozenset({0}), static=frozenset({0})),
                   AgentConfig(count=2, initial={0: "s0", 1: "s0"},
                               masters=frozenset({0}), static=frozenset({0, 1}))):
        log = run_exploration(line_network(5), agents, "s0")
        assert log.status == "stalled" and log.cycles == 1
        assert log.known == frozenset({"s0", "s1"})


def test_thirty_state_sweep_completes():
    # a cycle that only regroups agents is progress, not a stall: world 3
    # stalled while the rule ignored moves
    unfinished = []
    for w in range(20):
        truth, agents, base = exploration_world(seed=w, n_states=30, n_agents=5)
        log = run_exploration(truth, agents, base)
        if log.status != "complete" or not log.all_verified:
            unfinished.append((w, log.status, log.all_verified))
    assert unfinished == []


def test_log_serialisation_matches_the_run():
    truth, agents, base = exploration_world(seed=1, n_states=15, n_agents=3)
    log = run_exploration(truth, agents, base)
    data = log.to_dict()
    assert data["status"] == log.status
    assert data["cycles"] == log.cycles == len(data["outcomes"])
    assert data["subproblems"] == len(log.subproblems)
    assert data["coverage"] == log.coverage
    for outcome in data["outcomes"]:
        assert outcome["max_solve_time"] <= data["max_solve_time"]
        assert min(outcome["plan_s"], outcome["pre_s"], outcome["post_s"]) >= 0.0
    assert sum(o["plan_s"] + o["pre_s"] + o["post_s"]
               for o in data["outcomes"]) <= data["wall_time"]
    for phase, split in data["phases"].items():
        records = [r for r in log.subproblems if r.phase == phase]
        assert records and split["solves"] == len(records)
        assert split["solve_time"] == pytest.approx(sum(r.wall_time for r in records))
    assert set(data["phases"]) == {"pre", "post"}
    assert data["failures"] == []
    assert data["subproblem_stats"] == [{
        "cycle": r.cycle, "cluster": r.cluster, "phase": r.phase,
        "horizon": r.horizon, "status": r.status, "wall_time": r.wall_time,
        "n_variables": r.n_variables, "nodes": r.nodes, "gap": r.gap,
        "highs_s": r.highs_s} for r in log.subproblems]
    for r in log.subproblems:       # every recorded solve here found a plan
        assert r.n_variables > 0 and r.nodes >= 1 and 0.0 <= r.gap < math.inf
        assert 0.0 < r.highs_s <= r.wall_time


def test_a_failed_run_says_which_plan_failed_and_why(monkeypatch, tmp_path, capsys):
    solve = explore.solve_problem

    def truncating(spec, **kwargs):
        # cut every path of a problem with a child station to its first
        # state, which plan_violations refuses
        model, result, plan = solve(spec, **kwargs)
        if plan is not None and len(spec.agents.static) > 1:
            plan = dataclasses.replace(
                plan, paths={r: p[:1] for r, p in plan.paths.items()})
        return model, result, plan

    monkeypatch.setattr(explore, "solve_problem", truncating)
    out = tmp_path / "log.json"
    assert cli.main(["explore", "--seed", "0", "--n-states", "30", "--n-agents",
                     "5", "--out", str(out)]) == cli.EXIT_VERIFICATION
    violations = [f"agent {r}: path length 1, expected 4" for r in range(4)]
    assert json.loads(out.read_text())["failures"] == [{
        "cycle": 2, "cluster": 1, "phase": "pre", "horizon": 3,
        "status": "optimal", "roster": [0, 3, 4, ["station", 1]],
        "violations": violations}]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3] == ("violation: cycle 2 cluster 1 pre T=3 status=optimal: "
                         + "; ".join(violations))
    assert lines[-2].startswith("status=verification_failed ")


_RECORDS = """
import dataclasses
from icplan.explore import run_exploration
from icplan.instances import exploration_world
truth, agents, base = exploration_world(seed=5, n_states=15, n_agents=3)
log = run_exploration(truth, agents, base)
print(log.status)
print([dataclasses.replace(r, wall_time=0.0, highs_s=0.0) for r in log.subproblems])
"""


def test_exploration_records_do_not_follow_the_hash_seed():
    # on this world, taking BFS neighbours in set order changes the records
    src = str(Path(icplan.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        outs.append(subprocess.run([sys.executable, "-c", _RECORDS], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert "phase='post'" in outs[0]
    assert outs[0] == outs[1]


# Subproblem rows (cycle, cluster, phase, horizon, status, objective) of small
# worlds, keyed by (seed, n_states, n_agents), whose solves all end optimal, so
# the rows do not depend on host speed; equal under PYTHONHASHSEED=0 and 1.
# The 15-state rows were captured from the loop before it was split into
# stages.  The 5-agent world runs two clusters from cycle 2 on, so its rows
# also cover child stations, endowment and a multi-cluster post phase.  A
# change to them must be explained in CHANGES.md; three gap-stopped rows moved
# when HiGHS's feasibility-jump heuristic was switched off, and world 0's
# cycle-4 pre row moved with the per-flow bridge M (an equal-objective
# cycle-3 collection plan left the agents elsewhere).  Every post row's T fell
# by one when collection problems went from hops + 2 to hops + 1, and world
# 0's cycle-4 pre row moved with it (T 5 -> 4, objective 205.96 -> 207.96),
# as its cycle-3 collection plan left the agents elsewhere.
_PINNED_ROWS = {
    (0, 15, 3): [
        (1, 1, "pre", 3, "optimal", 256.0),
        (1, 1, "post", 2, "optimal", -0.0),
        (2, 1, "pre", 3, "optimal", 238.0),
        (2, 1, "post", 3, "optimal", -1.0),
        (3, 1, "pre", 4, "optimal", 221.6),
        (3, 1, "post", 4, "optimal", -3.0),
        (4, 1, "pre", 4, "optimal", 207.96),
        (4, 1, "post", 5, "optimal", -3.0),
    ],
    (2, 15, 3): [
        (1, 1, "pre", 3, "optimal", 258.0),
        (1, 1, "post", 2, "optimal", -0.0),
        (2, 1, "pre", 3, "optimal", 258.0),
        (2, 1, "post", 3, "optimal", -2.0),
        (3, 1, "pre", 4, "optimal", 266.666667),
        (3, 1, "post", 4, "optimal", -4.0),
        (4, 1, "pre", 5, "optimal", 206.0),
        (4, 1, "post", 2, "optimal", -0.0),
    ],
    (0, 20, 5): [
        (1, 1, "pre", 3, "optimal", 356.0),
        (1, 1, "post", 2, "optimal", -0.0),
        (2, 1, "pre", 3, "optimal", 245.0),
        (2, 2, "pre", 3, "optimal", 159.0),
        (2, 2, "post", 2, "optimal", -0.0),
        (2, 1, "post", 3, "optimal", -0.0),
        (3, 1, "pre", 3, "optimal", 215.6),
        (3, 2, "pre", 4, "optimal", 152.0),
        (3, 2, "post", 3, "optimal", -1.0),
        (4, 1, "pre", 4, "optimal", 116.56),
        (4, 2, "pre", 4, "optimal", 119.6),
        (4, 2, "post", 4, "optimal", -2.0),
        (4, 1, "post", 3, "optimal", -2.0),
    ],
}


@pytest.mark.parametrize("seed, n_states, n_agents", sorted(_PINNED_ROWS))
def test_small_world_records_are_pinned(seed, n_states, n_agents):
    truth, agents, base = exploration_world(seed=seed, n_states=n_states,
                                            n_agents=n_agents)
    log = run_exploration(truth, agents, base)
    assert log.status == "complete" and log.all_verified
    rows = [(r.cycle, r.cluster, r.phase, r.horizon, r.status,
             round(r.objective, 6)) for r in log.subproblems]
    assert rows == _PINNED_ROWS[(seed, n_states, n_agents)]

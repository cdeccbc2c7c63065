"""World bookkeeping, reward shaping, and the exploration loop end to end."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icplan
from icplan.cluster import Clustering
from icplan.explore import (_cluster_rewards, _delivery_corridor, _hop_distances,
                            detect_frontiers, induced_network, reveal_neighborhood,
                            run_exploration)
from icplan.ilp import AgentConfig
from icplan.instances import exploration_world
from icplan.network import build_network

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


def test_induced_network_keeps_the_overrides_inside_it():
    net = build_network(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)],
                        [("a", "b", 0.0), ("b", "c", 0.0)],
                        mobility_overrides={(0, "a", "b"): 5.0, (0, "b", "c"): 7.0},
                        comm_overrides={(1, "a", "b"): 2.0, (1, "b", "c"): 3.0})
    sub = induced_network(net, ["a", "b"])
    assert sub.mobility_cost(0, "a", "b") == 5.0
    assert sub.comm_cost(1, "a", "b") == 2.0
    # overrides on the dropped edge b -> c go with it
    assert sub.mobility_overrides == {(0, "a", "b"): 5.0}
    assert sub.comm_overrides == {(1, "a", "b"): 2.0}


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
    corridor = _delivery_corridor(net, net.states, {0: "s0", 1: "s5"},
                                  ["s2"], "s0")
    # submaster, all agent positions, and the s2 -> s0 shortest path
    assert corridor == {"s0", "s1", "s2", "s5"}


def test_delivery_corridor_takes_the_lower_index_parent_on_ties():
    # diamond hub-{z, a}-src: both middles are one hop from each end; "z"
    # precedes "a" in state order though not in name order
    net = _bidirectional(["hub", "z", "a", "src"],
                         [("hub", "z"), ("hub", "a"), ("z", "src"), ("a", "src")])
    corridor = _delivery_corridor(net, net.states, {0: "hub", 1: "src"},
                                  ["src"], "hub")
    assert corridor == {"hub", "z", "src"}


# -- reward shaping --------------------------------------------------------------


def _solo_clustering(states):
    return Clustering(groups={1: (0,)}, state_sets={1: tuple(states)},
                      submasters={1: 0}, parents={1: None}, activation_edges={})


def test_frontier_rewards_decay_per_tier_and_per_hop():
    net = line_network(3)
    clustering = _solo_clustering(net.states)
    rewards = _cluster_rewards(net, clustering, 1, {"s2"},
                               _hop_distances(net, ["s2"]), {}, [], {}, {}, set())
    assert rewards[("s2", 1)] == pytest.approx(100.0)
    assert rewards[("s2", 2)] == pytest.approx(50.0)
    assert rewards[("s1", 1)] == pytest.approx(60.0)
    assert rewards[("s0", 1)] == pytest.approx(36.0)
    assert ("s0", 2) not in rewards


def test_faint_gradients_are_dropped():
    net = line_network(13)
    clustering = _solo_clustering(net.states)
    rewards = _cluster_rewards(net, clustering, 1, {"s12"},
                               _hop_distances(net, ["s12"]), {}, [], {}, {}, set())
    assert ("s0", 1) not in rewards      # 100 * 0.6^12 < 0.5
    assert ("s1", 1) not in rewards
    assert rewards[("s2", 1)] == pytest.approx(100.0 * 0.6 ** 10)


def test_central_frontiers_get_a_tiebreak_bonus():
    net = line_network(3)
    clustering = _solo_clustering(net.states)
    rewards = _cluster_rewards(net, clustering, 1, {"s2"}, {"s2": 0},
                               {"s2": 7.5}, [], {}, {}, set())
    assert rewards[("s2", 1)] == pytest.approx(107.5)
    assert rewards[("s2", 2)] == pytest.approx(50.0)


def test_child_stations_earn_subtree_value_and_news_bonus():
    net = line_network(4)
    clustering = Clustering(groups={1: (0,), 2: (1,)},
                            state_sets={1: ("s0", "s1"), 2: ("s2", "s3")},
                            submasters={1: 0, 2: 1},
                            parents={1: None, 2: 1},
                            activation_edges={2: ("s1", "s2")})
    positions = {0: "s0", 1: "s1"}
    quiet = _cluster_rewards(net, clustering, 1, set(), {}, {}, [2],
                             {2: 200.0}, positions, set())
    assert quiet == {("s1", 1): pytest.approx(100.0)}
    noisy = _cluster_rewards(net, clustering, 1, set(), {}, {}, [2],
                             {2: 200.0}, positions, {2})
    assert noisy == {("s1", 1): pytest.approx(125.0)}


def test_spent_clusters_fall_back_to_border_rewards():
    net = line_network(5)
    clustering = _solo_clustering(["s1", "s2"])
    rewards = _cluster_rewards(net, clustering, 1, set(), {}, {}, [], {}, {}, set())
    assert rewards == {("s1", 1): 50.0, ("s1", 2): 25.0,
                       ("s2", 1): 50.0, ("s2", 2): 25.0}
    # a territory with no outside neighbours has nowhere to evacuate to
    whole = _cluster_rewards(net, _solo_clustering(net.states), 1,
                             set(), {}, {}, [], {}, {}, set())
    assert whole == {}


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


_RECORDS = """
import dataclasses
from icplan.explore import run_exploration
from icplan.instances import exploration_world
truth, agents, base = exploration_world(seed=5, n_states=15, n_agents=3)
log = run_exploration(truth, agents, base)
print(log.status)
print([dataclasses.replace(r, wall_time=0.0) for r in log.subproblems])
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

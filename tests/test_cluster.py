"""Agent clustering, territory growth, and the activation hierarchy."""

import hashlib
import json
import random

import numpy as np
import pytest

from icplan.cluster import (Clustering, _farthest_first_kmeans,
                            _merge_shared_starts, _touching_cluster,
                            build_hierarchy, cluster_instance, cluster_with_retry,
                            clusters_to_dot, grow_state_clusters, prune_dead_states,
                            similarity_matrix, spectral_cluster_agents,
                            weak_components)
from icplan.explore import induced_network
from icplan.ilp import AgentConfig
from icplan.instances import random_cluster_graph
from icplan.network import betweenness_centrality, build_network

from _helpers import line_network, random_net, rescan_prune


def _line_agents(n, positions, masters=(0,), static=(0,)):
    net = line_network(n)
    agents = AgentConfig(count=len(positions),
                         initial={r: f"s{p}" for r, p in enumerate(positions)},
                         masters=frozenset(masters), static=frozenset(static))
    return net, agents


# -- similarity ----------------------------------------------------------------


def test_similarity_is_inverse_distance():
    net = line_network(5)
    sim = similarity_matrix(net, ["s0", "s1", "s4"])
    assert sim[0, 1] == pytest.approx(1.0)
    assert sim[0, 2] == pytest.approx(1.0 / 4.0)
    assert sim[1, 2] == pytest.approx(1.0 / 3.0)
    assert np.allclose(sim, sim.T)
    assert np.all(np.diag(sim) == 0.0)


def test_colocated_agents_score_above_every_pair():
    net = line_network(4)
    sim = similarity_matrix(net, ["s0", "s0", "s3"])
    assert sim[0, 1] == pytest.approx(10.0 * (1.0 / 3.0))
    assert sim[0, 1] > sim[0, 2] and sim[0, 1] > sim[1, 2]


def test_directed_similarity_uses_the_cheaper_direction():
    net = build_network(["a", "b"], [("a", "b", 1.0), ("b", "a", 9.0)], [])
    sim = similarity_matrix(net, ["a", "b"])
    assert sim[0, 1] == pytest.approx(1.0)


def _loop_similarity(net, initial_states):
    """Reference: the pairwise loop over min(d(i->j), d(j->i))."""
    n = len(initial_states)
    at = [net.index(s) for s in initial_states]
    dist = np.full((len(net.states),) * 2, np.inf)     # rows at the starts
    dist[at] = net.distances_to(at)
    sim = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m = min(dist[at[i], at[j]], dist[at[j], at[i]])
            if 0.0 < m < np.inf:
                sim[i, j] = sim[j, i] = 1.0 / m
    cap = 10.0 * (sim.max() if sim.any() else 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if min(dist[at[i], at[j]], dist[at[j], at[i]]) == 0.0:
                sim[i, j] = sim[j, i] = cap
    return sim


def test_similarity_equals_the_pairwise_loop():
    for seed in range(100):
        net, agents = random_cluster_graph(seed)
        initial = [agents.initial[r] for r in range(agents.count)]
        assert np.array_equal(similarity_matrix(net, initial),
                              _loop_similarity(net, initial)), seed


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(10, 3))
    first = _farthest_first_kmeans(rows, 3)
    second = _farthest_first_kmeans(rows, 3)
    assert np.array_equal(first, second)
    assert set(first) <= {0, 1, 2}


def test_spectral_grouping_pairs_nearby_agents():
    net, agents = _line_agents(12, [0, 1, 10, 11])
    groups = spectral_cluster_agents(net, agents, k=2)
    assert groups == {1: (0, 1), 2: (2, 3)}


def test_one_cluster_holds_every_agent():
    for seed in range(100):
        net, agents = random_cluster_graph(seed)
        groups = spectral_cluster_agents(net, agents, k=1)
        assert groups == {1: tuple(range(agents.count))}, seed


def test_groups_sharing_a_start_merge_in_one_pass():
    # group 3 shares a start with group 1 and one with group 2
    net = line_network(3)
    agents = AgentConfig(count=5, initial={0: "s0", 1: "s0", 2: "s1",
                                           3: "s1", 4: "s2"})
    groups = {1: (0,), 2: (2,), 3: (1, 3), 4: (4,)}
    assert _merge_shared_starts(groups, agents) == {1: (0, 1, 2, 3), 2: (4,)}


def test_master_group_is_always_cluster_one():
    net, agents = _line_agents(12, [0, 1, 10, 11], masters=(3,), static=(3,))
    groups = spectral_cluster_agents(net, agents, k=2)
    assert 3 in groups[1]


# -- territory growth -------------------------------------------------------------


def test_territories_split_the_line_between_seeds():
    net = line_network(6)
    groups = {1: (0,), 2: (1,)}
    initial = {0: "s0", 1: "s5"}
    state_sets, unassigned = grow_state_clusters(net, groups, initial)
    assert state_sets[1] == ("s0", "s1", "s2")
    assert state_sets[2] == ("s3", "s4", "s5")
    assert unassigned == ()


def test_unreachable_states_stay_unassigned():
    net = build_network(["a", "b", "x", "y"],
                        [("a", "b", 1.0), ("b", "a", 1.0),
                         ("x", "y", 1.0), ("y", "x", 1.0)], [])
    state_sets, unassigned = grow_state_clusters(net, {1: (0,)}, {0: "a"})
    assert state_sets[1] == ("a", "b")
    assert unassigned == ("x", "y")


def test_weak_components_on_a_split_set():
    net = line_network(6)
    comps = weak_components(net, ["s0", "s1", "s4", "s5"])
    assert sorted(map(sorted, comps)) == [["s0", "s1"], ["s4", "s5"]]


def test_cluster_with_retry_keeps_territories_connected():
    net, agents = random_cluster_graph(11)[0], random_cluster_graph(11)[1]
    groups, state_sets, unassigned, rounds = cluster_with_retry(net, agents, 3)
    for cid, states in state_sets.items():
        if states:
            assert len(weak_components(net, states)) == 1
    assert rounds >= 0


def test_split_rounds_stay_below_the_agent_count():
    # each split adds a group, so at most R - 1 rounds run; seed 44 needs two
    most = 0
    for seed in range(100):
        net, agents = random_cluster_graph(seed)
        k = random.Random(f"acc6:{seed}").randint(1, agents.count)
        groups, state_sets, _, rounds = cluster_with_retry(net, agents, k)
        assert rounds <= agents.count - 1, seed
        assert all(len(weak_components(net, state_sets[cid])) == 1
                   for cid in groups), seed
        most = max(most, rounds)
    assert most >= 2


# -- hierarchy ----------------------------------------------------------------------


def test_hierarchy_activates_over_comm_edges():
    net, agents = _line_agents(8, [0, 3, 7])
    groups, state_sets, _, _ = cluster_with_retry(net, agents, 3)
    parents, submasters, edges = build_hierarchy(net, agents, groups, state_sets)
    assert parents[1] is None
    assert submasters[1] == 0
    for cid, pid in parents.items():
        if pid is None:
            continue
        u, v = edges[cid]
        assert u in state_sets[pid]
        assert (u, v) in net.comm
        assert v == agents.initial[submasters[cid]]
        assert submasters[cid] in groups[cid]


def test_touching_cluster_prefers_activated_neighbours():
    net = line_network(6)
    state_sets = {1: ("s0", "s1"), 2: ("s2", "s3"), 3: ("s4", "s5")}
    assert _touching_cluster(net, state_sets, 3, preferred={2}) == 2
    assert _touching_cluster(net, state_sets, 3, preferred={1}) == 2
    assert _touching_cluster(net, state_sets, 2, preferred={1}) == 1


def test_orphan_clusters_are_absorbed():
    # comm edges exist only near the base, so the far group cannot activate
    states = [f"s{i}" for i in range(8)]
    mobility = []
    for a, b in zip(states, states[1:]):
        mobility += [(a, b, 1.0), (b, a, 1.0)]
    comm = [("s0", "s1", 0.0), ("s1", "s0", 0.0)]
    net = build_network(states, mobility, comm)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s7"},
                         masters=frozenset({0}), static=frozenset({0}))
    clustering = cluster_instance(net, agents, k=2)
    assert clustering.cluster_ids() == [1]
    assert clustering.groups[1] == (0, 1)
    assert clustering.parents == {1: None}


# -- full pipeline invariants ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_cluster_instance_invariants(seed):
    net, agents = random_cluster_graph(seed)
    clustering = cluster_instance(net, agents)
    ids = clustering.cluster_ids()

    members = sorted(r for cid in ids for r in clustering.groups[cid])
    assert members == list(range(agents.count))

    seen: set[str] = set()
    for cid in ids:
        states = set(clustering.state_sets[cid])
        assert not states & seen
        seen |= states
        for r in clustering.groups[cid]:
            assert agents.initial[r] in states
        assert len(weak_components(net, states)) == 1
    assert seen | set(clustering.unassigned) == set(net.states)

    assert clustering.parents[1] is None
    assert 0 in clustering.groups[1]
    assert set(clustering.parents) == set(clustering.groups)
    for cid in ids:
        if cid == 1:
            continue
        pid = clustering.parents[cid]
        assert pid in ids
        u, v = clustering.activation_edges[cid]
        assert (u, v) in net.comm
        assert u in clustering.state_sets[pid]
        assert v == agents.initial[clustering.submasters[cid]]
        assert clustering.submasters[cid] in clustering.groups[cid]
        assert clustering.depth(cid) == clustering.depth(pid) + 1


def test_clustering_lookup_helpers():
    net, agents = _line_agents(8, [0, 7])
    clustering = cluster_instance(net, agents, k=2)
    owner = {r: cid for cid, group in clustering.groups.items() for r in group}
    home = {s: cid for cid, states in clustering.state_sets.items() for s in states}
    # no comm edge reaches s7 from s0's half, so both fold into the root
    assert owner == {0: 1, 1: 1}
    assert home == {f"s{i}": 1 for i in range(8)}
    assert clustering.parents == {1: None}
    data = json.loads(json.dumps(clustering.to_dict()))
    assert set(data) == {"clusters", "unassigned"}
    by_id = {entry["id"]: entry for entry in data["clusters"]}
    for cid in clustering.cluster_ids():
        assert by_id[cid]["agents"] == list(clustering.groups[cid])
        assert by_id[cid]["submaster"] == clustering.submasters[cid]


# -- pruning and export -------------------------------------------------------------


def test_prune_keeps_paths_between_protected_states():
    net = line_network(6)
    kept = prune_dead_states(net, protected={"s2", "s4"})
    assert kept == frozenset({"s2", "s3", "s4"})


def test_prune_removes_everything_without_protection():
    net = line_network(4)
    assert prune_dead_states(net) == frozenset()


def test_prune_keeps_cycles():
    net = build_network(["a", "b", "c"],
                        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)], [])
    assert prune_dead_states(net) == frozenset({"a", "b", "c"})


def test_one_removal_exposes_a_chain_of_leaves():
    # the tail d1 - d2 - d3 hangs off the triangle at c; stripping d1 makes
    # d2 a leaf and then d3, unless a protected state holds the chain
    states = ["d1", "d2", "d3", "a", "b", "c"]
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d3"), ("d3", "d2"),
             ("d2", "d1")]
    net = build_network(states, [(u, v, 1.0) for u, v in edges], [])
    assert prune_dead_states(net) == frozenset({"a", "b", "c"})
    assert prune_dead_states(net, protected={"d2"}) == frozenset(
        {"a", "b", "c", "d3", "d2"})
    # within the tail alone, c is a leaf too, and the chain runs back to d1
    assert prune_dead_states(net, states=["d1", "d2", "d3", "c"],
                             protected={"d1"}) == frozenset({"d1"})


def test_prune_equals_the_rescanning_loop():
    for seed in range(100):
        net, agents = random_cluster_graph(seed)
        starts = set(agents.initial.values())
        assert prune_dead_states(net, protected=starts) == rescan_prune(
            net, protected=starts), seed
    for seed in range(200):
        rng = random.Random(f"prune:{seed}")
        net = random_net(seed, n=rng.randint(1, 30), extra=rng.choice([0.0, 0.2, 0.5]))
        states = rng.sample(net.states, rng.randint(0, len(net.states)))
        protected = set(rng.sample(net.states, rng.randint(0, min(3, len(net.states)))))
        for within in (None, states):
            assert prune_dead_states(net, within, protected) == rescan_prune(
                net, within, protected), seed


def _c6_digest():
    """sha256 over the C6 corpus of what the cluster stage outputs: the
    pruned set, the clustering, its split rounds and the betweenness of
    the pruned network, floats as repr."""
    digest = hashlib.sha256()
    for seed in range(100):
        net, agents = random_cluster_graph(seed)
        k = random.Random(f"acc6:{seed}").randint(1, agents.count)
        kept = prune_dead_states(net, protected=set(agents.initial.values()))
        plan_net = induced_network(net, kept)
        clustering = cluster_instance(plan_net, agents, k=k)
        scores = betweenness_centrality(plan_net)
        digest.update(json.dumps({
            "seed": seed, "kept": sorted(kept, key=net.index),
            "clustering": clustering.to_dict(),
            "split_rounds": clustering.split_rounds,
            "betweenness": [[s, repr(v)] for s, v in scores.items()],
        }, sort_keys=True).encode())
    return digest.hexdigest()


def test_the_cluster_stage_outputs_are_pinned():
    assert _c6_digest() == (
        "580464c6d8d1d5d2b8cfb2840afe485f3a47bab23986223d43e65eb729c52cf8")


def test_clusters_to_dot_shows_territories_and_activations():
    net, agents = _line_agents(8, [0, 7])
    clustering = cluster_instance(net, agents, k=2)
    dot = clusters_to_dot(net, clustering, initial=agents.initial)
    assert dot.startswith("digraph")
    assert "fillcolor" in dot
    if len(clustering.cluster_ids()) > 1:
        assert "activate" in dot
    assert "a0*" in dot            # the root submaster is starred

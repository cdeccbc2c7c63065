"""Network construction, graph primitives, metrics, and export."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from icplan import cluster, instances, network
from icplan.errors import InstanceError
from icplan.io import load_instance, load_network, network_to_dict
from icplan.explore import induced_network
from icplan.network import (COMM, betweenness_centrality, build_network, hop_bfs,
                            to_dot)

from _helpers import (bellman_ford, composite_betweenness, heap_betweenness,
                      heap_dijkstra, line_network, random_net)


# -- construction -----------------------------------------------------------


def test_build_adds_free_self_loops():
    net = line_network(3)
    for s in net.states:
        assert net.mobility[(s, s)] == 0.0


def test_explicit_self_loop_wins_over_default():
    net = build_network(["a", "b"], [("a", "a", 2.0), ("a", "b", 1.0)], [])
    assert net.mobility[("a", "a")] == 2.0
    assert net.mobility[("b", "b")] == 0.0


def test_self_loops_opt_out():
    net = build_network(["a", "b"], [("a", "b", 1.0)], [], self_loops=False)
    assert ("a", "a") not in net.mobility


def test_neighbors_respect_direction_and_relation():
    net = build_network(["a", "b", "c"],
                        [("a", "b", 1.0), ("c", "b", 1.0)],
                        [("b", "c", 0.0)], self_loops=False)
    assert net.neighbors("a", "succ", "mobility") == ("b",)
    assert net.neighbors("b", "pred", "mobility") == ("a", "c")
    assert net.neighbors("b", "succ", "comm") == ("c",)
    assert net.neighbors("c", "pred", "comm") == ("b",)
    assert net.neighbors("a", "succ", "comm") == ()


def test_duplicate_states_rejected():
    with pytest.raises(InstanceError):
        build_network(["a", "a"], [], [])


def test_empty_state_set_rejected():
    with pytest.raises(InstanceError):
        build_network([], [], [])


def test_dangling_edge_rejected():
    with pytest.raises(InstanceError):
        build_network(["a"], [("a", "zzz", 1.0)], [])
    with pytest.raises(InstanceError):
        build_network(["a"], [], [("zzz", "a", 0.0)])


def test_negative_weight_rejected():
    with pytest.raises(InstanceError):
        build_network(["a", "b"], [("a", "b", -1.0)], [])


def test_non_finite_weights_rejected(tmp_path):
    # NaN passes `w < 0`; +inf used to fail only later, inside HiGHS
    for w in (math.nan, math.inf):
        with pytest.raises(InstanceError, match="non-finite weight"):
            build_network(["a", "b"], [("a", "b", w)], [])
        with pytest.raises(InstanceError, match="non-finite weight"):
            build_network(["a", "b"], [("a", "b", 1.0)], [("a", "b", w)])
    path = tmp_path / "nan.json"
    path.write_text('{"network": {"states": ["a", "b"], "comm_edges": [], '
                    '"mobility_edges": [{"from": "a", "to": "b", "weight": NaN}]}}')
    with pytest.raises(InstanceError, match="non-finite weight"):
        load_instance(path)


def test_unknown_state_lookup_raises():
    net = line_network(2)
    with pytest.raises(InstanceError):
        net.index("nope")


# -- undirected neighbourhood and hop BFS -------------------------------------


@st.composite
def _mixed_nets(draw):
    """Asymmetric edges and explicit self-loops, states out of name order;
    without default loops some states stay loop-free."""
    n = draw(st.integers(1, 8))
    states = draw(st.permutations([f"s{i}" for i in range(n)]))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))
    mobility = [(states[a], states[b], 1.0) for a, b in sorted(pairs)]
    return build_network(states, mobility, [], self_loops=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_mixed_nets(), st.data())
def test_undirected_rows_and_hop_bfs_match_references(net, data):
    rows = net.undirected_mobility()
    for i, s in enumerate(net.states):
        union = (set(net.neighbors(s, "succ")) | set(net.neighbors(s, "pred"))) - {s}
        assert rows[i] == tuple(sorted(net.index(v) for v in union))

    sources = data.draw(st.lists(st.sampled_from(net.states), min_size=1, max_size=3))
    within = data.draw(st.none() | st.sets(st.sampled_from(net.states)))
    parent = hop_bfs(net, sources, within)
    assert all(parent[s] == s for s in sources)
    hops: dict[str, int] = {}
    for s, p in parent.items():
        hops[s] = 0 if s == p else hops[p] + 1

    # reference: unit-weight Bellman-Ford on the symmetrised graph over the
    # states the search may enter
    area = [s for s in net.states if within is None or s in within or s in sources]
    edges = []
    for a, b in net.mobility:
        if a != b and a in area and b in area:
            edges += [(a, b, 1.0), (b, a, 1.0)]
    sym = build_network(area, edges, [], self_loops=False)
    ref = {s: min(bellman_ford(sym, src)[s] for src in sources) for s in area}
    assert hops == {s: d for s, d in ref.items() if d < math.inf}

    # discovery order by hops; the parent is the first-discovered neighbour
    # one hop nearer, and it discovers its children in state order
    order = list(parent)
    assert [hops[s] for s in order] == sorted(hops.values())
    for s, p in parent.items():
        if s != p:
            nearer = [u for u in order if hops[u] == hops[s] - 1
                      and net.index(s) in rows[net.index(u)]]
            assert p == nearer[0]
        children = [net.index(v) for v in order if v != s and parent[v] == s]
        assert children == sorted(children)


def test_hop_bfs_on_lines_and_fragments():
    net = line_network(5)
    assert hop_bfs(net, ["s0"]) == {"s0": "s0", "s1": "s0", "s2": "s1",
                                    "s3": "s2", "s4": "s3"}
    assert list(hop_bfs(net, ["s2"])) == ["s2", "s1", "s3", "s0", "s4"]
    # two sources: s2 is first discovered from s1, the earlier-queued side
    assert hop_bfs(net, ["s0", "s4"]) == {"s0": "s0", "s4": "s4", "s1": "s0",
                                          "s3": "s4", "s2": "s1"}
    assert hop_bfs(net, ["s2"], within={"s2"}) == {"s2": "s2"}
    # a disconnected restriction keeps the search in the source's component
    assert hop_bfs(net, ["s0"], within={"s0", "s4"}) == {"s0": "s0"}


def test_induced_network_builds_its_own_undirected_rows():
    net = random_net(3, n=8)
    net.undirected_mobility()                         # fill the parent's cache
    keep = net.states[2:]
    sub = induced_network(net, keep)
    fresh = build_network(
        keep, [(a, b, w) for (a, b), w in net.mobility.items()
               if a in keep and b in keep], [], self_loops=False)
    assert len(sub.undirected_mobility()) == len(keep)
    assert sub.undirected_mobility() == fresh.undirected_mobility()


# -- shortest paths and centrality -------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_shortest_distance_matches_bellman_ford(seed):
    net = random_net(seed, n=9, extra=0.7)
    ref = bellman_ford(net, net.states[0])
    row = net.mobility_distance_matrix()[0]
    for b in net.states:
        got = row[net.index(b)]
        assert got == pytest.approx(ref[b]) or (math.isinf(got) and math.isinf(ref[b]))


def test_shortest_distance_unreachable_is_inf():
    net = build_network(["a", "b"], [], [])
    assert math.isinf(net.mobility_distance_matrix()[net.index("a")][net.index("b")])
    assert math.isinf(net.distances_to([net.index("b")])[0][net.index("a")])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_dijkstra_matches_bellman_ford_in_both_directions(seed, extra):
    net = random_net(seed, n=7, extra=extra)
    from_src = {a: bellman_ford(net, a) for a in net.states}
    for b in net.states:
        succ = net.mobility_distance_matrix()[net.index(b)]
        pred = net.distances_to([net.index(b)])[0]
        for a in net.states:
            # integer weights: exact sums
            assert succ[net.index(a)] == from_src[b][a]
            assert pred[net.index(a)] == from_src[a][b]


def _assert_same_network(sub, fresh):
    assert sub == fresh and sub.states == fresh.states
    assert list(sub.mobility) == list(fresh.mobility)
    assert list(sub.comm) == list(fresh.comm)
    for s in sub.states:
        for direction in ("succ", "pred"):
            for relation in ("mobility", COMM):
                assert (sub.neighbors(s, direction, relation)
                        == fresh.neighbors(s, direction, relation))
    assert sub.undirected_mobility() == fresh.undirected_mobility()


def _rebuilt(net, states):
    """The subnetwork on `states` built and checked from its edge triples."""
    keep = set(states)
    return build_network(
        [s for s in net.states if s in keep],
        [(a, b, w) for (a, b), w in net.mobility.items() if a in keep and b in keep],
        [(a, b, w) for (a, b), w in net.comm.items() if a in keep and b in keep],
        self_loops=False)


def test_induced_networks_equal_rebuilt_ones_on_the_c6_worlds():
    for seed in range(100):
        net, agents = instances.random_cluster_graph(seed)
        kept = cluster.prune_dead_states(net, None,
                                         protected=set(agents.initial.values()))
        _assert_same_network(induced_network(net, kept), _rebuilt(net, kept))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_induced_networks_equal_rebuilt_ones_on_random_subsets(seed, data):
    net = random_net(seed, n=10, comm_cost=(0, 2), mirror=False)
    keep = data.draw(st.lists(st.sampled_from(net.states), min_size=1, max_size=12))
    _assert_same_network(net.induced(keep), _rebuilt(net, keep))


def test_an_empty_induced_network_is_refused():
    net = random_net(1)
    with pytest.raises(InstanceError, match="empty state set"):
        net.induced([])
    with pytest.raises(InstanceError, match="empty state set"):
        induced_network(net, ["not a state"])


def test_induced_network_builds_its_own_adjacency():
    net = random_net(3, n=8)
    betweenness_centrality(net)                       # fill the parent's cache
    keep = net.states[2:]
    sub = induced_network(net, keep)
    fresh = build_network(
        keep, [(a, b, w) for (a, b), w in net.mobility.items()
               if a in keep and b in keep], [], self_loops=False)
    assert np.array_equal(sub.mobility_distance_matrix(),
                          fresh.mobility_distance_matrix())
    every = range(len(keep))
    assert np.array_equal(sub.distances_to(every), fresh.distances_to(every))
    assert betweenness_centrality(sub) == betweenness_centrality(fresh)


def test_cache_does_not_change_equality():
    net, twin = random_net(4), random_net(4)
    betweenness_centrality(net)
    net.distances_to([0, 2])
    net.undirected_mobility()
    for s in net.states:
        net.neighbors(s, "succ", COMM)
        net.neighbors(s, "pred", COMM)
    assert net == twin and twin == net
    assert _hash_or_error(net) == _hash_or_error(twin)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:            # dict fields leave networks unhashable
        return str(exc)


@st.composite
def _float_nets(draw, least=1):
    """Three-decimal weights that are small multiples of one unit, so that
    distances tie and rounding splits some ties (0.1 + 0.2 against 0.3); a
    random tree with one-way and two-way edges plus chords, and states no
    edge touches.  The multiples start at `least`: 0 draws free edges."""
    n = draw(st.integers(1, 40))
    states = [f"s{i}" for i in range(n)]
    unit = draw(st.integers(1, 2000))
    multiple = st.integers(least, draw(st.sampled_from([1, 1, 2, 4])))
    cost = multiple.map(lambda k: k * unit / 1000)
    linked = n - draw(st.integers(0, min(3, n - 1)))   # the rest stay isolated
    pairs = set(draw(st.lists(st.tuples(st.integers(0, linked - 1),
                                        st.integers(0, linked - 1)),
                              min_size=linked // 2, max_size=2 * n)))
    for i in range(1, linked):
        j = draw(st.integers(0, i - 1))
        way = draw(st.sampled_from(["both", "both", "down", "up"]))
        pairs |= {(j, i)} if way == "down" else {(i, j)} if way == "up" else {(i, j), (j, i)}
    mobility = [(states[a], states[b], draw(cost)) for a, b in sorted(pairs) if a != b]
    return build_network(states, mobility, [])


@settings(max_examples=200, deadline=None)
@given(_float_nets())
def test_distances_and_betweenness_equal_the_heap_references(net):
    assert betweenness_centrality(net) == heap_betweenness(net)
    rows = [heap_dijkstra(net, s) for s in net.states]
    for i, s in enumerate(net.states):
        assert net.mobility_distance_matrix()[i].tolist() == rows[i]
        # each path's costs are summed from its start, as in the rows
        assert net.distances_to([i])[0].tolist() == [row[i] for row in rows]


@pytest.mark.parametrize("seed", range(200))
def test_betweenness_with_free_edges_equals_the_composite_reference(seed):
    # the heap reference breaks ties on free edges by another rule, so free
    # edges are checked against the composite-key formulation
    net = random_net(seed, mobility_cost=(0, 2))
    assert betweenness_centrality(net) == composite_betweenness(net)


@settings(max_examples=200, deadline=None)
@given(_float_nets(least=0))
def test_float_betweenness_with_free_edges_equals_the_composite_reference(net):
    assert betweenness_centrality(net) == composite_betweenness(net)


@pytest.mark.parametrize("seed", range(3))
def test_path_counts_past_two_to_the_53_keep_their_addition_order(seed):
    # 100 layers of 3 states, each fed by 1-3 states of the layer before:
    # path counts reach ~2^100, so summing a state's predecessors in
    # another order rounds differently; 301 states also need 16-bit ranks
    rng = random.Random(f"layers:{seed}")
    layers = [["s"]] + [[f"l{i}_{j}" for j in range(3)] for i in range(100)]
    states = [s for layer in layers for s in layer]
    rng.shuffle(states)
    edges = [(a, b, 1.0) for up, down in zip(layers, layers[1:]) for b in down
             for a in rng.sample(up, rng.randint(1, len(up)))]
    net = build_network(states, edges, [])
    assert betweenness_centrality(net) == composite_betweenness(net)


def test_an_edge_that_rounds_away_is_searched_as_free():
    # 1e6 + 1e-11 == 1e6: the edge b -> c joins equal distances though its
    # cost is above the 1e-12 tie tolerance, so c settles after b by depth
    net = build_network(["a", "c", "b"], [("a", "b", 1e6), ("b", "c", 1e-11)], [])
    assert betweenness_centrality(net) == composite_betweenness(net)
    assert betweenness_centrality(net) == {"a": 0.0, "c": 0.0, "b": 1.0}


def test_rounding_split_ties_settle_by_first_label():
    # from e, f is reached at 0.3 directly and at 0.2 + 0.1 through c, and d
    # at 0.4 + 0.2 through a and at 0.5 + 0.1 through b: sums that tie in
    # exact arithmetic but not in floats settle by the first label found
    net = build_network(list("abcdefghij"), [
        ("a", "d", 0.2), ("b", "g", 0.3), ("b", "h", 0.2), ("b", "i", 0.1),
        ("b", "j", 0.2), ("b", "d", 0.1), ("c", "b", 0.3), ("c", "f", 0.1),
        ("e", "c", 0.2), ("e", "f", 0.3), ("f", "a", 0.1)], [])
    assert betweenness_centrality(net) == heap_betweenness(net)


def test_zero_cost_ties_follow_the_settle_order():
    # a -> {b, c} -> d with free moves between b and c: from a, a-b-c-d is a
    # shortest path but a-c-b-d is not (the free edge counts toward the
    # higher index only); from b and from c the free edge is the first step
    diamond = build_network(["a", "b", "c", "d"],
                            [("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 0.0),
                             ("c", "b", 0.0), ("b", "d", 1.0), ("c", "d", 1.0)], [])
    assert betweenness_centrality(diamond) == pytest.approx(
        {"a": 0.0, "b": 1 / 2 + 2 / 3 + 1 / 2, "c": 2 / 3 + 1 / 2, "d": 0.0})
    # a free chain c -> b -> x settles in chain order whatever the indices
    chain = build_network(["x", "b", "c", "y"],
                          [("c", "b", 0.0), ("b", "x", 0.0), ("x", "y", 1.0)], [])
    assert betweenness_centrality(chain) == {"x": 2.0, "b": 2.0, "c": 0.0, "y": 0.0}


def test_distance_matrix_is_cached_and_read_only(monkeypatch):
    net = build_network(["a", "b", "c"],
                        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 0.5)], [])
    calls = []

    def counting(graph, **kwargs):
        calls.append(kwargs.get("indices"))
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(network, "dijkstra", counting)
    c, a = net.index("c"), net.index("a")
    to = net.distances_to([c, c])
    assert to.tolist() == [[0.5, 1.0, 0.0]] * 2
    assert net.distances_to([a, c]).tolist() == [[0.0, math.inf, math.inf],
                                                 [0.5, 1.0, 0.0]]
    assert net.distances_to([c]).tolist() == [[0.5, 1.0, 0.0]]
    assert net.distances_to([]).shape == (0, 3)
    dist = net.mobility_distance_matrix()
    assert net.mobility_distance_matrix() is dist
    assert dist[net.index("a")].tolist() == [0.0, 1.0, 0.5]
    assert calls == [None]                      # one forward all-pairs Dijkstra
    for table in (dist, to):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_betweenness_on_a_line_is_hand_computable():
    net = line_network(5)
    scores = betweenness_centrality(net)
    assert scores == {"s0": 0.0, "s1": 6.0, "s2": 8.0, "s3": 6.0, "s4": 0.0}


def _enumerated_betweenness(net):
    """Reference betweenness via exhaustive shortest-path enumeration."""
    scores = {s: 0.0 for s in net.states}
    for u in net.states:
        dist = bellman_ford(net, u)
        for v in net.states:
            if v == u or math.isinf(dist[v]):
                continue
            paths = []

            def dfs(node, cost, path):
                if cost > dist[v] + 1e-9:
                    return
                if node == v and abs(cost - dist[v]) < 1e-9:
                    paths.append(tuple(path))
                    return
                for w in net.neighbors(node, "succ", "mobility"):
                    if w != node:
                        dfs(w, cost + net.mobility[(node, w)], path + [w])

            dfs(u, 0.0, [u])
            for path in paths:
                for w in path[1:-1]:
                    scores[w] += 1.0 / len(paths)
    return scores


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_betweenness_matches_path_enumeration(seed):
    net = random_net(seed, n=6, extra=0.6)
    ref = _enumerated_betweenness(net)
    got = betweenness_centrality(net)
    for s in net.states:
        assert got[s] == pytest.approx(ref[s], abs=1e-9)


# -- export and JSON round trip ----------------------------------------------


def test_to_dot_mentions_states_and_styles():
    net = line_network(3)
    dot = to_dot(net)
    assert dot.startswith("digraph")
    for s in net.states:
        assert s in dot
    assert "dashed" in dot   # communication edges are visually distinct


def test_network_json_round_trip():
    net = random_net(5, n=7, comm_cost=(0, 2), mirror=False)
    back = load_network(network_to_dict(net))
    assert back.states == net.states
    assert back.mobility == net.mobility
    assert back.comm == net.comm


def test_load_network_rejects_malformed_input(tmp_path):
    with pytest.raises(InstanceError):
        load_network({"mobility_edges": []})                      # no states
    with pytest.raises(InstanceError):
        load_network({"states": ["a"], "mobility_edges": [{"to": "a"}]})
    # a network is a section of an instance; a path names no section, and
    # the instance loader reads the file
    path = tmp_path / "net.json"
    path.write_text("{not json")
    for source in (path, str(path), ["a"]):
        with pytest.raises(InstanceError, match="'network' section must be an object"):
            load_network(source)
    with pytest.raises(InstanceError, match="invalid JSON"):
        load_instance(path)
    path.write_text("[1, 2]")
    with pytest.raises(InstanceError, match="root must be an object"):
        load_instance(path)


def test_load_network_refuses_unknown_keys(tmp_path):
    # a misspelt "comm_edges" would otherwise load a network with no comm
    data = {"states": ["a", "b"], "mobility_edges": [{"from": "a", "to": "b"}],
            "comm_edge": [{"from": "a", "to": "b"}]}
    with pytest.raises(InstanceError, match="unknown key.*'network'.*comm_edge"):
        load_network(data)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"network": data}))
    with pytest.raises(InstanceError, match="unknown key.*'network'.*comm_edge"):
        load_instance(path)

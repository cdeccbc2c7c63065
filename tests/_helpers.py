"""Hand-built networks and instances shared across test modules."""

import heapq
import random

import numpy as np

from icplan.ilp import AgentConfig, ProblemSpec
from icplan.network import build_network


def line_network(n, comm_cost=0.0, mobility_cost=1.0):
    """Bidirectional line s0..s{n-1}; comm mirrors mobility."""
    states = [f"s{i}" for i in range(n)]
    mobility, comm = [], []
    for a, b in zip(states, states[1:]):
        mobility += [(a, b, mobility_cost), (b, a, mobility_cost)]
        comm += [(a, b, comm_cost), (b, a, comm_cost)]
    return build_network(states, mobility, comm)


def relay_spec(green_at="s1", T=2, n=4, masters=(), static=(), **kw):
    """Two end agents swap data while a third can relay between them."""
    net = line_network(n)
    agents = AgentConfig(count=3, initial={0: "s0", 1: green_at, 2: f"s{n - 1}"},
                         masters=frozenset(masters), static=frozenset(static))
    spec = ProblemSpec(net=net, agents=agents, T=T, src=(0, 2), snk=(0, 2), **kw)
    return net, spec


def random_net(seed, n=8, extra=0.5, mobility_cost=(1, 3), comm_cost=(0, 0),
               mirror=True):
    """Connected random digraph built independently of the package generators.

    A random spanning tree (both directions) plus `extra * n` directed chords;
    integer edge weights keep shortest-path ties exact.
    """
    rng = random.Random(f"helper:{seed}")
    states = [f"s{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((states[j], states[i]))
        edges.add((states[i], states[j]))
    for _ in range(int(extra * n)):
        a, b = rng.sample(states, 2)
        edges.add((a, b))
        if rng.random() < 0.5:
            edges.add((b, a))

    def weight(lo, hi):
        return float(rng.randint(lo, hi)) if hi > lo else float(lo)

    mobility = [(a, b, weight(*mobility_cost)) for (a, b) in sorted(edges)]
    comm = []
    for (a, b) in sorted(edges):
        if mirror or rng.random() < 0.8:
            comm.append((a, b, weight(*comm_cost)))
    return build_network(states, mobility, comm)


def bellman_ford(net, source):
    """Reference single-source mobility distances (no heap, no early exit)."""
    dist = {s: float("inf") for s in net.states}
    dist[source] = 0.0
    for _ in range(len(net.states)):
        changed = False
        for (a, b), w in net.mobility.items():
            if a == b:
                continue
            cand = dist[a] + w
            if cand < dist[b] - 1e-12:
                dist[b] = cand
                changed = True
        if not changed:
            break
    return dist


def _weighted_rows(net, direction):
    """Per state index, the (neighbour index, cost) pairs in state order,
    self-loops dropped; "pred" costs are those of the edge into the state."""
    rows = []
    for s in net.states:
        row = []
        for v in net.neighbors(s, direction):
            if v != s:
                a, b = (s, v) if direction == "succ" else (v, s)
                row.append((net.index(v), net.mobility[(a, b)]))
        rows.append(row)
    return rows


def heap_dijkstra(net, source, direction="succ"):
    """Reference distances per state index: a binary-heap Dijkstra rooted at
    `source`, forward ("succ") or on the reversed graph ("pred")."""
    adj = _weighted_rows(net, direction)
    dist = [float("inf")] * len(net.states)
    start = net.index(source)
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def heap_betweenness(net):
    """Reference Brandes betweenness: per source a heap Dijkstra with path
    counts (heap ties by state index, the 1e-12 tie rule, predecessors in
    relaxation order), then dependencies in reverse settle order."""
    adj = _weighted_rows(net, "succ")
    n = len(net.states)
    scores = [0.0] * n
    for source in range(n):
        dist = [float("inf")] * n
        sigma = [0.0] * n
        preds = [[] for _ in range(n)]
        dist[source] = 0.0
        sigma[source] = 1.0
        order = []
        seen = [False] * n
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if seen[u]:
                continue
            seen[u] = True
            order.append(u)
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (nd, v))
                elif abs(nd - dist[v]) <= 1e-12:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * n
        for u in reversed(order):
            for p in preds[u]:
                delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
            if u != source:
                scores[u] += delta[u]
    return dict(zip(net.states, scores))


def composite_betweenness(net):
    """Reference betweenness with the package's tie rules, in its earlier
    form: the zero-cost tie search over every arc, the settle order from one
    lexsort, and the tight pairs grouped by one int64 argsort of the
    composite key (head rank * n + source) * n + tail rank."""
    n = len(net.states)
    tails, heads, w = net._mobility_arcs()
    dist = net.mobility_distance_matrix()
    ids = np.arange(n)
    for _ in range(n):                           # n rounds settle every label
        with np.errstate(invalid="ignore"):      # inf - inf off the reach
            d_tail, d_head = dist[:, tails], dist[:, heads]
            tight = np.abs(d_tail + w - d_head) <= 1e-12
        level = tight & (d_tail == d_head)
        depth = np.zeros((n, n))                 # zero-cost depth
        if level.any():
            src, arc = np.nonzero(level)
            depth = np.where(np.eye(n, dtype=bool), 0.0, np.inf)
            up, up_arc = np.nonzero(tight & (d_tail < d_head))
            depth[up, heads[up_arc]] = 0.0
            before = None
            while not np.array_equal(depth, before):
                before = depth.copy()
                np.minimum.at(depth, (src, heads[arc]), depth[src, tails[arc]] + 1.0)
        rank = np.empty((n, n), dtype=np.intp)
        rank[ids[:, None], np.lexsort((depth, dist))] = ids
        src, arc = np.nonzero(tight)
        head_rank, tail_rank = rank[src, heads[arc]], rank[src, tails[arc]]
        pairs = np.argsort((head_rank * n + src) * n + tail_rank)
        src, arc = src[pairs], arc[pairs]            # by head rank, source, tail rank
        head_rank, tail_rank = head_rank[pairs], tail_rank[pairs]
        tail_at, head_at = src * n + tails[arc], src * n + heads[arc]   # flat n x n
        first = np.diff(head_at, prepend=-1) != 0    # each head's first predecessor
        label = dist.ravel()[tail_at[first]] + w[arc[first]]
        if np.array_equal(label, dist.ravel()[head_at[first]]):
            break
        dist = dist.copy()
        dist.ravel()[head_at[first]] = label
    on_paths = tail_rank < head_rank
    tail_at, head_at, head_rank = tail_at[on_paths], head_at[on_paths], head_rank[on_paths]
    cuts = np.searchsorted(head_rank, ids + 1).tolist()   # one span per head rank
    spans = [(tail_at[a:b], head_at[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]
    sigma = np.eye(n).ravel()                    # path counts, flat n x n
    for p, u in spans:
        np.add.at(sigma, u, sigma[p])
    paths = np.where(sigma > 0, sigma, 1.0)      # a chain-less state adds 0
    delta = np.zeros(n * n)
    for p, u in reversed(spans):
        delta[p] += sigma[p] / paths[u] * (1.0 + delta[u])
    delta[ids * (n + 1)] = 0.0                   # endpoints excluded
    scores = delta.reshape(n, n).sum(axis=0)     # row by row, sources in order
    return dict(zip(net.states, scores.tolist()))


def rescan_prune(net, states=None, protected=frozenset()):
    """Reference leaf stripping: rescan every kept state in state order and
    remove unprotected ones with at most one kept neighbour, until a whole
    scan removes nothing."""
    kept = set(net.states if states is None else states)
    protected = set(protected)
    rows = net.undirected_mobility()
    changed = True
    while changed:
        changed = False
        for s in sorted(kept, key=net.index):
            if s in protected:
                continue
            if sum(net.states[v] in kept for v in rows[net.index(s)]) <= 1:
                kept.remove(s)
                changed = True
    return frozenset(kept)

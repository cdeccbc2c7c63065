"""Mobility-communication networks and their graph primitives.

A network couples two directed edge sets over one state set: mobility edges,
which agents traverse between consecutive time steps, and communication edges,
over which co-located or adjacent agents exchange information within a time
step.  Edge weights are costs; both edge sets may be asymmetric.  Mobility
self-loops (waiting) are inserted automatically at zero cost unless the
instance disables them.  Each edge has one cost, the same at every layer.

Derived tables are built on first use and cached on the network: comm
adjacency, the mobility arcs, the forward all-pairs distance matrix
(betweenness reads every source) and distance rows to single states (the
clustering reads only those to agent starts).  Mobility adjacency is built
with the network.  An induced subnetwork (`MobilityCommNetwork.induced`, on
every exploration cycle's pruned states) filters its parent's checked
edges and sorted mobility adjacency instead of checking and sorting again,
and builds its own caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .errors import InstanceError

MOBILITY = "mobility"
COMM = "comm"


@dataclass(frozen=True)
class MobilityCommNetwork:
    """Immutable two-relation directed graph over a common state set."""

    states: tuple[str, ...]
    mobility: dict[tuple[str, str], float]
    comm: dict[tuple[str, str], float]

    def __post_init__(self):
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise InstanceError("duplicate state identifiers")
        if not self.states:
            raise InstanceError("empty state set")
        for name, edges in ((MOBILITY, self.mobility), (COMM, self.comm)):
            for (a, b), w in edges.items():
                if a not in index or b not in index:
                    raise InstanceError(f"dangling {name} edge ({a!r}, {b!r})")
                if not 0 <= w < math.inf:    # also false for NaN
                    raise InstanceError(f"{_bad_weight(w)} on {name} edge ({a!r}, {b!r})")
        self._derive(index, _adjacency(self.states, self.mobility, 0),
                     _adjacency(self.states, self.mobility, 1))

    def _derive(self, index, succ, pred):
        """Set the state index and mobility adjacency, and empty every cache."""
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)
        object.__setattr__(self, "_comm_tables", None)  # (succ, pred), on first use
        object.__setattr__(self, "_arcs", None)       # (tails, heads, costs), on first use
        object.__setattr__(self, "_distances", None)  # forward matrix, on first use
        object.__setattr__(self, "_to", {})           # state index -> distances to it
        object.__setattr__(self, "_undirected", None)

    def induced(self, states) -> MobilityCommNetwork:
        """Subnetwork on `states` keeping every edge inside it.

        States keep this network's order and edges its insertion order.  The
        edges were checked when this network was built, so they are not
        checked again, and the adjacency lists are this network's sorted
        lists, filtered.  Caches start empty; states not in this network
        are ignored.
        """
        keep = set(states)
        ordered = tuple(s for s in self.states if s in keep)
        if not ordered:
            raise InstanceError("empty state set")
        sub = object.__new__(MobilityCommNetwork)
        object.__setattr__(sub, "states", ordered)
        for name in (MOBILITY, COMM):
            object.__setattr__(sub, name, {e: w for e, w in getattr(self, name).items()
                                           if e[0] in keep and e[1] in keep})
        sub._derive({s: i for i, s in enumerate(ordered)},
                    {s: [v for v in self._succ[s] if v in keep] for s in ordered},
                    {s: [v for v in self._pred[s] if v in keep] for s in ordered})
        return sub

    # -- basic queries -------------------------------------------------

    def index(self, s: str) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise InstanceError(f"unknown state {s!r}") from None

    def has_state(self, s: str) -> bool:
        return isinstance(s, str) and s in self._index

    def neighbors(self, s: str, direction: str = "succ", relation: str = MOBILITY):
        """States adjacent to s. direction in {succ, pred}, relation in {mobility, comm}."""
        if direction not in ("succ", "pred"):
            raise ValueError(f"direction must be succ or pred, got {direction!r}")
        if relation == MOBILITY:
            table = self._succ if direction == "succ" else self._pred
        elif relation == COMM:
            if self._comm_tables is None:
                object.__setattr__(self, "_comm_tables",
                                   (_adjacency(self.states, self.comm, 0),
                                    _adjacency(self.states, self.comm, 1)))
            table = self._comm_tables[direction == "pred"]
        else:
            raise ValueError(f"relation must be mobility or comm, got {relation!r}")
        self.index(s)
        return tuple(table.get(s, ()))

    def mobility_distance_matrix(self):
        """All-pairs mobility distances, inf where unreachable.

        Row i holds the distances from state i; one compiled Dijkstra builds
        the matrix on first use.  It is read-only.
        """
        if self._distances is None:
            tails, heads, w = self._mobility_arcs()
            n = len(self.states)
            dist = dijkstra(sparse.csr_matrix((w, (tails, heads)), shape=(n, n)))
            dist.setflags(write=False)
            object.__setattr__(self, "_distances", dist)
        return self._distances

    def distances_to(self, indices):
        """Mobility distances to each state index in `indices`, one row each:
        entry [k, j] is d(j -> indices[k]), inf where unreachable.

        Rows are cached per state; one compiled Dijkstra on the reversed
        graph fills the missing ones, so that each path's costs are summed
        from the target outward.  The returned array is read-only.
        """
        missing = [i for i in dict.fromkeys(indices) if i not in self._to]
        if missing:
            tails, heads, w = self._mobility_arcs()
            n = len(self.states)
            graph = sparse.csr_matrix((w, (heads, tails)), shape=(n, n))
            for i, row in zip(missing, dijkstra(graph, indices=missing)):
                row.setflags(write=False)
                self._to[i] = row
        rows = np.array([self._to[i] for i in indices]).reshape(-1, len(self.states))
        rows.setflags(write=False)
        return rows

    def _mobility_arcs(self):
        """(tail, head, cost) arrays of the mobility edges, self-loops
        dropped; built on first use and read-only."""
        if self._arcs is None:
            index = self._index
            arcs = [(index[a], index[b], w) for (a, b), w in self.mobility.items()
                    if a != b]
            tails, heads, w = zip(*arcs) if arcs else ((), (), ())
            arrays = (np.array(tails, dtype=np.intp), np.array(heads, dtype=np.intp),
                      np.array(w, dtype=float))
            for a in arrays:
                a.setflags(write=False)
            object.__setattr__(self, "_arcs", arrays)
        return self._arcs

    def undirected_mobility(self):
        """Per state index, the indices of its mobility neighbours either way.

        Rows are ascending and hold no self-loops.  Built on first use.
        """
        if self._undirected is None:
            rows = []
            for i, s in enumerate(self.states):
                nbrs = {self._index[v] for v in self._succ[s] + self._pred[s]}
                nbrs.discard(i)
                rows.append(tuple(sorted(nbrs)))
            object.__setattr__(self, "_undirected", tuple(rows))
        return self._undirected


def _bad_weight(w) -> str:
    return "negative weight" if w < 0 else f"non-finite weight {w!r}"


def _adjacency(states, edges, end):
    table: dict[str, list[str]] = {s: [] for s in states}
    for a, b in edges:
        key, val = (a, b) if end == 0 else (b, a)
        table[key].append(val)
    # neighbor order follows state file order for determinism
    rank = {s: i for i, s in enumerate(states)}
    for s in table:
        table[s].sort(key=rank.__getitem__)
    return table


def build_network(states, mobility_edges, comm_edges,
                  self_loops=True) -> MobilityCommNetwork:
    """Construct a network from edge triples (a, b, weight).

    Zero-cost mobility self-loops are added for every state unless self_loops
    is False or the instance supplies its own loop for that state.
    """
    mobility = {}
    for a, b, w in mobility_edges:
        mobility[(a, b)] = float(w)
    comm = {}
    for a, b, w in comm_edges:
        comm[(a, b)] = float(w)
    if self_loops:
        for s in states:
            mobility.setdefault((s, s), 0.0)
    return MobilityCommNetwork(states=tuple(states), mobility=mobility, comm=comm)


# -- walk counting, hop BFS, shortest paths and centrality -------------


def count_walks(net: MobilityCommNetwork, s0: str, T: int) -> int:
    """Number of T-step mobility walks from s0 (self-loops count as steps)."""
    ways = {s0: 1}
    for _ in range(T):
        nxt: dict[str, int] = {}
        for s, n in ways.items():
            for sp in net.neighbors(s, "succ", MOBILITY):
                nxt[sp] = nxt.get(sp, 0) + n
        ways = nxt
    return sum(ways.values())


def hop_bfs(net: MobilityCommNetwork, sources, within=None) -> dict[str, str]:
    """Undirected mobility BFS: each reached state -> its BFS parent.

    Sources map to themselves; `within`, when given, limits the other states
    the search may enter.  States appear in discovery order and a state's
    parent is its first discoverer (neighbours are taken in state order), so
    hop counts follow from the parent chain.
    """
    rows = net.undirected_mobility()
    keep = None if within is None else set(within)
    parent = {s: s for s in sources}
    queue = [net.index(s) for s in parent]
    for u in queue:                 # the loop also visits states appended below
        for v in rows[u]:
            s = net.states[v]
            if s not in parent and (keep is None or s in keep):
                parent[s] = net.states[u]
                queue.append(v)
    return parent


def betweenness_centrality(net: MobilityCommNetwork) -> dict[str, float]:
    """Exact weighted betweenness over directed mobility edges (Brandes).

    Self-loops are ignored; scores are raw pair-dependency sums with
    endpoints excluded, no normalization.  From each source an edge u -> v
    is tight when |d(u) + w - d(v)| <= 1e-12, and shortest paths are the
    chains of tight edges that follow the settle order: by distance, then
    zero-cost depth (0 for the source and for states with a tight edge from
    a nearer state, else 1 + the least depth of their tight predecessors at
    equal distance), then state index.  So zero-cost cycles add no paths,
    and a zero-cost edge between states of equal distance and depth counts
    only toward the higher index.  A state's distance is its first tight
    predecessor's plus the edge cost, the label a label-setting search gives
    it (rounding can put it above the float minimum: 0.1 + 0.2 against 0.3);
    the order is re-derived until the labels agree with it.
    """
    n = len(net.states)
    tails, heads, w = net._mobility_arcs()
    dist = net.mobility_distance_matrix()
    ids = np.arange(n)
    # an arc joins two states at one distance d only when its cost vanishes
    # in d + w: at most 1e-12 plus a few ulps of d, and no d exceeds the
    # sum of all costs; only those arcs enter the zero-cost tie search
    free = np.flatnonzero(w <= 2e-12 + w.sum() * 2.0 ** -50)
    rank = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    for _ in range(n):                           # n rounds settle every label
        with np.errstate(invalid="ignore"):      # inf - inf off the reach
            d_tail, d_head = dist[:, tails], dist[:, heads]
            gap = d_tail + w
            gap -= d_head
            tight = np.abs(gap, out=gap) <= 1e-12
        level = tight[:, free] & (d_tail[:, free] == d_head[:, free])
        if level.any():
            src, arc = np.nonzero(level)
            arc = free[arc]
            depth = np.where(np.eye(n, dtype=bool), 0.0, np.inf)   # zero-cost depth
            up, up_arc = np.nonzero(tight & (d_tail < d_head))
            depth[up, heads[up_arc]] = 0.0
            before = None
            while not np.array_equal(depth, before):
                before = depth.copy()
                np.minimum.at(depth, (src, heads[arc]), depth[src, tails[arc]] + 1.0)
            order = np.lexsort((depth, dist))
        else:                                    # the same order when all depths are 0
            order = np.argsort(dist, axis=1, kind="stable")
        rank[ids[:, None], order] = ids
        at = np.flatnonzero(tight)                # source-major, as np.nonzero
        src = at // len(w)
        arc = at - src * len(w)
        src *= n
        tail_at, head_at = src + tails[arc], src + heads[arc]   # flat n x n
        tail_rank, head_rank = rank.ravel()[tail_at], rank.ravel()[head_at]
        least = np.full(n * n, n - 1, dtype=rank.dtype)
        np.minimum.at(least, head_at, tail_rank)
        first = tail_rank == least[head_at]      # each head's first predecessor
        label = dist.ravel()[tail_at[first]] + w[arc[first]]
        if np.array_equal(label, dist.ravel()[head_at[first]]):
            break
        dist = dist.copy()
        dist.ravel()[head_at[first]] = label
    # by head rank, then tail rank: stable radix sorts, least significant first
    pairs = np.argsort(tail_rank, kind="stable")
    pairs = pairs[np.argsort(head_rank[pairs], kind="stable")]
    tail_at, head_at = tail_at[pairs], head_at[pairs]
    head_rank, tail_rank = head_rank[pairs], tail_rank[pairs]
    on_paths = tail_rank < head_rank
    tail_at, head_at, head_rank = tail_at[on_paths], head_at[on_paths], head_rank[on_paths]
    cuts = np.searchsorted(head_rank, ids + 1).tolist()   # one span per head rank
    spans = [(tail_at[a:b], head_at[a:b], slice(a, b))
             for a, b in zip(cuts, cuts[1:]) if a < b]
    sigma = np.eye(n).ravel()                    # path counts, flat n x n
    for p, u, _ in spans:
        np.add.at(sigma, u, sigma[p])
    paths = np.where(sigma > 0, sigma, 1.0)      # a chain-less state adds 0
    share = sigma[tail_at] / paths[head_at]
    delta = np.zeros(n * n)
    for p, u, part in reversed(spans):
        term = delta[u]                          # share * (1 + delta[u]), in place
        term += 1.0
        term *= share[part]
        delta[p] += term
    delta[ids * (n + 1)] = 0.0                   # endpoints excluded
    scores = delta.reshape(n, n).sum(axis=0)     # row by row, sources in order
    return dict(zip(net.states, scores.tolist()))


# -- export ------------------------------------------------------------


def to_dot(net: MobilityCommNetwork) -> str:
    """GraphViz digraph: solid mobility edges, dashed comm edges."""
    lines = ["digraph network {"]
    for s in net.states:
        lines.append(f'  "{s}";')
    for (a, b), w in sorted(net.mobility.items()):
        if a == b:
            continue
        lines.append(f'  "{a}" -> "{b}" [label="{w:g}"];')
    for (a, b), w in sorted(net.comm.items()):
        lines.append(f'  "{a}" -> "{b}" [style=dashed, color=gray40, label="{w:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

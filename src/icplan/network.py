"""Mobility-communication networks, their graph primitives and JSON loading.

A network couples two directed edge sets over one state set: mobility edges,
which agents traverse between consecutive time steps, and communication edges,
over which co-located or adjacent agents exchange information within a time
step.  Edge weights are costs; both edge sets may be asymmetric.  Mobility
self-loops (waiting) are inserted automatically at zero cost unless the
instance disables them.  Each edge has one cost, the same at every layer.

Derived tables are built on first use and cached on the network: adjacency,
the mobility arcs, the forward all-pairs distance matrix (betweenness reads
every source) and distance rows to single states (the clustering reads only
those to agent starts).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .errors import InstanceError

MOBILITY = "mobility"
COMM = "comm"
NETWORK_KEYS = frozenset({"states", "mobility_edges", "comm_edges", "self_loops"})


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
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_succ", _adjacency(self.states, self.mobility, 0))
        object.__setattr__(self, "_pred", _adjacency(self.states, self.mobility, 1))
        object.__setattr__(self, "_comm_tables", None)  # (succ, pred), on first use
        object.__setattr__(self, "_arcs", None)       # (tails, heads, costs), on first use
        object.__setattr__(self, "_distances", None)  # forward matrix, on first use
        object.__setattr__(self, "_to", {})           # state index -> distances to it
        object.__setattr__(self, "_undirected", None)

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


def load_network(source) -> MobilityCommNetwork:
    """Load a network from an instance dict or a file path."""
    data = read_json_object(source)
    refuse_unknown_keys("network", data, NETWORK_KEYS)
    if "states" not in data:
        raise InstanceError("instance missing 'states'")
    states = data["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InstanceError("states must be a JSON array of strings")

    def read_edges(key):
        records = data.get(key, [])
        if not isinstance(records, list):
            raise InstanceError(f"{key} must be a JSON array of edge records")
        out = []
        for rec in records:
            try:
                edge = (rec["from"], rec["to"], float(rec.get("weight", 0.0)))
                named = isinstance(edge[0], str) and isinstance(edge[1], str)
            except (KeyError, TypeError, ValueError):
                named = False
            if not named:           # endpoints are state names
                raise InstanceError(f"malformed edge record in {key}: {rec!r}")
            out.append(edge)
        return out

    return build_network(
        states,
        read_edges("mobility_edges"),
        read_edges("comm_edges"),
        self_loops=json_flag(data, "self_loops", True),
    )


def json_integer(value) -> int:
    """`value`, a JSON number with no fractional part, as an int.  Anything
    else is refused rather than converted, so that "T": 2.7 does not solve a
    T=2 problem, nor "T": "2" or "T": true a T=2 or T=1 one."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise InstanceError(f"expected an integer, got {value!r}")
    return int(value)


def json_key_integer(key: str) -> int:
    """An object key, which JSON makes a string, that names an integer
    (an agent id): "0" is 0, "0.5" and "a" are refused."""
    if not isinstance(key, str) or not re.fullmatch(r"-?[0-9]+", key):
        raise InstanceError(f"expected an integer key, got {key!r}")
    return int(key)


def json_flag(data: dict, key: str, default: bool) -> bool:
    """data[key], which must be a JSON boolean: bool("false") is True."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise InstanceError(f"{key!r} must be true or false, got {value!r}")
    return value


def refuse_unknown_keys(section: str, data, accepted: frozenset):
    """A key this format does not define would otherwise be ignored, and the
    file solved as another problem than its author meant."""
    if not isinstance(data, dict):
        raise InstanceError(f"the {section!r} section must be an object")
    unknown = sorted(set(data) - accepted)
    if unknown:
        raise InstanceError(f"unknown key(s) in {section!r}: {', '.join(unknown)}")


def read_json_object(source) -> dict:
    """The JSON object in a dict, or in the file at a str or Path path."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, Path)):
        raise InstanceError(f"cannot load JSON from {type(source).__name__}")
    try:
        text = Path(source).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read file {str(source)!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError("JSON root must be an object")
    return data


def write_text(path, text: str):
    """Write `text` to the file at `path` as given, line ends included; a
    failed write is an InstanceError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceError(f"cannot write {str(path)!r}: {exc}") from None


def check_writable(path):
    """Fail now, as `write_text` would after the work, when `path` cannot be
    opened for writing; an existing file keeps its contents."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise InstanceError(f"cannot write {str(path)!r}: {exc}") from None


def write_json(path, data):
    """Write `data` as indented, key-sorted JSON and a final newline."""
    write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


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

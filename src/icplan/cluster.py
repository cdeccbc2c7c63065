"""Cluster decomposition: agent groups, state territories and a relay tree.

Agents are grouped by spectral clustering on a proximity matrix (inverse
shortest travel distance between their initial states), the state space is
partitioned by growing each group's territory outward from its agents, and
a hierarchy is built by activating clusters that can be reached over a
communication edge from an already-active cluster's territory.  Each
activated cluster designates a submaster: the receiving agent closest to
its parent, which acts as the cluster's local plan source and report sink.
Every travel distance the decomposition reads ends at an agent start, so it
asks the network only for those rows (`distances_to`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceError
from .ilp import AgentConfig
from .network import COMM, MobilityCommNetwork, hop_bfs

CO_LOCATED_FACTOR = 10.0    # similarity assigned to co-located agents
KMEANS_ITERS = 100          # Lloyd refinement rounds at most


@dataclass
class Clustering:
    groups: dict[int, tuple[int, ...]]
    state_sets: dict[int, tuple[str, ...]]
    submasters: dict[int, int]
    parents: dict[int, int | None]                 # the root's is None
    activation_edges: dict[int, tuple[str, str]]
    unassigned: tuple[str, ...] = ()
    split_rounds: int = 0

    def cluster_ids(self):
        return sorted(self.groups)

    def depth(self, cid: int) -> int:
        d, cur = 0, cid
        while self.parents.get(cur) is not None:
            cur = self.parents[cur]
            d += 1
        return d

    def to_dict(self) -> dict:
        return {
            "clusters": [{
                "id": cid,
                "agents": list(self.groups[cid]),
                "states": list(self.state_sets[cid]),
                "submaster": self.submasters.get(cid),
                "parent": self.parents.get(cid),
                "activation_edge": (list(self.activation_edges[cid])
                                    if cid in self.activation_edges else None),
                "active": cid in self.parents,
            } for cid in self.cluster_ids()],
            "unassigned": list(self.unassigned),
        }


# -- agent clustering -----------------------------------------------------


def similarity_matrix(net: MobilityCommNetwork, initial_states) -> np.ndarray:
    """Pairwise agent proximity: 1 / min(d(i->j), d(j->i)).

    Unreachable pairs score 0; co-located pairs score ten times the largest
    finite entry so they are pulled into the same cluster.
    """
    at = [net.index(s) for s in initial_states]
    dist = net.distances_to(at)[:, at]
    m = np.minimum(dist, dist.T)
    np.fill_diagonal(m, np.inf)
    finite = (0.0 < m) & (m < np.inf)
    sim = np.zeros_like(m)
    sim[finite] = 1.0 / m[finite]
    sim[m == 0.0] = CO_LOCATED_FACTOR * (sim.max() if finite.any() else 1.0)
    return sim


def _farthest_first_kmeans(rows: np.ndarray, k: int):
    """Deterministic K-means: farthest-first init, Lloyd refinement."""
    n = len(rows)
    centers = [0]
    while len(centers) < k:
        d = np.min(np.linalg.norm(rows[:, None, :] - rows[None, centers, :],
                                  axis=2), axis=1)
        d[centers] = -1.0
        centers.append(int(np.argmax(d)))
    means = rows[centers].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_ITERS):
        d = np.linalg.norm(rows[:, None, :] - means[None, :, :], axis=2)
        new_labels = np.argmin(d, axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            members = rows[labels == c]
            if len(members):
                means[c] = members.mean(axis=0)
    return labels


def spectral_cluster_agents(net: MobilityCommNetwork, agents: AgentConfig,
                            k: int) -> dict[int, tuple[int, ...]]:
    """Group agents via the normalized Laplacian of the proximity matrix.

    Returns {cluster_id: agent_ids}; ids are 1-based and the cluster holding
    the (first) master agent - agent 0 when no master is flagged - is
    always cluster 1.
    """
    R = agents.count
    k = max(1, min(k, R))
    A = similarity_matrix(net, [agents.initial[r] for r in range(R)])
    deg = A.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    L = np.eye(R) - (dinv[:, None] * A * dinv[None, :])
    _, vecs = np.linalg.eigh(L)
    U = vecs[:, :k]
    norms = np.linalg.norm(U, axis=1)
    U = U / np.where(norms > 1e-12, norms, 1.0)[:, None]
    labels = _farthest_first_kmeans(U, k)
    return _relabel([np.flatnonzero(labels == c).tolist() for c in range(k)],
                    agents)


def _relabel(group_list, agents: AgentConfig) -> dict[int, tuple[int, ...]]:
    """Cluster holding the master first, then by smallest member id."""
    anchor = agents.anchor()
    group_list = [tuple(sorted(g)) for g in group_list if g]
    group_list.sort(key=lambda g: (anchor not in g, g[0]))
    return {cid: g for cid, g in enumerate(group_list, start=1)}


def _merge_shared_starts(groups: dict[int, tuple[int, ...]],
                         agents: AgentConfig) -> dict[int, tuple[int, ...]]:
    """Merge groups whose agents share an initial state (seed conflicts).

    Merged groups share no start, so one absorbing pass suffices.
    """
    merged: list[set[int]] = []
    for g in groups.values():
        starts = {agents.initial[r] for r in g}
        shared = [m for m in merged if any(agents.initial[r] in starts for r in m)]
        merged = [m for m in merged if m not in shared] + [set(g).union(*shared)]
    return _relabel(merged, agents)


# -- state territory growth -------------------------------------------------


def grow_state_clusters(net: MobilityCommNetwork,
                        groups: dict[int, tuple[int, ...]],
                        initial: dict[int, str]):
    """Round-robin territory growth from each group's initial states.

    On its turn a cluster claims, among free states adjacent to its current
    territory, the one with the smallest travel distance to its nearest
    agent start (ties broken by state order).  Claiming only adjacent states
    keeps every territory component anchored at an agent start, which is
    what lets split-and-restart terminate.  States no territory can reach
    stay unassigned.
    """
    pull = {cid: net.distances_to([net.index(initial[r]) for r in g]).min(axis=0).tolist()
            for cid, g in groups.items()}     # distance to the nearest start
    rows = net.undirected_mobility()
    owner: dict[int, int] = {}                # state index -> cluster
    for cid in sorted(groups):
        for r in groups[cid]:
            i = net.index(initial[r])
            if owner.get(i, cid) != cid:
                raise InstanceError(f"groups {owner[i]} and {cid} share "
                                    f"initial state {initial[r]!r}")
            owner[i] = cid
    free = set(range(len(net.states))) - owner.keys()
    fringe = {cid: set() for cid in groups}
    for i, cid in owner.items():
        fringe[cid].update(rows[i])
    while free:
        progress = False
        for cid in sorted(groups):
            fringe[cid] &= free
            near = pull[cid]
            reach = [(near[i], i) for i in fringe[cid] if near[i] < math.inf]
            if reach:
                i = min(reach)[1]
                owner[i] = cid
                free.discard(i)
                fringe[cid].update(rows[i])
                progress = True
        if not progress:
            break
    state_sets = {cid: tuple(s for i, s in enumerate(net.states) if owner.get(i) == cid)
                  for cid in sorted(groups)}
    return state_sets, tuple(net.states[i] for i in sorted(free))


def weak_components(net: MobilityCommNetwork, states) -> list[frozenset[str]]:
    """Weakly connected components of the induced mobility subgraph."""
    keep = set(states)
    seen: set[str] = set()
    out = []
    for s in sorted(keep, key=net.index):
        if s not in seen:
            comp = frozenset(hop_bfs(net, [s], within=keep))
            seen |= comp
            out.append(comp)
    return out


def cluster_with_retry(net: MobilityCommNetwork, agents: AgentConfig,
                       k: int | None = None):
    """Full grouping pipeline with split-and-restart on disconnected clusters.

    Every territory component holds a start of its group (growth is
    anchored), so each split adds a group and at most R - 1 rounds run; the
    parts share no start, so they need no merge.  Returns (groups,
    state_sets, unassigned, split_rounds).
    """
    if k is None:
        k = math.ceil(agents.count / 4)
    groups = _merge_shared_starts(spectral_cluster_agents(net, agents, k), agents)
    rounds = 0
    while True:
        state_sets, unassigned = grow_state_clusters(net, groups, agents.initial)
        for cid in sorted(groups):
            comps = weak_components(net, state_sets[cid])
            if len(comps) > 1:
                break
        else:
            return groups, state_sets, unassigned, rounds
        rounds += 1
        parts = [[r for r in groups[cid] if agents.initial[r] in comp]
                 for comp in comps]
        groups = _relabel([g for c, g in groups.items() if c != cid] + parts,
                          agents)


# -- hierarchy -----------------------------------------------------------


def build_hierarchy(net: MobilityCommNetwork, agents: AgentConfig,
                    groups: dict[int, tuple[int, ...]],
                    state_sets: dict[int, tuple[str, ...]]):
    """Activate clusters over communication edges, designating submasters.

    A cluster activates when a communication edge leads from an active
    cluster's territory to one of its agents' initial states.  Its submaster
    is the eligible receiving agent nearest to the parent territory (ties by
    agent id).  Returns (parents, submasters, activation_edges).
    """
    root = 1
    anchor = agents.anchor()
    parents: dict[int, int | None] = {root: None}
    submasters = {root: anchor if anchor in groups[root] else min(groups[root])}
    activation_edges: dict[int, tuple[str, str]] = {}

    territory = {cid: [net.index(u) for u in states]
                 for cid, states in state_sets.items()}

    def parent_dist(pid, s):
        row = net.distances_to([net.index(s)])[0]
        return float(np.min(row[territory[pid]], initial=math.inf))

    grew = True
    while grew:
        grew = False
        for cid in sorted(groups):
            if cid in parents:
                continue
            found = None
            for pid in sorted(parents):
                receivers = []
                for r in groups[cid]:
                    s_r = agents.initial[r]
                    feeds = [u for u in net.neighbors(s_r, "pred", COMM)
                             if u in state_sets[pid]]
                    if feeds:
                        u = min(feeds, key=net.index)
                        receivers.append((parent_dist(pid, s_r), r, (u, s_r)))
                if receivers:
                    receivers.sort()
                    found = (pid, receivers[0])
                    break
            if found is not None:
                pid, (_, r, edge) = found
                parents[cid] = pid
                submasters[cid] = r
                activation_edges[cid] = edge
                grew = True
    return parents, submasters, activation_edges


def _touching_cluster(net: MobilityCommNetwork, state_sets, orphan,
                      preferred) -> int:
    """Cluster whose territory borders the orphan's (preferring `preferred`)."""
    assigned = {s: cid for cid, states in state_sets.items()
                for s in states if cid != orphan}
    rows = net.undirected_mobility()
    touching = set()
    for s in state_sets[orphan]:
        for v in rows[net.index(s)]:
            cid = assigned.get(net.states[v])
            if cid is not None:
                touching.add(cid)
    for pool in (touching & set(preferred), touching):
        if pool:
            return min(pool)
    return 1


def cluster_instance(net: MobilityCommNetwork, agents: AgentConfig,
                     k: int | None = None) -> Clustering:
    """Cluster agents and states, then build the activation hierarchy.

    Clusters the hierarchy cannot activate (none of their agents sits within
    communication range of an active territory) are folded into a bordering
    activated cluster so that every agent stays plannable; the territory
    union keeps both connectivity and the partition intact, and in the worst
    case everything collapses into the root cluster, so absorption always
    terminates.
    """
    groups, state_sets, unassigned, rounds = cluster_with_retry(net, agents, k)
    while True:
        parents, submasters, activation_edges = build_hierarchy(
            net, agents, groups, state_sets)
        orphans = [cid for cid in sorted(groups) if cid not in parents]
        if not orphans:
            break
        o = orphans[0]
        target = _touching_cluster(net, state_sets, o, preferred=parents)
        merged = set(state_sets[target]) | set(state_sets[o])
        groups[target] = tuple(sorted(groups[target] + groups[o]))
        state_sets[target] = tuple(s for s in net.states if s in merged)
        del groups[o], state_sets[o]
    return Clustering(groups=groups, state_sets=state_sets,
                      submasters=submasters, parents=parents,
                      activation_edges=activation_edges,
                      unassigned=unassigned, split_rounds=rounds)


# -- dead-state pruning ----------------------------------------------------


def prune_dead_states(net: MobilityCommNetwork, states=None,
                      protected=frozenset()) -> frozenset[str]:
    """Strip unprotected leaf states (undirected degree <= 1) until none is
    left.  A removal only lowers degrees, so the kept set does not depend on
    the order: each leaf is queued once, when its degree falls to 1."""
    kept = {net.index(s) for s in (net.states if states is None else states)}
    protected = set(protected)
    rows = net.undirected_mobility()
    degree = {i: sum(v in kept for v in rows[i]) for i in kept}
    strip = {i for i in kept if net.states[i] not in protected}
    queue = [i for i in strip if degree[i] <= 1]
    for i in queue:                 # the loop also visits states appended below
        kept.remove(i)
        for v in rows[i]:
            if v in kept:
                degree[v] -= 1
                if degree[v] == 1 and v in strip:
                    queue.append(v)
    return frozenset(net.states[i] for i in kept)


def clusters_to_dot(net: MobilityCommNetwork, clustering: Clustering,
                    initial: dict[int, str]) -> str:
    """Graphviz view: states colored by cluster, agents listed in labels."""
    palette = ["#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
               "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00"]
    color_of = {}
    tags: dict[str, list[str]] = {}
    for cid in clustering.cluster_ids():
        color = palette[(cid - 1) % len(palette)]
        for s in clustering.state_sets[cid]:
            color_of[s] = color
        for r in clustering.groups[cid]:
            mark = "*" if clustering.submasters.get(cid) == r else ""
            tags.setdefault(initial[r], []).append(f"a{r}{mark}")
    lines = ["digraph clusters {", "  node [style=filled];"]
    for s in net.states:
        fill = color_of.get(s, "#dddddd")
        label = s if s not in tags else f"{s}\\n{','.join(tags[s])}"
        lines.append(f'  "{s}" [fillcolor="{fill}", label="{label}"];')
    for (a, b) in net.mobility:
        if a != b:
            lines.append(f'  "{a}" -> "{b}";')
    for cid, (u, v) in sorted(clustering.activation_edges.items()):
        lines.append(f'  "{u}" -> "{v}" [style=dashed, color=red, '
                     f'label="activate {cid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

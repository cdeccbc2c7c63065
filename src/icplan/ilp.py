"""Mixed-integer model builder for intermittent-connectivity planning.

Plans route every source agent's information to every sink agent's final
state across a time-extended graph.  Occupancy variables z and transition
variables x encode agent motion; continuous flow variables carry information
along mobility arcs (riding an agent) and communication arcs (within a
layer), linked to occupancy by big-M bridge constraints.  Terminal rewards
are collected through count-thresholded binaries y.

Each data flow's bridge M is its own supply: |snk| units one_to_many, |src|
units many_to_one.  The only cycles of the time-extended graph are
communication cycles within a layer; cancelling them keeps every balance row
and costs nothing (communication costs are >= 0), so some optimal plan sends
no more than the supply over any arc.  The master flow keeps
`big_m_value()`, as does its `master_comm` gate.

The information-consistent variant adds a master flow: agents outside the
master's initial states may neither move nor transmit before the master flow
has reached their own initial state.  Gating uses cumulative net inflow
through the current layer, so receive-then-relay within one layer is allowed.

Layer-0 communication is cost-free by construction: the objective's
communication term runs over t in {1..T} only.

A model is stored as arrays, never as one dict per row.  Variables are
allocated in blocks (z by (r, t, s), x by (r, t, e), y, then f and fbar per
flow id), so every index follows from a block's start by arithmetic: the
`_Grid` index tables Z[r, t, s], X[r, t, e] and a flow's f[t, e] and
fbar[t, c].  Each constraint family appends one chunk of rows through
`MilpModel.add_rows`: (row, column, value) entry arrays built with numpy
over the edge index arrays, plus row bounds and a tag.  `MilpModel.matrix()`
sums the entries that meet at one cell, in the order they were added, drops
exact zeros and returns the CSC matrix HiGHS reads, built on each call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigurationError
from .network import COMM, MobilityCommNetwork

MASTER_FLOW = "m"


@dataclass(frozen=True)
class AgentConfig:
    """Team description: initial placement plus role subsets."""

    count: int
    initial: dict[int, str]
    static: frozenset[int] = frozenset()
    masters: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError("agent count must be >= 1")
        if sorted(self.initial) != list(range(self.count)):
            raise ConfigurationError("initial must map agent ids 0..count-1")
        for name, subset in (("static", self.static), ("masters", self.masters)):
            bad = [r for r in subset if r not in self.initial]
            if bad:
                raise ConfigurationError(f"{name} references unknown agents {bad}")

    def master_states(self) -> frozenset[str]:
        return frozenset(self.initial[m] for m in self.masters)

    def anchor(self) -> int:
        """The team's anchor agent: the smallest master id, else agent 0."""
        return min(self.masters, default=0)


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem instance: network, team, horizon, couplings, extensions."""

    net: MobilityCommNetwork
    agents: AgentConfig
    T: int
    src: tuple[int, ...] = ()
    snk: tuple[int, ...] = ()
    rewards: dict[tuple[str, int], float] = field(default_factory=dict)
    information_consistent: bool = False
    collision_avoidance: bool = False
    awareness_reward: bool = False
    return_to_base: bool = False

    def __post_init__(self):
        object.__setattr__(self, "src", tuple(sorted(set(self.src))))
        object.__setattr__(self, "snk", tuple(sorted(set(self.snk))))

    def validate(self):
        net, agents = self.net, self.agents
        if self.T < 0:
            raise ConfigurationError("horizon T must be >= 0")
        for r, s in agents.initial.items():
            if not net.has_state(s):
                raise ConfigurationError(f"agent {r} starts at unknown state {s!r}")
        for name, ids in (("src", self.src), ("snk", self.snk)):
            bad = [r for r in ids if r not in agents.initial]
            if bad:
                raise ConfigurationError(f"{name} references unknown agents {bad}")
        for (s, k), value in self.rewards.items():
            if not net.has_state(s):
                raise ConfigurationError(f"reward at unknown state {s!r}")
            if not isinstance(k, int) or k < 1:
                raise ConfigurationError(f"reward threshold k must be int >= 1, got {k!r}")
        if self.information_consistent and not agents.masters:
            raise ConfigurationError("information_consistent requires at least one master")
        if self.awareness_reward and not self.information_consistent:
            raise ConfigurationError("awareness_reward requires information_consistent")
        if self.return_to_base and not (agents.masters & agents.static):
            raise ConfigurationError("return_to_base requires a static master")
        if self.return_to_base and agents.static.issuperset(range(agents.count)):
            raise ConfigurationError("return_to_base requires a dynamic agent")
        for r in agents.static:
            s = agents.initial[r]
            if (s, s) not in net.mobility:
                raise ConfigurationError(
                    f"static agent {r} at {s!r} needs a mobility self-loop")

    # -- derived quantities -------------------------------------------

    def big_m_value(self) -> int:
        return max(self.agents.count, len(self.net.states))

    def orientation(self) -> str:
        return "one_to_many" if len(self.src) <= len(self.snk) else "many_to_one"

    def data_flow_ids(self) -> tuple[int, ...]:
        return self.src if self.orientation() == "one_to_many" else self.snk

    def flow_ids(self) -> tuple:
        ids: list = list(self.data_flow_ids())
        if self.information_consistent:
            ids.append(MASTER_FLOW)
        return tuple(ids)

    def sorted_rewards(self):
        return sorted(self.rewards.items(),
                      key=lambda item: (self.net.index(item[0][0]), item[0][1]))


class MilpModel:
    """Solver-neutral MILP held as arrays: blocks of variables, chunks of
    rows and objective terms (maximised)."""

    def __init__(self):
        self.refs: list[tuple] = []
        self.start: dict = {}                 # block key -> its first variable
        self.tags: list[str] = []             # one per row
        self.grid: _Grid | None = None        # set by allocate_variables
        self._blocks: list[tuple[int, bool]] = []   # (size, binary) per block
        self._entries: list[tuple] = []       # (rows, cols, vals, chunk's first row)
        self._bounds: list[tuple] = []        # (row count, lo, hi) per chunk
        self._terms: list[tuple] = []         # (cols, vals) of the objective

    # -- construction ---------------------------------------------------

    def add_vars(self, key, refs: list[tuple], domain: str) -> int:
        """Append a block of variables under `key`, 'B' binary or 'C'
        continuous >= 0; returns its first index."""
        if key in self.start:
            raise ConfigurationError(f"duplicate variable block {key!r}")
        first = self.start[key] = len(self.refs)
        self.refs.extend(refs)
        self._blocks.append((len(refs), domain == "B"))
        return first

    def add_rows(self, n: int, entries, rel: str, rhs, tag):
        """Append a chunk of n rows `rel` `rhs` (a scalar or one per row).

        `entries` is a list of (rows, cols, vals): cols is an array of
        variable indices, rows (numbered from 0 within the chunk) are
        broadcast to its shape, and vals is a scalar or an array of its
        shape.  Entries that meet at one cell are summed.  `tag` names every
        row, or is a list, one per row.
        """
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"bad relation {rel!r}")
        first = len(self.tags)
        for rows, cols, vals in entries:
            if type(rows) is not np.ndarray or rows.shape != cols.shape:
                rows = _broadcast(np.asarray(rows), cols.shape)
            if type(vals) is np.ndarray:
                vals = vals.ravel()
            self._entries.append((rows.ravel(), cols.ravel(), vals, first))
        self._bounds.append((n, -np.inf if rel == "<=" else rhs,
                             np.inf if rel == ">=" else rhs))
        self.tags.extend([tag] * n if isinstance(tag, str) else tag)

    def add_objective(self, cols: np.ndarray, vals):
        """Add vals (a scalar or an array broadcast to cols) at cols."""
        if isinstance(vals, np.ndarray):
            vals = _broadcast(vals, cols.shape).ravel()
        self._terms.append((cols.ravel(), vals))

    # -- solver input -----------------------------------------------------

    def matrix(self):
        """(A, lo, hi): the CSC constraint matrix and the row bounds, built
        on each call.  Entries at one cell are summed in the order they were
        added, exact zeros dropped, row indices ascend within each column."""
        rows, cols, vals, firsts = zip(*self._entries)
        sizes = [len(c) for c in cols]
        n_rows, n_cols = self.n_constraints, self.n_variables
        rows = np.concatenate(rows) + np.array(firsts).repeat(sizes)
        cell = np.concatenate(cols) * n_rows + rows
        order = cell.argsort(kind="stable")
        cell = cell[order]
        new = np.empty(len(cell), dtype=bool)   # the first entry of each cell
        new[:1] = True
        np.not_equal(cell[1:], cell[:-1], out=new[1:])
        first = new.nonzero()[0]
        vals = np.add.reduceat(_expand(vals, sizes)[order], first)
        keep = vals != 0.0
        cols, rows = np.divmod(cell[first[keep]], n_rows)
        indptr = np.zeros(n_cols + 1, dtype=np.int32)
        np.bincount(cols, minlength=n_cols).cumsum(out=indptr[1:])
        A = sparse.csc_array((vals[keep], rows.astype(np.int32), indptr),
                             shape=(n_rows, n_cols))
        counts, lo, hi = zip(*self._bounds)
        bounds = _expand(lo + hi, counts + counts)
        return A, bounds[:n_rows], bounds[n_rows:]

    def binary(self) -> np.ndarray:
        """Boolean mask of the binary variables."""
        sizes, flags = zip(*self._blocks)
        return np.array(flags).repeat(sizes)

    def objective_terms(self):
        """(cols, vals) arrays of every objective term."""
        cols, vals = zip(*self._terms)
        return np.concatenate(cols), _expand(vals, [len(c) for c in cols])

    # -- inspection -------------------------------------------------------

    @property
    def objective(self) -> dict[int, float]:
        return dict(zip(*(a.tolist() for a in self.objective_terms())))

    @property
    def constraints(self) -> list[tuple[dict[int, float], str, float, str]]:
        """(coeffs, rel, rhs, tag) per row, rebuilt from the matrix per call."""
        A, lo, hi = self.matrix()
        A = A.tocsr()
        ptr, cols, vals = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
        out = []
        for i, (low, high, tag) in enumerate(zip(lo.tolist(), hi.tolist(), self.tags)):
            rel, rhs = (("==", low) if low == high else
                        ("<=", high) if low == -np.inf else (">=", low))
            coeffs = dict(zip(cols[ptr[i]:ptr[i + 1]], vals[ptr[i]:ptr[i + 1]]))
            out.append((coeffs, rel, rhs, tag))
        return out

    @property
    def n_variables(self) -> int:
        return len(self.refs)

    @property
    def n_constraints(self) -> int:
        return len(self.tags)

    def tag_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for tag in self.tags:
            counts[tag] = counts.get(tag, 0) + 1
        return counts


def _broadcast(a: np.ndarray, shape) -> np.ndarray:
    out = np.empty(shape, dtype=a.dtype)
    out[...] = a
    return out


def _expand(values, sizes) -> np.ndarray:
    """Each value repeated to its size, concatenated; a value is a scalar
    or a flat array of that size."""
    arrays = [isinstance(v, np.ndarray) for v in values]
    out = np.array([0.0 if a else v for v, a in zip(values, arrays)], dtype=float).repeat(sizes)
    end = 0
    for v, a, size in zip(values, arrays, sizes):
        end += size
        if a:
            out[end - size:end] = v
    return out


class _Grid:
    """Index tables over a model's variable blocks, and the network as arrays.

    Z[r, t, s], X[r, t, e] and Y[j] hold the indices of z, x and y (see
    `allocate_variables`); `f(fid)[t, e]` and `fbar(fid)[t, c]` those of a
    flow's block, which holds f and then fbar, t-major.  States s, mobility
    edges e and comm edges c are numbered in network order.
    """

    def __init__(self, spec: ProblemSpec, start: dict, rewards: list):
        net, T = spec.net, spec.T
        R, S = spec.agents.count, len(net.states)
        self.start, self.T, self.S = start, T, S
        self.rewards = rewards                  # `spec.sorted_rewards()`, y's order
        ends = itertools.chain.from_iterable
        self.tail, self.head = _states(net, ends(net.mobility)).reshape(-1, 2).T
        self.ctail, self.chead = _states(net, ends(net.comm)).reshape(-1, 2).T
        M, C = len(self.tail), len(self.ctail)
        self.mob_cost = np.fromiter(net.mobility.values(), float, M)
        self.comm_cost = np.fromiter(net.comm.values(), float, C)
        self.Z = start["z"] + np.arange(R * (T + 1) * S).reshape(R, T + 1, S)
        self.X = start["x"] + np.arange(R * T * M).reshape(R, T, M)
        self.Y = start["y"] + np.arange(len(self.rewards))
        self._f = np.arange(T * M).reshape(T, M)
        self._fbar = T * M + np.arange((T + 1) * C).reshape(T + 1, C)
        self._cumulative: dict[int, np.ndarray] = {}

    @functools.cached_property
    def inflow_terms(self):
        """(rows, offsets, signs): each flow variable as net inflow on row
        t*|S| + s, by its offset in a flow's block.  f(e, t) enters e's head
        at t+1 and leaves its tail at t; fbar(c, t) enters c's head and
        leaves its tail at t."""
        S = self.S
        t, t1 = np.arange(self.T)[:, None] * S, np.arange(self.T + 1)[:, None] * S
        rows = np.concatenate([(t + S + self.head).ravel(), (t1 + self.chead).ravel(),
                               (t + self.tail).ravel(), (t1 + self.ctail).ravel()])
        width = self._f.size + self._fbar.size
        return rows, np.concatenate([np.arange(width)] * 2), np.repeat([1.0, -1.0], width)

    @functools.cached_property
    def gates(self):
        """The rows of `build_comm_gates`: v[t, c] (q = t*C + c) has row 2q
        for c's tail and 2q + 1 for its head.  Returns (v's rows, the z
        entries' rows, their z columns), each a (tail, head) pair."""
        shape = (self.Z.shape[1], len(self.ctail))
        q = 2 * np.arange(shape[0] * shape[1]).reshape(shape)
        rows = _broadcast(q, (self.Z.shape[0],) + q.shape)
        return (q, q + 1), (rows, rows + 1), (self.Z[:, :, self.ctail], self.Z[:, :, self.chead])

    def f(self, fid) -> np.ndarray:
        return self.start["f", fid] + self._f

    def fbar(self, fid) -> np.ndarray:
        return self.start["f", fid] + self._fbar

    def inflow(self, fid):
        """(rows, cols, vals) of flow `fid`'s net inflow at each state and
        layer, on row t*|S| + s."""
        rows, offsets, signs = self.inflow_terms
        return rows, self.start["f", fid] + offsets, signs

    def cumulative_inflow(self, s: int) -> np.ndarray:
        """Row t: the net inflow at state s summed over layers 0..t, per
        offset in a flow's block (read-only, built once per state)."""
        if s not in self._cumulative:
            rows, offsets, signs = self.inflow_terms
            layer, state = np.divmod(rows, self.S)
            at = state == s
            width = len(offsets) // 2
            dense = np.bincount(layer[at] * width + offsets[at],
                                weights=signs[at], minlength=(self.T + 1) * width)
            self._cumulative[s] = dense.reshape(self.T + 1, width).cumsum(axis=0)
        return self._cumulative[s]


def _states(net: MobilityCommNetwork, states) -> np.ndarray:
    """Indices of `states` in network order."""
    return np.array([net.index(s) for s in states], dtype=np.intp)


# -- variable allocation ------------------------------------------------


def allocate_variables(spec: ProblemSpec) -> MilpModel:
    """Occupancy z, transition x and reward y variables, in that order."""
    net, T, R = spec.net, spec.T, spec.agents.count
    model = MilpModel()
    model.add_vars("z", [("z", r, s, t) for r in range(R) for t in range(T + 1)
                         for s in net.states], "B")
    model.add_vars("x", [("x", r, a, b, t) for r in range(R) for t in range(T)
                         for (a, b) in net.mobility], "B")
    rewards = spec.sorted_rewards()
    model.add_vars("y", [("y", s, k) for (s, k), _ in rewards], "B")
    model.grid = _Grid(spec, model.start, rewards)
    return model


# -- constraint families -------------------------------------------------


def build_dynamics(model: MilpModel, spec: ProblemSpec):
    """Initial placement plus per-step occupancy/transition coupling."""
    g, R, T = model.grid, spec.agents.count, spec.T
    here = np.zeros((R, g.S))
    here[np.arange(R), _states(spec.net, [spec.agents.initial[r] for r in range(R)])] = 1.0
    model.add_rows(R * g.S, [(np.arange(R * g.S).reshape(R, g.S), g.Z[:, 0], 1.0)],
                   "==", here.ravel(), "initial")
    # rows alternate per (r, t, s): z(t+1) = inflow, then z(t) = outflow
    row = 2 * np.arange(R * T * g.S).reshape(R, T, g.S)
    at = row[:, :, :1]                           # rows of (r, t, state 0)
    model.add_rows(2 * row.size,
                   [(row, g.Z[:, 1:], 1.0), (row + 1, g.Z[:, :-1], 1.0),
                    (at + 2 * g.head, g.X, -1.0), (at + 2 * g.tail + 1, g.X, -1.0)],
                   "==", 0.0, ["dynamics_in", "dynamics_out"] * row.size)


def build_flow(model: MilpModel, spec: ProblemSpec):
    """Information-flow balance: one family per data flow id.

    one_to_many: each source agent's flow carries |snk| units from its initial
    vertex to the sinks' terminal vertices.  many_to_one mirrors it.  At T=0
    the emission and absorption cases land on the same layer and are summed.
    """
    g, T = model.grid, spec.T
    src, snk = spec.src, spec.snk
    s = np.arange(g.S)
    for fid in spec.data_flow_ids():
        if spec.orientation() == "one_to_many":
            ends = [(fid, 0, float(len(snk)))] + [(r, T, -1.0) for r in snk]
        else:
            ends = [(r, 0, 1.0) for r in src] + [(fid, T, -float(len(src)))]
        entries = [g.inflow(fid)] + [(t * g.S + s, g.Z[r, t], v) for r, t, v in ends]
        model.add_rows((T + 1) * g.S, entries, "==", 0.0, "flow_balance")


def build_comm_gates(model: MilpModel, v: np.ndarray, weight: float, tag: str):
    """v[t, c] <= weight * (agents at each end of comm edge c at layer t)."""
    (q_tail, q_head), (tail_rows, head_rows), (tail, head) = model.grid.gates
    model.add_rows(2 * v.size,
                   [(q_tail, v, 1.0), (q_head, v, 1.0),
                    (tail_rows, tail, -weight), (head_rows, head, -weight)],
                   "<=", 0.0, tag)


def build_bridge(model: MilpModel, spec: ProblemSpec, fid):
    """Big-M coupling of one flow family to occupancy and transitions.

    A data flow's M is the supply its balance rows fix, |snk| (one_to_many)
    or |src| (many_to_one): once its within-layer comm cycles are cancelled,
    which keeps every row and costs nothing, no arc carries more.  The
    master flow keeps `big_m_value()`.
    """
    g = model.grid
    if fid == MASTER_FLOW:
        N = float(spec.big_m_value())
    elif spec.orientation() == "one_to_many":
        N = float(len(spec.snk))
    else:
        N = float(len(spec.src))
    build_comm_gates(model, g.fbar(fid), N, "bridge_comm")
    f = g.f(fid)
    row = np.arange(f.size).reshape(f.shape)
    model.add_rows(f.size, [(row, f, 1.0), (row, g.X, -N)], "<=", 0.0,
                   "bridge_mobility")


def build_reward_link(model: MilpModel, spec: ProblemSpec):
    """Terminal reward y(s,k) needs at least k agents at s at T."""
    g = model.grid
    s = _states(spec.net, [s for (s, _), _ in g.rewards])
    k = np.array([k for (_, k), _ in g.rewards], dtype=float)
    j = np.arange(len(g.rewards))
    model.add_rows(len(j), [(j, g.Y, k), (j, g.Z[:, spec.T, s], -1.0)],
                   "<=", 0.0, "reward_link")


def build_master(model: MilpModel, spec: ProblemSpec):
    """Master flow with motion and transmission gating.

    |S| units of master flow originate at each master's initial state; every
    other state may only absorb.  An agent whose initial state differs from
    all master states must sit there until the cumulative master inflow at
    its initial state reaches one unit, and transmissions out of that state
    are bounded by the same cumulative inflow (scaled by big-M), which permits
    relaying within the layer of arrival.
    """
    g, T = model.grid, spec.T
    N = float(spec.big_m_value())
    starts = spec.agents.master_states()
    rhs = np.zeros((T + 1) * g.S)
    rhs[_states(spec.net, starts)] = -float(g.S)     # layer 0 comes first
    model.add_rows(len(rhs), [g.inflow(MASTER_FLOW)], ">=", rhs, "master_flow")

    m0, layers = g.start["f", MASTER_FLOW], np.arange(T + 1)
    fids = spec.flow_ids()
    firsts = np.array([g.start["f", fid] for fid in fids])[:, None, None]
    blocks = (T + 1) * np.arange(len(fids))[:, None]    # first row per flow
    for r in range(spec.agents.count):
        if spec.agents.initial[r] in starts:
            continue
        s0 = spec.net.index(spec.agents.initial[r])
        cum = g.cumulative_inflow(s0)
        lay, off = cum[:T].nonzero()            # inflow through t-1 gates t
        model.add_rows(T + 1, [(layers, g.Z[r, :, s0], 1.0),
                               (lay + 1, m0 + off, cum[lay, off])],
                       ">=", 1.0, "master_static")
        lay, off = cum.nonzero()
        shape = (len(fids), len(off))
        sends = firsts + (g.fbar(MASTER_FLOW) - m0)[:, g.ctail == s0]   # [flow, t, c]
        model.add_rows(len(fids) * (T + 1),
                       [(blocks + lay, _broadcast(m0 + off, shape),
                         _broadcast(N * cum[lay, off], shape)),
                        (blocks[:, :, None] + layers[:, None], sends, -1.0)],
                       ">=", 0.0, "master_comm")


def base_reachable_states(spec: ProblemSpec) -> frozenset[str]:
    """States from which a terminal agent is in communication with a static
    master, possibly through other static agents acting as relays."""
    net, agents = spec.net, spec.agents
    static_states = {agents.initial[r] for r in agents.static}
    closure = {agents.initial[m] for m in agents.masters & agents.static}
    grew = True
    while grew:
        grew = False
        for s in list(closure):
            for sp in net.neighbors(s, "succ", COMM):
                if sp in static_states and sp not in closure:
                    closure.add(sp)
                    grew = True
    reach = set(closure)
    for s in closure:
        reach.update(net.neighbors(s, "succ", COMM))
    return frozenset(reach)


def build_extensions(model: MilpModel, spec: ProblemSpec):
    g, net, T, agents = model.grid, spec.net, spec.T, spec.agents

    if agents.static:
        static = np.array(sorted(agents.static), dtype=np.intp)[:, None]
        s0 = _states(net, [agents.initial[r] for r in static[:, 0]])[:, None]
        cols = g.Z[static, np.arange(1, T + 1), s0]
        model.add_rows(cols.size, [(np.arange(cols.size).reshape(cols.shape), cols, 1.0)],
                       "==", 1.0, "static_agent")

    if spec.collision_avoidance:
        edge = {ab: e for e, ab in enumerate(net.mobility)}
        swap = np.array([(e, edge[b, a]) for (a, b), e in edge.items()
                         if a != b and (b, a) in edge], dtype=np.intp).reshape(-1, 2)
        pos = np.arange((T + 1) * g.S).reshape(T + 1, g.S)
        trans = np.arange(T * len(swap)).reshape(T, len(swap))
        for p, q in itertools.combinations(range(agents.count), 2):
            model.add_rows(pos.size, [(pos, g.Z[p], 1.0), (pos, g.Z[q], 1.0)],
                           "<=", 1.0, "collision_pos")
            model.add_rows(trans.size, [(trans, g.X[p][:, swap[:, 0]], 1.0),
                                        (trans, g.X[q][:, swap[:, 1]], 1.0)],
                           "<=", 1.0, "collision_trans")

    if spec.awareness_reward:
        starts = agents.master_states()
        m0 = g.start["f", MASTER_FLOW]
        for j, ((s, k), _) in enumerate(g.rewards):
            if s in starts:
                continue
            final = g.cumulative_inflow(net.index(s))[T]
            off = np.flatnonzero(final)
            model.add_rows(1, [(0, g.Y[j:j + 1], 1.0), (0, m0 + off, -final[off])],
                           "<=", 0.0, "awareness")

    if spec.return_to_base:
        base = np.sort(_states(net, base_reachable_states(spec)))  # holds the static master's state
        movers = np.array([r for r in range(agents.count) if r not in agents.static])
        model.add_rows(1, [(0, g.Z[movers[:, None], T, base], 1.0)],
                       ">=", 1.0, "return_to_base")


def build_reward_and_motion_terms(model: MilpModel, spec: ProblemSpec):
    """Objective terms every model shares: terminal rewards minus mobility cost."""
    g = model.grid
    model.add_objective(g.Y, np.array([v for _, v in g.rewards], dtype=float))
    paid = np.flatnonzero(g.mob_cost)
    model.add_objective(g.X[:, :, paid], -g.mob_cost[paid])


def add_comm_costs(model: MilpModel, v: np.ndarray):
    """Objective terms -cost(c) on v[t, c] for t in 1..T: layer-0
    communication is free."""
    cost = model.grid.comm_cost
    paid = np.flatnonzero(cost)
    model.add_objective(v[1:, paid], -cost[paid])


def build_objective(model: MilpModel, spec: ProblemSpec):
    """Maximize terminal rewards minus mobility cost minus communication cost."""
    build_reward_and_motion_terms(model, spec)
    for fid in spec.flow_ids():
        add_comm_costs(model, model.grid.fbar(fid))


def assemble(spec: ProblemSpec) -> MilpModel:
    """Validate the spec and build the full model."""
    spec.validate()
    net, T = spec.net, spec.T
    model = allocate_variables(spec)
    for fid in spec.flow_ids():                 # flows f (mobility), fbar (comm)
        model.add_vars(("f", fid),
                       [("f", fid, a, b, t) for t in range(T) for (a, b) in net.mobility]
                       + [("fbar", fid, a, b, t) for t in range(T + 1)
                          for (a, b) in net.comm], "C")
    build_dynamics(model, spec)
    build_flow(model, spec)
    for fid in spec.data_flow_ids():
        build_bridge(model, spec, fid)
    build_reward_link(model, spec)
    if spec.information_consistent:
        build_master(model, spec)
        build_bridge(model, spec, MASTER_FLOW)
    build_extensions(model, spec)
    build_objective(model, spec)
    return model

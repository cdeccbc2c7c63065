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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .network import COMM, MOBILITY, MobilityCommNetwork

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
    """Solver-neutral MILP: sparse constraints over an indexed variable table."""

    def __init__(self):
        self.refs: list[tuple] = []
        self.domains: list[str] = []          # 'B' binary, 'C' continuous >= 0
        self.by_ref: dict[tuple, int] = {}
        self.constraints: list[tuple[dict[int, float], str, float, str]] = []
        self.objective: dict[int, float] = {}  # maximize

    # -- construction ---------------------------------------------------

    def add_var(self, ref: tuple, domain: str) -> int:
        if ref in self.by_ref:
            raise ConfigurationError(f"duplicate variable {ref!r}")
        idx = len(self.refs)
        self.refs.append(ref)
        self.domains.append(domain)
        self.by_ref[ref] = idx
        return idx

    def add_constr(self, coeffs: dict[int, float], rel: str, rhs: float, tag: str):
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"bad relation {rel!r}")
        self.constraints.append((coeffs, rel, rhs, tag))

    def var(self, *ref) -> int:
        return self.by_ref[ref]

    def add_objective(self, idx: int, coeff: float):
        self.objective[idx] = self.objective.get(idx, 0.0) + coeff

    # -- inspection -------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.refs)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def tag_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, _, _, tag in self.constraints:
            counts[tag] = counts.get(tag, 0) + 1
        return counts


# -- variable allocation ------------------------------------------------


def allocate_variables(spec: ProblemSpec) -> MilpModel:
    """Occupancy z, transition x and reward y variables, in that order."""
    net, T, R = spec.net, spec.T, spec.agents.count
    model = MilpModel()
    for r in range(R):
        for t in range(T + 1):
            for s in net.states:
                model.add_var(("z", r, s, t), "B")
    for r in range(R):
        for t in range(T):
            for (a, b) in net.mobility:
                model.add_var(("x", r, a, b, t), "B")
    for (s, k), _ in spec.sorted_rewards():
        model.add_var(("y", s, k), "B")
    return model


# -- constraint families -------------------------------------------------


def build_dynamics(model: MilpModel, spec: ProblemSpec):
    """Initial placement plus per-step occupancy/transition coupling."""
    net, T = spec.net, spec.T
    for r in range(spec.agents.count):
        s0 = spec.agents.initial[r]
        for s in net.states:
            model.add_constr({model.var("z", r, s, 0): 1.0}, "==",
                             1.0 if s == s0 else 0.0, "initial")
    for r in range(spec.agents.count):
        for t in range(T):
            for s in net.states:
                coeffs = {model.var("z", r, s, t + 1): 1.0}
                for sp in net.neighbors(s, "pred", MOBILITY):
                    idx = model.var("x", r, sp, s, t)
                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                model.add_constr(coeffs, "==", 0.0, "dynamics_in")
                coeffs = {model.var("z", r, s, t): 1.0}
                for sp in net.neighbors(s, "succ", MOBILITY):
                    idx = model.var("x", r, s, sp, t)
                    coeffs[idx] = coeffs.get(idx, 0.0) - 1.0
                model.add_constr(coeffs, "==", 0.0, "dynamics_out")


def _accumulate(coeffs: dict[int, float], idx: int, delta: float):
    value = coeffs.get(idx, 0.0) + delta
    if value == 0.0:
        coeffs.pop(idx, None)
    else:
        coeffs[idx] = value


def net_inflow(model: MilpModel, spec: ProblemSpec, fid, s: str, t: int) -> dict[int, float]:
    """Coefficients of the net information inflow at state s, layer t."""
    net, T = spec.net, spec.T
    coeffs: dict[int, float] = {}
    if t >= 1:
        for sp in net.neighbors(s, "pred", MOBILITY):
            _accumulate(coeffs, model.var("f", fid, sp, s, t - 1), 1.0)
    for sp in net.neighbors(s, "pred", COMM):
        _accumulate(coeffs, model.var("fbar", fid, sp, s, t), 1.0)
    if t <= T - 1:
        for sp in net.neighbors(s, "succ", MOBILITY):
            _accumulate(coeffs, model.var("f", fid, s, sp, t), -1.0)
    for sp in net.neighbors(s, "succ", COMM):
        _accumulate(coeffs, model.var("fbar", fid, s, sp, t), -1.0)
    return coeffs


def build_flow(model: MilpModel, spec: ProblemSpec):
    """Information-flow balance: one family per data flow id.

    one_to_many: each source agent's flow carries |snk| units from its initial
    vertex to the sinks' terminal vertices.  many_to_one mirrors it.  At T=0
    the emission and absorption cases land on the same layer and are summed.
    """
    net, T = spec.net, spec.T
    orientation = spec.orientation()
    src, snk = spec.src, spec.snk
    for fid in spec.data_flow_ids():
        for t in range(T + 1):
            for s in net.states:
                coeffs = net_inflow(model, spec, fid, s, t)
                if orientation == "one_to_many":
                    if t == 0:
                        _accumulate(coeffs, model.var("z", fid, s, 0), float(len(snk)))
                    if t == T:
                        for r in snk:
                            _accumulate(coeffs, model.var("z", r, s, T), -1.0)
                else:
                    if t == 0:
                        for r in src:
                            _accumulate(coeffs, model.var("z", r, s, 0), 1.0)
                    if t == T:
                        _accumulate(coeffs, model.var("z", fid, s, T), -float(len(src)))
                model.add_constr(coeffs, "==", 0.0, "flow_balance")


def build_bridge(model: MilpModel, spec: ProblemSpec, fid):
    """Big-M coupling of one flow family to occupancy and transitions.

    A data flow's M is the supply its balance rows fix, |snk| (one_to_many)
    or |src| (many_to_one): once its within-layer comm cycles are cancelled,
    which keeps every row and costs nothing, no arc carries more.  The
    master flow keeps `big_m_value()`.
    """
    net, T = spec.net, spec.T
    if fid == MASTER_FLOW:
        N = float(spec.big_m_value())
    elif spec.orientation() == "one_to_many":
        N = float(len(spec.snk))
    else:
        N = float(len(spec.src))
    R = spec.agents.count
    for t in range(T + 1):
        for (a, b) in net.comm:
            for endpoint in (a, b):
                coeffs = {model.var("fbar", fid, a, b, t): 1.0}
                for r in range(R):
                    _accumulate(coeffs, model.var("z", r, endpoint, t), -N)
                model.add_constr(coeffs, "<=", 0.0, "bridge_comm")
    for t in range(T):
        for (a, b) in net.mobility:
            coeffs = {model.var("f", fid, a, b, t): 1.0}
            for r in range(R):
                _accumulate(coeffs, model.var("x", r, a, b, t), -N)
            model.add_constr(coeffs, "<=", 0.0, "bridge_mobility")


def build_reward_link(model: MilpModel, spec: ProblemSpec):
    """Terminal reward y(s,k) needs at least k agents at s at T."""
    for (s, k), _ in spec.sorted_rewards():
        coeffs = {model.var("y", s, k): float(k)}
        for r in range(spec.agents.count):
            _accumulate(coeffs, model.var("z", r, s, spec.T), -1.0)
        model.add_constr(coeffs, "<=", 0.0, "reward_link")


def _cumulative_inflows(model: MilpModel, spec: ProblemSpec, s: str):
    """List over t of coefficient dicts for sum_{tau<=t} master net inflow."""
    out = []
    running: dict[int, float] = {}
    for t in range(spec.T + 1):
        for idx, c in net_inflow(model, spec, MASTER_FLOW, s, t).items():
            _accumulate(running, idx, c)
        out.append(dict(running))
    return out


def build_master(model: MilpModel, spec: ProblemSpec):
    """Master flow with motion and transmission gating.

    |S| units of master flow originate at each master's initial state; every
    other state may only absorb.  An agent whose initial state differs from
    all master states must sit there until the cumulative master inflow at
    its initial state reaches one unit, and transmissions out of that state
    are bounded by the same cumulative inflow (scaled by big-M), which permits
    relaying within the layer of arrival.
    """
    net, T = spec.net, spec.T
    N = float(spec.big_m_value())
    n_states = float(len(net.states))
    starts = spec.agents.master_states()

    for t in range(T + 1):
        for s in net.states:
            coeffs = net_inflow(model, spec, MASTER_FLOW, s, t)
            rhs = -n_states if (t == 0 and s in starts) else 0.0
            model.add_constr(coeffs, ">=", rhs, "master_flow")

    gated = [r for r in range(spec.agents.count)
             if spec.agents.initial[r] not in starts]
    cum: dict[str, list[dict[int, float]]] = {}
    for r in gated:
        s0 = spec.agents.initial[r]
        if s0 not in cum:
            cum[s0] = _cumulative_inflows(model, spec, s0)
        for t in range(T + 1):
            coeffs = {model.var("z", r, s0, t): 1.0}
            if t >= 1:
                for idx, c in cum[s0][t - 1].items():
                    _accumulate(coeffs, idx, c)
            model.add_constr(coeffs, ">=", 1.0, "master_static")
        for fid in spec.flow_ids():
            for t in range(T + 1):
                coeffs = {}
                for idx, c in cum[s0][t].items():
                    coeffs[idx] = N * c
                for sp in net.neighbors(s0, "succ", COMM):
                    _accumulate(coeffs, model.var("fbar", fid, s0, sp, t), -1.0)
                model.add_constr(coeffs, ">=", 0.0, "master_comm")


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
    net, T, agents = spec.net, spec.T, spec.agents

    for r in sorted(agents.static):
        s0 = agents.initial[r]
        for t in range(1, T + 1):
            model.add_constr({model.var("z", r, s0, t): 1.0}, "==", 1.0, "static_agent")

    if spec.collision_avoidance:
        for i, j in itertools.combinations(range(agents.count), 2):
            for t in range(T + 1):
                for s in net.states:
                    model.add_constr({model.var("z", i, s, t): 1.0,
                                      model.var("z", j, s, t): 1.0},
                                     "<=", 1.0, "collision_pos")
            for t in range(T):
                for (a, b) in net.mobility:
                    if a == b or (b, a) not in net.mobility:
                        continue
                    model.add_constr({model.var("x", i, a, b, t): 1.0,
                                      model.var("x", j, b, a, t): 1.0},
                                     "<=", 1.0, "collision_trans")

    if spec.awareness_reward:
        starts = agents.master_states()
        for (s, k), _ in spec.sorted_rewards():
            if s in starts:
                continue
            coeffs = {model.var("y", s, k): 1.0}
            for idx, c in _cumulative_inflows(model, spec, s)[T].items():
                _accumulate(coeffs, idx, -c)
            model.add_constr(coeffs, "<=", 0.0, "awareness")

    if spec.return_to_base:
        base = base_reachable_states(spec)     # holds the static master's state
        coeffs: dict[int, float] = {}
        for r in range(agents.count):
            if r in agents.static:
                continue
            for s in sorted(base, key=net.index):
                _accumulate(coeffs, model.var("z", r, s, T), 1.0)
        model.add_constr(coeffs, ">=", 1.0, "return_to_base")


def build_reward_and_motion_terms(model: MilpModel, spec: ProblemSpec):
    """Objective terms every model shares: terminal rewards minus mobility cost."""
    net, T = spec.net, spec.T
    for (s, k), value in spec.sorted_rewards():
        model.add_objective(model.var("y", s, k), value)
    for r in range(spec.agents.count):
        for t in range(T):
            for (a, b), cost in net.mobility.items():
                if cost:
                    model.add_objective(model.var("x", r, a, b, t), -cost)


def build_objective(model: MilpModel, spec: ProblemSpec):
    """Maximize terminal rewards minus mobility cost minus communication cost."""
    build_reward_and_motion_terms(model, spec)
    net, T = spec.net, spec.T
    for fid in spec.flow_ids():
        for t in range(1, T + 1):
            for (a, b), cost in net.comm.items():
                if cost:
                    model.add_objective(model.var("fbar", fid, a, b, t), -cost)


def assemble(spec: ProblemSpec) -> MilpModel:
    """Validate the spec and build the full model."""
    spec.validate()
    net, T = spec.net, spec.T
    model = allocate_variables(spec)
    for fid in spec.flow_ids():                 # flows f (mobility), fbar (comm)
        for t in range(T):
            for (a, b) in net.mobility:
                model.add_var(("f", fid, a, b, t), "C")
        for t in range(T + 1):
            for (a, b) in net.comm:
                model.add_var(("fbar", fid, a, b, t), "C")
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

"""Solver-free plan validation and a brute-force optimum oracle.

Information is modelled as tokens on occupied states.  Within one layer a
token spreads over communication edges between occupied states, iterated to
a fixpoint, so multi-hop relaying inside a single time step is allowed.
Across a step, every agent standing on a tokened state carries the token to
its next state.  These are exactly the semantics the flow model relaxes to:
arrival and relay within the same layer both count.  A plan's own delivery
check spreads only over the communication events the plan declares.

The consistency check gates motion and transmission on a master token that
spreads the same way from the master agents' initial states: an agent whose
initial state is not a master state may first leave it in step [t, t+1] only
if the master token covers that state at layer t, and every communication
event's sender state must be covered at the event's layer.

The brute-force oracle enumerates joint mobility paths, decides feasibility
with the token checkers, and prices communication exactly: per-pair shortest
paths when no master flow is involved, and a small residual LP (with gating
and awareness coupling) when consistency and nonzero communication costs
interact.  One list of the plan's admissible time-extended arcs
(`_te_arcs`) feeds both the compiled Dijkstra and the residual LP.  It
bounds every joint plan at once (reward ceiling minus movement cost, one
numpy array in `itertools.product` order), scores plans best bound first,
and stops at the first bound more than 2*TOL below the best value.  Plan
files are read and written by `io`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .errors import GuardExceeded, InstanceError, SolverError
from .highs import minimize
from .ilp import MASTER_FLOW, ProblemSpec
from .network import COMM, MOBILITY, count_walks

TOL = 1e-6
ORACLE_GUARD = 1_000_000     # most joint plans the oracle enumerates
# the options scipy's linprog(method="highs") gives HiGHS (simplex_strategy
# 1: dual simplex), but log_to_console, which `minimize` sets itself
_LP_OPTIONS = {"presolve": "on", "output_flag": False, "simplex_strategy": 1}


@dataclass(frozen=True)
class PlanSolution:
    """Executable plan: joint paths plus an information-flow certificate."""

    paths: dict[int, tuple[str, ...]]
    comm_events: tuple[tuple, ...] = ()    # (t, from, to, flow_id, amount)
    flow_moves: tuple[tuple, ...] = ()     # (t, from, to, flow_id, amount)
    objective: float = 0.0
    reward_flags: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass
class ReachabilityReport:
    pair_matrix: dict[tuple[int, int], bool]
    witnesses: dict[tuple[int, int], list[tuple[int, str]]]
    token_layers: dict[int, list[frozenset[str]]]

    @property
    def all_reachable(self) -> bool:
        return all(self.pair_matrix.values())

    def unreachable(self):
        return sorted(k for k, v in self.pair_matrix.items() if not v)


# -- token spread ---------------------------------------------------------


def _spread(paths, seeds, links, gate=None):
    """Token layers, each a dict from state to the pointer that first reached it.

    Layer 0 starts from the seeds that agents occupy, every later layer from
    the states that agents carry the previous layer's token to, both in agent
    order.  Within layer t the token then spreads breadth-first along
    links[t], which maps each sender to its receivers; gate[t], when given,
    holds the states allowed to send.  A state's pointer is ("seed",),
    ("carry", t - 1, state) or ("comm", t, sender), from its first discoverer.
    """
    agents = sorted(paths)
    layers: list[dict[str, tuple]] = []
    for t, senders in enumerate(links):
        if t == 0:
            layer = {paths[r][0]: ("seed",) for r in agents if paths[r][0] in seeds}
        else:
            layer = {}
            for r in agents:
                prev = paths[r][t - 1]
                if prev in layers[-1]:
                    layer.setdefault(paths[r][t], ("carry", t - 1, prev))
        queue = list(layer)
        for a in queue:
            if gate is not None and a not in gate[t]:
                continue
            for b in senders.get(a, ()):
                if b not in layer:
                    layer[b] = ("comm", t, a)
                    queue.append(b)
        layers.append(layer)
    return layers


def _links(arcs):
    """Per layer, each sender's receivers in the order `arcs` lists them."""
    out = []
    for layer in arcs:
        senders: dict[str, list[str]] = {}
        for a, b in layer:
            senders.setdefault(a, []).append(b)
        out.append(senders)
    return out


def _plan_arcs(net, paths, T):
    """Occupied states and comm arcs per layer, traversed mobility arcs per step.

    A comm arc counts as occupied when agents stand on both of its ends;
    occupied arcs keep the network's edge order.
    """
    occupied = [frozenset(path[t] for path in paths.values()) for t in range(T + 1)]
    traversed = [set() for _ in range(max(T, 1))]
    for path in paths.values():
        for t in range(T):
            traversed[t].add((path[t], path[t + 1]))
    comm_ok = [[(a, b) for (a, b) in net.comm if a in occ and b in occ]
               for occ in occupied]
    return occupied, traversed, comm_ok


def master_token_layers(spec: ProblemSpec, paths) -> list[frozenset[str]]:
    """Master-token coverage per layer for the given joint paths."""
    links = _links(_plan_arcs(spec.net, paths, spec.T)[2])
    return [frozenset(layer)
            for layer in _spread(paths, spec.agents.master_states(), links)]


def _base_range(spec: ProblemSpec) -> frozenset[str]:
    """States one comm hop from a static master or from a static agent that
    static masters reach over comm links between static agents."""
    agents = spec.agents
    static = {r: (agents.initial[r],) for r in agents.static}
    seeds = {agents.initial[m] for m in agents.masters & agents.static}
    closure = _spread(static, seeds, _links(_plan_arcs(spec.net, static, 0)[2]))[0]
    return frozenset(closure).union(
        *(spec.net.neighbors(s, "succ", COMM) for s in closure))


def _returns_to_base(spec: ProblemSpec, paths, base) -> bool:
    """Whether some dynamic agent ends on a state of `base`."""
    return any(paths[r][spec.T] in base for r in range(spec.agents.count)
               if r not in spec.agents.static)


def _early_departures(spec: ProblemSpec, paths, master):
    """(agent, t, start) for each agent off the master states that leaves its
    start in step [t, t+1] before the master token covers it, lazily."""
    starts = spec.agents.master_states()
    for r in range(spec.agents.count):
        s0 = spec.agents.initial[r]
        if s0 in starts:
            continue
        path = paths[r]
        for t in range(spec.T):
            if path[t] == s0 and path[t + 1] != s0 and s0 not in master[t]:
                yield r, t, s0


# -- dynamics and flow bookkeeping ---------------------------------------


def check_dynamics(plan: PlanSolution, spec: ProblemSpec) -> list[str]:
    """Path shape, initial placement, edge validity, static, collision and
    return-to-base rules, and certificate events on the plan's layers."""
    net, T = spec.net, spec.T
    bad = [f"{kind} {a!r}->{b!r} at t={t} outside layers 0..{last}"
           for kind, events, last in (("comm event", plan.comm_events, T),
                                      ("flow move", plan.flow_moves, T - 1))
           for t, a, b, _, _ in events if not 0 <= t <= last]
    if sorted(plan.paths) != list(range(spec.agents.count)):
        bad.append(f"paths cover agents {sorted(plan.paths)}, expected 0..{spec.agents.count - 1}")
        return bad
    for r, path in plan.paths.items():
        if len(path) != T + 1:
            bad.append(f"agent {r}: path length {len(path)}, expected {T + 1}")
            continue
        for s in path:
            if not net.has_state(s):
                bad.append(f"agent {r}: unknown state {s!r}")
        if path[0] != spec.agents.initial[r]:
            bad.append(f"agent {r}: starts at {path[0]!r}, expected {spec.agents.initial[r]!r}")
        for t in range(T):
            if (path[t], path[t + 1]) not in net.mobility:
                bad.append(f"agent {r}: no mobility edge {path[t]!r}->{path[t + 1]!r} at step {t}")
        if r in spec.agents.static and any(s != path[0] for s in path):
            bad.append(f"agent {r} is static but moves")
    if bad:
        return bad
    if spec.collision_avoidance:
        bad += _collisions(plan.paths, spec.agents.count, T)
    if spec.return_to_base and not _returns_to_base(spec, plan.paths,
                                                    _base_range(spec)):
        bad.append("no dynamic agent ends within communication range of the base")
    return bad


def _collisions(paths, n_agents, T):
    """Shared states, then swaps, per pair of agents: one message each, lazily."""
    for i, j in itertools.combinations(range(n_agents), 2):
        pi, pj = paths[i], paths[j]
        for t in range(T + 1):
            if pi[t] == pj[t]:
                yield f"collision: agents {i},{j} share {pi[t]!r} at t={t}"
        for t in range(T):
            if pi[t] == pj[t + 1] and pj[t] == pi[t + 1] and pi[t] != pj[t]:
                yield f"collision: agents {i},{j} swap {pi[t]!r}/{pj[t]!r} at step {t}"


def _imbalances(plan: PlanSolution):
    """Net inflow per flow id and (state, t) vertex of the declared
    certificate: a flow move's head is at t+1, a comm event's at t."""
    net_in: dict = {}
    for step, events in ((1, plan.flow_moves), (0, plan.comm_events)):
        for t, a, b, fid, amount in events:
            flow = net_in.setdefault(fid, {})
            flow[(a, t)] = flow.get((a, t), 0.0) - amount
            flow[(b, t + step)] = flow.get((b, t + step), 0.0) + amount
    return net_in


def _required_inflow(spec: ProblemSpec, paths):
    """Net inflow per (state, t) that each flow id must show; absent means 0.

    Data flows must meet theirs exactly.  The master flow's values are
    floors: its start states may emit up to |S| units at layer 0, and no
    other vertex may lose master flow.
    """
    T, out = spec.T, {}
    for fid in spec.data_flow_ids():
        if spec.orientation() == "one_to_many":
            terms = ([((paths[fid][0], 0), -len(spec.snk))]
                     + [((paths[r][T], T), 1) for r in spec.snk])
        else:
            terms = ([((paths[r][0], 0), -1) for r in spec.src]
                     + [((paths[fid][T], T), len(spec.src))])
        need = out[fid] = {}
        for v, amount in terms:
            need[v] = need.get(v, 0.0) + amount
    out[MASTER_FLOW] = {(s, 0): -float(len(spec.net.states))
                        for s in spec.agents.master_states()}
    return out


def check_flows(plan: PlanSolution, spec: ProblemSpec) -> list[str]:
    """Certificate validity: admissibility of arcs and balance patterns."""
    net, T = spec.net, spec.T
    bad = []
    occupied, traversed, _ = _plan_arcs(net, plan.paths, T)

    for t, a, b, fid, amount in plan.comm_events:
        if (a, b) not in net.comm:
            bad.append(f"comm event on missing edge {a!r}->{b!r} (t={t})")
        elif a not in occupied[t] or b not in occupied[t]:
            bad.append(f"comm event {a!r}->{b!r} at t={t} with unoccupied endpoint")
    for t, a, b, fid, amount in plan.flow_moves:
        if (a, b) not in net.mobility:
            bad.append(f"flow move on missing edge {a!r}->{b!r} (t={t})")
        elif (a, b) not in traversed[t]:
            bad.append(f"flow move {a!r}->{b!r} at t={t} not ridden by any agent")

    required = _required_inflow(spec, plan.paths)
    net_in = _imbalances(plan)
    for fid in spec.data_flow_ids():
        flow = net_in.get(fid, {})
        for t in range(T + 1):
            for s in net.states:
                expected = required[fid].get((s, t), 0.0)
                got = flow.get((s, t), 0.0)
                if abs(got - expected) > TOL:
                    bad.append(f"flow {fid}: imbalance {got:+.4g} at ({s!r}, t={t}), "
                               f"expected {expected:+.4g}")
    if spec.information_consistent and MASTER_FLOW in net_in:
        for (s, t), got in sorted(net_in[MASTER_FLOW].items(),
                                  key=lambda kv: (kv[0][1], kv[0][0])):
            floor = required[MASTER_FLOW].get((s, t), 0.0)
            if got < floor - TOL:
                bad.append(f"master flow: net inflow {got:+.4g} below {floor:+.4g} "
                           f"at ({s!r}, t={t})")
    return bad


# -- reachability ---------------------------------------------------------


def information_reachability(plan: PlanSolution, spec: ProblemSpec) -> ReachabilityReport:
    """Which source agents' information reaches which sink agents' terminals.

    Within-layer spreading follows only the plan's own communication events.
    A witness walks back from the sink's final state through first
    discoverers (see `_spread`), so it never depends on set order.
    """
    T = spec.T
    arcs = [[] for _ in range(T + 1)]
    for t, a, b, fid, amount in plan.comm_events:
        if amount > TOL:
            arcs[t].append((a, b))
    links = _links(arcs)

    pair_matrix, witnesses, token_layers = {}, {}, {}
    for i in spec.src:
        layers = _spread(plan.paths, {plan.paths[i][0]}, links)
        token_layers[i] = [frozenset(layer) for layer in layers]
        for j in spec.snk:
            target = plan.paths[j][T]
            ok = target in layers[T]
            pair_matrix[(i, j)] = ok
            if ok:
                witnesses[(i, j)] = _walk_back(layers, T, target)
    return ReachabilityReport(pair_matrix, witnesses, token_layers)


def _walk_back(layers, T, target):
    """Witness info-path [(t, state), ...] ending at (T, target)."""
    out = [(T, target)]
    t, s = T, target
    while True:
        kind = layers[t].get(s)
        if kind is None or kind[0] == "seed":
            break
        if kind[0] == "comm":
            s = kind[2]
        else:
            t, s = kind[1], kind[2]
        out.append((t, s))
    out.reverse()
    return out


# -- consistency ----------------------------------------------------------


def check_consistency(plan: PlanSolution, spec: ProblemSpec) -> list[str]:
    """Master-gating audit: no early departures, no untokened senders."""
    if not spec.information_consistent:
        return []
    master = master_token_layers(spec, plan.paths)
    bad = [f"agent {r} departs {s0!r} in step [{t},{t + 1}] before master token arrival"
           for r, t, s0 in _early_departures(spec, plan.paths, master)]
    for t, a, b, fid, amount in plan.comm_events:
        if amount > TOL and a not in master[t]:
            bad.append(f"comm event {a!r}->{b!r} (flow {fid!r}) at t={t} "
                       f"from state without master token")
    return bad


def plan_violations(plan: PlanSolution, spec: ProblemSpec) -> list[str]:
    """Every check the spec asks for; an empty list means the plan verifies.

    The flow, consistency and reachability checks index layers by the
    plan's paths and events, so they run only on a plan whose dynamics pass.
    """
    bad = check_dynamics(plan, spec)
    if bad:
        return bad
    bad = check_flows(plan, spec) + check_consistency(plan, spec)
    if spec.src and spec.snk:
        report = information_reachability(plan, spec)
        bad += [f"undelivered source {i} -> sink {j}"
                for (i, j) in report.unreachable()]
    return bad


# -- solution extraction ---------------------------------------------------


def extract_solution(spec: ProblemSpec, assignment: dict[tuple, float],
                     objective: float) -> PlanSolution:
    """Read a PlanSolution out of a variable assignment."""
    net, T = spec.net, spec.T
    paths = {}
    for r in range(spec.agents.count):
        path = []
        for t in range(T + 1):
            here = [s for s in net.states if assignment.get(("z", r, s, t), 0.0) > 0.5]
            if len(here) != 1:
                raise InstanceError(f"agent {r} occupies {len(here)} states at t={t}")
            path.append(here[0])
        paths[r] = tuple(path)
    comm_events, flow_moves = [], []
    for ref, value in assignment.items():
        if value <= TOL:
            continue
        if ref[0] == "fbar":
            _, fid, a, b, t = ref
            comm_events.append((t, a, b, fid, value))
        elif ref[0] == "f":
            _, fid, a, b, t = ref
            flow_moves.append((t, a, b, fid, value))
    key = lambda ev: (ev[0], net.index(ev[1]), net.index(ev[2]), str(ev[3]))
    reward_flags = {(s, k): int(round(assignment.get(("y", s, k), 0.0)))
                    for (s, k) in spec.rewards}
    return PlanSolution(paths=paths,
                        comm_events=tuple(sorted(comm_events, key=key)),
                        flow_moves=tuple(sorted(flow_moves, key=key)),
                        objective=float(objective),
                        reward_flags=reward_flags)


# -- brute-force oracle -----------------------------------------------------


@dataclass
class OracleResult:
    status: str                     # optimal | infeasible
    objective: float | None
    candidates: int = 0             # joint path combinations enumerated


def _agent_paths(net, s0, T):
    paths = []
    stack = [(s0,)]
    while stack:
        path = stack.pop()
        if len(path) == T + 1:
            paths.append(path)
            continue
        for sp in reversed(net.neighbors(path[-1], "succ", MOBILITY)):
            stack.append(path + (sp,))
    return paths


def _claimable(reward_items, finals):
    """Rewards (s, k, v) whose threshold k the agents ending on `finals` meet."""
    counts: dict[str, int] = {}
    for s in finals:
        counts[s] = counts.get(s, 0) + 1
    return [(s, k, v) for (s, k), v in reward_items if counts.get(s, 0) >= k]


def brute_force_solve(spec: ProblemSpec) -> OracleResult:
    """Exhaustive optimum over joint mobility paths.

    Refuses when the joint path count exceeds ORACLE_GUARD.  A plan that
    breaks the collision or return-to-base rule of `check_dynamics` is
    infeasible.

    Every joint plan gets a bound, its reward ceiling (`_plan_bounds`) minus
    its movement cost g1, in one array.  The ceiling bounds every evaluated
    value: the awareness filter only drops claims, the pairwise
    communication cost g2 is >= 0, and the residual LP's objective is >=
    -(its positive claims) because communication costs are non-negative
    (the network rejects negative weights).  Plans are scored best bound
    first, product order breaking ties, and scoring stops at the first
    bound below the best value by more than 2*TOL.  Every unscored plan is
    then worth less than the optimum by more than TOL (TOL covers LP
    round-off), so the best scored value is the optimum.  `candidates`
    still counts every joint plan.
    """
    spec.validate()
    net, T, agents = spec.net, spec.T, spec.agents
    total = 1
    for r in range(agents.count):
        n = 1 if r in agents.static else count_walks(net, agents.initial[r], T)
        if n == 0:
            return OracleResult("infeasible", None)
        total *= n
        if total > ORACLE_GUARD:
            raise GuardExceeded(f"joint path count {total} exceeds guard {ORACLE_GUARD}")

    per_agent = []
    for r in range(agents.count):
        if r in agents.static:
            per_agent.append([(agents.initial[r],) * (T + 1)])
        else:
            per_agent.append(_agent_paths(net, agents.initial[r], T))
    move_cost = [[_move_cost(net, p) for p in paths] for paths in per_agent]
    bounds = _plan_bounds(spec, per_agent, move_cost)

    base = _base_range(spec) if spec.return_to_base else None
    comm_costed = T >= 1 and any(w > 0 for w in net.comm.values())
    reward_items = spec.sorted_rewards()

    top = None
    for flat in np.argsort(-bounds, axis=None, kind="stable"):
        if top is not None and bounds.flat[flat] < top - 2 * TOL:
            break
        combo = np.unravel_index(flat, bounds.shape)
        paths = {r: per_agent[r][combo[r]] for r in range(agents.count)}
        if spec.collision_avoidance and any(_collisions(paths, agents.count, T)):
            continue
        if base is not None and not _returns_to_base(spec, paths, base):
            continue
        value = _evaluate_candidate(spec, paths, comm_costed, reward_items)
        if value is None:
            continue
        g1 = sum(move_cost[r][combo[r]] for r in range(agents.count))
        top = value - g1 if top is None else max(top, value - g1)
    if top is None:
        return OracleResult("infeasible", None, total)
    return OracleResult("optimal", top, total)


def _plan_bounds(spec: ProblemSpec, per_agent, move_cost):
    """Reward ceiling minus movement cost g1 of every joint plan.

    `move_cost[r]` lists the costs of agent r's paths `per_agent[r]`.  Axis
    r of the result indexes agent r's paths in that order, so the flat
    C-order array lists joint plans in `itertools.product` order.  The
    ceiling is the sum of the positive rewards that the agents ending on
    each state could claim: `v` of (s, k) counts once k agents end on s.
    """
    net, T = spec.net, spec.T
    shape = tuple(len(paths) for paths in per_agent)

    def along(r, values):
        return np.reshape(values, [-1 if q == r else 1 for q in range(len(shape))])

    finals = [np.array([net.index(p[T]) for p in paths]) for paths in per_agent]
    bound = np.zeros(shape)
    for (s, k), v in spec.sorted_rewards():
        if v > 0:
            count = sum(along(r, f == net.index(s)) for r, f in enumerate(finals))
            bound += v * (count >= k)
    for r, costs in enumerate(move_cost):
        bound -= along(r, costs)
    return bound


def _move_cost(net, path) -> float:
    return sum(net.mobility[(a, b)] for a, b in zip(path, path[1:]))


def _evaluate_candidate(spec, paths, comm_costed, reward_items):
    """Rewards minus communication cost for one joint path set, or None."""
    T = spec.T
    _, traversed, comm_ok = _plan_arcs(spec.net, paths, T)
    links = _links(comm_ok)

    master = None
    if spec.information_consistent:
        master = _spread(paths, spec.agents.master_states(), links)
        if any(_early_departures(spec, paths, master)):
            return None

    # per-pair reachability under (gated) token semantics
    for i in spec.src:
        layers = _spread(paths, {paths[i][0]}, links, gate=master)
        if any(paths[j][T] not in layers[T] for j in spec.snk):
            return None

    claimable = _claimable(reward_items, [path[T] for path in paths.values()])
    if spec.information_consistent and spec.awareness_reward:
        starts = spec.agents.master_states()
        covered = set().union(*master)
        claimable = [(s, k, v) for (s, k, v) in claimable
                     if s in starts or s in covered]
    claims = sum(max(v, 0.0) for (_, _, v) in claimable)

    if not comm_costed:
        return claims
    if not spec.information_consistent:
        g2 = _pairwise_comm_cost(spec, paths, traversed, comm_ok)
        return None if g2 is None else claims - g2
    return _residual_lp_value(spec, paths, traversed, comm_ok, claimable)


def _te_arcs(spec, traversed, comm_ok):
    """The plan's admissible time-extended arcs as (tail, head, cost, n_moves).

    Vertex t*|S| + i is state i at layer t.  The first n_moves arcs are the
    ridden mobility arcs from layer t to t+1, free, in sorted vertex order;
    the occupied comm arcs follow layer by layer, each costing its weight
    from layer 1 on and nothing at layer 0.
    """
    net, at = spec.net, spec.net.index
    n_s = len(net.states)
    arcs = sorted((t * n_s + at(a), (t + 1) * n_s + at(b))
                  for t in range(spec.T) for a, b in traversed[t])
    n_moves = len(arcs)
    cost = [0.0] * n_moves
    for t, layer in enumerate(comm_ok):
        for a, b in layer:
            arcs.append((t * n_s + at(a), t * n_s + at(b)))
            cost.append(net.comm[(a, b)] if t >= 1 else 0.0)
    tail, head = np.array(arcs, dtype=np.intp).reshape(-1, 2).T
    return tail, head, np.array(cost, dtype=float), n_moves


def _pairwise_comm_cost(spec, paths, traversed, comm_ok):
    """Sum over src x snk of cheapest admissible time-extended info routes,
    or None when a sink is out of reach.

    One compiled Dijkstra from the sources' layer-0 vertices runs over the
    `_te_arcs` graph.  Its free arcs are explicit zeros of the CSR matrix,
    which csgraph counts as edges, so the matrix is never pruned or dense.
    """
    n_s, at, T = len(spec.net.states), spec.net.index, spec.T
    tail, head, cost, _ = _te_arcs(spec, traversed, comm_ok)
    n = (T + 1) * n_s
    graph = sparse.csr_matrix((cost, (tail, head)), shape=(n, n))
    dist = dijkstra(graph, indices=[at(paths[i][0]) for i in spec.src])
    sinks = [T * n_s + at(paths[j][T]) for j in spec.snk]
    total = sum(dist[:, sinks].ravel().tolist(), 0.0)   # pair by pair, src-major
    return None if np.isinf(total) else total


def _residual_lp_value(spec, paths, traversed, comm_ok, claimable):
    """Exact rewards-minus-g2 for fixed paths via an LP over admissible arcs.

    Couples data flows, master deliveries, gating, and awareness claims the
    same way the integer model does once occupancy is fixed.  Every flow id
    gets one column per arc of `_te_arcs`, and `incidence` is the plan's
    dense vertex-by-arc matrix, so a flow's net inflow is `incidence @ x`
    and the master flow's cumulative inflow up to each layer is a cumulative
    sum of the matrix's layer blocks.  The rows are the data-flow balances,
    the master floors, each gated agent's first departure and per-layer send
    bounds, then the awareness claims.
    """
    net, T, agents = spec.net, spec.T, spec.agents
    n_s, at = len(net.states), net.index
    tail, head, cost, n_moves = _te_arcs(spec, traversed, comm_ok)
    m = len(tail)
    incidence = np.zeros(((T + 1) * n_s, m))
    np.add.at(incidence, (head, np.arange(m)), 1.0)
    np.add.at(incidence, (tail, np.arange(m)), -1.0)
    cum = incidence.reshape(T + 1, n_s, m).cumsum(axis=0)
    is_comm = np.arange(m) >= n_moves

    starts = agents.master_states()
    flow_ids = list(spec.flow_ids())
    lp_claims, const_claims = [], 0.0
    for (s, k, v) in claimable:
        if spec.awareness_reward and s not in starts:
            lp_claims.append((s, k, v))
        else:
            const_claims += max(v, 0.0)
    n = len(flow_ids) * m + len(lp_claims)

    def place(fid, coeffs):
        """Rows holding `coeffs` in the arc columns of flow `fid`."""
        coeffs = np.atleast_2d(coeffs)
        rows = np.zeros((len(coeffs), n))
        j = flow_ids.index(fid) * m
        rows[:, j:j + m] = coeffs
        return rows

    required = _required_inflow(spec, paths)

    def need(fid):
        vec = np.zeros((T + 1) * n_s)
        for (s, t), amount in required[fid].items():
            vec[t * n_s + at(s)] = amount
        return vec

    data = spec.data_flow_ids()
    A_eq = [place(fid, incidence) for fid in data]
    b_eq = [need(fid) for fid in data]
    # master flow: net inflow >= floor everywhere
    A_ub, b_ub = [place(MASTER_FLOW, -incidence)], [-need(MASTER_FLOW)]
    N = float(spec.big_m_value())
    layers = np.arange(T + 1) * n_s
    for r in range(agents.count):
        s0 = agents.initial[r]
        if s0 in starts:
            continue
        i0 = at(s0)
        away = [t for t in range(T + 1) if paths[r][t] != s0]
        if away:
            A_ub.append(place(MASTER_FLOW, -cum[away[0] - 1, i0]))
            b_ub.append([-1.0])
        gate = place(MASTER_FLOW, -N * cum[:, i0])
        sends = (tail == (layers + i0)[:, None]) & is_comm
        for fid in flow_ids:
            A_ub.append(gate + place(fid, sends))
            b_ub.append(np.zeros(T + 1))
    aware = place(MASTER_FLOW, -cum[T, [at(s) for s, _, _ in lp_claims]])
    aware[:, len(flow_ids) * m:] = np.eye(len(lp_claims))
    A_ub.append(aware)
    b_ub.append(np.zeros(len(lp_claims)))

    c_vec = np.concatenate([np.tile(cost, len(flow_ids)),
                            [-v for _, _, v in lp_claims]])
    b_ub = np.concatenate(b_ub)
    b_eq = np.concatenate(b_eq) if b_eq else np.zeros(0)
    A = sparse.csc_array(np.vstack(A_ub + A_eq))
    res = minimize(c_vec, A, np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
                   np.concatenate([b_ub, b_eq]), np.zeros(n),
                   np.concatenate([np.full(n - len(lp_claims), np.inf),
                                   np.ones(len(lp_claims))]), _LP_OPTIONS)
    if res.status == "error":
        raise SolverError(f"HiGHS failed on the residual LP: {res.message}")
    return None if res.status != "optimal" else const_claims - res.objective

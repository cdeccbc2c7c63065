"""Baseline formulations that model communication with binary edge activations.

Instead of routing information as network flows, these models introduce one
binary CommActive variable per communication edge per layer and enforce
source-to-sink reachability through cut constraints over subsets of
time-extended vertices: whenever a subset misses at least one source start
vertex, sink terminals inside it must be paid for by an active crossing arc.

Two variants:

* the full model enumerates every qualifying subset up front, which is only
  tractable for tiny horizons and is guarded accordingly;
* the adaptive model starts without cuts and separates violated ones from
  each candidate solution (the complement of the information-reachable set),
  re-solving until the plan verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GuardExceeded
from .ilp import (MilpModel, ProblemSpec, add_comm_costs, allocate_variables,
                  build_comm_gates, build_dynamics, build_extensions,
                  build_reward_and_motion_terms, build_reward_link)
from .solver import SolveResult, solve
from .verify import PlanSolution, extract_solution, information_reachability

POWERSET_GUARD = 18         # max (T+1)*|S| for full subset enumeration
ADAPTIVE_MAX_ROUNDS = 200

ACTIVE_ID = "comm"          # flow-id tag for CommActive events in plans


@dataclass
class BaselineRun:
    result: SolveResult
    plan: PlanSolution | None
    rounds: int = 1
    cuts_added: int = 0
    wall_time: float = 0.0


def _check_supported(spec: ProblemSpec):
    spec.validate()
    if spec.information_consistent:
        raise ConfigurationError(
            "powerset baselines model plain reachability; "
            "information consistency is not supported")
    if not spec.src or not spec.snk:
        raise ConfigurationError("powerset baselines need nonempty src and snk")


def _build_base_model(spec: ProblemSpec) -> MilpModel:
    """Dynamics, comm gating, rewards and objective - no cuts yet."""
    model = allocate_variables(spec)
    net, T = spec.net, spec.T
    model.add_vars("comm", [("comm", a, b, t) for t in range(T + 1)
                            for (a, b) in net.comm], "B")
    build_dynamics(model, spec)
    build_reward_link(model, spec)
    build_comm_gates(model, _active(model, spec), 1.0, "comm_active")
    build_extensions(model, spec)

    build_reward_and_motion_terms(model, spec)
    add_comm_costs(model, _active(model, spec))
    return model


def _active(model: MilpModel, spec: ProblemSpec) -> np.ndarray:
    """Indices of the CommActive variables, [t, c]."""
    shape = (spec.T + 1, len(spec.net.comm))
    return model.start["comm"] + np.arange(shape[0] * shape[1]).reshape(shape)


def _add_cut(model: MilpModel, spec: ProblemSpec, inside: np.ndarray):
    """Sink terminals inside the vertex subset `inside` ((T+1) x |S|, True
    for a member) require an active arc crossing into it."""
    g, T = model.grid, spec.T
    weight = float(len(spec.snk))
    moved = ~inside[:-1, g.tail] & inside[1:, g.head]       # [t, e]
    sent = ~inside[:, g.ctail] & inside[:, g.chead]         # [t, c]
    snk = np.array(spec.snk)[:, None]
    model.add_rows(1, [(0, g.Z[snk, T, np.flatnonzero(inside[T])], 1.0),
                       (0, g.X[:, moved], -weight),
                       (0, _active(model, spec)[sent], -weight)],
                   "<=", 0.0, "powerset_cut")


def build_powerset_model(spec: ProblemSpec) -> MilpModel:
    """Full model with one cut per qualifying vertex subset.

    Qualifying subsets miss at least one source start vertex and contain at
    least one final-layer vertex.  Refuses when (T+1)*|S| exceeds the guard,
    since the family grows as 2^((T+1)*|S|).
    """
    _check_supported(spec)
    net, T = spec.net, spec.T
    n_vertices = (T + 1) * len(net.states)
    if n_vertices > POWERSET_GUARD:
        raise GuardExceeded(
            f"powerset enumeration over {n_vertices} time-extended vertices "
            f"({2 ** n_vertices} subsets) exceeds guard of {POWERSET_GUARD}")

    model = _build_base_model(spec)
    starts = [net.index(spec.agents.initial[i]) for i in spec.src]
    bit = 1 << np.arange(n_vertices)        # vertex t*|S| + s
    for bits in range(1, 2 ** n_vertices):
        inside = (bits & bit != 0).reshape(T + 1, len(net.states))
        if inside[0, starts].all() or not inside[T].any():
            continue
        _add_cut(model, spec, inside)
    return model


def solve_powerset(spec: ProblemSpec,
                   time_limit: float | None = None) -> BaselineRun:
    model = build_powerset_model(spec)
    result = solve(model, time_limit=time_limit)
    plan = extract_baseline_solution(spec, result) if result.ok else None
    return BaselineRun(result, plan, rounds=1,
                       cuts_added=model.tag_counts().get("powerset_cut", 0),
                       wall_time=result.wall_time)


def solve_adaptive_powerset(spec: ProblemSpec,
                            time_limit: float | None = None) -> BaselineRun:
    """Cut-and-resolve: add the complement of each deficient reachable set."""
    _check_supported(spec)
    net, T = spec.net, spec.T
    model = _build_base_model(spec)
    total_time = 0.0
    n_cuts = 0
    seen_cuts: set[bytes] = set()
    for round_no in range(1, ADAPTIVE_MAX_ROUNDS + 1):
        result = solve(model, time_limit=time_limit)
        total_time += result.wall_time
        if not result.ok:
            return BaselineRun(result, None, round_no, n_cuts, total_time)
        plan = extract_baseline_solution(spec, result)
        report = information_reachability(plan, spec)
        violated = [i for i in spec.src
                    if not all(report.pair_matrix[(i, j)] for j in spec.snk)]
        if not violated:
            return BaselineRun(result, plan, round_no, n_cuts, total_time)
        for i in violated:
            inside = np.ones((T + 1, len(net.states)), dtype=bool)
            for t, layer in enumerate(report.token_layers[i]):
                inside[t, [net.index(s) for s in layer]] = False
            if inside.tobytes() in seen_cuts:
                continue
            seen_cuts.add(inside.tobytes())
            _add_cut(model, spec, inside)
            n_cuts += 1
    raise GuardExceeded(
        f"adaptive cut separation exceeded {ADAPTIVE_MAX_ROUNDS} rounds")


def extract_baseline_solution(spec: ProblemSpec, result: SolveResult) -> PlanSolution:
    """PlanSolution whose comm events are the active edges (flow id 'comm'),
    certified by one unit of data flow along each reachability witness.

    A witness's comm steps become comm events and its carry steps flow
    moves, under the flow id the flow model would use for that pair.
    """
    base = extract_solution(spec, result.assignment, result.objective or 0.0)
    net, T = spec.net, spec.T
    active = [(t, a, b, ACTIVE_ID, 1.0) for t in range(T + 1) for (a, b) in net.comm
              if result.assignment.get(("comm", a, b, t), 0.0) > 0.5]
    plan = PlanSolution(paths=base.paths, comm_events=tuple(active))
    units: dict[tuple, float] = {}
    for (i, j), witness in information_reachability(plan, spec).witnesses.items():
        fid = i if spec.orientation() == "one_to_many" else j
        for (t, a), (t_next, b) in zip(witness, witness[1:]):
            step = (t, a, b, fid, t_next > t)       # True: a carry step
            units[step] = units.get(step, 0.0) + 1.0
    comm, moves = active, []
    for (t, a, b, fid, carry), n in units.items():
        (moves if carry else comm).append((t, a, b, fid, n))
    key = lambda ev: (ev[0], net.index(ev[1]), net.index(ev[2]), str(ev[3]))
    return PlanSolution(paths=base.paths,
                        comm_events=tuple(sorted(comm, key=key)),
                        flow_moves=tuple(sorted(moves, key=key)),
                        objective=base.objective,
                        reward_flags=base.reward_flags)

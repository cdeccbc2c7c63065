"""Plan verification: dynamics, flow certificates, reachability, consistency."""

import ast
import dataclasses
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from icplan import verify
from icplan.errors import ConfigurationError, GuardExceeded, SolverError
from icplan.ilp import MASTER_FLOW, AgentConfig, ProblemSpec, base_reachable_states
from icplan.instances import ORACLE_CLASSES, line_instance, random_oracle_instance
from icplan.io import (load_solution, save_solution, solution_from_dict,
                       solution_to_dict)
from icplan.network import build_network
from icplan.solver import solve_problem
from icplan.verify import (TOL, PlanSolution, _agent_paths, _claimable,
                           _evaluate_candidate, _plan_bounds, brute_force_solve,
                           check_consistency, check_dynamics, check_flows,
                           information_reachability, master_token_layers)

from _helpers import line_network, package_env, relay_spec


def _mutate_path(plan, r, path):
    paths = dict(plan.paths)
    paths[r] = tuple(path)
    return PlanSolution(paths=paths, comm_events=plan.comm_events,
                        flow_moves=plan.flow_moves, objective=plan.objective,
                        reward_flags=plan.reward_flags)


@pytest.fixture(scope="module")
def gated_relay():
    """Line of four; the master sits at one end and token coverage is staged.

    The token covers s1 immediately (agent 1 sits next to the master), but
    reaches agent 2 at s3 only after agent 1 carries it to s2 at t=1.
    """
    net = line_network(4)
    agents = AgentConfig(count=3, initial={0: "s0", 1: "s1", 2: "s3"},
                         masters=frozenset({0}), static=frozenset({0}))
    spec = ProblemSpec(net=net, agents=agents, T=2, src=(0,), snk=(2,),
                       information_consistent=True)
    plan = PlanSolution(paths={0: ("s0", "s0", "s0"),
                               1: ("s1", "s2", "s2"),
                               2: ("s3", "s3", "s2")})
    return spec, plan


# -- independence ---------------------------------------------------------------


def _imports_from(nodes, module):
    """Names that the nodes import from icplan's `module`, relative or absolute."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("icplan").lstrip(".")
            names |= {alias.name for alias in node.names
                      if source == module or (not source and alias.name == module)}
    return names


def test_verifier_shares_no_code_with_the_model_builder_or_solver():
    # plans are trusted only through the verifier and the oracle, so neither
    # may reuse what builds or solves the MILP
    tree = ast.parse(Path(verify.__file__).read_text())
    assert _imports_from(ast.walk(tree), "ilp") <= {"MASTER_FLOW", "ProblemSpec"}
    assert not _imports_from(tree.body, "solver")


# -- dynamics -----------------------------------------------------------------


def test_solved_plan_passes_dynamics(line4_solution):
    spec, _, _, plan = line4_solution
    assert check_dynamics(plan, spec) == []


def test_dynamics_catches_teleport(line4_solution):
    spec, _, _, plan = line4_solution
    path = list(plan.paths[0])
    path[-1] = "s3"                                 # s0/s1 -> s3 is never an edge
    bad = check_dynamics(_mutate_path(plan, 0, path), spec)
    assert any("no mobility edge" in msg for msg in bad)


def test_dynamics_catches_wrong_start(line4_solution):
    spec, _, _, plan = line4_solution
    path = ("s1",) + plan.paths[0][1:]
    bad = check_dynamics(_mutate_path(plan, 0, path), spec)
    assert any("starts at" in msg for msg in bad)


def test_dynamics_catches_bad_length(line4_solution):
    spec, _, _, plan = line4_solution
    bad = check_dynamics(_mutate_path(plan, 0, plan.paths[0] + ("s0",)), spec)
    assert any("path length" in msg for msg in bad)


def test_dynamics_catches_missing_agent(line4_solution):
    spec, _, _, plan = line4_solution
    paths = {r: p for r, p in plan.paths.items() if r != 1}
    bad = check_dynamics(PlanSolution(paths=paths), spec)
    assert any("paths cover agents" in msg for msg in bad)


def test_dynamics_catches_moving_static_agent(gated_relay):
    spec, plan = gated_relay
    bad = check_dynamics(_mutate_path(plan, 0, ("s0", "s1", "s1")), spec)
    assert any("static but moves" in msg for msg in bad)


def test_dynamics_catches_shared_state_collision():
    net = line_network(2)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"})
    spec = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,),
                       collision_avoidance=True)
    plan = PlanSolution(paths={0: ("s0", "s1"), 1: ("s1", "s1")})
    bad = check_dynamics(plan, spec)
    assert any("share" in msg for msg in bad)


def test_dynamics_catches_swap_collision():
    net = line_network(2)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"})
    spec = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,),
                       collision_avoidance=True)
    plan = PlanSolution(paths={0: ("s0", "s1"), 1: ("s1", "s0")})
    bad = check_dynamics(plan, spec)
    assert any("swap" in msg for msg in bad)


def _return_spec(n, static, T):
    """Line s0..s{n-1}: a static master at s0, static agents at `static`,
    the last agent dynamic at the far end, where a reward of 5 waits."""
    initial = {0: "s0", **{r: s for r, s in enumerate(static, 1)},
               len(static) + 1: f"s{n - 1}"}
    agents = AgentConfig(count=len(initial), initial=initial, masters=frozenset({0}),
                         static=frozenset(range(len(static) + 1)))
    return ProblemSpec(net=line_network(n), agents=agents, T=T,
                       rewards={(f"s{n - 1}", 1): 5.0}, return_to_base=True)


def test_dynamics_catches_an_agent_that_does_not_return():
    spec = _return_spec(3, (), T=2)
    away = PlanSolution(paths={0: ("s0",) * 3, 1: ("s2",) * 3})
    assert check_dynamics(away, spec) == [
        "no dynamic agent ends within communication range of the base"]
    near = PlanSolution(paths={0: ("s0",) * 3, 1: ("s2", "s1", "s1")})
    assert check_dynamics(near, spec) == []


def test_base_range_reaches_through_static_relays():
    # the static agent at s1 relays for the master at s0, so s2 is in range
    spec = _return_spec(4, ("s1",), T=1)
    assert verify._base_range(spec) == {"s0", "s1", "s2"}
    ok = PlanSolution(paths={0: ("s0", "s0"), 1: ("s1", "s1"), 2: ("s3", "s2")})
    assert check_dynamics(ok, spec) == []
    stay = PlanSolution(paths={0: ("s0", "s0"), 1: ("s1", "s1"), 2: ("s3", "s3")})
    assert check_dynamics(stay, spec) != []


# -- flow certificate ----------------------------------------------------------


def test_solved_plan_passes_flow_checks(line4_solution):
    spec, _, _, plan = line4_solution
    assert check_flows(plan, spec) == []


def test_dropping_a_comm_event_breaks_the_balance(line4_solution):
    spec, _, _, plan = line4_solution
    carrying = [ev for ev in plan.comm_events if ev[4] > 1e-3]
    assert carrying
    events = tuple(ev for ev in plan.comm_events if ev != carrying[0])
    broken = PlanSolution(paths=plan.paths, comm_events=events,
                          flow_moves=plan.flow_moves)
    assert any("imbalance" in msg for msg in check_flows(broken, spec))


def test_comm_event_on_unoccupied_state_is_flagged(line4_solution):
    spec, _, _, plan = line4_solution
    events = plan.comm_events + ((0, "s1", "s2", 0, 0.0),)  # nobody at s1 at t=0
    broken = PlanSolution(paths=plan.paths, comm_events=events,
                          flow_moves=plan.flow_moves)
    assert any("unoccupied" in msg for msg in check_flows(broken, spec))


def test_flow_move_must_ride_an_agent(line4_solution):
    spec, _, _, plan = line4_solution
    moves = plan.flow_moves + ((0, "s3", "s2", 0, 0.0),)
    broken = PlanSolution(paths=plan.paths, comm_events=plan.comm_events,
                          flow_moves=moves)
    assert any("not ridden" in msg for msg in check_flows(broken, spec))


# -- reachability ----------------------------------------------------------------


def test_declared_reachability_with_witnesses(line4_solution):
    spec, _, _, plan = line4_solution
    report = information_reachability(plan, spec)
    assert report.all_reachable
    assert report.unreachable() == []
    for (i, j), witness in report.witnesses.items():
        assert witness[0][1] == plan.paths[i][0]
        assert witness[-1] == (spec.T, plan.paths[j][spec.T])
        times = [t for t, _ in witness]
        assert times == sorted(times)


def test_reachability_follows_only_declared_events():
    # the agents stand on a comm chain s1 - s2 - s3 at t=1, but a plan that
    # declares no event delivers nothing over it
    _, spec = relay_spec(green_at="s2", T=1)
    plan = PlanSolution(paths={0: ("s0", "s1"), 1: ("s2", "s2"), 2: ("s3", "s3")})
    assert check_dynamics(plan, spec) == []
    silent = information_reachability(plan, spec)
    assert not silent.all_reachable
    assert (0, 2) in silent.unreachable()
    events = ((1, "s1", "s2", 0, 1.0), (1, "s2", "s3", 0, 1.0))
    chatty = information_reachability(
        PlanSolution(paths=plan.paths, comm_events=events), spec)
    assert chatty.pair_matrix[(0, 2)]
    assert chatty.witnesses[(0, 2)] == [(0, "s0"), (1, "s1"), (1, "s2"), (1, "s3")]


_WITNESSES = """
from icplan.ilp import AgentConfig, ProblemSpec
from icplan.network import build_network
from icplan.verify import PlanSolution, information_reachability
net = build_network(["a", "b", "c", "d"], [("d", "b", 1.0)],
                    [("a", "c", 0.0), ("a", "b", 0.0), ("c", "b", 0.0)])
spec = ProblemSpec(net=net, agents=AgentConfig(count=3, initial={0: "a", 1: "c", 2: "d"}),
                   T=1, src=(0,), snk=(2,))
paths = {0: ("a", "a"), 1: ("c", "c"), 2: ("d", "b")}
events = ((0, "a", "c", 0, 1.0), (1, "c", "b", 0, 1.0), (1, "a", "b", 0, 1.0))
plan = PlanSolution(paths=paths, comm_events=events)
print(information_reachability(plan, spec).witnesses[(0, 2)])
"""


def test_witnesses_follow_the_first_discoverer_not_the_hash_seed():
    # b is reachable at t=1 from a (carried by agent 0) and from c (agent 1);
    # the carried states are taken in agent order, so a discovers b first
    for hash_seed in ("0", "1"):
        env = package_env(PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", _WITNESSES], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["[(0, 'a'), (1, 'a'), (1, 'b')]"]


# -- master token and consistency --------------------------------------------------


def test_token_layers_stage_through_the_relay(gated_relay):
    spec, plan = gated_relay
    layers = master_token_layers(spec, plan.paths)
    assert layers[0] == frozenset({"s0", "s1"})
    assert "s3" not in layers[0]
    assert "s3" in layers[1]


def test_consistent_plan_passes(gated_relay):
    spec, plan = gated_relay
    assert check_consistency(plan, spec) == []


def test_early_departure_is_flagged(gated_relay):
    spec, plan = gated_relay
    early = _mutate_path(plan, 2, ("s3", "s2", "s2"))
    bad = check_consistency(early, spec)
    assert any("before master token arrival" in msg for msg in bad)


def test_untokened_sender_is_flagged(gated_relay):
    spec, plan = gated_relay
    events = ((0, "s3", "s2", 0, 1.0),)
    chatty = PlanSolution(paths=plan.paths, comm_events=events)
    bad = check_consistency(chatty, spec)
    assert any("without master token" in msg for msg in bad)


def test_consistency_is_vacuous_without_the_flag(line4_solution):
    spec, _, _, plan = line4_solution
    assert check_consistency(plan, spec) == []


def test_solved_consistent_instance_passes_all_checks():
    _, spec = relay_spec(masters=(0,), information_consistent=True, T=3)
    model, result, plan = solve_problem(spec)
    assert result.ok
    assert check_dynamics(plan, spec) == []
    assert check_flows(plan, spec) == []
    assert check_consistency(plan, spec) == []
    assert information_reachability(plan, spec).all_reachable
    assert MASTER_FLOW in {ev[3] for ev in plan.comm_events} | {mv[3] for mv in plan.flow_moves}


# -- JSON round trip -----------------------------------------------------------------


def test_solution_round_trip(tmp_path, line4_solution):
    _, _, _, plan = line4_solution
    path = tmp_path / "plan.json"
    save_solution(plan, path)
    back = load_solution(path)
    assert back.paths == plan.paths
    assert back.comm_events == plan.comm_events
    assert back.flow_moves == plan.flow_moves
    assert back.objective == pytest.approx(plan.objective)


def test_solution_round_trip_keeps_special_flow_ids():
    plan = PlanSolution(paths={0: ("s0", "s0")},
                        comm_events=((0, "s0", "s0", MASTER_FLOW, 1.0),
                                     (1, "s0", "s0", "comm", 1.0),
                                     (1, "s0", "s0", 3, 2.0)))
    back = solution_from_dict(solution_to_dict(plan))
    assert back.comm_events == plan.comm_events


def test_solution_round_trip_restores_integer_agent_keys():
    plan = PlanSolution(paths={0: ("s0",), 1: ("s1",)})
    back = solution_from_dict(solution_to_dict(plan))
    assert sorted(back.paths) == [0, 1]


# -- brute-force oracle ----------------------------------------------------------------


def test_oracle_matches_solver_on_the_relay_line(line4_solution):
    spec, _, result, _ = line4_solution
    oracle = brute_force_solve(spec)
    assert oracle.status == "optimal"
    assert oracle.objective == pytest.approx(result.objective, abs=1e-6)


def test_oracle_reward_tradeoff_by_hand():
    net = line_network(3)
    agents = AgentConfig(count=1, initial={0: "s0"})
    spec = ProblemSpec(net=net, agents=agents, T=1,
                       rewards={("s1", 1): 5.0})
    oracle = brute_force_solve(spec)
    assert oracle.status == "optimal"
    assert oracle.objective == pytest.approx(4.0)     # reward 5, one move costs 1
    _, result, _ = solve_problem(spec)
    assert result.objective == pytest.approx(4.0, abs=1e-6)


def test_oracle_and_solver_agree_on_collision_pruning():
    net = line_network(2)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"})
    reward = {("s1", 2): 10.0}
    plain = ProblemSpec(net=net, agents=agents, T=1, rewards=reward)
    guarded = ProblemSpec(net=net, agents=agents, T=1, rewards=reward,
                          collision_avoidance=True)
    # without collision rules both agents meet at s1 and collect 10 - 1 = 9;
    # with them the meeting is forbidden and staying put (0) is optimal
    assert brute_force_solve(plain).objective == pytest.approx(9.0)
    assert brute_force_solve(guarded).objective == pytest.approx(0.0)
    assert solve_problem(plain)[1].objective == pytest.approx(9.0, abs=1e-6)
    assert solve_problem(guarded)[1].objective == pytest.approx(0.0, abs=1e-6)


def test_oracle_honours_return_to_base():
    # the reward at s2 is worth 5, but the agent must end one hop from s0
    spec = _return_spec(3, (), T=2)
    oracle = brute_force_solve(spec)
    assert oracle.objective == pytest.approx(-1.0)
    assert solve_problem(spec)[1].objective == pytest.approx(-1.0, abs=1e-6)


def test_oracle_and_solver_refuse_return_to_base_without_a_dynamic_agent():
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"},
                         masters=frozenset({0}), static=frozenset({0, 1}))
    spec = ProblemSpec(net=line_network(2), agents=agents, T=1,
                       return_to_base=True)
    with pytest.raises(ConfigurationError, match="dynamic agent"):
        brute_force_solve(spec)
    with pytest.raises(ConfigurationError, match="dynamic agent"):
        solve_problem(spec)


def test_oracle_and_solver_agree_on_return_to_base_sweep():
    # C1 classes with a static master and return_to_base: 150 instances
    for klass in ("p2", "p2_collision", "p2_awareness"):
        for seed in range(50):
            spec = random_oracle_instance(seed, klass)[1]
            spec = dataclasses.replace(
                spec, return_to_base=True,
                agents=dataclasses.replace(spec.agents, static=frozenset({0})))
            case = f"seed={seed} class={klass}"
            _, result, plan = solve_problem(spec)
            oracle = brute_force_solve(spec)
            if oracle.status == "optimal":
                assert result.ok, case
                assert result.objective == pytest.approx(oracle.objective,
                                                         abs=TOL), case
                assert verify.plan_violations(plan, spec) == [], case
            else:
                assert result.status == "infeasible", case
            assert verify._base_range(spec) == base_reachable_states(spec), case


def test_oracle_and_solver_agree_where_the_bridge_m_is_the_flow_supply():
    # a data flow's bridge M is its supply, |snk| or |src|, below max(R, |S|)
    # here: the relay line (|snk| = 3, up to 7 states, T = 4) and the C1
    # corpus re-posed many_to_one onto agent 0 (|src| = R < |S| mostly)
    specs = [(f"line_instance({n})", line_instance(n)[1]) for n in range(3, 8)]
    for klass in ORACLE_CLASSES:
        for seed in range(50):
            spec = random_oracle_instance(seed, klass)[1]
            specs.append((f"seed={seed} class={klass}", dataclasses.replace(
                spec, src=tuple(range(spec.agents.count)), snk=(0,))))
    # C1's p1 specs with costed comm, every other comm edge made free: the
    # pairwise pricing meets free comm arcs at t >= 1 beside costed ones
    for seed in range(50):
        net, spec = random_oracle_instance(seed, "p1")
        if any(net.comm.values()):
            comm = [(a, b, 0.0 if i % 2 else w)
                    for i, ((a, b), w) in enumerate(net.comm.items())]
            mobility = [(a, b, w) for (a, b), w in net.mobility.items()]
            free = build_network(net.states, mobility, comm, self_loops=False)
            specs.append((f"seed={seed} class=p1 half-free comm",
                          dataclasses.replace(spec, net=free)))
    for case, spec in specs:
        _, result, _ = solve_problem(spec)
        oracle = brute_force_solve(spec)
        if oracle.status == "optimal":
            assert result.ok, case
            # HiGHS may leave a unit of flow short within its feasibility
            # tolerance; on seed 20 of p1 a 3.6-cost comm arc then reads
            # 1.0e-6 (plus rounding) above the optimum
            assert result.objective == pytest.approx(oracle.objective,
                                                     abs=2 * TOL), case
        else:
            assert result.status == "infeasible", case


def test_oracle_and_solver_agree_at_horizon_four():
    # the C1 corpus (seeds 0-39) re-posed with T = 4: 149 of its 160 specs
    # stay under the oracle's 10^6 joint-plan guard
    checked = 0
    for klass in ORACLE_CLASSES:
        for seed in range(40):
            spec = dataclasses.replace(random_oracle_instance(seed, klass)[1], T=4)
            case = f"seed={seed} class={klass} T=4"
            try:
                oracle = brute_force_solve(spec)
            except GuardExceeded:
                continue
            checked += 1
            _, result, _ = solve_problem(spec)
            if oracle.status == "optimal":
                assert result.ok, case
                # HiGHS may leave a unit of flow short within its feasibility
                # tolerance; on seed 20 of p1 a 3.6-cost comm arc then reads
                # 1.0e-6 (plus rounding) above the optimum
                assert result.objective == pytest.approx(oracle.objective,
                                                         abs=2 * TOL), case
            else:
                assert result.status == "infeasible", case
    assert checked == 149


def test_oracle_reports_infeasible():
    net = build_network(["a", "b"], [], [])
    agents = AgentConfig(count=2, initial={0: "a", 1: "b"})
    spec = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,))
    assert brute_force_solve(spec).status == "infeasible"


def test_oracle_guard_refuses_large_joint_spaces():
    _, spec = line_instance(12)       # 51,898,392 joint plans
    with pytest.raises(GuardExceeded, match="51898392"):
        brute_force_solve(spec)


def _assert_oracle_is_exhaustive(spec):
    """Score every joint plan without pruning and compare with the oracle.

    Each evaluated value minus its movement cost must stay within TOL of the
    oracle's bound (its reward ceiling minus the same cost); the oracle must
    return the best value and count every joint plan.
    """
    net, T, agents = spec.net, spec.T, spec.agents
    per_agent = [[(agents.initial[r],) * (T + 1)] if r in agents.static
                 else _agent_paths(net, agents.initial[r], T)
                 for r in range(agents.count)]
    comm_costed = T >= 1 and any(w > 0 for w in net.comm.values())
    reward_items = spec.sorted_rewards()
    best, n = None, 0
    for combo in itertools.product(*per_agent):
        n += 1
        paths = dict(enumerate(combo))
        if check_dynamics(PlanSolution(paths), spec):   # collision, base rules
            continue
        value = _evaluate_candidate(spec, paths, comm_costed, reward_items)
        if value is None:
            continue
        g1 = sum(sum(net.mobility[(p[t], p[t + 1])] for t in range(T))
                 for p in combo)
        ceiling = sum(max(v, 0.0) for _, _, v in _claimable(reward_items,
                                                             [p[T] for p in combo]))
        assert value - g1 <= ceiling - g1 + TOL, (paths, value, ceiling)
        best = value - g1 if best is None else max(best, value - g1)

    oracle = brute_force_solve(spec)
    assert oracle.candidates == n
    if best is None:
        assert oracle.status == "infeasible"
    else:
        assert oracle.status == "optimal"
        assert oracle.objective == best
    return oracle


@pytest.mark.parametrize("klass", ORACLE_CLASSES)
def test_pruned_oracle_matches_exhaustive_scoring(klass):
    # the benchmark's oracle corpus: seeds 0-5 of every C1 class
    for seed in range(6):
        _assert_oracle_is_exhaustive(random_oracle_instance(seed, klass)[1])


def test_oracle_scores_tied_plans():
    net = line_network(3)
    agents = AgentConfig(count=1, initial={0: "s1"})
    tied = ProblemSpec(net=net, agents=agents, T=1,
                       rewards={("s0", 1): 5.0, ("s2", 1): 5.0})
    oracle = _assert_oracle_is_exhaustive(tied)
    assert oracle.objective == 4.0
    # a later plan better by less than the pruning margin still wins
    near = ProblemSpec(net=net, agents=agents, T=1,
                       rewards={("s0", 1): 5.0, ("s2", 1): 5.0 + 1e-7})
    oracle = _assert_oracle_is_exhaustive(near)
    assert oracle.objective == pytest.approx(4.0 + 1e-7, abs=1e-12)


def test_oracle_scores_tied_plans_out_of_product_order():
    # meeting at s1 earns 5 for two moves; the later plan leaves agent 1 on
    # the 5 at s2 for one move but pays a costed comm hop to reach it, so
    # both are worth 3 and the later one has the higher bound (5 - 1 = 4)
    net = line_network(4, comm_cost=1.0)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s2"})
    spec = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,),
                       rewards={("s1", 2): 5.0, ("s2", 1): 5.0})
    per_agent = [_agent_paths(net, "s0", 1), _agent_paths(net, "s2", 1)]
    meet = (per_agent[0].index(("s0", "s1")), per_agent[1].index(("s2", "s1")))
    hop = (meet[0], per_agent[1].index(("s2", "s2")))
    assert meet < hop                               # product order
    costs = [[verify._move_cost(net, p) for p in paths] for paths in per_agent]
    bounds = _plan_bounds(spec, per_agent, costs)
    assert bounds[hop] > bounds[meet]               # bound order
    oracle = _assert_oracle_is_exhaustive(spec)
    assert oracle.objective == 3.0
    assert solve_problem(spec)[1].objective == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("consistent, T, optimum", [(False, 1, 8.0), (True, 2, 7.0)])
def test_oracle_prices_negative_rewards_and_costed_comm(consistent, T, optimum):
    # meeting at s1 unlocks 10 beside an unclaimed -8; an earlier plan that
    # keeps agent 0 on its reward at s0 pays one costed comm hop instead
    net = line_network(3, comm_cost=1.0)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s2"},
                         masters=frozenset({0}) if consistent else frozenset())
    spec = ProblemSpec(net=net, agents=agents, T=T, src=(0,), snk=(1,),
                       rewards={("s0", 1): 6.0, ("s1", 1): -8.0, ("s1", 2): 10.0},
                       information_consistent=consistent)
    oracle = _assert_oracle_is_exhaustive(spec)
    assert oracle.objective == pytest.approx(optimum)
    assert solve_problem(spec)[1].objective == pytest.approx(optimum, abs=1e-6)


def test_the_residual_lp_agrees_with_scipy_linprog(monkeypatch):
    # the LP goes to scipy's private HiGHS binding; scipy's public linprog,
    # given the same rows split back into A_ub and A_eq, must price it alike
    real_minimize, seen = verify.minimize, []

    def both(c, A, row_lower, row_upper, col_lower, col_upper, options):
        res = real_minimize(c, A, row_lower, row_upper, col_lower, col_upper,
                            options)
        dense, ub = A.toarray(), np.isinf(row_lower)
        ref = linprog(c, A_ub=dense[ub], b_ub=row_upper[ub], A_eq=dense[~ub],
                      b_eq=row_upper[~ub],
                      bounds=np.column_stack([col_lower, col_upper]),
                      method="highs")
        seen.append(((res.status == "optimal", res.objective),
                     (ref.status == 0, ref.fun)))
        return res

    monkeypatch.setattr(verify, "minimize", both)
    for seed in range(50):
        for klass in ORACLE_CLASSES:
            brute_force_solve(random_oracle_instance(seed, klass)[1])
    assert len(seen) > 50
    assert [ours for ours, _ in seen] == [theirs for _, theirs in seen]


def test_a_residual_lp_model_error_raises(monkeypatch):
    # a coefficient HiGHS refuses must not read as an infeasible candidate
    real_minimize = verify.minimize
    monkeypatch.setattr(verify, "minimize",
                        lambda c, A, *rest: real_minimize(c, A * 1e30, *rest))
    net = line_network(3, comm_cost=1.0)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s2"},
                         masters=frozenset({0}))
    spec = ProblemSpec(net=net, agents=agents, T=2, src=(0,), snk=(1,),
                       information_consistent=True)
    with pytest.raises(SolverError, match="residual LP"):
        brute_force_solve(spec)

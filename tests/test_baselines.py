"""Powerset-cut baselines: guards, cut counts, and agreement with the flow model."""

import dataclasses
import itertools

import pytest

from icplan.baselines import (_build_base_model, build_powerset_model,
                              solve_adaptive_powerset, solve_powerset)
from icplan.errors import ConfigurationError, GuardExceeded
from icplan.ilp import AgentConfig, ProblemSpec, assemble
from icplan.instances import line_instance, random_oracle_instance
from icplan.solver import solve_problem
from icplan.verify import information_reachability, plan_violations

from _helpers import line_network, relay_spec


def _two_state_spec():
    net = line_network(2)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"})
    return ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,))


def _enumerate_cuts(spec):
    """Reference count: subsets missing a source start but holding a terminal."""
    vertices = [(s, t) for t in range(spec.T + 1) for s in spec.net.states]
    starts = {(spec.agents.initial[i], 0) for i in spec.src}
    count = 0
    for size in range(1, len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            subset = set(combo)
            if starts <= subset:
                continue
            if not any(t == spec.T for (_, t) in subset):
                continue
            count += 1
    return count


def test_cut_family_matches_reference_enumeration():
    spec = _two_state_spec()
    model = build_powerset_model(spec)
    expected = _enumerate_cuts(spec)
    assert expected == 6
    assert model.tag_counts()["powerset_cut"] == expected


def test_powerset_solves_the_trivial_exchange():
    run = solve_powerset(_two_state_spec())
    assert run.result.ok
    assert run.result.objective == pytest.approx(0.0, abs=1e-6)
    assert run.rounds == 1
    assert run.cuts_added == 6


def test_guard_refuses_beyond_the_vertex_budget():
    _, spec = line_instance(5)            # (T+1) * |S| = 20 > 18
    with pytest.raises(GuardExceeded):
        build_powerset_model(spec)
    with pytest.raises(GuardExceeded):
        solve_powerset(spec)


def test_consistency_is_not_supported():
    _, spec = relay_spec(masters=(0,), information_consistent=True)
    with pytest.raises(ConfigurationError):
        solve_powerset(spec)
    with pytest.raises(ConfigurationError):
        solve_adaptive_powerset(spec)


def test_empty_terminals_are_rejected():
    net = line_network(2)
    agents = AgentConfig(count=1, initial={0: "s0"})
    spec = ProblemSpec(net=net, agents=agents, T=1)
    with pytest.raises(ConfigurationError):
        build_powerset_model(spec)
    with pytest.raises(ConfigurationError):
        solve_adaptive_powerset(spec)


def test_all_three_methods_agree_on_the_relay_line(line4, line4_solution):
    _, spec = line4
    _, _, flow_result, _ = line4_solution
    full = solve_powerset(spec)
    adaptive = solve_adaptive_powerset(spec)
    assert full.result.ok and adaptive.result.ok
    assert full.result.objective == pytest.approx(flow_result.objective, abs=1e-6)
    assert adaptive.result.objective == pytest.approx(flow_result.objective, abs=1e-6)
    assert adaptive.cuts_added <= full.cuts_added


def test_baseline_plans_are_executable_and_reachable(line4):
    _, spec = line4
    for run in (solve_powerset(spec), solve_adaptive_powerset(spec)):
        assert run.plan is not None
        assert plan_violations(run.plan, spec) == []
        assert information_reachability(run.plan, spec).all_reachable
        # every data-flow comm event rides an active edge
        active = {ev[:3] for ev in run.plan.comm_events if ev[3] == "comm"}
        assert {ev[:3] for ev in run.plan.comm_events} == active
        assert {ev[3] for ev in run.plan.comm_events} == {"comm", *spec.data_flow_ids()}


def test_baseline_certificates_follow_the_orientation():
    # one unit per (src, snk) pair under the source's id one_to_many and
    # the sink's many_to_one; the verifier checks both balances
    _, spec = random_oracle_instance(0, "p1")
    for case in (spec, dataclasses.replace(spec, src=spec.snk, snk=spec.src)):
        run = solve_adaptive_powerset(case)
        assert run.plan is not None
        assert plan_violations(run.plan, case) == []
        fids = {ev[3] for ev in run.plan.comm_events + run.plan.flow_moves}
        assert fids == {"comm", *case.data_flow_ids()}


def test_adaptive_matches_flow_on_random_free_comm_instances():
    checked = 0
    for seed in range(40):
        net, spec = random_oracle_instance(seed, "p1")
        if any(w > 0 for w in net.comm.values()):
            continue                       # baselines only price mobility
        _, flow_result, _ = solve_problem(spec)
        adaptive = solve_adaptive_powerset(spec)
        if flow_result.status == "infeasible":
            assert adaptive.result.status == "infeasible"
        else:
            assert adaptive.result.ok
            assert adaptive.result.objective == pytest.approx(
                flow_result.objective, abs=1e-6)
        checked += 1
        if checked == 6:
            break
    assert checked == 6


def test_baseline_and_flow_objectives_share_reward_and_mobility_terms():
    def terms(model, kinds):
        return {model.refs[i]: c for i, c in model.objective.items()
                if model.refs[i][0] in kinds}

    priced = set()
    for seed in range(12):
        _, spec = random_oracle_instance(seed, "p1")
        flow, base = assemble(spec), _build_base_model(spec)
        shared = terms(flow, {"x", "y"})
        assert terms(base, {"x", "y"}) == shared
        priced |= {ref[0] for ref in shared}
        # each model keeps only its own communication price
        assert terms(flow, {"x", "y", "fbar"}).keys() == \
            {flow.refs[i] for i in flow.objective}
        assert terms(base, {"x", "y", "comm"}).keys() == \
            {base.refs[i] for i in base.objective}
    assert priced == {"x", "y"}

"""Model shape: variable/constraint counts, validation, flow orientation,
and the arrays HiGHS is given."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from icplan import explore, solver
from icplan.baselines import solve_powerset
from icplan.errors import ConfigurationError
from icplan.explore import run_exploration
from icplan.highs import HighsResult
from icplan.ilp import MASTER_FLOW, AgentConfig, MilpModel, ProblemSpec, assemble
from icplan.instances import (ORACLE_CLASSES, exploration_world, line_instance,
                              random_oracle_instance)
from icplan.network import build_network

from _helpers import line_network, pinned_corpus, relay_spec


def expected_tag_counts(spec):
    """Closed-form constraint counts per tag, derived from the instance shape."""
    net, T, R = spec.net, spec.T, spec.agents.count
    S, M, C = len(net.states), len(net.mobility), len(net.comm)
    data = len(spec.data_flow_ids())
    flows = len(spec.flow_ids())
    out = {
        "initial": R * S,
        "flow_balance": data * S * (T + 1),
        "bridge_comm": flows * 2 * C * (T + 1),
        "bridge_mobility": flows * M * T,
    }
    if T > 0:
        out["dynamics_in"] = R * T * S
        out["dynamics_out"] = R * T * S
    if spec.rewards:
        out["reward_link"] = len(spec.rewards)
    if spec.information_consistent:
        starts = spec.agents.master_states()
        gated = [r for r in range(R) if spec.agents.initial[r] not in starts]
        out["master_flow"] = S * (T + 1)
        if gated:
            out["master_static"] = len(gated) * (T + 1)
            out["master_comm"] = len(gated) * flows * (T + 1)
    if spec.agents.static and T > 0:
        out["static_agent"] = len(spec.agents.static) * T
    if spec.collision_avoidance:
        pairs = R * (R - 1) // 2
        swaps = sum(1 for (a, b) in net.mobility if a != b and (b, a) in net.mobility)
        out["collision_pos"] = pairs * (T + 1) * S
        if pairs * T * swaps:
            out["collision_trans"] = pairs * T * swaps
    if spec.awareness_reward:
        starts = spec.agents.master_states()
        aware = sum(1 for (s, _k) in spec.rewards if s not in starts)
        if aware:
            out["awareness"] = aware
    if spec.return_to_base:
        out["return_to_base"] = 1
    return {tag: n for tag, n in out.items() if n}


def expected_variable_count(spec):
    net, T, R = spec.net, spec.T, spec.agents.count
    S, M, C = len(net.states), len(net.mobility), len(net.comm)
    flows = len(spec.flow_ids())
    return (R * S * (T + 1) + R * M * T + len(spec.rewards)
            + flows * (M * T + C * (T + 1)))


# -- constraint families ------------------------------------------------------


def test_tag_counts_on_plain_relay_line():
    _, spec = relay_spec()
    model = assemble(spec)
    counts = model.tag_counts()
    assert counts == expected_tag_counts(spec)
    assert "master_flow" not in counts
    assert model.n_variables == expected_variable_count(spec)


def test_tag_counts_with_every_extension_enabled():
    net = line_network(4)
    agents = AgentConfig(count=3, initial={0: "s0", 1: "s1", 2: "s3"},
                         masters=frozenset({1}), static=frozenset({1}))
    spec = ProblemSpec(net=net, agents=agents, T=2, src=(0, 2), snk=(0, 2),
                       rewards={("s3", 1): 5.0, ("s1", 1): 3.0},
                       information_consistent=True,
                       collision_avoidance=True,
                       awareness_reward=True,
                       return_to_base=True)
    model = assemble(spec)
    assert model.tag_counts() == expected_tag_counts(spec)
    assert model.n_variables == expected_variable_count(spec)


def test_flow_balance_count_is_per_id_per_vertex(line4):
    _, spec = line4
    model = assemble(spec)
    counts = model.tag_counts()
    S, T = len(spec.net.states), spec.T
    assert counts["flow_balance"] == len(spec.data_flow_ids()) * S * (T + 1)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 500), st.sampled_from(ORACLE_CLASSES))
def test_flow_constraint_identities_on_random_instances(seed, klass):
    net, spec = random_oracle_instance(seed, klass)
    model = assemble(spec)
    counts = model.tag_counts()
    expect = expected_tag_counts(spec)
    for tag in ("initial", "flow_balance", "bridge_comm", "bridge_mobility",
                "master_flow", "master_static", "master_comm"):
        assert counts.get(tag, 0) == expect.get(tag, 0), tag
    assert model.n_variables == expected_variable_count(spec)
    assert model.n_constraints == sum(expect.values())


def test_horizon_zero_model_still_assembles():
    net = line_network(2)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s1"})
    spec = ProblemSpec(net=net, agents=agents, T=0, src=(0,), snk=(0, 1))
    model = assemble(spec)
    assert model.tag_counts() == expected_tag_counts(spec)


# -- orientation and flow ids --------------------------------------------------


def test_auto_orientation_prefers_fewer_flow_families():
    net = line_network(3)
    agents = AgentConfig(count=3, initial={0: "s0", 1: "s1", 2: "s2"})
    few_src = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1, 2))
    few_snk = ProblemSpec(net=net, agents=agents, T=1, src=(0, 1), snk=(2,))
    tie = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,))
    assert few_src.orientation() == "one_to_many"
    assert few_src.data_flow_ids() == (0,)
    assert few_snk.orientation() == "many_to_one"
    assert few_snk.data_flow_ids() == (2,)
    assert tie.orientation() == "one_to_many"


def test_master_flow_id_appended_only_when_consistent():
    _, plain = relay_spec()
    _, gated = relay_spec(masters=(0,), information_consistent=True)
    assert MASTER_FLOW not in plain.flow_ids()
    assert gated.flow_ids() == (0, 2, MASTER_FLOW)


def test_big_m_defaults_to_team_or_state_count():
    _, spec = relay_spec()                      # 3 agents, 4 states
    assert spec.big_m_value() == 4
    net = line_network(2)
    agents = AgentConfig(count=5, initial={r: "s0" for r in range(5)})
    wide = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,))
    assert wide.big_m_value() == 5


def test_bridge_m_is_each_flow_supply():
    # a data flow carries at most |snk| (one_to_many) or |src| (many_to_one)
    # units; the master flow keeps max(R, |S|) = 5
    agents = AgentConfig(count=4, initial={0: "s0", 1: "s1", 2: "s3", 3: "s4"},
                         masters=frozenset({0}))
    for src, snk, data_m in (((0,), (1, 2), 2.0), ((0, 1, 2), (3,), 3.0)):
        spec = ProblemSpec(net=line_network(5), agents=agents, T=2, src=src,
                           snk=snk, information_consistent=True)
        model = assemble(spec)
        ms: dict = {}
        for coeffs, _, _, tag in model.constraints:
            if tag in ("bridge_comm", "bridge_mobility"):
                (fid,) = {model.refs[i][1] for i, c in coeffs.items() if c == 1.0}
                ms.setdefault(fid, set()).update(
                    -c for i, c in coeffs.items() if c != 1.0)
        expect = {fid: {data_m} for fid in spec.data_flow_ids()}
        assert ms == expect | {MASTER_FLOW: {float(spec.big_m_value())}}


# -- validation ----------------------------------------------------------------


def _valid_kwargs():
    net = line_network(3)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s2"})
    return dict(net=net, agents=agents, T=1, src=(0,), snk=(1,))


@pytest.mark.parametrize("patch", [
    {"T": -1},
    {"src": (7,)},
    {"snk": (-2,)},
    {"rewards": {("nope", 1): 4.0}},
    {"rewards": {("s0", 0): 4.0}},
    {"rewards": {("s0", 1.5): 4.0}},                  # non-integer threshold
    {"information_consistent": True},                 # no master declared
    {"awareness_reward": True},                       # requires consistency
    {"return_to_base": True},                         # requires a static master
    {"return_to_base": True,                          # requires a dynamic agent
     "agents": AgentConfig(count=2, initial={0: "s0", 1: "s2"},
                           masters=frozenset({0}), static=frozenset({0, 1}))},
])
def test_validate_rejects_bad_specs(patch):
    kwargs = _valid_kwargs()
    kwargs.update(patch)
    with pytest.raises(ConfigurationError):
        ProblemSpec(**kwargs).validate()


def test_validate_rejects_unknown_initial_state():
    net = line_network(3)
    agents = AgentConfig(count=1, initial={0: "elsewhere"})
    with pytest.raises(ConfigurationError):
        ProblemSpec(net=net, agents=agents, T=1).validate()


def test_validate_requires_self_loop_for_static_agents():
    net = build_network(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)], [],
                        self_loops=False)
    agents = AgentConfig(count=1, initial={0: "a"}, static=frozenset({0}))
    with pytest.raises(ConfigurationError):
        ProblemSpec(net=net, agents=agents, T=1).validate()


def test_agent_config_rejects_bad_rosters():
    with pytest.raises(ConfigurationError):
        AgentConfig(count=0, initial={})
    with pytest.raises(ConfigurationError):
        AgentConfig(count=2, initial={0: "a", 2: "b"})
    with pytest.raises(ConfigurationError):
        AgentConfig(count=1, initial={0: "a"}, static=frozenset({3}))


def test_src_snk_deduplicated_and_sorted():
    net = line_network(3)
    agents = AgentConfig(count=3, initial={0: "s0", 1: "s1", 2: "s2"})
    spec = ProblemSpec(net=net, agents=agents, T=1, src=(2, 0, 2), snk=(1, 1))
    assert spec.src == (0, 2)
    assert spec.snk == (1,)


# -- model object ----------------------------------------------------------------


def test_model_blocks_start_at_their_first_index():
    model = MilpModel()
    model.add_vars("z", [("z", 0, "a", 0)], "B")
    first = model.add_vars("x", [("x", 1, "a"), ("x", 1, "b")], "C")
    assert first == model.start["x"] == 1 and model.start["z"] == 0
    assert model.refs[first + 1] == ("x", 1, "b")
    assert model.binary().tolist() == [True, False, False]


# -- the arrays HiGHS is given ---------------------------------------------------

_MILP_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}

# SHA-256 over every array of every HiGHS call on the corpus below (the nine
# arrays `solver.solve` hands to `highs.minimize`, in the order and dtypes
# they had as `milp`'s arguments), captured from the model code that kept one
# dict per row and made the matrix from COO triples.  A change to how models
# are stored or passed must give HiGHS the same bytes.
HIGHS_INPUT_SHA256 = "941024f0e5e7952665773e18e28ffcf8052919fd5e8c87847b5ddc7c75f8cbce"


def test_highs_input_is_pinned(monkeypatch):
    digest, calls = hashlib.sha256(), []
    real_minimize = solver.minimize

    def recording_minimize(c, A, row_lower, row_upper, col_lower, col_upper,
                           options, binary):
        for array, dtype in ((c, float), (binary, np.uint8), (col_lower, float),
                             (col_upper, float), (A.indptr, np.int64),
                             (A.indices, np.int64), (A.data, float),
                             (row_lower, float), (row_upper, float)):
            digest.update(np.asarray(array, dtype=dtype).tobytes())
        calls.append(A.shape)
        if solving:
            return real_minimize(c, A, row_lower, row_upper, col_lower,
                                 col_upper, options, binary)
        return HighsResult("infeasible", "recorded")

    monkeypatch.setattr(solver, "minimize", recording_minimize)
    solving, corpus = False, pinned_corpus()
    for spec in corpus:
        solver.solve(assemble(spec))
    solve_powerset(line_instance(4)[1])     # one build_powerset_model model
    solving = True          # exploration needs each plan to go on
    # the collection horizon the digest was captured under (hops + 2); the
    # pin holds the model code, not the exploration's horizon rule
    monkeypatch.setattr(explore, "POST_SLACK", 2)
    log = run_exploration(*exploration_world(0, 15, 3))
    assert log.status == "complete"
    assert len(calls) == len(corpus) + 1 + len(log.subproblems)
    assert digest.hexdigest() == HIGHS_INPUT_SHA256


def test_the_highs_call_agrees_with_scipy_milp(monkeypatch):
    # `highs.minimize` drives scipy's private HiGHS binding; scipy's public
    # `milp`, given the same arrays and options, must return the same solve
    real_minimize, seen = solver.minimize, []

    def both(c, A, row_lower, row_upper, col_lower, col_upper, options, binary):
        res = real_minimize(c, A, row_lower, row_upper, col_lower, col_upper,
                            options, binary)
        milp_options = {"disp": False} | options
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # passed verbatim
            ref = milp(c, integrality=binary.astype(np.uint8),
                       bounds=Bounds(col_lower, col_upper),
                       constraints=LinearConstraint(A, row_lower, row_upper),
                       options=milp_options)
        seen.append(((res.status, res.objective, res.nodes, res.dual_bound,
                      res.gap), (_MILP_STATUS[ref.status], ref.fun,
                      ref.mip_node_count, ref.mip_dual_bound, ref.mip_gap)))
        assert (res.x is None) == (ref.x is None)
        assert res.x is None or np.array_equal(res.x, ref.x)
        return res

    monkeypatch.setattr(solver, "minimize", both)
    for spec in pinned_corpus():
        solver.solve(assemble(spec))
    assert [ours for ours, _ in seen] == [theirs for _, theirs in seen]
    assert {ours[0] for ours, _ in seen} == {"optimal", "infeasible"}


def test_the_rows_view_matches_the_matrix():
    # perfbench counts nonzeros and rows through `constraints`
    specs = [random_oracle_instance(0, "p2_awareness")[1], line_instance(6)[1]]
    for spec in specs:
        model = assemble(spec)
        A, lo, hi = model.matrix()
        assert sum(len(c) for c, _, _, _ in model.constraints) == A.nnz
        assert model.n_constraints == A.shape[0] == len(lo) == len(hi)
        assert model.n_variables == A.shape[1]


def test_lp_text_is_pinned():
    # the LP text reads the model through `constraints` and `objective`;
    # taken when both were the model's own per-row dicts
    pins = {"f0e4212fbeb565a638a01db7352d637bb81f0ec9639931ae631111b67bb8799a":
            line_instance(4)[1],
            "78d42f564ff1ba2e89c9db7636f73f0488eb2bdcbe561ed9d09603cce47251a9":
            random_oracle_instance(3, "p2_awareness")[1]}
    for digest, spec in pins.items():
        text = solver.export_lp(assemble(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

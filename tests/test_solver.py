"""HiGHS solves, LP export, and plan extraction."""

import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy
from scipy import sparse

from icplan import highs, solver, verify
from icplan.errors import InstanceError
from icplan.explore import run_exploration
from icplan.highs import HighsResult
from icplan.ilp import AgentConfig, MilpModel, ProblemSpec, assemble
from icplan.instances import exploration_world, line_instance
from icplan.network import build_network
from icplan.solver import export_lp, solve, solve_problem

from _helpers import line_network, package_env, pinned_corpus, relay_spec


def test_scipy_solves_the_relay_line(line4_solution):
    spec, model, result, plan = line4_solution
    assert result.ok and result.status == "optimal"
    # a single move of the end agent onto the chain makes the occupied set
    # contiguous, and within-layer relaying does the rest: the optimum is -1
    assert result.objective == pytest.approx(-1.0, abs=1e-6)
    assert plan.objective == pytest.approx(-1.0, abs=1e-6)


def test_extracted_paths_have_the_right_shape(line4_solution):
    spec, _, _, plan = line4_solution
    assert sorted(plan.paths) == list(range(spec.agents.count))
    for r, path in plan.paths.items():
        assert len(path) == spec.T + 1
        assert path[0] == spec.agents.initial[r]
        assert all(spec.net.has_state(s) for s in path)


def test_assignment_is_integral(line4_solution):
    _, model, result, _ = line4_solution
    assert list(result.assignment) == model.refs
    for value, binary in zip(result.assignment.values(), model.binary()):
        if binary:
            assert value in (0.0, 1.0)


def test_extraction_refuses_an_agent_on_zero_or_two_states(line4_solution):
    spec, _, result, _ = line4_solution
    [here] = [s for s in spec.net.states if result.assignment[("z", 0, s, 1)] == 1.0]
    there = next(s for s in spec.net.states if s != here)
    for change, count in (({("z", 0, here, 1): 0.0}, 0),
                          ({("z", 0, there, 1): 1.0}, 2)):
        assignment = {**result.assignment, **change}
        with pytest.raises(InstanceError, match=f"agent 0 occupies {count} states at t=1"):
            verify.extract_solution(spec, assignment, result.objective)


def test_infeasible_instance_reports_infeasible():
    net = build_network(["a", "b"], [], [])     # two isolated states, no comm
    agents = AgentConfig(count=2, initial={0: "a", 1: "b"})
    spec = ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,))
    model, result, plan = solve_problem(spec)
    assert result.status == "infeasible"
    assert plan is None
    assert not result.ok


def test_gap_and_time_limit_accepted(line4):
    _, spec = line4
    result = solve(assemble(spec), time_limit=60.0, gap=0.1)
    assert result.status == "optimal"
    # a 10% gap may stop early but never outside the optimum's gap band
    assert result.objective == pytest.approx(-1.0, rel=0.1, abs=0.11)


def test_tiny_time_limit_degrades_gracefully():
    _, spec = line_instance(10)
    model = assemble(spec)
    result = solve(model, time_limit=0.05)
    assert result.status in ("optimal", "limit")
    if result.status == "limit" and not result.assignment:
        assert result.objective is None


def test_solve_problem_accepts_integral_incumbents():
    """Plans are extracted from time-limited runs when the incumbent is usable."""
    _, spec = line_instance(8)
    model, result, plan = solve_problem(spec, time_limit=0.3)
    assert result.status in ("optimal", "limit")
    if plan is not None:
        assert len(plan.paths) == spec.agents.count
    else:
        assert not result.assignment


def test_optimal_solve_reports_nodes_bound_and_gap(line4_solution):
    _, _, result, _ = line4_solution
    assert result.nodes >= 0
    # HiGHS's default relative gap tolerance is 1e-4
    assert 0.0 <= result.gap <= 1e-4
    assert result.dual_bound >= result.objective - 1e-9
    assert result.dual_bound == pytest.approx(result.objective, abs=1e-4)


def test_time_limited_solve_keeps_the_statistics(line4, monkeypatch):
    model = assemble(line4[1])
    limit = HighsResult("limit", "Time limit reached", np.zeros(model.n_variables),
                        3.0, 17, 1.5, 0.5)
    monkeypatch.setattr(solver, "minimize", lambda *args: limit)
    result = solve(model, time_limit=1.0)
    assert result.status == "limit" and result.objective == -3.0
    assert (result.nodes, result.dual_bound, result.gap) == (17, -1.5, 0.5)


def test_feasibility_jump_heuristic_is_off(line4, monkeypatch):
    # its fixed per-call cost outweighs the solve itself on small models
    seen = []
    real = solver.minimize

    def spy(*args):
        seen.append(args[6])                 # the options
        return real(*args)

    monkeypatch.setattr(solver, "minimize", spy)
    for kwargs in ({}, {"time_limit": 60.0, "gap": 0.1}):
        assert solve(assemble(line4[1]), **kwargs).ok
    assert [o["mip_heuristic_run_feasibility_jump"] for o in seen] == [False, False]
    assert seen[1]["time_limit"] == 60.0 and seen[1]["mip_rel_gap"] == 0.1


def test_solve_raises_no_warning(line4):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(assemble(line4[1])).ok


def _model_error_model():
    """max x0 + x1 s.t. 1e30 x0 + x1 <= 1: HiGHS refuses the coefficient."""
    model = MilpModel()
    model.add_vars("x", [("x", 0), ("x", 1)], "B")
    model.add_rows(1, [(0, np.arange(2), np.array([1e30, 1.0]))], "<=", 1.0, "big")
    model.add_objective(np.arange(2), 1.0)
    return model


def test_a_model_error_is_an_error_not_an_infeasibility():
    # scipy's milp reports HiGHS's model error as status 2, infeasible
    result = solve(_model_error_model())
    assert result.status == "error" and not result.ok
    assert result.objective is None and not result.assignment
    assert "load" in result.message


def test_solve_problem_times_each_stage(line4):
    _, result, plan = solve_problem(line4[1])
    assert plan is not None
    assert min(result.assemble_s, result.matrix_s, result.highs_s,
               result.extract_s) > 0.0
    assert result.matrix_s + result.highs_s <= result.wall_time


# -- the one HiGHS instance ----------------------------------------------------


def _knapsack_args(options):
    """min -4 x0 - 5 x1 - 6 x2 s.t. 3 x0 + 4 x1 + 5 x2 <= 8, x binary: -10."""
    return (np.array([-4.0, -5.0, -6.0]), sparse.csc_array([[3.0, 4.0, 5.0]]),
            np.array([-np.inf]), np.array([8.0]), np.zeros(3), np.ones(3),
            options, np.ones(3, dtype=bool))


def test_an_unknown_highs_option_raises():
    with pytest.raises(AttributeError, match="no_such_option"):
        highs.minimize(*_knapsack_args({"no_such_option": 1}))
    assert highs.minimize(*_knapsack_args({})).objective == -10.0


@pytest.mark.parametrize("option", [{"presolve": 1}, {"log_to_console": 1},
                                    {"simplex_strategy": 1.5},
                                    {"time_limit": "soon"},
                                    {"mip_rel_gap": -1.0}])
def test_a_highs_option_value_it_refuses_raises(option):
    # a wrong type, or a value out of the option's range
    with pytest.raises(AttributeError, match=next(iter(option))):
        highs.minimize(*_knapsack_args(option))


def test_a_refused_option_prints_nothing(capfd):
    # HiGHS logs a refused option on fd 1 while console logging is on, as
    # clear() leaves it, and the verifier's LP runs outside solver._quiet_fd1
    for option in ({"no_such_option": 1}, {"presolve": 1}):
        with pytest.raises(AttributeError, match=next(iter(option))):
            highs.minimize(*_knapsack_args(option))
    assert capfd.readouterr() == ("", "")


def test_missing_highs_bindings_name_the_folder_searched(tmp_path,
                                                         monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(
            str(tmp_path / "optimize" / "_highspy"))):
        highs._load_core()


_BOTH_SOLVERS = """
import sys
import numpy as np
from scipy import sparse
if sys.argv[1] == "scipy-first":
    import scipy.optimize
from icplan import highs
from scipy.optimize import Bounds, LinearConstraint, milp
c, A = np.array([-4.0, -5.0, -6.0]), sparse.csc_array([[3.0, 4.0, 5.0]])
ours = highs.minimize(c, A, np.array([-np.inf]), np.array([8.0]), np.zeros(3),
                      np.ones(3), {}, np.ones(3, dtype=bool))
theirs = milp(c, integrality=np.ones(3), bounds=Bounds(0, 1),
              constraints=LinearConstraint(A, -np.inf, 8.0))
print(highs._core is sys.modules["scipy.optimize._highspy._core"],
      ours.objective, theirs.fun)
"""


@pytest.mark.parametrize("first", ["icplan-first", "scipy-first"])
def test_scipy_milp_and_the_highs_module_share_one_binding(first):
    # highs.py loads HiGHS's bindings by path; whichever side loads them
    # first, both solve through that one module
    run = subprocess.run([sys.executable, "-c", _BOTH_SOLVERS, first],
                         env=package_env(), capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["True", "-10.0", "-10.0"]


def test_arrays_that_do_not_fit_the_matrix_are_refused():
    # HiGHS would read past the end of a short buffer
    for short in (0, 2, 3, 4, 5):
        args = list(_knapsack_args({}))
        args[short] = args[short][:-1]
        with pytest.raises(ValueError, match="1 x 3"):
            highs.minimize(*args)
    with pytest.raises(ValueError, match="1 x 3"):
        highs.minimize(*_knapsack_args({})[:7], np.ones(2, dtype=bool))


def _recorded_calls(monkeypatch, module, run, solving=True):
    """The argument tuples of every `minimize` call `run()` makes through
    `module`, each solved as usual or, with `solving` off, read as
    infeasible."""
    calls, real = [], module.minimize

    def record(*args):
        calls.append(args)
        return real(*args) if solving else HighsResult("infeasible", "recorded")

    monkeypatch.setattr(module, "minimize", record)
    run()
    monkeypatch.undo()
    return calls


def _outcome(args):
    try:
        res = highs.minimize(*args)
    except AttributeError as exc:
        return str(exc)
    return (res.status, res.message, res.objective, res.nodes, res.dual_bound,
            res.gap, None if res.x is None else res.x.tobytes())


def test_the_highs_instance_carries_nothing_from_call_to_call(monkeypatch):
    # every call reuses one HiGHS instance; no model, solution or option of
    # one call may reach the next, so each model solves alike whatever ran
    # before it
    corpus = _recorded_calls(monkeypatch, solver, lambda: [
        solve(assemble(spec)) for spec in pinned_corpus()], solving=False)
    explored = _recorded_calls(monkeypatch, solver, lambda: run_exploration(
        *exploration_world(0, 15, 3)))
    # a gap-stopped solve under the time limit, with explore's options
    gapped = max(explored, key=lambda args: highs.minimize(*args).gap)
    assert highs.minimize(*gapped).gap > 0.0
    assert {"time_limit", "mip_rel_gap"} <= gapped[6].keys()
    [refused] = _recorded_calls(monkeypatch, solver,
                                lambda: solve(_model_error_model()))
    net = line_network(3, comm_cost=1.0)
    agents = AgentConfig(count=2, initial={0: "s0", 1: "s2"},
                         masters=frozenset({0}))
    spec = ProblemSpec(net=net, agents=agents, T=2, src=(0,), snk=(1,),
                       information_consistent=True)
    residual_lp = _recorded_calls(monkeypatch, verify,
                                  lambda: verify.brute_force_solve(spec))[0]
    assert {"presolve", "simplex_strategy", "output_flag"} <= residual_lp[6].keys()
    # options set before HiGHS refuses the last one must not outlive the call
    half_set = _knapsack_args({"mip_rel_gap": 0.5, "presolve": "off",
                               "simplex_strategy": 4, "time_limit": 1e-3,
                               "no_such_option": 1})
    specials = [gapped, refused, residual_lp, half_set]
    calls = []
    for i, args in enumerate(corpus):
        calls += [args, specials[i % len(specials)]]
    forward = [_outcome(args) for args in calls]
    backward = [_outcome(args) for args in reversed(calls)][::-1]
    assert forward == backward
    assert _outcome(refused)[0] == "error"
    assert "no_such_option" in _outcome(half_set)
    assert {outcome[0] for outcome in forward[::2]} == {"optimal", "infeasible"}


# -- LP text -------------------------------------------------------------------


def test_export_lp_sections(line4):
    _, spec = line4
    text = export_lp(assemble(spec))
    for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text


def _lp_sections(text: str) -> dict[str, list[str]]:
    """Indented body lines of each LP section, keyed by its heading."""
    sections: dict[str, list[str]] = {}
    body = None
    for line in text.splitlines():
        if line.startswith(" "):
            body.append(line)
        elif not line.startswith("\\"):
            body = sections.setdefault(line, [])
    return sections


def _check_lp_counts(model) -> None:
    """The LP text holds every variable, constraint and objective term of model."""
    sections = _lp_sections(export_lp(model))
    rows = [line for line in sections["Subject To"]
            if re.match(r" c\d+_\w+: ", line)]
    assert len(rows) == model.n_constraints
    assert [line.split(":")[0] for line in rows] == \
        [f" c{i}_{c[3]}" for i, c in enumerate(model.constraints)]
    binaries = [nm for line in sections["Binaries"] for nm in line.split()]
    assert len(binaries) == model.binary().sum()
    continuous = [line.split()[-1] for line in sections.get("Bounds", [])]
    names = binaries + continuous
    assert len(names) == len(set(names)) == model.n_variables
    [objective] = sections["Maximize"]
    head, *terms = objective.split()
    assert head == "obj:"
    assert len(terms) % 3 == 0      # "+|- coefficient name" per term
    assert len(terms) // 3 == len(model.objective) > 0


def test_lp_round_trip_preserves_counts(line4):
    _, spec = line4
    _check_lp_counts(assemble(spec))


def test_lp_round_trip_on_a_consistent_instance():
    _, spec = relay_spec(masters=(0,), information_consistent=True)
    _check_lp_counts(assemble(spec))

"""Instance files, solution files, and the command-line surface."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from icplan import baselines, cli, verify
from icplan.errors import ConfigurationError, InstanceError
from icplan.ilp import AgentConfig, ProblemSpec, assemble
from icplan.instances import (ORACLE_CLASSES, exploration_world, line_instance,
                               random_oracle_instance)
from icplan.io import (PLAN_KEYS, instance_to_dict, load_exploration,
                       load_instance, load_solution, save_instance,
                       save_solution, solution_to_dict)
from icplan.solver import solve_problem
from icplan.network import build_network

from _helpers import package_env, relay_spec


def _island_instance():
    """Two mutually unreachable states; delivering 0 -> 1 is impossible."""
    net = build_network(["a", "b"], [], [])
    agents = AgentConfig(count=2, initial={0: "a", 1: "b"})
    return net, ProblemSpec(net=net, agents=agents, T=1, src=(0,), snk=(1,))


# -- instance files ----------------------------------------------------------


def test_instance_round_trip_preserves_the_spec(tmp_path):
    net, spec = relay_spec(T=3, masters=(0,), static=(0,),
                           information_consistent=True,
                           collision_avoidance=True,
                           awareness_reward=True,
                           return_to_base=True,
                           rewards={("s3", 1): 4.0, ("s1", 2): 1.5})
    path = tmp_path / "relay.json"
    save_instance(path, net, spec, extras={"base": "s0"})
    net2, agents2, spec2, extras = load_instance(path)

    assert net2.states == net.states
    assert net2.mobility == net.mobility
    assert net2.comm == net.comm
    for field in ("T", "src", "snk", "rewards", "information_consistent",
                  "collision_avoidance", "awareness_reward", "return_to_base"):
        assert getattr(spec2, field) == getattr(spec, field), field
    assert spec2.agents == agents2 == spec.agents
    assert extras == {"base": "s0"}


def test_asymmetric_comm_edges_survive_the_round_trip(tmp_path):
    net = build_network(["a", "b"], [("a", "b", 2.0), ("b", "a", 2.0)],
                        [("a", "b", 1.5)])
    path = tmp_path / "net.json"
    save_instance(path, net)
    net2, agents, spec, extras = load_instance(path)
    assert agents is None and spec is None and extras == {}
    assert net2.comm == {("a", "b"): 1.5}
    assert net2.mobility == net.mobility


def test_agents_only_worlds_default_their_base_to_the_master(tmp_path):
    truth, agents, base = exploration_world(seed=2, n_states=10, n_agents=3)
    path = tmp_path / "world.json"
    save_instance(path, truth, agents=agents)
    net2, agents2, base2, known = load_exploration(path)
    assert base2 == base == agents.initial[0]
    assert known is None
    assert agents2 == agents

    save_instance(path, truth, agents=agents,
                  extras={"base": "s3", "initially_known": ["s0", "s3"]})
    _, _, base3, known3 = load_exploration(path)
    assert base3 == "s3"
    assert known3 == ["s0", "s3"]


def test_exploration_files_reject_bad_bases_and_missing_agents(tmp_path):
    truth, agents, _ = exploration_world(seed=2, n_states=10, n_agents=3)
    data = instance_to_dict(truth, agents=agents, extras={"base": "nowhere"})
    with pytest.raises(InstanceError, match="base"):
        load_exploration(data)
    with pytest.raises(InstanceError, match="agents"):
        load_exploration(instance_to_dict(truth))


def test_an_agents_section_without_a_problem_is_still_checked():
    # exploration worlds carry agents but no problem; their agents section
    # refuses what a problem's would
    truth, agents, _ = exploration_world(seed=2, n_states=10, n_agents=3)
    data = instance_to_dict(truth, agents=agents)
    data["agents"]["bogus"] = 1
    with pytest.raises(InstanceError, match="unknown key.*'agents'.*bogus"):
        load_instance(data)
    data["agents"] = "not a section"
    with pytest.raises(InstanceError, match="'agents' section must be an object"):
        load_instance(data)


def test_a_key_that_names_no_section_is_refused(tmp_path, capsys):
    # a misspelt section was dropped: this world loaded with base s0
    truth, agents, _ = exploration_world(seed=2, n_states=10, n_agents=3)
    data = instance_to_dict(truth, agents=agents, extras={"base": "s3"})
    data["exploraton"] = data.pop("exploration")
    for load in (load_instance, load_exploration):
        with pytest.raises(InstanceError,
                           match="unknown key.*'instance'.*exploraton"):
            load(data)
    world = tmp_path / "world.json"
    world.write_text(json.dumps(data))
    assert cli.main(["explore", "--instance", str(world)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key") and "exploraton" in err


_MALFORMED_EXPLORATION = [
    (5, "'exploration' section must be an object"),
    ([1], "'exploration' section must be an object"),
    ({"bas": "s0"}, "unknown key.*'exploration'.*bas"),
    ({"initially_known": "s0"}, "initially_known must be a JSON array"),
    ({"initially_known": None}, "initially_known must be a JSON array"),
    ({"initially_known": ["s0", "nowhere"]}, "initially_known must be a JSON array"),
    ({"initially_known": [["s0"]]}, "initially_known must be a JSON array"),
]


def test_load_instance_rejects_malformed_sources(tmp_path):
    with pytest.raises(InstanceError, match="cannot load"):
        load_instance(42)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(InstanceError, match="invalid JSON"):
        load_instance(garbled)
    with pytest.raises(InstanceError, match="cannot read file"):
        load_instance("{not json")          # text is a path, never JSON
    with pytest.raises(InstanceError, match="network"):
        load_instance({})
    net, spec = relay_spec()
    data = instance_to_dict(net, spec)
    del data["agents"]
    with pytest.raises(InstanceError, match="agents"):
        load_instance(data)
    data = instance_to_dict(net, spec)
    del data["agents"]["count"]
    with pytest.raises(InstanceError, match="malformed agents"):
        load_instance(data)
    data = instance_to_dict(net, spec)
    del data["problem"]["T"]
    with pytest.raises(InstanceError, match="malformed instance"):
        load_instance(data)
    data["problem"] = [2]
    with pytest.raises(InstanceError, match="'problem' section must be an object"):
        load_instance(data)
    data = instance_to_dict(net, spec)
    data["agents"]["initial"] = []
    with pytest.raises(InstanceError, match="malformed agents"):
        load_instance(data)
    data = instance_to_dict(net, spec)
    data["agents"]["initial"]["0"] = ["s0"]     # a list is no state name
    with pytest.raises(ConfigurationError, match="unknown state"):
        load_instance(data)
    for states in (5, "abc", [1, 2]):
        data = instance_to_dict(net, spec)
        data["network"]["states"] = states
        with pytest.raises(InstanceError, match="array of strings"):
            load_instance(data)
    for key in ("mobility_edges", "comm_edges"):
        data = instance_to_dict(net, spec)
        data["network"][key] = 5
        with pytest.raises(InstanceError, match=f"{key} must be a JSON array"):
            load_instance(data)
        for record in ({"from": ["x"], "to": "s1"}, {"from": "s0", "to": 1}):
            data = instance_to_dict(net, spec)
            data["network"][key].append(record)
            with pytest.raises(InstanceError, match=f"malformed edge record in {key}"):
                load_instance(data)
    # a number with a fractional part is refused, not truncated, and a
    # string or a boolean is refused, not converted; the CLI exits 3
    for section, key, value in (("problem", "T", 2.7), ("problem", "src", [0.5]),
                                ("problem", "snk", [2, 0.25]), ("agents", "count", 3.5),
                                ("agents", "static", [1.5]), ("agents", "masters", [0.1]),
                                ("problem", "T", "2"), ("problem", "T", True),
                                ("problem", "src", ["0"])):
        data = instance_to_dict(net, spec)
        data[section][key] = value
        with pytest.raises(InstanceError, match="expected an integer"):
            load_instance(data)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert cli.main(["solve", str(path)]) == cli.EXIT_ERROR
    # agent ids are object keys, so JSON strings, and must name integers
    for key in ("0.5", "a", ""):
        data = instance_to_dict(net, spec)
        data["agents"]["initial"][key] = data["agents"]["initial"].pop("0")
        with pytest.raises(InstanceError, match="expected an integer key"):
            load_instance(data)
    # flags must be JSON booleans, since bool("false") is True
    for section, key in (("problem", "information_consistent"),
                         ("problem", "collision_avoidance"),
                         ("problem", "awareness_reward"),
                         ("problem", "return_to_base"), ("network", "self_loops")):
        for value in ("false", 0):
            data = instance_to_dict(net, spec)
            data[section][key] = value
            with pytest.raises(InstanceError, match=f"'{key}' must be true or false"):
                load_instance(data)
    data = instance_to_dict(net, spec)
    data["problem"]["rewards"] = [{"state": "s1", "k": 1.5, "value": 2.0}]
    with pytest.raises(InstanceError, match="expected an integer"):
        load_instance(data)
    data["problem"]["rewards"][0]["k"] = 1.0          # integral: accepted
    data["problem"]["T"] = 2.0
    assert load_instance(data)[2].T == 2
    data = instance_to_dict(net, spec)
    data["network"]["mobility_edge"] = data["network"].pop("mobility_edges")
    with pytest.raises(InstanceError, match="unknown key.*'network'.*mobility_edge"):
        load_instance(data)
    data["network"] = ["s0"]
    with pytest.raises(InstanceError, match="'network' section must be an object"):
        load_instance(data)
    for section, message in _MALFORMED_EXPLORATION:
        data = instance_to_dict(net, spec)
        data["exploration"] = section
        with pytest.raises(InstanceError, match=message):
            load_instance(data)


@pytest.mark.parametrize("section", [5, {"base": ["s0"]}, {"initially_known": [1]}])
def test_cli_reports_malformed_exploration_sections(tmp_path, capsys, section):
    truth, agents, _ = exploration_world(seed=2, n_states=10, n_agents=3)
    data = instance_to_dict(truth, agents=agents)
    data["exploration"] = section
    world = tmp_path / "world.json"
    world.write_text(json.dumps(data))
    assert cli.main(["explore", "--instance", str(world)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    (b"5", "root must be an object"),
    (b'"network"', "root must be an object"),
    (b"\xff\xfe{", "cannot read"),                 # not UTF-8
])
def test_files_that_hold_no_json_object_are_rejected(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for load in (load_instance, load_exploration):
        for source in (path, str(path)):
            with pytest.raises(InstanceError, match=message):
                load(source)


@pytest.mark.parametrize("section, key, value", [
    ("agents", "frontier_capable", None),
    ("problem", "flow_orientation", "auto"),
    ("problem", "big_m", None),
    ("problem", "collision_pairs", None),
])
def test_files_naming_removed_settings_are_refused(tmp_path, capsys,
                                                   section, key, value):
    # an ignored key would solve another problem than the file describes
    net, spec = relay_spec()
    data = instance_to_dict(net, spec)
    data[section][key] = value
    with pytest.raises(InstanceError, match=key):
        load_instance(data)
    instance = tmp_path / "old.json"
    instance.write_text(json.dumps(data))
    assert cli.main(["solve", str(instance)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key") and key in err


def test_load_instance_accepts_dicts_and_files(tmp_path, monkeypatch):
    net, spec = relay_spec()
    data = instance_to_dict(net, spec)
    monkeypatch.chdir(tmp_path)
    save_instance("{relay}.json", net, spec)   # a name that opens like JSON text
    for source in (data, Path("{relay}.json"), "{relay}.json"):
        net2, _, spec2, _ = load_instance(source)
        assert net2.states == net.states
        assert spec2.T == spec.T


def test_cli_solves_a_file_whose_name_opens_with_a_brace(tmp_path, capsys,
                                                         monkeypatch):
    net, spec = relay_spec()
    monkeypatch.chdir(tmp_path)
    save_instance("{relay}.json", net, spec)
    assert cli.main(["solve", "{relay}.json"]) == cli.EXIT_OK
    assert "status=optimal" in capsys.readouterr().out


# -- CLI ------------------------------------------------------------------------


def test_cli_solve_writes_every_artifact(tmp_path, capsys):
    net, spec = relay_spec()
    instance = tmp_path / "relay.json"
    save_instance(instance, net, spec)
    sol, lp, dot = (tmp_path / n for n in ("plan.json", "model.lp", "net.dot"))
    code = cli.main(["solve", str(instance), "--out", str(sol),
                     "--lp-out", str(lp), "--dot-out", str(dot)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status=optimal" in out
    # the seconds of each stage, and the size HiGHS was given, next to nodes=
    model = assemble(spec)
    A, _, _ = model.matrix()
    sizes = re.search(r" wall=(\S+)s assemble=(\S+)s matrix=(\S+)s highs=(\S+)s "
                      r"extract=(\S+)s vars=(\d+) rows=(\d+) nonzeros=(\d+) nodes=",
                      out)
    assert sizes is not None, out
    wall, assemble_s, matrix_s, highs_s, extract_s = map(float, sizes.groups()[:5])
    assert 0.0 <= matrix_s + highs_s <= wall + 0.02     # each rounded to 0.01
    assert assemble_s >= 0.0 and extract_s >= 0.0
    assert [int(n) for n in sizes.groups()[5:]] == \
        [model.n_variables, model.n_constraints, A.nnz]
    assert lp.read_text().startswith("\\")
    assert dot.read_text().startswith("digraph")
    plan = load_solution(sol)
    assert not verify.check_dynamics(plan, spec)
    assert not verify.check_flows(plan, spec)


_CHATTY_SOLVE = """
import os, sys
from icplan import cli, solver
minimize = solver.minimize

def chatty(*args):
    os.write(1, b"solver chatter\\n")       # past sys.stdout, as a C printf
    return minimize(*args)

solver.minimize = chatty
sys.exit(cli.main(["solve", sys.argv[1]]))
"""


def test_cli_solve_stdout_carries_no_solver_chatter(tmp_path):
    # HiGHS can write a line straight to fd 1, log_to_console off or not;
    # here every solve writes one, and none may reach stdout
    path = tmp_path / "c1.json"
    save_instance(path, *random_oracle_instance(6, "p2_awareness"))
    run = subprocess.run([sys.executable, "-c", _CHATTY_SOLVE, str(path)],
                         env=package_env(), capture_output=True, text=True)
    assert run.returncode == cli.EXIT_OK
    assert run.stdout.startswith("status=optimal ")
    assert len(run.stdout.splitlines()) == 1


def test_cli_solve_reports_infeasibility(tmp_path):
    net, spec = _island_instance()
    instance = tmp_path / "island.json"
    save_instance(instance, net, spec)
    assert cli.main(["solve", str(instance)]) == cli.EXIT_INFEASIBLE


def test_cli_solve_supports_the_baseline_methods(tmp_path, capsys):
    # their plans carry a flow certificate, so `verify` accepts them
    for net, spec in (relay_spec(), line_instance(4)):
        instance, sol = tmp_path / "instance.json", tmp_path / "plan.json"
        save_instance(instance, net, spec)
        for method in ("adaptive", "powerset"):
            assert cli.main(["solve", str(instance), "--method", method,
                             "--out", str(sol)]) == cli.EXIT_OK
            assert "rounds=" in capsys.readouterr().out
            assert cli.main(["verify", str(instance), str(sol)]) == cli.EXIT_OK
            assert capsys.readouterr().out.endswith("verification: ok\n")


def test_adaptive_solve_prints_the_wall_time_of_every_round(tmp_path, capsys,
                                                            monkeypatch):
    # the stage fields are the last round's, wall= is the whole run's
    instance = tmp_path / "line5.json"
    save_instance(instance, *line_instance(5))
    real_solve, rounds = baselines.solve, []

    def timed_solve(*args, **kwargs):
        result = real_solve(*args, **kwargs)
        rounds.append(result.wall_time)
        return result

    monkeypatch.setattr(baselines, "solve", timed_solve)
    assert cli.main(["solve", str(instance), "--method", "adaptive"]) == \
        cli.EXIT_OK
    out = capsys.readouterr().out
    assert len(rounds) > 1 and f"rounds={len(rounds)} " in out
    assert f" wall={sum(rounds):.2f}s " in out


def test_cli_solve_errors_cleanly_on_guard_refusal(tmp_path, capsys):
    net, spec = relay_spec(n=6, T=4)
    instance = tmp_path / "big.json"
    save_instance(instance, net, spec)
    code = cli.main(["solve", str(instance), "--method", "powerset"])
    assert code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_cli_verify_accepts_good_plans_and_flags_bad_ones(tmp_path, capsys):
    net, spec = relay_spec()
    instance = tmp_path / "relay.json"
    save_instance(instance, net, spec)
    sol = tmp_path / "plan.json"
    assert cli.main(["solve", str(instance), "--out", str(sol)]) == cli.EXIT_OK
    assert cli.main(["verify", str(instance), str(sol)]) == cli.EXIT_OK
    assert "verification: ok" in capsys.readouterr().out

    data = json.loads(sol.read_text())
    data["paths"]["0"] = ["s0", "s3", "s0"]     # teleport
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["verify", str(instance), str(bad)]) == \
        cli.EXIT_VERIFICATION
    out = capsys.readouterr().out
    assert "violation:" in out


@pytest.mark.parametrize("content", [
    None, "{not json", "[1,2]", '{"paths": []}',
    # wrong JSON types: each once loaded, then crashed the checker or was
    # read as something else (a layer of 0.5 as 0, a string as its letters)
    '{"paths": {"0": [["s0"], "s0", "s0"]}}',
    '{"paths": {"0": "s0s0s1"}}',
    '{"paths": {}, "comm_events": [[0, ["s0"], "s1", 0, 1.0]]}',
    '{"paths": {}, "comm_events": [[0.5, "s0", "s1", 0, 1.0]]}',
    '{"paths": {}, "comm_events": [["0", "s0", "s1", 0, 1.0]]}',
    '{"paths": {"0.5": ["s0"]}}',
    '{"paths": {}, "flow_moves": [[0, "s0", "s1", [0], 1.0]]}',
])
def test_cli_verify_reports_unreadable_plan_files(tmp_path, capsys, content):
    net, spec = relay_spec()
    instance, sol = tmp_path / "relay.json", tmp_path / "plan.json"
    save_instance(instance, net, spec)
    if content is not None:
        sol.write_text(content)
    assert cli.main(["verify", str(instance), str(sol)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_a_plan_key_that_names_nothing_is_refused(tmp_path, capsys):
    # a misspelt "comm_events" once loaded as a plan with no comm events,
    # and the verifier reported the flow imbalances that followed
    net, spec = relay_spec()
    instance, sol = tmp_path / "relay.json", tmp_path / "plan.json"
    save_instance(instance, net, spec)
    sol.write_text(json.dumps({"paths": {"0": ["s0"]},
                               "comm_event": [[0, "s0", "s1", 0, 1.0]]}))
    assert cli.main(["verify", str(instance), str(sol)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key") and "comm_event" in err


def test_every_saved_plan_loads_as_it_was(tmp_path):
    # the plan keys a loader accepts are exactly those a plan file is saved
    # with, for MILP, baseline and reward-flagged plans alike
    specs = [line_instance(n)[1] for n in (3, 4, 5)] + [
        random_oracle_instance(seed, klass)[1] for seed in range(3)
        for klass in ORACLE_CLASSES]
    plans = [solve_problem(spec)[2] for spec in specs]
    plans.append(baselines.solve_powerset(line_instance(4)[1]).plan)
    assert all(plans) and any(plan.reward_flags for plan in plans)
    path = tmp_path / "plan.json"
    for plan in plans:
        assert solution_to_dict(plan).keys() == PLAN_KEYS
        save_solution(plan, path)
        assert load_solution(path) == plan


def _cut_path(data, T):
    data["paths"]["0"] = data["paths"]["0"][:-1]
    return "agent 0: path length"


def _late_event(data, T):
    data["comm_events"].append([T + 1] + data["comm_events"][0][1:])
    return f"at t={T + 1} outside layers 0..{T}"


def _early_event(data, T):
    data["comm_events"].append([-1] + data["comm_events"][0][1:])
    return f"at t=-1 outside layers 0..{T}"


@pytest.mark.parametrize("corrupt", [_cut_path, _late_event, _early_event])
def test_cli_verify_reports_malformed_plans(tmp_path, capsys, corrupt):
    # the flow and reachability checks index layers by the plan's paths and
    # events, so a plan that fails the dynamics check stops there
    net, spec = line_instance(4)
    instance, sol = tmp_path / "line4.json", tmp_path / "plan.json"
    save_instance(instance, net, spec)
    assert cli.main(["solve", str(instance), "--out", str(sol)]) == cli.EXIT_OK
    data = json.loads(sol.read_text())
    expected = corrupt(data, spec.T)
    sol.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["verify", str(instance), str(sol)]) == \
        cli.EXIT_VERIFICATION
    violations = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("violation:")]
    assert len(violations) == 1 and expected in violations[0]


def test_cli_cluster_writes_json_and_dot(tmp_path, capsys):
    truth, agents, _ = exploration_world(seed=4, n_states=14, n_agents=4)
    instance = tmp_path / "world.json"
    save_instance(instance, truth, agents=agents)
    out, dot = tmp_path / "clusters.json", tmp_path / "clusters.dot"
    code = cli.main(["cluster", str(instance), "--k", "2",
                     "--out", str(out), "--dot-out", str(dot)])
    assert code == cli.EXIT_OK
    assert "clusters=" in capsys.readouterr().out
    text = out.read_text()
    assert "clusters" in json.loads(text)
    assert text.endswith("}\n")                   # one newline, no blank line
    assert dot.read_text().startswith("digraph")
    save_instance(instance, truth)                  # no agents to cluster
    assert cli.main(["cluster", str(instance)]) == cli.EXIT_ERROR
    assert "no 'agents' section" in capsys.readouterr().err


def test_cli_explore_runs_synthetic_and_file_worlds(tmp_path, capsys):
    log_path = tmp_path / "log.json"
    code = cli.main(["explore", "--seed", "0", "--n-states", "12",
                     "--n-agents", "3", "--out", str(log_path)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "status=complete" in out
    assert out.startswith("cycle 1: clusters=") and " slowest_solve=" in out
    assert " plan=" in out and " pre=" in out and " post=" in out
    cycle_lines = [line for line in out.splitlines() if line.startswith("cycle ")]
    assert [line.rsplit(" ", 1)[1] for line in cycle_lines] == (
        ["end=continue"] * (len(cycle_lines) - 1) + ["end=complete"])
    log = json.loads(log_path.read_text())
    assert log["status"] == "complete"
    assert log["coverage"] == 1.0

    truth, agents, _ = exploration_world(seed=6, n_states=10, n_agents=2)
    instance = tmp_path / "world.json"
    save_instance(instance, truth, agents=agents)
    assert cli.main(["explore", "--instance", str(instance)]) == cli.EXIT_OK


def test_cli_explore_signals_cut_short_runs(tmp_path):
    code = cli.main(["explore", "--seed", "0", "--n-states", "16",
                     "--n-agents", "3", "--max-cycles", "1"])
    assert code == cli.EXIT_STALL


def test_cli_explore_log_level_debug_describes_each_pre_solve():
    argv = [sys.executable, "-m", "icplan.cli", "explore", "--seed", "0",
            "--n-states", "20", "--n-agents", "4", "--max-cycles", "1"]
    runs = [subprocess.run(argv + extra, env=package_env(),
                           capture_output=True, text=True)
            for extra in ([], ["--log-level", "DEBUG"])]
    assert [run.returncode for run in runs] == [cli.EXIT_STALL] * 2
    assert runs[0].stderr == ""
    assert runs[1].stdout == runs[0].stdout
    records = runs[1].stderr.splitlines()
    assert records[0].startswith("DEBUG icplan.explore: cycle 1: k=")
    assert any(r.startswith("DEBUG icplan.explore: pre c1 depth=0 ")
               for r in records)


def test_cli_time_limit_is_only_on_solve_and_bench(capsys):
    # explore's loop always uses explore.SOLVE_TIME_LIMIT
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", "--time-limit", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --time-limit 5" in capsys.readouterr().err
    parser = cli._build_parser()
    assert parser.parse_args(["solve", "x.json", "--time-limit", "5"]).time_limit == 5
    assert parser.parse_args(["bench", "--time-limit", "5"]).time_limit == 5


def test_cli_bench_emits_csv_with_guard_refusals(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--methods", "flow,powerset",
                     "--n-range", "4:5", "--out", str(out)])
    assert code == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["N"]) for r in rows] == \
        [("flow", "4"), ("powerset", "4"), ("flow", "5"), ("powerset", "5")]
    by_key = {(r["method"], r["N"]): r for r in rows}
    assert by_key[("flow", "4")]["status"] == "optimal"
    assert by_key[("flow", "4")]["objective"] == "-1"
    assert by_key[("powerset", "5")]["status"] == "refused"
    assert by_key[("powerset", "5")]["objective"] == ""


def test_cli_bench_rejects_unknown_methods(capsys):
    assert cli.main(["bench", "--methods", "magic"]) == cli.EXIT_ERROR
    assert "unknown bench method" in capsys.readouterr().err


def test_cli_reports_missing_files_as_errors(capsys):
    assert cli.main(["solve", "/no/such/instance.json"]) == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "{relay}", "--out", "{bad}"],
    ["solve", "{relay}", "--lp-out", "{bad}"],
    ["solve", "{relay}", "--dot-out", "{bad}"],
    ["cluster", "{world}", "--out", "{bad}"],
    ["bench", "--methods", "flow", "--n-range", "4", "--out", "{bad}"],
    ["explore", "--seed", "0", "--n-states", "12", "--n-agents", "3",
     "--max-cycles", "1", "--out", "{bad}"],
    ["explore", "--seed", "0", "--n-states", "12", "--n-agents", "3",
     "--max-cycles", "1", "--trace-dir", "{relay}"],      # a file, not a dir
])
def test_cli_reports_failed_writes_as_errors(tmp_path, capsys, argv):
    net, spec = relay_spec()
    save_instance(tmp_path / "relay.json", net, spec)
    truth, agents, _ = exploration_world(seed=4, n_states=14, n_agents=4)
    save_instance(tmp_path / "world.json", truth, agents=agents)
    paths = {"relay": tmp_path / "relay.json", "world": tmp_path / "world.json",
             "bad": tmp_path / "nodir" / "out"}
    assert cli.main([arg.format(**paths) for arg in argv]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write") and "Traceback" not in err
    # explore and bench check their outputs before the first cycle or solve
    assert not any(line.startswith("cycle") for line in out.splitlines())


def test_n_range_grammar():
    assert cli._parse_n_range("4:12:2") == [4, 6, 8, 10, 12]
    assert cli._parse_n_range("4:6") == [4, 5, 6]
    assert cli._parse_n_range("3,7,9") == [3, 7, 9]


@pytest.mark.parametrize("text", ["4:x", "4:12:0", "1"])
def test_cli_bench_rejects_a_bad_n_range(capsys, text):
    # malformed text, a zero step and N < 2 are input errors
    assert cli.main(["bench", "--n-range", text]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--n-range" in err

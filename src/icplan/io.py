"""File formats: instance, network and plan JSON, and the file writers.

An instance is one JSON document holding network, agents, problem::

    {
      "network": {
        "states": ["s0", ...],
        "mobility_edges": [{"from": "s0", "to": "s1", "weight": 1.0}, ...],
        "comm_edges":     [{"from": "s0", "to": "s1", "weight": 0.0}, ...],
        "self_loops": true
      },
      "agents": {
        "count": 3,
        "initial": {"0": "s0", "1": "s2", "2": "s3"},
        "static": [0],
        "masters": [0]
      },
      "problem": {
        "T": 2, "src": [0], "snk": [1, 2],
        "rewards": [{"state": "s3", "k": 1, "value": 10.0}],
        "information_consistent": true,
        "collision_avoidance": false,
        "awareness_reward": false,
        "return_to_base": false
      },
      "exploration": {"base": "s0", "initially_known": ["s0", "s1"]}
    }

"problem" requires "agents"; "agents" may stand alone (exploration worlds
carry agents and an "exploration" section but no problem). "exploration" is
optional everywhere.  The document and every section refuse a key this
layout does not name.  A plan file holds a `PlanSolution`'s paths, events,
objective and reward flags, and refuses any other key.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import InstanceError
from .ilp import AgentConfig, ProblemSpec
from .network import MobilityCommNetwork, build_network
from .verify import PlanSolution

INSTANCE_KEYS = frozenset({"network", "agents", "problem", "exploration"})
NETWORK_KEYS = frozenset({"states", "mobility_edges", "comm_edges", "self_loops"})
AGENT_KEYS = frozenset({"count", "initial", "static", "masters"})
PROBLEM_KEYS = frozenset({"T", "src", "snk", "rewards", "information_consistent",
                          "collision_avoidance", "awareness_reward",
                          "return_to_base"})
EXPLORATION_KEYS = frozenset({"base", "initially_known"})
PLAN_KEYS = frozenset({"paths", "comm_events", "flow_moves", "objective",
                       "reward_flags"})


def load_instance(source):
    """Read (net, agents, spec, extras) from a dict or a file path, each
    section once; agents or spec is None when its section is absent."""
    data = _read_json_object(source)
    _refuse_unknown_keys("instance", data, INSTANCE_KEYS)
    if "network" not in data:
        raise InstanceError("instance is missing the 'network' section")
    net = load_network(data["network"])
    agents = _parse_agents(data["agents"]) if "agents" in data else None
    spec = None
    if "problem" in data:
        if agents is None:
            raise InstanceError("'problem' requires an 'agents' section")
        spec = _parse_spec(net, agents, data["problem"])
    extras = data.get("exploration", {})
    _refuse_unknown_keys("exploration", extras, EXPLORATION_KEYS)
    known = extras.get("initially_known", [])
    if not isinstance(known, list) or not all(map(net.has_state, known)):
        raise InstanceError("initially_known must be a JSON array of the network's states")
    return net, agents, spec, dict(extras)


def load_exploration(source):
    """Read (net, agents, base, initially_known) for exploration worlds.

    The base defaults to the master's initial state when the "exploration"
    section does not name one.
    """
    net, agents, _, extras = load_instance(source)
    if agents is None:
        raise InstanceError("exploration worlds need an 'agents' section")
    base = extras.get("base")
    if base is None:
        base = agents.initial[agents.anchor()]
    if not net.has_state(base):
        raise InstanceError(f"exploration base {base!r} is not a state")
    return net, agents, base, extras.get("initially_known")


def load_network(data: dict) -> MobilityCommNetwork:
    """Parse the "network" section of an instance."""
    _refuse_unknown_keys("network", data, NETWORK_KEYS)
    if "states" not in data:
        raise InstanceError("instance missing 'states'")
    states = data["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InstanceError("states must be a JSON array of strings")

    def read_edges(key):
        records = data.get(key, [])
        if not isinstance(records, list):
            raise InstanceError(f"{key} must be a JSON array of edge records")
        out = []
        for rec in records:
            try:
                edge = (rec["from"], rec["to"], float(rec.get("weight", 0.0)))
                named = isinstance(edge[0], str) and isinstance(edge[1], str)
            except (KeyError, TypeError, ValueError):
                named = False
            if not named:           # endpoints are state names
                raise InstanceError(f"malformed edge record in {key}: {rec!r}")
            out.append(edge)
        return out

    return build_network(
        states,
        read_edges("mobility_edges"),
        read_edges("comm_edges"),
        self_loops=_json_flag(data, "self_loops", True),
    )


def _parse_agents(agents_data) -> AgentConfig:
    """Parse the "agents" section into an AgentConfig."""
    _refuse_unknown_keys("agents", agents_data, AGENT_KEYS)
    try:
        return AgentConfig(
            count=_json_integer(agents_data["count"]),
            initial={_json_key_integer(r): s for r, s in agents_data["initial"].items()},
            static=frozenset(map(_json_integer, agents_data.get("static", []))),
            masters=frozenset(map(_json_integer, agents_data.get("masters", []))))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed agents section: {exc}") from None


def _parse_spec(net: MobilityCommNetwork, agents: AgentConfig, problem) -> ProblemSpec:
    _refuse_unknown_keys("problem", problem, PROBLEM_KEYS)
    try:
        rewards = {(rec["state"], _json_integer(rec["k"])): float(rec["value"])
                   for rec in problem.get("rewards", [])}
        spec = ProblemSpec(
            net=net, agents=agents, T=_json_integer(problem["T"]),
            src=tuple(map(_json_integer, problem.get("src", []))),
            snk=tuple(map(_json_integer, problem.get("snk", []))),
            rewards=rewards,
            information_consistent=_json_flag(problem, "information_consistent", False),
            collision_avoidance=_json_flag(problem, "collision_avoidance", False),
            awareness_reward=_json_flag(problem, "awareness_reward", False),
            return_to_base=_json_flag(problem, "return_to_base", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed instance: {exc}") from None
    spec.validate()
    return spec


def network_to_dict(net: MobilityCommNetwork) -> dict:
    def dump(edges):
        return [{"from": a, "to": b, "weight": w} for (a, b), w in edges.items()]

    return {
        "states": list(net.states),
        "mobility_edges": dump(net.mobility),
        "comm_edges": dump(net.comm),
        "self_loops": False,   # loops are already explicit in the edge list
    }


def agents_to_dict(agents: AgentConfig) -> dict:
    return {
        "count": agents.count,
        "initial": {str(r): s for r, s in sorted(agents.initial.items())},
        "static": sorted(agents.static),
        "masters": sorted(agents.masters),
    }


def instance_to_dict(net: MobilityCommNetwork, spec: ProblemSpec | None = None,
                     extras: dict | None = None,
                     agents: AgentConfig | None = None) -> dict:
    data: dict = {"network": network_to_dict(net)}
    if spec is not None:
        agents = spec.agents
    if agents is not None:
        data["agents"] = agents_to_dict(agents)
    if spec is not None:
        data["problem"] = {
            "T": spec.T,
            "src": list(spec.src),
            "snk": list(spec.snk),
            "rewards": [{"state": s, "k": k, "value": v}
                        for (s, k), v in spec.sorted_rewards()],
            "information_consistent": spec.information_consistent,
            "collision_avoidance": spec.collision_avoidance,
            "awareness_reward": spec.awareness_reward,
            "return_to_base": spec.return_to_base,
        }
    if extras:
        data["exploration"] = extras
    return data


def save_instance(path, net: MobilityCommNetwork, spec: ProblemSpec | None = None,
                  extras: dict | None = None, agents: AgentConfig | None = None):
    write_json(path, instance_to_dict(net, spec, extras, agents))


def solution_to_dict(plan: PlanSolution) -> dict:
    return {
        "paths": {str(r): list(path) for r, path in sorted(plan.paths.items())},
        "comm_events": [list(ev) for ev in plan.comm_events],
        "flow_moves": [list(ev) for ev in plan.flow_moves],
        "objective": plan.objective,
        "reward_flags": [{"state": s, "k": k, "value": v}
                         for (s, k), v in sorted(plan.reward_flags.items())],
    }


def solution_from_dict(data: dict) -> PlanSolution:
    _refuse_unknown_keys("plan", data, PLAN_KEYS)
    try:
        paths = {_json_key_integer(r): _path(path) for r, path in data["paths"].items()}
        comm = tuple(map(_event, data.get("comm_events", [])))
        moves = tuple(map(_event, data.get("flow_moves", [])))
        rewards = {(rec["state"], _json_integer(rec["k"])): _json_integer(rec["value"])
                   for rec in data.get("reward_flags", [])}
        return PlanSolution(paths=paths, comm_events=comm, flow_moves=moves,
                            objective=float(data.get("objective", 0.0)),
                            reward_flags=rewards)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed solution: {exc}") from None


def _path(path) -> tuple[str, ...]:
    if not isinstance(path, list) or not all(isinstance(s, str) for s in path):
        raise InstanceError(f"a path must be an array of state names, got {path!r}")
    return tuple(path)


def _event(event) -> tuple:
    """(t, from, to, flow_id, amount); a flow id is an agent index or a tag."""
    t, a, b, fid, amount = event
    if not (isinstance(a, str) and isinstance(b, str)):
        raise InstanceError(f"event endpoints must be state names, got {event!r}")
    if not isinstance(fid, str):
        fid = _json_integer(fid)
    elif fid.lstrip("-").isdigit():
        fid = _json_key_integer(fid)
    return _json_integer(t), a, b, fid, float(amount)


def save_solution(plan: PlanSolution, path: str):
    write_json(path, solution_to_dict(plan))


def load_solution(path: str) -> PlanSolution:
    return solution_from_dict(_read_json_object(path))


def _json_integer(value) -> int:
    """`value`, a JSON number with no fractional part, as an int.  Anything
    else is refused rather than converted, so that "T": 2.7 does not solve a
    T=2 problem, nor "T": "2" or "T": true a T=2 or T=1 one."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise InstanceError(f"expected an integer, got {value!r}")
    return int(value)


def _json_key_integer(key: str) -> int:
    """An object key, which JSON makes a string, that names an integer
    (an agent id): "0" is 0, "0.5" and "a" are refused."""
    if not isinstance(key, str) or not re.fullmatch(r"-?[0-9]+", key):
        raise InstanceError(f"expected an integer key, got {key!r}")
    return int(key)


def _json_flag(data: dict, key: str, default: bool) -> bool:
    """data[key], which must be a JSON boolean: bool("false") is True."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise InstanceError(f"{key!r} must be true or false, got {value!r}")
    return value


def _refuse_unknown_keys(section: str, data, accepted: frozenset):
    """A key this format does not define would otherwise be ignored, and the
    file solved as another problem than its author meant."""
    if not isinstance(data, dict):
        raise InstanceError(f"the {section!r} section must be an object")
    unknown = sorted(set(data) - accepted)
    if unknown:
        raise InstanceError(f"unknown key(s) in {section!r}: {', '.join(unknown)}")


def _read_json_object(source) -> dict:
    """The JSON object in a dict, or in the file at a str or Path path."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, Path)):
        raise InstanceError(f"cannot load JSON from {type(source).__name__}")
    try:
        text = Path(source).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read file {str(source)!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError("JSON root must be an object")
    return data


def write_text(path, text: str):
    """Write `text` to the file at `path` as given, line ends included; a
    failed write is an InstanceError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceError(f"cannot write {str(path)!r}: {exc}") from None


def check_writable(path):
    """Fail now, as `write_text` would after the work, when `path` cannot be
    opened for writing; an existing file keeps its contents."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise InstanceError(f"cannot write {str(path)!r}: {exc}") from None


def write_json(path, data):
    """Write `data` as indented, key-sorted JSON and a final newline."""
    write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")

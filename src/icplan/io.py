"""Instance file format: one JSON document holding network, agents, problem.

Layout::

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
optional everywhere.  Every section refuses a key this layout does not name.
"""

from __future__ import annotations

from .errors import InstanceError
from .ilp import AgentConfig, ProblemSpec
from .network import (MobilityCommNetwork, json_flag, json_integer, json_key_integer,
                      load_network, read_json_object, refuse_unknown_keys,
                      write_json)

AGENT_KEYS = frozenset({"count", "initial", "static", "masters"})
PROBLEM_KEYS = frozenset({"T", "src", "snk", "rewards", "information_consistent",
                          "collision_avoidance", "awareness_reward",
                          "return_to_base"})
EXPLORATION_KEYS = frozenset({"base", "initially_known"})


def load_instance(source):
    """Read (net, spec_or_None, extras) from a dict or a file path."""
    data = read_json_object(source)
    if "network" not in data:
        raise InstanceError("instance is missing the 'network' section")
    if not isinstance(data["network"], dict):      # a string would name a file
        raise InstanceError("the 'network' section must be an object")
    net = load_network(data["network"])
    spec = None
    if "problem" in data:
        if "agents" not in data:
            raise InstanceError("'problem' requires an 'agents' section")
        spec = _parse_spec(net, data["agents"], data["problem"])
    extras = data.get("exploration", {})
    refuse_unknown_keys("exploration", extras, EXPLORATION_KEYS)
    known = extras.get("initially_known", [])
    if not isinstance(known, list) or not all(map(net.has_state, known)):
        raise InstanceError("initially_known must be a JSON array of the network's states")
    return net, spec, dict(extras)


def load_agents(agents_data: dict) -> AgentConfig:
    """Parse the "agents" section into an AgentConfig."""
    refuse_unknown_keys("agents", agents_data, AGENT_KEYS)
    try:
        return AgentConfig(
            count=json_integer(agents_data["count"]),
            initial={json_key_integer(r): s for r, s in agents_data["initial"].items()},
            static=frozenset(map(json_integer, agents_data.get("static", []))),
            masters=frozenset(map(json_integer, agents_data.get("masters", []))))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed agents section: {exc}") from None


def load_exploration(source):
    """Read (net, agents, base, initially_known) for exploration worlds.

    The base defaults to the master's initial state when the "exploration"
    section does not name one.
    """
    data = read_json_object(source)
    net, _, extras = load_instance(data)
    if "agents" not in data:
        raise InstanceError("exploration worlds need an 'agents' section")
    agents = load_agents(data["agents"])
    base = extras.get("base")
    if base is None:
        base = agents.initial[agents.anchor()]
    if not net.has_state(base):
        raise InstanceError(f"exploration base {base!r} is not a state")
    return net, agents, base, extras.get("initially_known")


def _parse_spec(net: MobilityCommNetwork, agents_data: dict, problem: dict) -> ProblemSpec:
    agents = load_agents(agents_data)
    refuse_unknown_keys("problem", problem, PROBLEM_KEYS)
    try:
        rewards = {(rec["state"], json_integer(rec["k"])): float(rec["value"])
                   for rec in problem.get("rewards", [])}
        spec = ProblemSpec(
            net=net, agents=agents, T=json_integer(problem["T"]),
            src=tuple(map(json_integer, problem.get("src", []))),
            snk=tuple(map(json_integer, problem.get("snk", []))),
            rewards=rewards,
            information_consistent=json_flag(problem, "information_consistent", False),
            collision_avoidance=json_flag(problem, "collision_avoidance", False),
            awareness_reward=json_flag(problem, "awareness_reward", False),
            return_to_base=json_flag(problem, "return_to_base", False))
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

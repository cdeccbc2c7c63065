"""Instance generators: benchmark families, oracle corpora and worlds."""

from __future__ import annotations

import math
import random

from .ilp import AgentConfig, ProblemSpec
from .network import MobilityCommNetwork, build_network, count_walks

ORACLE_CLASSES = ("p1", "p2", "p2_collision", "p2_awareness")


def line_instance(n_states: int):
    """Relay benchmark on a line: three agents must all hear from each other.

    States s0..s{n-1} with bidirectional unit-cost mobility between
    neighbours, free self-loops, and free communication between neighbours.
    Agents sit at the two ends and the middle; every agent is both source
    and sink.  The horizon ceil(n/2) is enough to form a relay chain.
    """
    if n_states < 2:
        raise ValueError("line needs at least 2 states")
    states = [f"s{i}" for i in range(n_states)]
    mobility, comm = [], []
    for i in range(n_states - 1):
        a, b = states[i], states[i + 1]
        mobility += [(a, b, 1.0), (b, a, 1.0)]
        comm += [(a, b, 0.0), (b, a, 0.0)]
    net = build_network(states, mobility, comm, self_loops=True)
    mid = math.ceil(n_states / 2)
    agents = AgentConfig(count=3, initial={0: states[0],
                                           1: states[min(mid, n_states - 1)],
                                           2: states[-1]})
    spec = ProblemSpec(net=net, agents=agents, T=mid, src=(0, 1, 2),
                       snk=(0, 1, 2), rewards={})
    return net, spec


def _random_network(rng: random.Random, n_states: int,
                    comm_cost_range=(0.0, 0.0), mobility_cost_range=(1.0, 3.0),
                    extra_edge_factor: float = 0.6,
                    mirror_comm: bool = True) -> MobilityCommNetwork:
    """Connected random network: random tree plus extra directed edges."""
    states = [f"s{i}" for i in range(n_states)]
    edges = set()
    for i in range(1, n_states):
        j = rng.randrange(i)
        edges.add((states[j], states[i]))
        edges.add((states[i], states[j]))
    n_extra = int(extra_edge_factor * n_states)
    for _ in range(n_extra):
        a, b = rng.sample(states, 2)
        edges.add((a, b))
        if rng.random() < 0.7:
            edges.add((b, a))

    def cost(lo, hi):
        return round(rng.uniform(lo, hi), 3) if hi > lo else lo

    mobility = [(a, b, cost(*mobility_cost_range)) for (a, b) in sorted(edges)]
    comm = []
    for (a, b) in sorted(edges):
        if mirror_comm or rng.random() < 0.8:
            comm.append((a, b, cost(*comm_cost_range)))
    return build_network(states, mobility, comm, self_loops=True)


def random_oracle_instance(seed: int, klass: str):
    """Small random instance for oracle-vs-solver comparison.

    Sized so the joint path count stays within the brute-force guard:
    at most 5 states, 3 agents and horizon 3.
    """
    if klass not in ORACLE_CLASSES:
        raise ValueError(f"unknown class {klass!r}")
    rng = random.Random(f"{seed}:{klass}")
    for attempt in range(200):
        n_states = rng.randint(3, 5)
        n_agents = rng.randint(2, 3)
        T = rng.randint(0 if klass == "p1" else 1, 3)
        costed_comm = rng.random() < 0.5
        net = _random_network(
            rng, n_states,
            comm_cost_range=(1.0, 4.0) if costed_comm else (0.0, 0.0),
            mobility_cost_range=(1.0, 3.0),
            extra_edge_factor=rng.uniform(0.2, 1.0),
            mirror_comm=rng.random() < 0.6)

        if klass == "p2_collision":
            if n_agents > n_states:
                continue
            initial = dict(enumerate(rng.sample(net.states, n_agents)))
        else:
            initial = {r: rng.choice(net.states) for r in range(n_agents)}
        masters = frozenset({0}) if klass != "p1" else frozenset()
        agents = AgentConfig(count=n_agents, initial=initial, masters=masters)

        rewards = {}
        for _ in range(rng.randint(0, 2)):
            s = rng.choice(net.states)
            k = rng.randint(1, 2)
            rewards[(s, k)] = float(rng.randint(2, 12))
        if klass == "p2_awareness" and not rewards:
            rewards[(rng.choice(net.states), 1)] = float(rng.randint(2, 12))

        n_src = rng.randint(1, n_agents)
        n_snk = rng.randint(1, n_agents)
        src = tuple(sorted(rng.sample(range(n_agents), n_src)))
        snk = tuple(sorted(rng.sample(range(n_agents), n_snk)))

        spec = ProblemSpec(
            net=net, agents=agents, T=T, src=src, snk=snk, rewards=rewards,
            information_consistent=klass != "p1",
            collision_avoidance=klass == "p2_collision",
            awareness_reward=klass == "p2_awareness")
        budget = 900 if (klass != "p1" and costed_comm) else 8000
        if _joint_path_count(net, agents, T) <= budget:
            return net, spec
    raise RuntimeError(f"no instance within budget for seed={seed} class={klass}")


def _joint_path_count(net, agents, T):
    total = 1
    for r in range(agents.count):
        total *= max(count_walks(net, agents.initial[r], T), 1)
    return total


def random_cluster_graph(seed: int):
    """Random connected world for clustering: 20-200 states, 4-12 agents."""
    rng = random.Random(seed)
    n_states = rng.randint(20, 200)
    n_agents = rng.randint(4, 12)
    net = _random_network(rng, n_states,
                          comm_cost_range=(0.0, 0.0),
                          mobility_cost_range=(1.0, 5.0),
                          extra_edge_factor=rng.uniform(0.2, 0.8))
    initial = {r: rng.choice(net.states) for r in range(n_agents)}
    agents = AgentConfig(count=n_agents, initial=initial,
                         masters=frozenset({0}), static=frozenset({0}))
    return net, agents


def exploration_world(seed: int = 0, n_states: int = 100, n_agents: int = 10):
    """World for the exploration loop: truth network, agents at a base state.

    The truth is a connected bidirectional graph (random tree plus chords);
    communication mirrors mobility at zero cost.  All agents start at the
    base; agent 0 is the static master.  Returns (net, agents, base).
    """
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n_states)]
    edges = set()
    for i in range(1, n_states):
        j = rng.randrange(i)    # uniform attachment keeps the diameter low
        edges.add((states[j], states[i]))
        edges.add((states[i], states[j]))
    for _ in range(n_states // 4):
        a, b = rng.sample(states, 2)
        edges.add((a, b))
        edges.add((b, a))
    mobility = [(a, b, 1.0) for (a, b) in sorted(edges)]
    comm = [(a, b, 0.0) for (a, b) in sorted(edges)]
    net = build_network(states, mobility, comm, self_loops=True)
    base = states[0]
    agents = AgentConfig(count=n_agents,
                         initial={r: base for r in range(n_agents)},
                         masters=frozenset({0}), static=frozenset({0}))
    return net, agents, base

#!/usr/bin/env python3
"""Explore a 100-state random world with a 10-agent hierarchical team.

All agents start on the base state knowing only their 1-hop surroundings.
Every cycle the team re-clusters, pushes plans down the submaster hierarchy,
explores toward frontiers, and relays findings back up to the base.  With
--trace-dir the per-cycle clusterings are written as DOT/JSON files.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icplan.explore import run_exploration  # noqa: E402
from icplan.instances import exploration_world  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-states", type=int, default=100)
    parser.add_argument("--n-agents", type=int, default=10)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--out", default="exploration_log.json")
    args = parser.parse_args()

    net, agents, base = exploration_world(seed=args.seed,
                                          n_states=args.n_states,
                                          n_agents=args.n_agents)
    log = run_exploration(net, agents, base, trace_dir=args.trace_dir)

    for o in log.outcomes:
        print(f"cycle {o.cycle:2d}: clusters={o.n_clusters} "
              f"endowed={list(o.endowed)} frontiers={o.frontiers_before:3d} "
              f"new={len(o.new_states):3d} base+={o.base_gain:3d} "
              f"slowest_solve={o.max_solve_time:.1f}s")
    print(f"\nstatus={log.status} cycles={log.cycles} "
          f"coverage={log.coverage:.0%} base_coverage={log.base_coverage:.0%}")
    print(f"subproblems={len(log.subproblems)} all_verified={log.all_verified} "
          f"max_solve={log.max_solve_time:.1f}s wall={log.wall_time:.1f}s")

    with open(args.out, "w") as fh:
        json.dump(log.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark the three model variants on the line relay family.

Solves the N-state line relay instance (three agents, everyone must hear
from everyone) with the flow model and the two powerset baselines, writes
one CSV row per (method, N), and prints a small table.  The full powerset
baseline refuses sizes past its enumeration guard; those rows carry the
status "refused".
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icplan.cli import bench_rows  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--methods", default="flow,powerset,adaptive")
    parser.add_argument("--sizes", default="4,5,6,8,10,15",
                        help="comma-separated line lengths")
    parser.add_argument("--time-limit", type=float, default=120.0)
    parser.add_argument("--out", default="bench.csv")
    args = parser.parse_args()

    methods = [m for m in args.methods.split(",") if m]
    sizes = [int(n) for n in args.sizes.split(",") if n]
    rows = bench_rows(methods, sizes, time_limit=args.time_limit)

    header = ["method", "N", "T", "status", "wall_time", "objective"]
    with open(args.out, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[h]) for h in header) + "\n")

    widths = [10, 4, 3, 10, 10, 10]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths)))
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()

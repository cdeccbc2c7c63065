"""HiGHS solves of the solver-neutral model, and its LP-format export.

`solve` builds a `MilpModel`'s CSC matrix (`MilpModel.matrix()`) and hands it
to HiGHS through `highs.minimize`; `export_lp` writes the same model as
CPLEX-LP text for inspection or for an external solver.
"""

from __future__ import annotations

import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import verify
from .highs import HighsResult, minimize
from .ilp import MilpModel, ProblemSpec, assemble

INT_TOL = 1e-6

# HiGHS's feasibility-jump primal heuristic costs a fixed ~7 ms per call,
# most of the time of a small model closed at the root node (a 10-variable
# knapsack on a 2-vCPU host, scipy 1.17.1: 8.5 ms with it, 1.5 ms without).
_HIGHS_OPTIONS = {"mip_heuristic_run_feasibility_jump": False}

# Bit 15 of HiGHS 1.12's `presolve_rule_off` switches off its probing
# presolve rule.  On exploration's reward plans probing costs more than it
# removes (perfbench explore's 52 reward models, 2 vCPU: presolve 0.86 s
# with it, 0.22 s without, leaving 9,856 against 10,213 columns), so
# `solve(..., probing=False)` sets it.  Collection plans and the line relay
# keep it: there it pays (line_instance(8) solves in 0.41 s with it, 1.01 s
# without).
_NO_PROBING = {"presolve_rule_off": 1 << 15}


@dataclass
class SolveResult:
    status: str                       # optimal | infeasible | unbounded | limit | error
    # minus HiGHS's objective, not re-priced from the plan: when a flow falls
    # short by the feasibility tolerance it can read ~1e-6 above the plan's
    # exact value (5.749001 against 5.749 on C1 p1 seed 20 re-posed
    # many_to_one)
    objective: float | None
    assignment: dict[tuple, float] = field(default_factory=dict)
    wall_time: float = 0.0
    message: str = ""
    nodes: int | None = None          # branch-and-bound nodes HiGHS explored
    dual_bound: float | None = None   # upper bound on the objective
    gap: float | None = None          # HiGHS's relative MIP gap at exit
    n_variables: int = 0              # size of the model HiGHS was given
    n_constraints: int = 0
    nonzeros: int = 0
    # seconds per stage: `solve_problem` times assembly and plan
    # extraction, `solve` the CSC matrix and `highs.minimize`
    assemble_s: float = 0.0
    matrix_s: float = 0.0
    highs_s: float = 0.0
    extract_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _round_assignment(model: MilpModel, x, binary) -> dict[tuple, float]:
    """Binaries rounded, continuous values within INT_TOL of 0 set to 0."""
    x = np.asarray(x, dtype=float)
    values = np.where(binary, np.round(x) + 0.0,          # + 0.0: no -0.0
                      np.where(np.abs(x) < INT_TOL, 0.0, x))
    return dict(zip(model.refs, values.tolist()))


@contextmanager
def _quiet_fd1():
    """Null file descriptor 1 for the block: HiGHS writes some lines there
    even with log_to_console off, which would corrupt a CSV on stdout."""
    if sys.stdout is None:                   # started without fd 1
        yield
        return
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def solve(model: MilpModel, time_limit: float | None = None,
          gap: float | None = None, probing: bool = True) -> SolveResult:
    """Maximize `model` with HiGHS; `gap` is HiGHS's relative MIP gap and
    `probing=False` turns off HiGHS's probing presolve rule."""
    start = time.perf_counter()
    A, lb, ub = model.matrix()
    matrix_s = time.perf_counter() - start
    binary = model.binary()
    cols, vals = model.objective_terms()
    c = np.zeros(model.n_variables)
    c[cols] = -vals                          # HiGHS minimizes
    options = dict(_HIGHS_OPTIONS)
    if not probing:
        options.update(_NO_PROBING)
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap is not None:
        options["mip_rel_gap"] = float(gap)
    with _quiet_fd1():
        highs_start = time.perf_counter()
        res = minimize(c, A, lb, ub, np.zeros(model.n_variables),
                       np.where(binary, 1.0, np.inf), options, binary)
        highs_s = time.perf_counter() - highs_start
    result = _classify(model, res, binary)
    result.nodes = res.nodes
    result.dual_bound = None if res.dual_bound is None else -res.dual_bound
    result.gap = res.gap
    result.n_variables, result.n_constraints = A.shape[1], A.shape[0]
    result.nonzeros = A.nnz
    result.matrix_s, result.highs_s = matrix_s, highs_s
    result.wall_time = time.perf_counter() - start
    return result


def _classify(model: MilpModel, res: HighsResult, binary) -> SolveResult:
    """The status, objective and rounded assignment of a HiGHS result."""
    if res.x is None:
        return SolveResult(res.status, None, message=res.message)
    if res.status == "limit":
        # keep a time-limit incumbent only if it is integer-feasible
        ints = res.x[binary]
        if np.abs(ints - np.round(ints)).max(initial=0.0) > 1e-4:
            return SolveResult("limit", None, message="fractional incumbent")
    return SolveResult(res.status, -res.objective,
                       _round_assignment(model, res.x, binary),
                       message=res.message)


# -- LP text ------------------------------------------------------------


def _var_names(model: MilpModel) -> list[str]:
    names = []
    for idx, ref in enumerate(model.refs):
        stem = "_".join(str(part) for part in ref)
        stem = re.sub(r"[^A-Za-z0-9_]", "_", stem)
        names.append(f"{stem}__{idx}")
    return names


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _expr(coeffs: dict[int, float], names: list[str]) -> str:
    parts = []
    for idx in sorted(coeffs):
        c = coeffs[idx]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(c))} {names[idx]}")
    return " ".join(parts)


def export_lp(model: MilpModel) -> str:
    """CPLEX-LP text with one tagged comment line per constraint family."""
    names = _var_names(model)
    lines = ["\\ icplan model", "\\ sense: maximize"]
    for tag, count in sorted(model.tag_counts().items()):
        lines.append(f"\\ family {tag}: {count}")
    lines.append("Maximize")
    lines.append(f" obj: {_expr(model.objective, names)}")
    lines.append("Subject To")
    rel_text = {"<=": "<=", ">=": ">=", "==": "="}
    for i, (coeffs, rel, rhs, tag) in enumerate(model.constraints):
        lines.append(f" c{i}_{tag}: {_expr(coeffs, names)} {rel_text[rel]} {_fmt(rhs)}")
    binary = model.binary().tolist()
    binaries = [nm for nm, b in zip(names, binary) if b]
    continuous = [nm for nm, b in zip(names, binary) if not b]
    if continuous:
        lines.append("Bounds")
        for nm in continuous:
            lines.append(f" 0 <= {nm}")
    if binaries:
        lines.append("Binaries")
        for start in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[start:start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


# -- convenience --------------------------------------------------------


def solve_problem(spec: ProblemSpec, time_limit: float | None = None,
                  gap: float | None = None, probing: bool = True):
    """Assemble, solve, and extract a plan. Returns (model, result, plan)."""
    start = time.perf_counter()
    model = assemble(spec)
    assemble_s = time.perf_counter() - start
    result = solve(model, time_limit=time_limit, gap=gap, probing=probing)
    result.assemble_s = assemble_s
    plan = None
    if result.assignment and result.status in ("optimal", "limit"):
        start = time.perf_counter()
        plan = verify.extract_solution(spec, result.assignment, result.objective)
        result.extract_s = time.perf_counter() - start
    return model, result, plan

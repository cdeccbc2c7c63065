"""HiGHS solves of the solver-neutral model, and its LP-format export.

`solve` hands a `MilpModel` to HiGHS through scipy.optimize.milp;
`export_lp` writes the same model as CPLEX-LP text for inspection or for
an external solver.
"""

from __future__ import annotations

import os
import re
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import SolverError
from .ilp import MilpModel, ProblemSpec, assemble

INT_TOL = 1e-6

# HiGHS's feasibility-jump primal heuristic costs a fixed ~7 ms per call,
# most of the time of a small model closed at the root node (a 10-variable
# knapsack on a 2-vCPU host, scipy 1.17.1: 8.5 ms with it, 1.5 ms without).
# scipy's `milp` passes the key to HiGHS verbatim and warns that it does not
# know it.
_HIGHS_OPTIONS = {"disp": False, "mip_heuristic_run_feasibility_jump": False}
_VERBATIM_WARNING = (r"Unrecognized options detected: "
                     r"\{'mip_heuristic_run_feasibility_jump'\}")


@dataclass
class SolveResult:
    status: str                       # optimal | infeasible | unbounded | limit | error
    objective: float | None
    assignment: dict[tuple, float] = field(default_factory=dict)
    wall_time: float = 0.0
    message: str = ""
    nodes: int | None = None          # branch-and-bound nodes HiGHS explored
    dual_bound: float | None = None   # upper bound on the objective
    gap: float | None = None          # HiGHS's relative MIP gap at exit

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _round_assignment(model: MilpModel, x) -> dict[tuple, float]:
    assignment = {}
    for idx, ref in enumerate(model.refs):
        v = float(x[idx])
        if model.domains[idx] == "B":
            v = float(round(v))
        elif abs(v) < INT_TOL:
            v = 0.0
        assignment[ref] = v
    return assignment


def _constraint_matrix(model: MilpModel):
    rows, cols, vals = [], [], []
    lb = np.empty(model.n_constraints)
    ub = np.empty(model.n_constraints)
    for i, (coeffs, rel, rhs, _) in enumerate(model.constraints):
        for idx, c in coeffs.items():
            rows.append(i)
            cols.append(idx)
            vals.append(c)
        if rel == "==":
            lb[i] = ub[i] = rhs
        elif rel == "<=":
            lb[i], ub[i] = -np.inf, rhs
        else:
            lb[i], ub[i] = rhs, np.inf
    A = sparse.csr_matrix((vals, (rows, cols)),
                          shape=(model.n_constraints, model.n_variables))
    return A, lb, ub


@contextmanager
def _quiet_fd1():
    """Null file descriptor 1 for the block: HiGHS writes some lines there
    even with disp=False, which would corrupt a CSV on stdout."""
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
          gap: float | None = None) -> SolveResult:
    """Maximize `model` with HiGHS; `gap` is HiGHS's relative MIP gap."""
    start = time.perf_counter()
    n = model.n_variables
    c = np.zeros(n)
    for idx, coeff in model.objective.items():
        c[idx] = -coeff                      # milp minimizes
    integrality = np.array([1 if d == "B" else 0 for d in model.domains])
    upper = np.array([1.0 if d == "B" else np.inf for d in model.domains])
    bounds = Bounds(np.zeros(n), upper)
    A, lb, ub = _constraint_matrix(model)
    options = dict(_HIGHS_OPTIONS)
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap is not None:
        options["mip_rel_gap"] = float(gap)
    try:
        with _quiet_fd1(), warnings.catch_warnings():
            warnings.filterwarnings("ignore", _VERBATIM_WARNING, RuntimeWarning)
            res = milp(c=c, constraints=LinearConstraint(A, lb, ub),
                       integrality=integrality, bounds=bounds, options=options)
    except Exception as exc:                 # pragma: no cover - defensive
        raise SolverError(f"scipy/HiGHS failed: {exc}") from exc
    result = _classify(model, res)
    bound = res.get("mip_dual_bound")
    result.nodes = res.get("mip_node_count")
    result.dual_bound = None if bound is None else -float(bound)
    result.gap = res.get("mip_gap")
    result.wall_time = time.perf_counter() - start
    return result


def _classify(model: MilpModel, res) -> SolveResult:
    """The status, objective and rounded assignment of a `milp` result."""
    if res.status == 0:
        return SolveResult("optimal", -float(res.fun),
                           _round_assignment(model, res.x))
    if res.status == 1 and res.x is not None:
        # keep a time-limit incumbent only if it is integer-feasible
        drift = max((abs(res.x[i] - round(res.x[i]))
                     for i, d in enumerate(model.domains) if d == "B"), default=0.0)
        if drift <= 1e-4:
            return SolveResult("limit", -float(res.fun),
                               _round_assignment(model, res.x),
                               message=res.message)
        return SolveResult("limit", None, message="fractional incumbent")
    if res.status == 1:
        return SolveResult("limit", None, message=res.message)
    if res.status == 2:
        return SolveResult("infeasible", None, message=res.message)
    if res.status == 3:
        return SolveResult("unbounded", None, message=res.message)
    return SolveResult("error", None, message=res.message)


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
    binaries = [names[i] for i, d in enumerate(model.domains) if d == "B"]
    continuous = [names[i] for i, d in enumerate(model.domains) if d == "C"]
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
                  gap: float | None = None):
    """Assemble, solve, and extract a plan. Returns (model, result, plan)."""
    from . import verify

    model = assemble(spec)
    result = solve(model, time_limit=time_limit, gap=gap)
    plan = None
    if result.assignment and result.status in ("optimal", "limit"):
        plan = verify.extract_solution(spec, result.assignment, result.objective)
    return model, result, plan

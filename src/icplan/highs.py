"""The one call into HiGHS, the solver bundled with scipy.

`minimize` fills a HiGHS model from a CSC matrix and its bounds, sets the
given HiGHS options, runs the solver and reads back only the primal column
values and the MIP statistics.  scipy's `milp` and `linprog` wrap the same
solver, but their Python around it (input broadcasts, an options manager
per option, a per-column loop over the basis for bound duals) costs about
1 ms a call, most of a small model's solve.  This module imports nothing
from the package, so the verifier's LP and the MILP solves share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core

_ERROR = _core.HighsStatus.kError
_M = _core.HighsModelStatus
_STATUS = {_M.kOptimal: "optimal", _M.kTimeLimit: "limit",
           _M.kIterationLimit: "limit", _M.kInfeasible: "infeasible",
           _M.kUnbounded: "unbounded"}      # every other model status: error
_VAR_TYPE = (_core.HighsVarType.kContinuous, _core.HighsVarType.kInteger)


@dataclass(frozen=True)
class HighsResult:
    status: str                       # optimal | limit | infeasible | unbounded | error
    message: str                      # HiGHS's text for the model status
    # set when HiGHS holds a solution: optimal, or a MIP's limit incumbent
    x: np.ndarray | None = None
    objective: float | None = None    # c @ x as HiGHS computed it
    nodes: int | None = None          # with a MIP solution only
    dual_bound: float | None = None
    gap: float | None = None


def minimize(c, A, row_lower, row_upper, col_lower, col_upper, options,
             binary=None) -> HighsResult:
    """Minimize c @ x s.t. row_lower <= A @ x <= row_upper and
    col_lower <= x <= col_upper, integer where the `binary` mask is set.

    `A` is a scipy CSC matrix.  `options` maps HiGHS option names to
    values; an unknown name raises AttributeError.
    """
    n_rows, n_cols = A.shape
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = col_lower, col_upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    mip = binary is not None and bool(binary.any())
    if mip:
        lp.integrality_ = [_VAR_TYPE[b] for b in binary.tolist()]
    highs_options = _core.HighsOptions()
    for key, value in options.items():
        setattr(highs_options, key, value)

    highs = _core._Highs()
    if highs.passOptions(highs_options) == _ERROR:
        return HighsResult("error", "HiGHS rejected the options")
    if highs.passModel(lp) == _ERROR:
        return HighsResult("error", "HiGHS could not load the model")
    failed = highs.run() == _ERROR
    model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    status = "error" if failed else _STATUS.get(model_status, "error")
    info = highs.getInfo()
    objective = info.objective_function_value
    if not (status == "optimal"
            or (mip and status == "limit" and objective != np.inf)):
        return HighsResult(status, message)
    x = np.array(highs.getSolution().col_value)
    if not mip:
        return HighsResult(status, message, x, objective)
    return HighsResult(status, message, x, objective, info.mip_node_count,
                       info.mip_dual_bound, info.mip_gap)

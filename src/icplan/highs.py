"""The one call into HiGHS, the solver bundled with scipy.

`minimize` loads a model from a CSC matrix and its bounds into HiGHS, sets
the given HiGHS options, runs the solver and reads back only the primal
column values and the MIP statistics.  scipy's `milp` and `linprog` wrap the
same solver, but their Python around it (input broadcasts, an options
manager per option, a per-column loop over the basis for bound duals) costs
about 1 ms a call, most of a small model's solve.

Every call reuses one HiGHS instance per process, since building an
instance and its options costs ~0.2 ms a call.  `clear()` resets it before
each model, which also restores HiGHS's default options, so no option,
model or solution carries over from one call to the next.  The model goes
in as numpy buffers, which HiGHS copies directly, not element by element
through Python lists as a `HighsLp` is filled.  The instance is not
reentrant: one solve at a time per process.  This module imports nothing
from the package, so the verifier's LP and the MILP solves share it.

HiGHS's Python bindings, the compiled `scipy.optimize._highspy._core`, are
loaded from their file in scipy's `optimize/_highspy` folder, not imported
by name: an import would first run `scipy/optimize/__init__` (linprog,
minimize, parts of `scipy.linalg` and `scipy.fft`), about 0.2 s of every
process's start, none of which this package calls.  The module goes into
`sys.modules` under its own name, so a later `scipy.optimize` import uses
it, and one that scipy loaded first is used here; it is never loaded
twice.  If a scipy release moves or renames that file, importing this
module raises ImportError naming the folder it searched.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy


def _load_core():
    """scipy's compiled HiGHS bindings, loaded from their file, so that
    neither `scipy.optimize` nor its `_highspy` package runs."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:         # scipy.optimize came first: share it
        return sys.modules[name]
    folder = str(Path(scipy.__file__).parent / "optimize" / "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [folder])
    if spec is None:
        raise ImportError(f"no HiGHS bindings {name} in {folder}", name=name)
    module = importlib.util.module_from_spec(spec)
    # under its own name, so scipy's later imports reuse this one
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_core = _load_core()
_ERROR = _core.HighsStatus.kError
_M = _core.HighsModelStatus
_STATUS = {_M.kOptimal: "optimal", _M.kTimeLimit: "limit",
           _M.kIterationLimit: "limit", _M.kInfeasible: "infeasible",
           _M.kUnbounded: "unbounded"}      # every other model status: error
_HIGHS = _core._Highs()


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
    values; a name HiGHS does not know, or a value it refuses (wrong type,
    out of range), raises AttributeError.
    """
    n_rows, n_cols = A.shape
    # HiGHS reads each buffer at the length the sizes give
    if not len(c) == len(col_lower) == len(col_upper) == n_cols \
            or not len(row_lower) == len(row_upper) == n_rows \
            or (binary is not None and len(binary) != n_cols):
        raise ValueError(f"arrays do not fit a {n_rows} x {n_cols} matrix")
    # HiGHS reads an empty integrality array as malformed, so an LP passes
    # every column as continuous (0)
    integrality = (np.zeros(n_cols, dtype=np.int32) if binary is None
                   else binary.astype(np.int32))
    mip = bool(integrality.any())
    highs = _HIGHS
    highs.clear()
    # clear() turns console logging back on, and HiGHS logs a refused
    # option on stdout before the caller's options could turn it off
    highs.setOptionValue("log_to_console", False)
    for key, value in options.items():
        if highs.setOptionValue(key, value) == _ERROR:
            raise AttributeError(f"HiGHS refused the option {key}={value!r}")
    if highs.passModel(n_cols, n_rows, A.nnz, _core.MatrixFormat.kColwise,
                       _core.ObjSense.kMinimize, 0.0, c, col_lower, col_upper,
                       row_lower, row_upper,
                       A.indptr.astype(np.int32, copy=False),
                       A.indices.astype(np.int32, copy=False), A.data,
                       integrality) == _ERROR:
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

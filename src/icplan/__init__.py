"""icplan: plan synthesis and verification for intermittently connected teams.

Multi-agent routing on networks that separate mobility from communication:
agents move along mobility edges while information travels over communication
edges between occupied states, riding along with moving agents in between.
The package builds mixed-integer models for reward collection with
source-to-sink information requirements, optionally forcing plans to be
distributable from a master agent before anyone moves, verifies solutions
with solver-free token simulations, and drives a cluster-decomposed
exploration loop for unknown environments.
"""

from .errors import (ConfigurationError, GuardExceeded, IcplanError,
                     InstanceError, SolverError)
from .ilp import MASTER_FLOW, AgentConfig, MilpModel, ProblemSpec, assemble
from .io import load_network, load_solution, save_solution
from .network import (MobilityCommNetwork, betweenness_centrality,
                      build_network, to_dot)
from .solver import SolveResult, export_lp, solve, solve_problem
from .verify import (OracleResult, PlanSolution, ReachabilityReport,
                     brute_force_solve, check_consistency, check_dynamics,
                     check_flows, extract_solution,
                     information_reachability, plan_violations)

__version__ = "0.1.0"

__all__ = [
    "AgentConfig", "ConfigurationError", "GuardExceeded",
    "IcplanError", "InstanceError", "MASTER_FLOW", "MilpModel",
    "MobilityCommNetwork",
    "OracleResult", "PlanSolution", "ProblemSpec", "ReachabilityReport",
    "SolveResult", "SolverError",
    "assemble", "betweenness_centrality", "brute_force_solve",
    "build_network", "check_consistency", "check_dynamics", "check_flows",
    "export_lp", "extract_solution",
    "information_reachability", "load_network", "load_solution",
    "plan_violations", "save_solution", "solve", "solve_problem",
    "to_dot",
]

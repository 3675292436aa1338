"""Multi-capacity fixed-charge network flow toolkit.

A matheuristic genetic algorithm whose organisms are fixed-cost divisor
arrays decoded by an exact min-cost-flow solve, plus an internal
branch-and-bound for proven optima and solution polishing.
"""
from .evaluate import (VERIFY_TOL, ScoredSolution, score, verify_flow,
                       write_solution_csv)
from .exact import GAP_DEFAULT, ExactResult, polish, solve_exact
from .flowcore import (D_MIN, FLOW_TOL, UNBOUNDED, ExpandedNetwork,
                       FlowIterationError, FlowSolution, FlowState, Infeasible, Organism,
                       build_expanded_network, compile_topology, flow_tol,
                       lp_relaxation_bound, max_throughput, solve_min_cost_flow)
from .ga import (GAConfig, IterationRecord, RunResult, crossover, evolve,
                 fitness, init_population, mutate, theorem_d,
                 tournament_select, write_convergence_csv)
from .instance import (CostParams, FacilityInstance, Instance, ParseError,
                       Terminal, ValidationError, from_facility_form,
                       format_instance, generate_random, invariant_violations,
                       load_instance, parse_instance, save_instance, validate)

__all__ = [
    "CostParams", "D_MIN", "ExactResult", "ExpandedNetwork", "FLOW_TOL",
    "FacilityInstance", "FlowIterationError", "FlowSolution", "FlowState", "GAConfig",
    "GAP_DEFAULT", "Infeasible", "Instance", "IterationRecord", "Organism",
    "ParseError", "RunResult", "ScoredSolution", "Terminal", "UNBOUNDED", "VERIFY_TOL",
    "ValidationError", "build_expanded_network", "compile_topology", "crossover",
    "evolve", "fitness", "flow_tol", "format_instance", "from_facility_form",
    "generate_random", "init_population", "invariant_violations", "load_instance",
    "lp_relaxation_bound", "max_throughput", "mutate", "parse_instance", "polish",
    "save_instance", "score", "solve_exact", "solve_min_cost_flow", "theorem_d",
    "tournament_select", "validate", "verify_flow", "write_convergence_csv",
    "write_solution_csv",
]

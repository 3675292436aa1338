"""Command-line entry point.

Subcommands: solve (genetic search + polish), exact (branch-and-bound),
gen (random instances), compare (both solvers under equal budgets).
Exit codes: 0 success, 1 usage or I/O error, 2 infeasible instance.
"""
from __future__ import annotations

import argparse
import glob
import math
import statistics
import sys
import time
from pathlib import Path

from . import exact as exact_mod
from . import ga
from .evaluate import write_solution_csv
from .flowcore import Infeasible
from .instance import (CostParams, ParseError, ValidationError, generate_random,
                       load_instance, save_instance, validate)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # infeasible instances here, so route usage problems through exit 1
    def error(self, message):
        raise _UsageError(message)


def _load_checked(path: str):
    try:
        return load_instance(path)
    except FileNotFoundError:
        raise _UsageError(f"instance file not found: {path}") from None
    except (ParseError, ValidationError, UnicodeDecodeError) as err:
        raise _UsageError(f"{path}: {err}") from None


def _ga_config(**fields) -> ga.GAConfig:
    try:
        return ga.GAConfig(**fields)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _check_budget(args) -> None:
    if not args.budget > 0:
        raise _UsageError(f"--budget must be positive (got {args.budget!r})")


def _default_artifact(instance_path: str, suffix: str) -> str:
    return str(Path(instance_path).with_suffix(Path(instance_path).suffix + suffix))


def cmd_solve(args) -> int:
    config = _ga_config(
        population_size=args.population, crossover_probability=args.crossover,
        mutation_probability=args.mutation, time_limit=args.time_limit,
        iteration_limit=args.iterations, seed=args.seed,
    )
    instance = _load_checked(args.instance)
    started = time.perf_counter()
    result = ga.evolve(instance, config)
    elapsed = time.perf_counter() - started

    solution_path = args.solution or _default_artifact(args.instance, ".sol.csv")
    convergence_path = args.convergence or _default_artifact(args.instance, ".conv.csv")
    write_solution_csv(solution_path, result.polished)
    ga.write_convergence_csv(convergence_path, result.history)

    iterations = result.history[-1].iteration
    print(f"best_cost={result.best.true_cost!r} "
          f"polished_cost={result.polished.true_cost!r} "
          f"bound={result.bound!r} iterations={iterations} elapsed_s={elapsed:.3f}")
    return EXIT_OK


def cmd_exact(args) -> int:
    _check_budget(args)
    instance = _load_checked(args.instance)
    problems = validate(instance)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return EXIT_INFEASIBLE
    result = exact_mod.solve_exact(instance, budget=args.budget)
    solution_path = args.solution or _default_artifact(args.instance, ".sol.csv")
    write_solution_csv(solution_path, result.best)
    print(f"cost={result.best.true_cost!r} proven={str(result.proven_optimal).lower()} "
          f"bound={result.bound!r} nodes={result.nodes_explored}")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        params = CostParams(
            fixed_range=(args.fixed_min, args.fixed_max),
            variable_range=(args.variable_min, args.variable_max),
        )
        instance = generate_random(
            kind=args.kind, n_vertices=args.vertices, n_capacities=args.capacities,
            cost_params=params, target_fraction=args.target_fraction, seed=args.seed,
        )
    except ValueError as err:
        raise _UsageError(str(err)) from None
    save_instance(instance, args.output)
    problems = validate(instance)
    print(f"wrote {args.output}: {instance.n_vertices} vertices, "
          f"{instance.n_edges} edges, {instance.n_capacities} capacities, "
          f"target {instance.target!r}")
    print("validate: OK" if not problems else "validate: " + "; ".join(problems))
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_budget(args)
    if math.isinf(args.budget):  # it is also the GA's time limit, which must end
        raise _UsageError(f"--budget must be finite for compare (got {args.budget!r})")
    if args.repeats < 1:
        raise _UsageError(f"--repeats must be at least 1 (got {args.repeats})")
    paths = sorted(glob.glob(args.instances))
    if not paths:
        print(f"no instances matched {args.instances!r}", file=sys.stderr)
        return EXIT_ERROR

    rows = []
    consistency_failures = []
    for path in paths:
        instance = _load_checked(path)
        results = []
        ga_started = time.perf_counter()
        for repeat in range(args.repeats):
            config = _ga_config(time_limit=args.budget, iteration_limit=args.iterations,
                                seed=args.seed + repeat)
            try:  # the first run's seed decode, its first solve, decides routability
                results.append(ga.evolve(instance, config))
            except Infeasible as err:
                print(f"{path}: {err}", file=sys.stderr)
                return EXIT_INFEASIBLE
        ga_time = time.perf_counter() - ga_started
        ga_costs, bound = [r.polished.true_cost for r in results], results[0].bound

        exact_started = time.perf_counter()
        exact_result = exact_mod.solve_exact(instance, budget=args.budget)
        exact_time = time.perf_counter() - exact_started

        ga_mean, exact_cost = statistics.fmean(ga_costs), exact_result.best.true_cost
        if ga_mean < bound - exact_mod.gap_abs(bound):
            consistency_failures.append(
                f"{path}: GA cost {ga_mean!r} below lower bound {bound!r}")
        rows.append({
            "instance": Path(path).stem,
            "ga_cost_mean": ga_mean,
            "exact_cost": exact_cost,
            "exact_proven": str(exact_result.proven_optimal).lower(),
            "lower_bound": bound,
            "cost_ratio": ga_mean / exact_cost if exact_cost else (math.inf if ga_mean else 1.0),
            "ga_time_s": ga_time,
            "exact_time_s": exact_time,
        })

    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{row[col]:.6f}" if isinstance(row[col], float) else str(row[col])
            for col in header))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    for line in lines:
        print(line)
    for failure in consistency_failures:
        print("internal consistency failure: " + failure, file=sys.stderr)
    return EXIT_ERROR if consistency_failures else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="mcfcnf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="genetic search with exact polishing")
    p.add_argument("--instance", required=True)
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock seconds for the whole run")
    p.add_argument("--iterations", type=int, default=None,
                   help="iteration-count stop for reproducible runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=10)
    p.add_argument("--crossover", type=float, default=0.5)
    p.add_argument("--mutation", type=float, default=0.5)
    p.add_argument("--solution", default=None, help="solution CSV path")
    p.add_argument("--convergence", default=None, help="convergence CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="branch-and-bound to proven optimality")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds")
    p.add_argument("--solution", default=None, help="solution CSV path")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--kind", choices=("grid", "geometric"), required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--capacities", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-fraction", type=float, default=0.5)
    p.add_argument("--fixed-min", type=float, default=4.0)
    p.add_argument("--fixed-max", type=float, default=40.0)
    p.add_argument("--variable-min", type=float, default=0.5)
    p.add_argument("--variable-max", type=float, default=4.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compare", help="GA vs exact under equal budgets")
    p.add_argument("--instances", required=True, help="glob of instance files")
    p.add_argument("--budget", type=float, required=True, help="seconds per method")
    p.add_argument("--repeats", type=int, default=3, help="GA runs averaged per instance")
    p.add_argument("--iterations", type=int, default=None,
                   help="optional GA iteration cap for reproducible runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="report CSV path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Infeasible as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())

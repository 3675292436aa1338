#!/usr/bin/env python3
"""Benchmark of the mcfcnf solver, driven through its command-line entry point.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--ga-seed G]

A run generates its workload's instance from a fixed spec, saves it to a
file and calls mcfcnf.cli.main on that file in this process, again and again
until S seconds have passed (at least once). Every call's output is checked.
The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, or the per-layer metrics of spans.py with --trace 1 (traced
and untraced calls then alternate, which also gives the tracing overhead).
The lines before it give each metric with its unit and sample count.

End-to-end timings are in seconds at a reference machine speed: pace.py
probes the machine's speed during each timed call and scales by it, since on
a shared virtual machine the same work takes 20-40 % longer at some minutes
than at others. Per-layer timings are plain wall time.

Call i of a run uses GA seed (N + i) mod 16, from the pool whose desk
results reference.py records; --ga-seed G pins every call to G instead (the
held-out seed is 1009). The exit code is 0 whenever a result is printed, even
if a check failed; it is 2 when the harness cannot run at all, for example
when the solver's sources are not next to the benchmark.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    instance: str                 # key of reference.INSTANCES
    command: str                  # CLI subcommand: "solve" or "exact"
    iterations: int | None = None
    time_limit: float | None = None
    budget: float | None = None
    best_costs: dict | None = None  # GA seed -> exact pre-polish best_cost
    nodes: int | None = None        # exact: BnB nodes of the proof


# Why these three: see NOTES.md. ga-desk is decode-bound fixed work with
# many small SSP solves; exact-prove runs no GA, only BnB nodes whose SSP
# solves each push many augmentations; budget-large_a is the wall-budget
# mode users run, where speed shows as generations and cost.
WORKLOADS = {
    "ga-desk": Workload("desk", "solve", iterations=100,
                        best_costs=reference.DESK_BEST_COST_100),
    "exact-prove": Workload("grid81", "exact", budget=120.0, nodes=2571),
    "budget-large_a": Workload("large_a", "solve", time_limit=5.0),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "cost_ratio": "ratio",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Fresh interpreters timed per run for setup_s.
SETUP_REPEATS = 15

#: setup_s in a fresh interpreter (argv: bench dir, src dir, instance file),
#: in seconds at the reference speed of pace.py. numpy is imported before the
#: clock starts: its ~150 ms import is not this repository's code and would
#: hide the setup work the metric is there to show.
SETUP_SNIPPET = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
import pace
with pace.Pacer(period=0.005) as pacer:
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    import mcfcnf
    from mcfcnf.instance import load_instance, validate
    problems = validate(load_instance(sys.argv[3]))
    took = time.perf_counter() - started
print(repr(took * pacer.factor) if not problems else "infeasible: " + "; ".join(problems))
"""


@dataclass
class Call:
    """One CLI call and what its checks and metrics need."""

    ga_seed: int
    traced: bool
    wall: float = math.nan
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    steps: float = math.nan      # GA generations, or BnB nodes
    step_s: float = math.nan     # seconds those steps took
    pace: float = math.nan       # wall seconds -> seconds at reference speed
    cost: float = math.nan
    generation_s: list = field(default_factory=list)
    polish_gain: float | None = None


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_solver():
    """Import mcfcnf from the sources next to the benchmark, never from an
    installed copy, so the code measured is the code checked out."""
    if not (SRC / "mcfcnf" / "__init__.py").is_file():
        raise HarnessError(f"solver sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcfcnf
    import mcfcnf.cli
    if Path(mcfcnf.__file__).resolve().parent != (SRC / "mcfcnf").resolve():
        raise HarnessError(f"imported mcfcnf from {mcfcnf.__file__}, not {SRC}")
    return mcfcnf


def argv_for(workload: Workload, files: dict, ga_seed: int) -> list[str]:
    argv = [workload.command, "--instance", str(files["instance"]),
            "--solution", str(files["solution"])]
    if workload.command == "solve":
        argv += ["--seed", str(ga_seed), "--convergence", str(files["convergence"])]
        if workload.iterations is not None:
            argv += ["--iterations", str(workload.iterations)]
        if workload.time_limit is not None:
            argv += ["--time-limit", repr(workload.time_limit)]
    else:
        argv += ["--budget", repr(workload.budget)]
    return argv


def parse_summary(stdout: str) -> dict:
    """The CLI's one-line `key=value ...` summary, values as strings."""
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    return dict(token.split("=", 1) for token in lines[-1].split() if "=" in token)


def read_solution(path: Path, instance) -> tuple[np.ndarray, float]:
    """Flow array and trailer cost of a solution CSV written by the CLI."""
    flow = np.zeros((instance.n_edges, instance.n_capacities))
    trailer = math.nan
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith("# true_cost="):
            trailer = float(line.split("=", 1)[1])
        elif line.strip():
            e, k, amount, _ = line.split(",")
            flow[int(e), int(k)] = float(amount)
    return flow, trailer


def read_convergence(path: Path) -> list[tuple[int, float]]:
    """(iteration, elapsed_s) rows of a convergence CSV."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        rows.append((int(cells[0]), float(cells[1])))
    return rows


def check_call(mcfcnf, workload: Workload, instance, files: dict, call: Call, code: int,
               stderr: str) -> None:
    """Fill call.problems with every failed check, and the call's cost and
    step counts. A check that cannot be made counts as failed."""
    spec = reference.INSTANCES[workload.instance]
    problems = call.problems
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-500:]}")
        return
    s = call.summary
    cost_key = "polished_cost" if workload.command == "solve" else "cost"
    try:
        call.cost = float(s[cost_key])
        bound = float(s["bound"])
    except (KeyError, ValueError):
        problems.append(f"summary line lacks {cost_key} or bound: {s}")
        return

    tol = reference.COST_TOL * max(1.0, abs(spec.optimum))
    try:
        flow, trailer = read_solution(files["solution"], instance)
    except (OSError, ValueError, IndexError) as err:
        problems.append(f"solution CSV unreadable: {err}")
    else:
        violations = mcfcnf.verify_flow(instance, mcfcnf.FlowSolution(flow=flow, lp_cost=0.0))
        problems.extend(f"solution CSV: {v}" for v in violations)
        recomputed = mcfcnf.score(instance, mcfcnf.FlowSolution(flow=flow, lp_cost=0.0)).true_cost
        for label, value in (("trailer", trailer), (cost_key, call.cost)):
            if not math.isclose(recomputed, value, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"{label} cost {value!r} is not the solution's cost {recomputed!r}")
    if call.cost < spec.lower - tol:
        problems.append(f"cost {call.cost!r} below the proven lower bound {spec.lower!r}")
    if bound > spec.optimum + tol:
        problems.append(f"bound {bound!r} above the optimum {spec.optimum!r}")

    if workload.command == "exact":
        if s.get("proven") != "true":
            problems.append("optimum not proven")
        if abs(call.cost - spec.optimum) > tol:
            problems.append(f"proven cost {call.cost!r} is not the optimum {spec.optimum!r}")
        if workload.nodes is not None and s.get("nodes") != str(workload.nodes):
            problems.append(f"proof took {s.get('nodes')} nodes, not {workload.nodes}")
        call.steps, call.step_s = float(s.get("nodes", "nan")), call.wall
        return

    try:
        best = float(s["best_cost"])
        iterations = int(s["iterations"])
        history = read_convergence(files["convergence"])
    except (KeyError, ValueError, OSError, IndexError) as err:
        problems.append(f"solve output incomplete: {err!r}")
        return
    if best < spec.lower - tol:
        problems.append(f"best_cost {best!r} below the proven lower bound {spec.lower!r}")
    if call.cost > best:
        problems.append(f"polish made the cost worse: {best!r} -> {call.cost!r}")
    if not history or history[-1][0] != iterations:
        problems.append(f"convergence log does not end at iteration {iterations}")
    if workload.iterations is not None and iterations != workload.iterations:
        problems.append(f"ran {iterations} iterations, asked for {workload.iterations}")
    if workload.best_costs is not None:
        expected = workload.best_costs.get(call.ga_seed)
        if expected is None:
            problems.append(f"no recorded best_cost for GA seed {call.ga_seed}")
        elif best != expected:
            problems.append(f"best_cost {best!r} differs from the recorded {expected!r} "
                            f"for GA seed {call.ga_seed}")
    if workload.time_limit is not None:
        allowed = workload.time_limit + max(0.5, 0.1 * workload.time_limit)
        if call.wall > allowed:
            problems.append(f"took {call.wall:.3f} s on a {workload.time_limit} s budget")
    call.polish_gain = best - call.cost
    if history:
        call.steps, call.step_s = float(iterations), history[-1][1]
        call.generation_s = [b[1] - a[1] for a, b in zip(history, history[1:])]


def run_call(mcfcnf, workload: Workload, instance, files: dict, call: Call,
             tracer: spans.Tracer | None, paced: bool) -> None:
    """Call the CLI once and check the call. A paced call runs under a
    pace.Pacer, which sets call.pace."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = argv_for(workload, files, call.ga_seed)
    for stale in ("solution", "convergence"):
        files[stale].unlink(missing_ok=True)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spans.traced(tracer))
        pacer = stack.enter_context(pace.Pacer()) if paced else None
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        root = tracer.open(spans.ROOT) if tracer is not None else -1
        started = time.perf_counter()
        try:
            code = mcfcnf.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the program crashed: a failed call, not a harness error
            code = -1
            traceback.print_exc(file=stderr)
        call.wall = time.perf_counter() - started
        if tracer is not None:
            tracer.close(root)
    if pacer is not None:
        call.pace = pacer.factor
    call.summary = parse_summary(stdout.getvalue())
    check_call(mcfcnf, workload, instance, files, call, code, stderr.getvalue())


def measure_setup(instance_file: Path) -> list[float]:
    """import mcfcnf + load_instance + validate, each in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "MCFCNF_THREADS"}
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(HERE), str(SRC),
                               str(instance_file)],
                              capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
        out = done.stdout.strip()
        if done.returncode != 0 or out.startswith("infeasible"):
            raise HarnessError(f"setup failed: {out} {done.stderr.strip()[-500:]}")
        times.append(float(out))
    return times


def rate(call: Call) -> float:
    return call.steps / call.step_s if call.step_s > 0 else math.nan


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        ga_seed: int | None) -> dict:
    mcfcnf = import_solver()
    os.environ.pop("MCFCNF_THREADS", None)
    workload = WORKLOADS[workload_name]
    spec = reference.INSTANCES[workload.instance]
    work = HERE / ".work" / f"{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = {"instance": work / f"{workload.instance}.mcfcnf",
                 "solution": work / "solution.csv",
                 "convergence": work / "convergence.csv"}
        mcfcnf.save_instance(
            mcfcnf.generate_random(spec.kind, spec.n_vertices, spec.n_capacities,
                                   seed=spec.seed, target_fraction=spec.target_fraction),
            files["instance"])
        instance = mcfcnf.load_instance(files["instance"])
        setup = [] if trace else measure_setup(files["instance"])

        tracer = spans.Tracer() if trace else None
        calls: list[Call] = []
        started = time.perf_counter()
        while (not calls or time.perf_counter() - started < seconds
               or (trace and not any(c.traced for c in calls))):
            i = len(calls)
            call = Call(ga_seed=ga_seed if ga_seed is not None
                        else (seed + i) % reference.DEVELOPMENT_SEEDS,
                        traced=trace and i % 2 == 1)
            run_call(mcfcnf, workload, instance, files, call,
                     tracer if call.traced else None, paced=not trace)
            calls.append(call)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in calls if c.problems]
    for c in failed:
        for problem in c.problems:
            print(f"FAILED (GA seed {c.ga_seed}): {problem}", file=sys.stderr)
    plain = [c for c in calls if not c.traced]
    print(f"workload {workload_name}: {len(calls)} calls ({len(plain)} untraced), "
          f"fail_ratio {len(failed)}/{len(calls)}, nproc {os.cpu_count()}")

    if trace:
        traced_calls = [c for c in calls if c.traced]
        overhead = 100.0 * (median(map(rate, plain)) / median(map(rate, traced_calls)) - 1.0)
        metrics, notes = spans.layer_metrics(
            tracer, [g for c in traced_calls for g in c.generation_s],
            [c.polish_gain for c in traced_calls if c.polish_gain is not None], overhead)
        units = spans.LAYER_UNITS
    else:
        # A time-limited call's wall time is its budget: it is reported as
        # is, to show the budget honoured, not scaled by the machine's speed.
        fixed_work = workload.time_limit is None
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": median(c.wall * (c.pace if fixed_work else 1.0) for c in plain),
            "cost_ratio": median(c.cost / spec.optimum for c in plain),
            "steps_per_s": median(rate(c) / c.pace for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = [f"setup_s: n={len(setup)}"] + [
            f"{name}: n={len(plain)}" for name in ("solve_s", "cost_ratio", "steps_per_s")]
        units = END_TO_END_UNITS
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    # a metric no call could give (every call failed) is NaN, which JSON lacks
    finite = all(math.isfinite(metrics[name]) for name in units)
    return {
        "correct": not failed and finite,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0,
                           "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ga-seed", type=int, default=None,
                        help="pin every call to this GA seed (must have a recorded "
                             "result on workloads that check one)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.ga_seed)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

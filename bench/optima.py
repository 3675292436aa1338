#!/usr/bin/env python3
"""Recompute the benchmark's reference optima with HiGHS and check them.

Usage: python3 bench/optima.py

Each instance is generated from its spec in reference.py, saved and loaded
back exactly as the benchmark does, then solved as a mixed-integer program
with scipy.optimize.milp (HiGHS): one continuous flow f and one binary use
indicator y per offered (edge, class) pair, f <= c_k * y (big M equal to the
class capacity), flow conservation with the target leaving the source.
The script exits 1 when a stored constant disagrees with what HiGHS
proves. It needs scipy; the benchmark itself never imports it.
"""
from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from mcfcnf import generate_random, load_instance, save_instance  # noqa: E402

#: Seconds HiGHS may take per instance; desk, the slowest, needs about 30.
TIME_LIMIT_S = 600.0


def milp_optimum(instance, gap: float, time_limit: float):
    """Return (primal cost, dual bound) of the big-M model."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    edge_of, cap_of = np.nonzero(instance.available)
    n_pairs = len(edge_of)
    caps = instance.capacities[cap_of]
    tails = np.array([instance.edges[e][0] for e in edge_of])
    heads = np.array([instance.edges[e][1] for e in edge_of])
    pairs = np.arange(n_pairs)

    cost = np.concatenate([instance.variable_cost[edge_of, cap_of],
                           instance.fixed_cost[edge_of, cap_of]])
    integrality = np.concatenate([np.zeros(n_pairs), np.ones(n_pairs)])
    bounds = Bounds(np.zeros(2 * n_pairs), np.concatenate([caps, np.ones(n_pairs)]))

    # f_p - c_k y_p <= 0
    link = coo_array((np.concatenate([np.ones(n_pairs), -caps]),
                      (np.concatenate([pairs, pairs]),
                       np.concatenate([pairs, pairs + n_pairs]))),
                     shape=(n_pairs, 2 * n_pairs))
    # outflow - inflow = supply at every vertex
    balance = coo_array((np.concatenate([np.ones(n_pairs), -np.ones(n_pairs)]),
                         (np.concatenate([tails, heads]), np.concatenate([pairs, pairs]))),
                        shape=(instance.n_vertices, 2 * n_pairs))
    supply = np.zeros(instance.n_vertices)
    supply[instance.source] += instance.target
    supply[instance.sink] -= instance.target

    result = milp(cost, integrality=integrality, bounds=bounds,
                  constraints=[LinearConstraint(link, -np.inf, 0.0),
                               LinearConstraint(balance, supply, supply)],
                  options={"mip_rel_gap": gap, "time_limit": time_limit, "disp": False})
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {result.message}")
    return float(result.fun), float(result.mip_dual_bound)


def main() -> int:
    mismatches = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in sorted(reference.INSTANCES):
            spec = reference.INSTANCES[name]
            path = Path(tmp) / f"{name}.mcfcnf"
            save_instance(generate_random(spec.kind, spec.n_vertices, spec.n_capacities,
                                          seed=spec.seed,
                                          target_fraction=spec.target_fraction), path)
            instance = load_instance(path)
            started = time.perf_counter()
            primal, dual = milp_optimum(instance, spec.highs_gap, TIME_LIMIT_S)
            took = time.perf_counter() - started
            tol = reference.COST_TOL * max(1.0, abs(primal))
            ok = abs(primal - spec.optimum) <= tol and dual >= spec.lower - tol
            mismatches += not ok
            print(f"{name}: optimum={primal!r} dual_bound={dual!r} "
                  f"stored=({spec.optimum!r}, {spec.lower!r}) "
                  f"highs_s={took:.1f} {'OK' if ok else 'MISMATCH'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Fixed inputs and reference values of the benchmark.

Every instance is built by mcfcnf.generate_random from its spec and written
with save_instance; the solver only ever receives the file. The optima were
computed by HiGHS through scipy.optimize.milp on the saved files (Huangfu and
Hall, Math. Prog. Comp. 10, 2018). optima.py recomputes and checks them, so
the benchmark never imports scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

#: Relative tolerance for comparing a cost with a stored reference.
COST_TOL = 1e-6


@dataclass(frozen=True)
class InstanceSpec:
    kind: str
    n_vertices: int
    n_capacities: int
    seed: int
    target_fraction: float
    optimum: float     # HiGHS primal cost: the best known cost
    lower: float       # HiGHS dual bound: no flow costs less
    highs_gap: float   # relative MIP gap HiGHS was run with


INSTANCES = {
    # acceptance-7 "desk" instance, 2619 pairs, target 6; HiGHS needs ~30 s
    # to close the gap to 1e-4, so optimum and lower bound differ by that gap
    "desk": InstanceSpec("geometric", 130, 3, 7, 0.6,
                         optimum=704.246467250286, lower=704.1793305261132,
                         highs_gap=1e-4),
    # acceptance-8 instance large_a, 3114 pairs, target 11
    "large_a": InstanceSpec("geometric", 150, 3, 81, 0.5,
                            optimum=589.2558619689647, lower=589.2558619689647,
                            highs_gap=1e-6),
    # 468 pairs, target 75; branch-and-bound also proves this optimum
    "grid81": InstanceSpec("grid", 81, 2, 6, 0.6,
                           optimum=3466.792906966959, lower=3466.792906966945,
                           highs_gap=1e-6),
}

#: Pre-polish best_cost of `solve --iterations 100 --seed S` on desk, which
#: replays bit-identically per GA seed. Seeds 0-15 are the development pool
#: the benchmark draws from; 1009 is held out for re-checking a claim.
DESK_BEST_COST_100 = {
    **{seed: 718.651867926726 for seed in range(16)},
    6: 717.6817985384963,
    1009: 718.651867926726,  # held out
}
DEVELOPMENT_SEEDS = 16

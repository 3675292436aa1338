"""True-cost scoring of flows and constraint verification.

A flow's true cost charges each (edge, class) pair its full fixed cost
whenever the pair carries any flow, plus the variable cost per unit carried.
"Any" means more than flowcore.flow_tol(target), which verify_flow allows on
every constraint, so it accepts every shortfall a solver may leave.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .flowcore import FlowSolution, FlowState, Topology, flow_tol

if TYPE_CHECKING:
    from .instance import Instance

#: Floating-point allowance of verify_flow on each constraint, absolute.
VERIFY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ScoredSolution:
    """A flow plus its pair-use indicators and true (fixed + variable) cost."""

    flow: FlowSolution
    used: np.ndarray
    true_cost: float

    def __post_init__(self):
        used = np.array(self.used, dtype=np.int8)
        used.setflags(write=False)
        object.__setattr__(self, "used", used)


def _check_shape(instance: Instance, flow: FlowSolution) -> None:
    shape = (instance.n_edges, instance.n_capacities)
    if flow.flow.shape != shape:
        raise ValueError(f"flow shape {flow.flow.shape} does not match "
                         f"instance (edges, capacities) {shape}")


def score(instance: Instance, flow: FlowSolution) -> ScoredSolution:
    """Compute use indicators and the true cost of a flow.

    Pure and deterministic; does not verify flow validity (see verify_flow).
    """
    _check_shape(instance, flow)
    avail = instance.available
    g = flow.flow
    used = (g > flow_tol(instance.target)) & avail
    fixed_part = float(instance.fixed_cost[used].sum())
    variable_part = float((instance.variable_cost[avail] * g[avail]).sum())
    return ScoredSolution(flow=flow, used=used.astype(np.int8),
                          true_cost=fixed_part + variable_part)


def compile_true_cost(instance: Instance, topology: Topology) -> Callable[[FlowState], float]:
    """True cost of a solve's end state on topology, bit for bit score's: both
    sum, pairwise by position, the used pairs' fixed costs in pair order, then
    variable cost times flow over all offered pairs (a subset's scattered in)."""
    tol = flow_tol(instance.target)
    fixed = topology.arc_costs(instance.fixed_cost)
    variable = instance.variable_cost[instance.available]
    slot = np.searchsorted(np.flatnonzero(instance.available), topology.pairs)

    def true_cost(state: FlowState) -> float:
        flows, carried = state.residual[1::2], np.zeros(len(variable))
        carried[slot[state.arcs]] = flows
        return float(fixed[state.arcs[flows > tol]].sum()) + float((variable * carried).sum())

    return true_cost


def verify_flow(instance: Instance, flow: FlowSolution) -> list[str]:
    """Check capacities, conservation at internal vertices and the target,
    each within max(VERIFY_TOL, flow_tol(target)). Returns one message per
    violation, naming the offending edge/vertex and the residual."""
    _check_shape(instance, flow)
    tol = max(VERIFY_TOL, flow_tol(instance.target))
    g = flow.flow
    avail = instance.available
    violations: list[str] = []

    for e, k in zip(*np.nonzero(g < -tol)):
        violations.append(f"edge {e} capacity {k}: negative flow {float(g[e, k])!r}")
    for e, k in zip(*np.nonzero(~avail & (np.abs(g) > tol))):
        violations.append(f"edge {e} capacity {k}: flow {float(g[e, k])!r} on an unavailable class")
    over = avail & (g > instance.capacities[None, :] + tol)
    for e, k in zip(*np.nonzero(over)):
        excess = float(g[e, k] - instance.capacities[k])
        violations.append(f"edge {e} capacity {k}: flow {float(g[e, k])!r} exceeds "
                          f"capacity {float(instance.capacities[k])!r} by {excess!r}")

    per_edge = np.where(avail, g, 0.0).sum(axis=1)
    # over the vertices the edges touch, then source and sink, numbered in order
    vertices, index = np.unique(np.append(np.asarray(instance.edges, dtype=np.int64),
                                          [instance.source, instance.sink]), return_inverse=True)
    outflow = np.bincount(index[:-2:2], weights=per_edge, minlength=len(vertices))
    inflow = np.bincount(index[1:-2:2], weights=per_edge, minlength=len(vertices))
    residual = inflow - outflow
    residual[index[-2:]] = 0.0
    for v in np.flatnonzero(np.abs(residual) > tol):
        violations.append(f"vertex {vertices[v]}: conservation violated, "
                          f"residual {float(residual[v])!r}")

    sent = float(outflow[index[-2]])
    if abs(sent - instance.target) > tol:
        violations.append(f"source outflow {sent!r} misses target {instance.target!r} "
                          f"by {sent - instance.target!r}")
    return violations


def write_solution_csv(path, scored: ScoredSolution) -> None:
    """Write the used pairs as CSV rows plus a true-cost trailer comment."""
    g = scored.flow.flow
    lines = ["edge_index,capacity_index,flow,z"]
    for e, k in zip(*np.nonzero(g > 0.0)):
        lines.append(f"{e},{k},{float(g[e, k])!r},{int(scored.used[e, k])}")
    lines.append(f"# true_cost={scored.true_cost!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

"""True-cost scoring of flows and constraint verification.

A flow's true cost charges each (edge, class) pair its full fixed cost
whenever the pair carries any flow, plus the variable cost per unit carried.
"Any" means more than flowcore.flow_tol(target), which verify_flow allows on
every constraint, so it accepts every shortfall a solver may leave. One
function, true_cost, prices every flow in arc space.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .flowcore import FlowSolution, Topology, check_pair_shape, compile_topology, flow_tol

if TYPE_CHECKING:
    from .instance import Instance

#: Floating-point allowance of verify_flow on each constraint, absolute.
VERIFY_TOL = 1e-7

#: Relative bound on |estimate - true_cost| for the kernel's estimate (see
#: flowcore.solve_min_cost_flow). Both add the same nonnegative terms, the
#: used arcs' fixed costs and variable cost x flow, in different orders, and
#: any order of adding n such terms is within (n - 1) u / (1 - (n - 1) u) of
#: their exact sum, u = 2**-53 (Higham, Accuracy and Stability of Numerical
#: Algorithms, 2002, sec. 4.2). With both parts and their sum, the two are
#: within 2.3e-10 of each other, relative, for fewer than a million offered pairs.
TRUE_COST_MARGIN = 1e-9


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


def true_cost(topology: Topology, arcs: np.ndarray, amounts: np.ndarray) -> float:
    """True cost of amounts on the topology's arcs (ascending): the used arcs'
    fixed costs, then variable cost times flow over all the instance's
    offered pairs (a subset's scattered in), each summed in pair order, so a
    flow's cost has the same bits on every topology that holds its arcs."""
    carried = np.zeros(len(topology.variable))
    carried[topology.slot[arcs]] = amounts
    return (float(topology.fixed[arcs[amounts > flow_tol(topology.target)]].sum())
            + float((topology.variable * carried).sum()))


def score(instance: Instance, flow: FlowSolution) -> ScoredSolution:
    """Use indicators and true cost of a flow: a solve's of this instance from
    its end state, any other from its dense matrix. Pure and deterministic;
    does not verify flow validity (see verify_flow).
    """
    topology = flow.topology
    if flow.state is not None and topology.available is instance.available:
        arcs, amounts = flow.state.arcs, flow.state.residual[1::2]
    else:  # a dense flow, or a solve of another instance: priced at this one's costs
        check_pair_shape(instance, flow.flow, "flow")
        topology = compile_topology(instance)
        arcs, amounts = np.arange(len(topology.pairs)), flow.flow.reshape(-1)[topology.pairs]
    used = np.zeros(instance.available.shape, dtype=np.int8)
    used.reshape(-1)[topology.pairs[arcs[amounts > flow_tol(instance.target)]]] = 1
    return ScoredSolution(flow=flow, used=used, true_cost=true_cost(topology, arcs, amounts))


def verify_flow(instance: Instance, flow: FlowSolution) -> list[str]:
    """Check capacities, conservation at internal vertices and the target,
    each within max(VERIFY_TOL, flow_tol(target)), which a NaN fails. Returns
    one message per violation, naming the offending edge/vertex and the residual."""
    check_pair_shape(instance, flow.flow, "flow")
    tol = max(VERIFY_TOL, flow_tol(instance.target))
    g = flow.flow
    avail = instance.available
    violations: list[str] = []

    for e, k in zip(*np.nonzero(~(g >= -tol))):
        violations.append(f"edge {e} capacity {k}: negative or NaN flow {float(g[e, k])!r}")
    for e, k in zip(*np.nonzero(~avail & ~(np.abs(g) <= tol))):
        violations.append(f"edge {e} capacity {k}: flow {float(g[e, k])!r} on an unavailable class")
    over = avail & ~(g <= instance.capacities[None, :] + tol)
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
    for v in np.flatnonzero(~(np.abs(residual) <= tol)):
        violations.append(f"vertex {vertices[v]}: conservation violated, "
                          f"residual {float(residual[v])!r}")

    sent = float(outflow[index[-2]])
    if not abs(sent - instance.target) <= tol:
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

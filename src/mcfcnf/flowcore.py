"""Exact solver for the scaled-fixed-cost flow relaxation.

Every offered (edge, capacity class) pair becomes one arc with capacity c_k
and unit cost fixed/scale + variable, so the relaxation reduces to a plain
min-cost flow of the target amount from source to sink, solved by successive
shortest augmenting paths with vertex potentials: exact and deterministic
(ties resolved by lowest arc index). A solve is one call of a C kernel
(_ssp.c: residual setup, warm-start repair, augmentation and cost, and for
a branch-and-bound node also the cost patch of its opened arcs, their fixed
costs, a true-cost estimate and the branch arc), built by the system's C
compiler on first use and loaded through ctypes (load_kernel).

The network is compiled once per instance (compile_topology: arcs, their
pair costs, residual heads and capacities, CSR adjacency, kept on the
instance) and solved many times from a per-arc cost vector and a set of
closed arcs: a GA decode changes the costs, a branch-and-bound node also
closes arcs. An organism holds one divisor per arc; build_expanded_network
holds the one relaxed-cost formula; under seed_organism, divisors equal to
the class capacities, it is the slope-scaling relaxation: the GA's seed
decode, the branch-and-bound root and lp_relaxation_bound. A closed arc
keeps its place in the arc order with no capacity, so every tie-break is
the one of the instance without its pair. A solve returns its end state
(FlowState), which is scored in arc space; the dense (edge, class) flow is
built from it only when read, by verify_flow, theorem_d or output. A
branch-and-bound child, one arc closed or cheaper, is solved by repairing
its parent's end state (Ahuja, Magnanti & Orlin, Network Flows, 1993,
ch. 9). Max flow is one call of the same kernel at zero cost, which makes
it Edmonds-Karp, sending an unbounded amount: it stops at a path of
infinite capacity. One rule, flow_tol, says what flow amount counts as
zero, for every solver, validate, score and verify_flow.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import shlex
import sysconfig
import tempfile
import threading
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .instance import Instance

#: Scale value meaning "the scaled fixed cost is exactly zero". IEEE infinity
#: divides any finite fixed cost to an exact 0.0, with no overflow.
UNBOUNDED = math.inf

#: Global floor for finite scale entries.
D_MIN = 1e-6

#: Relative flow tolerance of the one zero rule (see flow_tol).
FLOW_TOL = 1e-12


def flow_tol(target: float) -> float:
    """Zero flow: the shortfall a solve may leave, the most an unused pair
    may carry (so it pays no fixed charge)."""
    return FLOW_TOL * max(1.0, target)


def unroutable(target: float, max_flow: float) -> str:
    """The one message for a target above the network's max flow."""
    return f"target exceeds max flow (target={float(target)!r}, max flow={float(max_flow)!r})"


class Infeasible(Exception):
    """The network cannot carry the target flow amount; it carries max_flow."""

    def __init__(self, message: str, max_flow: float):
        super().__init__(message)
        self.max_flow = max_flow


class FlowIterationError(RuntimeError):
    """Augmentation count exceeded the safety cap (pathological input)."""


@dataclass(frozen=True, eq=False)
class Organism:
    """Fixed-cost divisors, one per arc of compile_topology(instance): the
    offered (edge, capacity class) pairs, in ascending flat order.

    Finite entries are at least D_MIN, exactly: every producer floors at
    it. UNBOUNDED entries zero out the fixed cost entirely. Its key, the
    divisor bytes, identifies the genome: equal keys decode alike.
    """

    scale: np.ndarray

    def __post_init__(self):
        scale = np.array(self.scale, dtype=np.float64)
        if not (scale.size and scale.min() >= D_MIN):  # one pass when all pass
            if np.isnan(scale).any():
                raise ValueError("scale entries must not be NaN")
            if (scale < D_MIN).any():
                raise ValueError(f"scale entries must be >= D_MIN ({D_MIN}) or UNBOUNDED (inf)")
        scale.setflags(write=False)
        object.__setattr__(self, "scale", scale)

    @functools.cached_property
    def key(self) -> bytes:
        """The divisor bytes, made on first read and kept (scale is read-only)."""
        return self.scale.tobytes()


@dataclass(frozen=True, eq=False)
class Topology:
    """Capacity-expanded network of one instance, with its pairs' own costs:
    one arc per offered (edge, class) pair, or per pair of a subset, in (edge,
    class) order, between the vertices those arcs touch (plus source and
    sink), renumbered in order. Residual id 2i is arc i forward, 2i+1 back."""

    n_vertices: int
    source: int
    sink: int
    target: float
    available: np.ndarray           # the instance's own (edge, class) mask of offered pairs
    pairs: np.ndarray               # flat (edge, class) index of each arc
    fixed: np.ndarray               # fixed cost of each arc
    slot: np.ndarray                # index of each arc's pair among the offered pairs
    variable: np.ndarray            # variable cost of each offered pair, in pair order
    head: np.ndarray                # int32 head vertex of each residual id
    capacity: np.ndarray            # float64 initial residual capacity of each residual id
    adj_start: np.ndarray           # int32: ids leaving u are adj[adj_start[u]:adj_start[u + 1]]
    adj: np.ndarray                 # int32 residual ids, by tail vertex, ascending

    def __post_init__(self):  # checks the kernel's arrays and binds them once
        n, m = self.n_vertices, len(self.pairs)
        # each arc's variable cost: a decode's cost per unit beside the scaled fixed
        # cost, and an opened arc's in a branch-and-bound node
        unit_cost = np.ascontiguousarray(self.variable[self.slot], dtype=np.float64)
        network = _Network(
            _address(self.head, np.int32, 2 * m, "head"),
            _address(self.adj_start, np.int32, n + 1, "adj_start"),
            _address(self.adj, np.int32, 2 * m, "adj"),
            _address(self.capacity, np.float64, 2 * m, "capacity"), _pointer(unit_cost),
            _address(self.fixed, np.float64, m, "fixed"), flow_tol(self.target), m, n,
            self.source, self.sink)
        object.__setattr__(self, "_unit_cost", unit_cost)
        object.__setattr__(self, "_network", network)
        object.__setattr__(self, "_kernel_args", (n, m, ctypes.addressof(network)))

    def __reduce__(self):  # a copy's arrays live elsewhere: bind them anew
        return Topology, tuple(getattr(self, f.name) for f in fields(self))


class _Network(ctypes.Structure):
    """_ssp.c's network: a topology's arrays, bound once."""
    _fields_ = [*((name, ctypes.c_void_p) for name in
                  ("head", "adj_start", "adj", "capacity", "unit_cost", "fixed")),
                ("tol", ctypes.c_double), ("m", ctypes.c_int64), ("n", ctypes.c_int32),
                ("source", ctypes.c_int32), ("sink", ctypes.c_int32)]


class _Workspace(ctypes.Structure):
    """_ssp.c's workspace: the arrays a thread's solves write."""
    _fields_ = [(name, ctypes.c_void_p) for name in
                ("res", "pairs", "out", "work", "node_cost", "arcs", "is_open")]


class ExpandedNetwork(NamedTuple):
    """A compiled topology under one per-arc cost vector. Closed arcs carry
    no flow; they keep their place in the arc order, so the solve equals
    the one on the instance without their pairs. Opened arcs, a
    branch-and-bound node's, cost their variable cost per unit instead."""

    topology: Topology
    cost: np.ndarray                # or any sequence of floats, one per arc
    closed: frozenset[int] = frozenset()
    opened: frozenset[int] = frozenset()


class FlowState(NamedTuple):
    """Where an optimal solve ended, compactly: the carrying arcs, their
    forward and reverse residuals in turn (arrays, or lists), vertex
    potentials that keep every reduced cost nonnegative, and the shortfall."""

    arcs: np.ndarray
    residual: np.ndarray
    potential: np.ndarray
    shortfall: float


class FlowSolution:
    """Flow per (edge, class) pair and relaxation objective. A solve's holds its
    end state, topology and node (see solve_min_cost_flow), and builds the
    read-only dense flow when first read."""

    def __init__(self, flow: np.ndarray | None, lp_cost: float,
                 state: FlowState | None = None, topology: Topology | None = None,
                 node: tuple[float, float, int] | None = None):
        self._flow = None if flow is None else np.array(flow, dtype=np.float64)
        self.lp_cost, self.state, self.topology, self.node = lp_cost, state, topology, node

    @property
    def flow(self) -> np.ndarray:
        if self._flow is None:
            self._flow = np.zeros(self.topology.available.shape)
            self._flow.reshape(-1)[self.topology.pairs[self.state.arcs]] = self.state.residual[1::2]
        self._flow.setflags(write=False)
        return self._flow


def compile_topology(instance: Instance) -> Topology:
    """The instance's topology, compiled on first use and kept on the
    (immutable) instance for every later solve. It checks nothing: every
    Instance holds its structural invariants from construction."""
    topology = getattr(instance, "_topology", None)
    if topology is None:
        topology = compile_pairs(instance, np.flatnonzero(instance.available.reshape(-1)))
        object.__setattr__(instance, "_topology", topology)
    return topology


def compile_pairs(instance: Instance, pairs: np.ndarray) -> Topology:
    """Topology of only the given offered pairs (ascending flat (edge, class)
    indices), not cached. Leaving a pair's arc out solves exactly like
    closing it, but no solve pays for the arc or for a vertex left bare."""
    n_caps, offered = instance.n_capacities, np.flatnonzero(instance.available.reshape(-1))
    ends = np.asarray(instance.edges, dtype=np.intp).reshape(-1, 2)[pairs // n_caps]
    # the arcs' ends, then source and sink, by their number among the kept vertices
    kept, index = np.unique(np.append(ends, [instance.source, instance.sink]),
                            return_inverse=True)
    n, index = len(kept), index.astype(np.int32)
    head = index[:-2].reshape(-1, 2)[:, ::-1].flatten()
    capacity = np.zeros(2 * len(pairs))
    capacity[0::2] = instance.capacities[pairs % n_caps]
    leaving = index[:-2]  # tail of each residual id
    adj_start = np.zeros(n + 1, dtype=np.int32)
    adj_start[1:] = np.cumsum(np.bincount(leaving, minlength=n))
    return Topology(
        n_vertices=n, source=int(index[-2]), sink=int(index[-1]), target=instance.target,
        available=instance.available, pairs=pairs, fixed=instance.fixed_cost.reshape(-1)[pairs],
        slot=np.searchsorted(offered, pairs), variable=instance.variable_cost.reshape(-1)[offered],
        head=head, capacity=capacity, adj_start=adj_start,
        adj=np.argsort(leaving, kind="stable").astype(np.int32),
    )


def check_pair_shape(instance: Instance, array: np.ndarray, what: str) -> None:
    """ValueError unless array holds one entry per (edge, class) pair."""
    shape = (instance.n_edges, instance.n_capacities)
    if array.shape != shape:
        raise ValueError(f"{what} shape {array.shape} does not match "
                         f"instance (edges, capacities) {shape}")


def build_expanded_network(instance: Instance, organism: Organism) -> ExpandedNetwork:
    """Expand an instance under an organism's fixed-cost divisors: each arc
    costs fixed/scale + variable per unit, the one relaxed-cost formula."""
    topology = compile_topology(instance)
    if organism.scale.shape != topology.pairs.shape:
        raise ValueError(f"organism shape {organism.scale.shape} does not match "
                         f"the instance's {len(topology.pairs)} offered pairs")
    return ExpandedNetwork(topology, topology.fixed / organism.scale + topology._unit_cost)


def seed_organism(instance: Instance) -> Organism:
    """Divisors equal to each offered pair's class capacity (floored at
    D_MIN), the one slope-scaling rule (Kim & Pardalos, Oper. Res. Lett. 24
    (1999) 195-203): the GA's seed organism, whose decode is
    lp_relaxation_bound and the branch-and-bound root."""
    pairs = compile_topology(instance).pairs
    return Organism(scale=np.maximum(instance.capacities, D_MIN)[pairs % instance.n_capacities])


#: C source of the SSP kernel, next to this module.
_SOURCE = Path(__file__).with_name("_ssp.c")

#: Flags the kernel is compiled with: IEEE doubles evaluated in source order
#: (no fused multiply-add contraction, no -ffast-math, no -march), so its
#: bits are the same on every machine and equal the reference loop's.
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class KernelBuildError(OSError):
    """The C compiler could not build the SSP kernel."""


def build_kernel(directory: Path, command: Sequence[str]) -> Path:
    """The SSP kernel's shared library in directory, compiled by command (a C
    compiler's argv) unless it is there already. Its name holds the CRC-32
    of the source bytes and flags, so a library built from other bytes is
    never loaded (a CRC, not hashlib, whose import alone takes longer than
    loading the kernel). It is compiled from the bytes hashed, under a
    temporary name renamed into place: builds racing in one directory all
    succeed, and none sees a partial file."""
    source = _SOURCE.read_bytes()
    library = Path(directory) / f"_ssp-{zlib.crc32(source + ' '.join(_CFLAGS).encode()):08x}.so"
    if library.is_file():
        return library
    library.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix="_ssp-", suffix=".tmp", dir=library.parent)
    os.close(fd)
    argv = [*command, *_CFLAGS, "-x", "c", "-", "-o", partial]
    import subprocess  # here, not at the top: only a build pays for its import
    try:
        try:
            done = subprocess.run(argv, input=source, capture_output=True, check=False)
        except OSError as err:
            raise KernelBuildError(f"cannot run {shlex.join(argv)}: {err}") from err
        if done.returncode != 0:
            raise KernelBuildError(f"{shlex.join(argv)} exited with status {done.returncode}:\n"
                                   + done.stderr.decode(errors="replace"))
        os.replace(partial, library)
    finally:
        Path(partial).unlink(missing_ok=True)
    return library


def _address(array: np.ndarray, dtype: type, length: int, what: str) -> int:
    """Address of array's data, once it is a C-contiguous 1-D dtype array."""
    if not (type(array) is np.ndarray and array.dtype == dtype and array.ndim == 1
            and array.flags.c_contiguous):
        raise TypeError(f"{what} must be a C-contiguous 1-D {np.dtype(dtype)} ndarray")
    if len(array) != length:
        raise ValueError(f"{what} has {len(array)} entries, not {length}")
    return _pointer(array)


def _pointer(array: np.ndarray) -> int:
    """Address of a C-contiguous 1-D array's data, unchecked."""
    try:  # faster than array.ctypes, which read-only and empty arrays need
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def load_kernel(directory: Path, command: Sequence[str]) -> Callable[..., tuple]:
    """Load the kernel built by build_kernel(directory, command) as solve(
    topology, cost, closed, opened, start, changed, amount, stop, push_cap)
    -> (left, lp_cost, res, pot, arcs, sent, residual, constant, estimate,
    branch): one C call for the whole solve of solve_min_cost_flow, or of
    max_flow at zero cost, sending amount one shortest path at a time
    (Dijkstra stopped at the sink, ties to the first vertex pushed) until at
    most stop is left, no path is left, or a path's bottleneck is infinite
    (sent is then infinite). More than push_cap paths raise
    FlowIterationError: no bound is proven for a costed solve
    (test_push_cap_never_reached checks solve_min_cost_flow's cap); at zero
    cost Edmonds-Karp's holds (max_flow). Before C runs, it checks `changed`,
    the cost's dtype, contiguity and length (a topology's arrays' once, when
    built) and the shapes of the start's arrays, which it converts to the
    kernel's dtypes; C checks, before it writes, that each cost
    and opened arc's variable cost is >= 0 and each arc index in 0..m-1.

    The same call is a whole branch-and-bound node: the opened arcs cost
    their variable cost per unit, and constant, estimate and branch are
    _ssp.c's out[3:6]; residual holds the carrying arcs' residual pairs.

    The kernel works in arrays kept per thread, grown to the largest
    topology that thread has solved, so threads solve at once and no call
    allocates them. The returned res is a view of them, valid only until
    the thread's next solve; the other arrays are the call's own.

    solve.sample(words, length, count, pool) -> (used, positions) is the same
    library's sample_positions: the picks random.sample(range(length),
    count) makes from the generator words `words` (bytes, 4 little-endian
    per word, in draw order), pool giving CPython's branch. used is the
    number of words they took, or minus at least how many more they need
    (positions then means nothing). ValueError unless 0 <= count <= length
    < 2**32, where each draw takes one word; its scratch array is the
    call's own.
    """
    library = ctypes.CDLL(str(build_kernel(directory, command)))
    int64, int32, double = ctypes.c_int64, ctypes.c_int32, ctypes.c_double
    pointer = ctypes.c_void_p
    function, sampler = library.ssp_solve, library.sample_positions
    function.argtypes = [pointer, pointer, pointer, int64, int64, pointer, pointer, int64,
                         int64, int32, double, double, int64, pointer, pointer]
    function.restype = int64
    sampler.argtypes = [pointer, int64, int64, int64, int32, pointer, pointer]
    sampler.restype = int64
    local = threading.local()

    def workspace(n: int, m: int) -> tuple:
        """This thread's (res, pairs, out, arcs) arrays and the address of its
        workspace, for at least n vertices and m arcs."""
        work = getattr(local, "work", None)
        if work is None or work[0] < n or work[1] < m:
            if work is not None:
                n, m = max(n, work[0]), max(m, work[1])
            arrays = (np.empty(2 * m), np.empty(2 * m), np.empty(6), np.empty(4 * n),
                      np.empty(m), np.empty(m, dtype=np.int64), np.zeros(m, dtype=np.int8))
            struct = _Workspace(*map(_pointer, arrays))  # kept, with arrays, as long as work
            res, pairs, out, _, _, arcs, _ = arrays
            work = local.work = (n, m, (res, pairs, out, arcs, ctypes.addressof(struct)),
                                 arrays, struct)
        return work[2]

    def solve(topology: Topology, cost: np.ndarray, closed: frozenset[int],
              opened: frozenset[int], start: FlowState | None, changed: int | None,
              amount: float, stop: float, push_cap: int) -> tuple:
        n, m, network = topology._kernel_args
        costs = _address(cost, np.float64, m, "cost")
        pot, k, arcs, residual = np.zeros(n), 0, None, None
        if start is not None:  # arcs and residuals may come as lists
            start_arcs, start_res = (np.ascontiguousarray(start.arcs, dtype=np.int64),
                                     np.ascontiguousarray(start.residual, dtype=np.float64))
            pot, k = np.array(start.potential, dtype=np.float64), start_arcs.size
            if (start_arcs.ndim != 1 or start_res.shape != (2 * k,) or pot.ndim != 1
                    or len(pot) < n):
                raise ValueError(f"start does not fit {n} vertices and {m} arcs")
            arcs, residual = _pointer(start_arcs), _pointer(start_res)
        try:  # the opened arcs, then the closed ones; an index past int64 is outside 0..m-1
            node = np.fromiter((*opened, *closed), np.int64, len(opened) + len(closed))
        except OverflowError:
            node = None
        res, pairs, out, carrying, work = workspace(n, m)
        count = -3 if node is None or changed is not None and not 0 <= changed < m else function(
            network, costs, _pointer(node) if len(node) else None, len(opened), len(closed),
            arcs, residual, k, -1 if changed is None else int(changed), changed in closed,
            amount, stop, push_cap, _pointer(pot), work)
        left, lp_cost, sent, constant, estimate, branch = out.tolist()
        if count <= -5:  # branch is the arc whose cost (-5) or unit cost (-6) is not >= 0
            unit, bad = (cost, topology._unit_cost)[-5 - count], int(branch)
            raise ValueError(f"arc {bad} has unit cost {unit[bad]}, not >= 0")
        if count < 0:
            raise (FlowIterationError(f"augmentation count exceeded {push_cap}"),
                   ValueError(f"arc {changed}: infinite capacity, cannot saturate"),
                   ValueError(f"closed {sorted(closed)}, opened {sorted(opened)} or changed "
                              f"{changed} not in 0..{m - 1}"),
                   ValueError(f"start does not fit {n} vertices and {m} arcs"))[-1 - count]
        return (left, lp_cost, res[:2 * m], pot, carrying[:count].copy(), sent,
                pairs[:2 * count].copy(), constant, estimate, int(branch))

    def sample(words: bytes, length: int, count: int, pool: bool) -> tuple[int, np.ndarray]:
        if not 0 <= count <= length < 2**32:
            raise ValueError(f"cannot pick {count} of {length} positions, one word a draw")
        scratch, positions = np.empty(length, dtype=np.int64), np.empty(count, dtype=np.int64)
        used = sampler(words, len(words) // 4, length, count, pool, _pointer(scratch),
                       _pointer(positions))
        return used, positions

    solve.sample = sample
    return solve


@functools.cache
def _kernel() -> Callable[..., tuple]:
    """The kernel, built into this package's __pycache__ on first use."""
    return load_kernel(Path(__file__).with_name("__pycache__"),
                       shlex.split(sysconfig.get_config_var("CC") or "cc"))


def solve_min_cost_flow(net: ExpandedNetwork, start: FlowState | None = None,
                        changed: int | None = None) -> FlowSolution:
    """Route the target amount from source to sink at minimum cost.

    Requires nonnegative unit costs. Raises Infeasible (carrying the achieved
    max flow) when the network cannot deliver the target.

    Starts from zero flow and potentials, or from start, the end state of a
    solve of net before arc `changed` was closed (its flow is sent around it)
    or made cheaper (saturated if that pays, the surplus sent back; ValueError
    if infinite); without `changed` the target goes on top. Returns the end
    state too: a cold solve's equals that of one started from zero.

    lp_cost prices the flow with net's opened arcs at their variable cost.
    node is (constant, estimate, branch): the opened arcs' fixed costs, the
    flow's true cost within evaluate.TRUE_COST_MARGIN, and the arc to
    branch on, -1 if none (see _ssp.c).
    """
    topology, arc_cost, closed, opened = net
    target = topology.target
    cost = np.ascontiguousarray(arc_cost, dtype=np.float64)  # the kernel checks its values
    m = len(cost)
    shortfall = 0.0 if start is None else start.shortfall
    stop = flow_tol(target) - shortfall
    left, lp_cost, _, pot, arcs, _, residual, *node = _kernel()(
        topology, cost, closed, opened, start, changed, target, stop, 4 * (m - len(closed)) + 16)
    if left > stop:
        achieved = target - shortfall - left
        raise Infeasible(unroutable(target, achieved), max_flow=achieved)

    state = FlowState(arcs, residual, pot, shortfall + left)
    return FlowSolution(None, lp_cost, state, topology, tuple(node))


def lp_relaxation_bound(instance: Instance) -> float:
    """Optimal relaxation cost under seed_organism's divisors.

    Relaxing each use indicator to flow/capacity linearizes the fixed charge,
    so this value is a lower bound on the true optimum.
    """
    return solve_min_cost_flow(build_expanded_network(instance, seed_organism(instance))).lp_cost


def max_flow(topology: Topology, closed: frozenset[int] = frozenset()) -> float:
    """Max flow from source to sink over the open arcs of a compiled
    topology: the SSP kernel at zero cost, sending an unbounded amount.
    Every distance is then 0, so the kernel's heap pops vertices in push
    order, its tie-break, and each augmentation takes a path of fewest arcs
    (Edmonds-Karp). A path of infinite arcs makes the flow infinite and stops
    the kernel; every other path has a finite bottleneck, which a finite
    residual arc sets, and each of the 2m residual arcs is the bottleneck at
    most n/2 times (Edmonds & Karp, J. ACM 19 (1972) 248-264), so the push
    cap of m * n + 1 searches is never reached."""
    n, m = topology.n_vertices, len(topology.pairs)
    return _kernel()(topology, np.zeros(m), closed, frozenset(), None, None, math.inf, 0.0,
                     m * n + 1)[5]


def max_throughput(instance: Instance) -> float:
    """Max flow with each edge at its widest offered class only (the last,
    capacities being increasing).

    This is the target-sizing rule of generate_random and of the tests'
    instance sampler, not the feasibility test: one edge may carry flow in
    several classes at once, so validate() uses max_flow with every offered
    pair open, which can exceed this value.
    """
    topology = compile_topology(instance)
    edge = topology.pairs // instance.n_capacities
    narrower = np.flatnonzero(edge[:-1] == edge[1:])  # an arc of the same edge follows
    return max_flow(topology, frozenset(narrower.tolist()))

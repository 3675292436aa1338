"""The C min-cost-flow kernel against its pure-Python reference, and its
loader.

reference_solve is the solve the C kernel (src/mcfcnf/_ssp.c) replaces:
a branch-and-bound node's cost patch and constant, residual setup,
warm-start repair, the augmenting loop reference_augment, and the node's
true-cost estimate and branch arc, kept here unchanged in what they
compute. Every kernel call a solve or max_flow makes is run through both,
and the residuals, potentials, amount left, cost, carrying arcs, amount
sent, node facts and errors must agree bit for bit.
"""
import contextlib
import copy
import dataclasses
import math
import os
import pickle
import random
import shlex
import subprocess
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor
from heapq import heappop, heappush
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfcnf import (D_MIN, ExpandedNetwork, FlowIterationError, FlowState, Infeasible,
                    Instance, Organism, build_expanded_network, compile_topology, fitness,
                    generate_random, polish, solve_exact, solve_min_cost_flow)
from mcfcnf import flowcore
from mcfcnf.flowcore import (KernelBuildError, build_kernel, flow_tol, load_kernel, max_flow,
                             seed_organism)
from conftest import make_small_instance

SRC = Path(flowcore.__file__).resolve().parents[1]
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")


def reference_augment(n: int, head: list[int], adjacency: list[list[int]],
                      rcost: list[float], res: list[float], pot: list[float],
                      frm: int, to: int, amount: float, stop: float,
                      push_cap: int) -> tuple[float, float]:
    """SSP kernel: send amount from frm to to under nonnegative reduced costs
    rcost + pot[u] - pot[v]; updates res and pot, returns the amount left and
    the amount sent (infinite, and nothing pushed, at a path of infinite
    bottleneck)."""
    inf = math.inf
    remaining = amount
    sent = 0.0
    pushes = 0

    while remaining > stop:
        pushes += 1
        if pushes > push_cap:
            raise FlowIterationError(f"augmentation count exceeded {push_cap}")

        dist = [inf] * n
        done = [False] * n
        parent = [-1] * n
        dist[frm] = 0.0
        heap = [(0.0, 0, frm)]
        counter = 1
        dist_t = inf
        while heap:
            d, _, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == to:
                dist_t = d
                break
            pu = pot[u]
            for rid in adjacency[u]:
                if res[rid] <= 0.0:
                    continue
                v = head[rid]
                if done[v]:
                    continue
                nd = d + rcost[rid] + pu - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = rid
                    heappush(heap, (nd, counter, v))
                    counter += 1

        if dist_t == inf:
            return remaining, sent

        for v in range(n):
            pot[v] += dist[v] if done[v] and dist[v] < dist_t else dist_t

        bottleneck = remaining
        v = to
        while v != frm:
            rid = parent[v]
            if res[rid] < bottleneck:
                bottleneck = res[rid]
            v = head[rid ^ 1]
        if bottleneck == inf:
            return remaining, inf
        v = to
        while v != frm:
            rid = parent[v]
            res[rid] -= bottleneck
            res[rid ^ 1] += bottleneck
            v = head[rid ^ 1]
        remaining -= bottleneck
        sent += bottleneck
    return remaining, sent


def reference_solve(topology, cost, closed, opened, start, changed, amount, stop, push_cap):
    """The kernel's solve (see flowcore.load_kernel) on numpy arrays around
    reference_augment: returns (left, lp_cost, res, pot, arcs, sent,
    residual, constant, estimate, branch)."""
    head = topology.head
    m = len(cost)
    # a node: opened arcs at their variable cost, their fixed costs summed in arc order
    ordered = sorted(opened)
    unit_cost, fixed = topology.variable[topology.slot], topology.fixed.tolist()
    cost = cost.copy()
    cost[ordered] = unit_cost[ordered]
    constant = 0.0
    for a in ordered:
        constant += fixed[a]
    rcost = np.empty(2 * m)
    rcost[0::2] = cost
    rcost[1::2] = -cost
    res = topology.capacity.copy()
    pot = np.zeros(topology.n_vertices)
    frm, to = topology.source, topology.sink
    if start is not None:
        res.reshape(-1, 2)[np.asarray(start.arcs, dtype=np.intp)] = \
            np.asarray(start.residual, dtype=np.float64).reshape(-1, 2)
        pot = np.array(start.potential, dtype=np.float64)
    if changed is not None:
        fwd, rev = 2 * changed, 2 * changed + 1
        if changed in closed:  # its flow goes around it
            frm, to, amount = int(head[rev]), int(head[fwd]), float(res[rev])
            res[rev] = 0.0
        else:  # saturated if that pays; the surplus goes back
            pays = rcost[fwd] + pot[head[rev]] - pot[head[fwd]] < 0.0
            frm, to, amount = int(head[fwd]), int(head[rev]), float(res[fwd]) if pays else 0.0
            if amount == math.inf:
                raise ValueError(f"arc {changed}: infinite capacity, cannot saturate")
            res[fwd], res[rev] = res[fwd] - amount, res[rev] + amount
    if closed:
        res[2 * np.fromiter(closed, np.intp, len(closed))] = 0.0

    adj, adj_start = topology.adj.tolist(), topology.adj_start.tolist()
    adjacency = [adj[a:b] for a, b in zip(adj_start, adj_start[1:])]
    res, pot = res.tolist(), pot.tolist()
    left, sent = reference_augment(topology.n_vertices, head.tolist(), adjacency,
                                   rcost.tolist(), res, pot, frm, to, amount, stop, push_cap)
    res, pot = np.array(res), np.array(pot)
    amounts = res[1::2]
    arcs = np.flatnonzero(amounts)
    lp_cost = 0.0
    for amount, unit in zip(amounts[arcs].tolist(), cost[arcs].tolist()):
        lp_cost += amount * unit
    # the estimate of the true cost and the branch arc, in one pass in arc order
    tol, capacity = flow_tol(topology.target), topology.capacity[0::2].tolist()
    fixed_sum, variable_sum, branch, most = 0.0, 0.0, -1, tol
    for a, amount in zip(arcs.tolist(), amounts[arcs].tolist()):
        if amount > tol:
            fixed_sum += fixed[a]
        variable_sum += float(unit_cost[a]) * amount
        if most < amount < capacity[a] - tol and a not in opened:
            branch, most = a, amount
    residual = res.reshape(-1, 2)[arcs].reshape(-1)
    return (left, lp_cost, res, pot, arcs, sent, residual, constant, fixed_sum + variable_sum,
            branch)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@contextlib.contextmanager
def checked_kernel(cap: int | None = None):
    """Run every kernel call of the solvers through the C kernel and the
    reference, asserting equal bits; with cap, both get that push cap.
    Yields the list of calls checked."""
    kernel = flowcore._kernel()
    calls = []

    def solve(topology, cost, closed, opened, start, changed, amount, stop, push_cap):
        args = (topology, cost, closed, opened, start, changed, amount, stop,
                push_cap if cap is None else cap)
        outcomes = []
        for run in (reference_solve, kernel):
            try:
                outcomes.append(run(*args))
            except (FlowIterationError, ValueError) as err:
                outcomes.append(err)
        calls.append(args[-1])
        expected, got = outcomes
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
            raise got
        assert not isinstance(got, Exception), got
        n = topology.n_vertices
        assert _bits(got[:2]) == _bits(expected[:2])  # amount left, lp_cost
        assert _bits(got[2]) == _bits(expected[2])  # res
        assert _bits(got[3][:n]) == _bits(expected[3][:n])  # pot
        assert got[4].tolist() == expected[4].tolist()  # carrying arcs
        assert _bits(got[5]) == _bits(expected[5])  # amount sent
        assert _bits(got[6]) == _bits(expected[6])  # the carrying arcs' residual pairs
        assert _bits(got[7:9]) == _bits(expected[7:9])  # constant, estimate
        assert got[9] == expected[9]  # branch arc
        return got

    saved = flowcore._kernel
    flowcore._kernel = lambda: solve
    try:
        yield calls
    finally:
        flowcore._kernel = saved


def _solve(net, *start):
    try:
        return solve_min_cost_flow(net, *start)
    except (Infeasible, FlowIterationError):
        return None


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), full=st.booleans(), infinite=st.booleans(),
           closed_share=st.sampled_from([0.0, 0.3]), open_share=st.sampled_from([0.0, 0.3]),
           cap=st.sampled_from([None, None, 0, 1, 2]),
           steps=st.lists(st.tuples(st.sampled_from(["close", "cheaper", "open"]),
                                    st.integers(0, 1000)), max_size=5))
    def test_bit_identical(self, seed, full, infinite, closed_share, open_share, cap, steps):
        """Cold solves at or below the max flow, warm children (an arc closed,
        made cheaper or opened), max flow at zero cost, infinite capacities,
        closed and opened arcs and a push cap that runs out: every kernel
        call matches the reference."""
        rng = random.Random(seed)
        inst = make_small_instance(rng, max_vertices=12, max_edges=30,
                                   n_capacities=rng.randint(1, 3), cap_choices=(1, 2, 3, 4, 5))
        if infinite:
            inst = dataclasses.replace(
                inst, capacities=np.append(inst.capacities[:-1], math.inf))
        mf = max_flow(compile_topology(inst))
        if full and mf < math.inf:
            inst = dataclasses.replace(inst, target=mf)
        topology = compile_topology(inst)
        m = len(topology.pairs)
        closed = frozenset(i for i in range(m) if rng.random() < closed_share)
        opened = frozenset(i for i in range(m) if i not in closed and rng.random() < open_share)
        cost = np.array([rng.choice([0.0, 0.5, rng.uniform(0.0, 10.0)]) for _ in range(m)])
        with checked_kernel(cap) as calls:
            with contextlib.suppress(FlowIterationError):
                max_flow(topology, closed)
            net = ExpandedNetwork(topology, cost, closed, opened)
            _solve(net)
            parent = _solve(net, FlowState([], [], np.zeros(topology.n_vertices), 0.0))
            free = sorted(set(range(m)) - closed - opened)
            for step, pick in steps:
                if parent is None or not free:
                    break
                arc = free.pop(pick % len(free))
                close = step == "close"
                if close:
                    net = net._replace(closed=net.closed | {arc})
                elif step == "open":
                    net = net._replace(opened=net.opened | {arc})
                else:
                    cheaper = net.cost.copy()
                    cheaper[arc] *= rng.choice([0.0, 0.5])
                    net = net._replace(cost=cheaper)
                try:
                    parent = _solve(net, parent.state, arc)
                except ValueError as err:  # only when an infinite arc would be saturated
                    assert not close and math.isinf(topology.capacity[2 * arc])
                    assert str(err).startswith(f"arc {arc}: infinite capacity")
                    break
                assert parent is None or not np.isnan(parent.flow).any()
        assert calls

    def test_equal_costs_tie_everywhere(self):
        # every arc at one unit cost, and none at all for max flow: each
        # search meets many equal distances, which the reference breaks by
        # push order. Cold, warm (closed and cheaper children) and max-flow
        # calls on a fixed grid, so a reversed tie-break fails every run
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        topology = compile_topology(inst)
        net = ExpandedNetwork(topology, np.ones(len(topology.pairs)))
        with checked_kernel() as calls:
            max_flow(topology)
            root = solve_min_cost_flow(net)
            for arc in root.state.arcs.tolist():
                cheaper = net.cost.copy()
                cheaper[arc] = 0.0
                _solve(net._replace(closed=frozenset({arc})), root.state, arc)
                _solve(net._replace(cost=cheaper), root.state, arc)
        assert len(calls) == 2 + 2 * len(root.state.arcs)

    def test_branch_and_bound_proof(self):
        # every node's cost patch, bound, estimate and branch arc
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        with checked_kernel() as calls:
            result = solve_exact(inst, budget=60)
        assert result.proven_optimal
        assert len(calls) == result.nodes_explored

    def test_polish_search(self):
        # the nodes of a polish, on its neighbourhood's own topology
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        warm = fitness(inst, seed_organism(inst))
        with checked_kernel() as calls:
            assert polish(inst, warm, budget=600).true_cost == 573.4276663730062
        assert len(calls) == 481


class TestLoader:
    def test_builds_into_empty_directory_and_solves(self, tmp_path):
        directory = tmp_path / "empty"
        augment = load_kernel(directory, CC)
        assert [p.suffix for p in directory.iterdir()] == [".so"]
        inst = generate_random("grid", 9, 2, seed=3, target_fraction=0.6)
        topology = compile_topology(inst)
        net = ExpandedNetwork(topology, inst.variable_cost.reshape(-1)[topology.pairs])
        expected = solve_min_cost_flow(net)
        saved = flowcore._kernel
        flowcore._kernel = lambda: augment
        try:
            got = solve_min_cost_flow(net)
        finally:
            flowcore._kernel = saved
        assert got.flow.tobytes() == expected.flow.tobytes()
        assert got.lp_cost == expected.lp_cost

    def test_concurrent_builds_both_succeed(self, tmp_path):
        script = (
            "import sys; from pathlib import Path\n"
            "from mcfcnf.flowcore import load_kernel\n"
            "load_kernel(Path(sys.argv[1]), sys.argv[2:])\n"
            "print('loaded')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path), *CC],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  env=env)
                 for _ in range(2)]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            assert out.strip() == "loaded"
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]

    def test_failing_compile_names_command_and_stderr(self, tmp_path):
        command = [sys.executable, "-c",
                   "import sys; sys.stderr.write('no compiler here'); sys.exit(3)"]
        with pytest.raises(KernelBuildError) as err:
            build_kernel(tmp_path, command)
        assert shlex.join(command) in str(err.value)
        assert "no compiler here" in str(err.value)
        assert "status 3" in str(err.value)
        with pytest.raises(KernelBuildError, match="cannot run"):
            build_kernel(tmp_path, [str(tmp_path / "missing-cc")])
        assert list(tmp_path.iterdir()) == []  # no partial file left behind

    def test_library_of_other_source_never_loaded(self, tmp_path, monkeypatch):
        edited = tmp_path / "_ssp.c"
        edited.write_bytes(flowcore._SOURCE.read_bytes() + b"\n/* edited */\n")
        with monkeypatch.context() as patch:
            patch.setattr(flowcore, "_SOURCE", edited)
            other = build_kernel(tmp_path / "build", CC)
        # the library of the other bytes is there, yet this source builds anew
        with pytest.raises(KernelBuildError):
            build_kernel(tmp_path / "build", ["false"])
        library = build_kernel(tmp_path / "build", CC)
        assert library != other and library.is_file() and other.is_file()
        assert build_kernel(tmp_path / "build", ["false"]) == library  # now it is reused

    def test_compiles_without_warnings(self, tmp_path):
        argv = [*CC, *flowcore._CFLAGS, "-Wall", "-Wextra", "-Werror",
                "-x", "c", str(flowcore._SOURCE), "-o", str(tmp_path / "_ssp.so")]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr


#: Run in a process with the sanitizer runtime preloaded: the kernel built
#: with AddressSanitizer and UBSan in argv[1] by the command argv[2:] proves
#: grid 16, polishes, decodes an organism and takes a max flow; then each
#: input the kernel rejects (a NaN cost, an opened arc's negative unit cost,
#: closed, opened and start arcs outside 0..m-1) ends in ValueError before
#: the kernel touches an array at it. Last, the GA's sampler picks
#: random.sample's positions on both of its branches, from words that
#: suffice and from words that run short, and through mutate.
_SANITIZED_RUN = """
import dataclasses, math, random, sys
from pathlib import Path
import numpy as np
from mcfcnf import (ExpandedNetwork, Organism, fitness, flowcore, generate_random, mutate,
                    polish, solve_exact)
from mcfcnf.flowcore import compile_topology, max_flow, seed_organism, solve_min_cost_flow
kernel = flowcore.load_kernel(Path(sys.argv[1]), sys.argv[2:])
flowcore._kernel = lambda: kernel
inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
assert solve_exact(inst, budget=600).nodes_explored == 891
assert polish(inst, fitness(inst, seed_organism(inst)), 600).true_cost == 573.4276663730062
scale = np.random.default_rng(0).uniform(1.0, 20.0, inst.fixed_cost.size)
assert fitness(inst, Organism(scale=scale)).true_cost > 0.0
topology = compile_topology(inst)
assert max_flow(topology) > inst.target
m = len(topology.pairs)
net = ExpandedNetwork(topology, np.ones(m))
root = solve_min_cost_flow(net)
negative = dataclasses.replace(topology, variable=topology.variable - 100.0)
for bad in ({"cost": np.append(np.ones(m - 1), math.nan)},
            {"topology": negative, "opened": frozenset({0})},
            {"closed": frozenset({m})}, {"closed": frozenset({-1})},
            {"opened": frozenset({m})}, {"opened": frozenset({-1})},
            {"start": root.state._replace(arcs=np.append(root.state.arcs[:-1], m))},
            {"start": root.state._replace(arcs=np.append(-1, root.state.arcs[1:]))}):
    args = dict(topology=topology, cost=net.cost, closed=frozenset(), opened=frozenset(),
                start=root.state, changed=None, amount=inst.target, stop=0.0, push_cap=4 * m)
    try:
        kernel(**{**args, **bad})
    except ValueError:
        continue
    raise AssertionError(f"not rejected: {bad}")
for length, count, pool in ((1, 1, True), (20, 2, True), (80, 8, True), (32, 2, False),
                            (3114, 311, False)):
    words = random.Random(length).getrandbits(32 * 8 * count).to_bytes(32 * count, "little")
    used, positions = kernel.sample(words, length, count, pool)
    assert positions.tolist() == random.Random(length).sample(range(length), count)
    assert kernel.sample(words[:4 * (used - 1)], length, count, pool)[0] < 0
mutate(inst, Organism(scale=np.full(1, 3.0)), random.Random(14))  # runs short twice
print("clean")
"""


class TestSanitizers:
    def test_kernel_clean_under_asan_and_ubsan(self, tmp_path):
        # any out-of-bounds access or undefined behaviour in the kernel ends
        # the run with the sanitizer's report; the C compiler's libasan is
        # preloaded, since the Python executable is not built with it
        found = subprocess.run([*CC, "-print-file-name=libasan.so"], capture_output=True,
                               text=True, check=False).stdout.strip()
        if not os.path.isabs(found) or not os.path.isfile(found):
            pytest.skip("the C compiler has no libasan")
        command = [*CC, "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
                   "-fno-sanitize-recover=all"]
        build_kernel(tmp_path, command)  # loaded only where the runtime is preloaded
        env = {**os.environ, "PYTHONPATH": str(SRC), "LD_PRELOAD": found,
               "ASAN_OPTIONS": "detect_leaks=0"}
        done = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(tmp_path), *command],
                              capture_output=True, text=True, env=env, timeout=600, check=False)
        assert done.returncode == 0, done.stderr[-4000:]
        assert done.stdout.split() == ["clean"]


def _outside(a) -> str:
    """The message for an arc index outside 0..m-1 in the kernel arguments a."""
    return (f"closed {sorted(a['closed'])}, opened {sorted(a['opened'])} or changed "
            f"{a['changed']} not in 0..{len(a['cost']) - 1}")


def _misfit(a) -> str:
    """The message for a start state that does not fit the arguments a."""
    return f"start does not fit {a['topology'].n_vertices} vertices and {len(a['cost'])} arcs"


class TestWrapper:
    """load_kernel's wrapper checks the types and lengths of what it hands to
    C before any C runs; the kernel checks the values before it writes."""

    @pytest.fixture
    def wrapper(self, monkeypatch):
        calls = []

        class Library:  # stands in for the C library: records each call
            def __init__(self, path):
                self.ssp_solve = self.sample_positions = self

            def __call__(self, *args):
                calls.append(args)
                return 0

        monkeypatch.setattr(flowcore.ctypes, "CDLL", Library)
        inst = generate_random("grid", 9, 2, seed=3, target_fraction=0.6)
        topology = compile_topology(inst)
        m = len(topology.pairs)
        state = FlowState(np.array([0, m - 1]), np.zeros(4), np.zeros(topology.n_vertices), 0.0)
        args = dict(topology=topology, cost=np.ones(m), closed=frozenset({1}),
                    opened=frozenset({2}), start=state, changed=0, amount=1.0, stop=0.0,
                    push_cap=10)
        return load_kernel(Path(flowcore.__file__).with_name("__pycache__"), CC), args, calls

    def test_valid_call_reaches_c(self, wrapper):
        solve, args, calls = wrapper
        solve(**args)
        assert len(calls) == 1

    @pytest.mark.parametrize("bad, error", [
        (lambda a: {"cost": a["cost"].astype(np.float32)}, TypeError),
        (lambda a: {"cost": np.repeat(a["cost"], 2)[::2]}, TypeError),
        (lambda a: {"cost": a["cost"][:-1]}, ValueError),
        (lambda a: {"cost": a["cost"].tolist()}, TypeError),
        (lambda a: {"changed": len(a["cost"])}, ValueError),
        (lambda a: {"closed": frozenset({2**64})}, ValueError),
        (lambda a: {"start": a["start"]._replace(residual=np.zeros(3))}, ValueError),
        (lambda a: {"start": a["start"]._replace(potential=np.zeros(1))}, ValueError),
    ], ids=["float32-cost", "strided-cost", "short-cost", "list-cost", "changed-m",
            "closed-past-int64", "short-start-residual", "short-potential"])
    def test_rejected_before_c(self, wrapper, bad, error):
        solve, args, calls = wrapper
        with pytest.raises(error):
            solve(**{**args, **bad(args)})
        assert calls == []

    @pytest.fixture
    def root(self):
        """A grid's root node as the kernel's arguments, with its branch arc
        opened, and a function giving the bits of the root's own solve."""
        inst = generate_random("grid", 9, 2, seed=3, target_fraction=0.6)
        net = build_expanded_network(inst, seed_organism(inst))
        root = solve_min_cost_flow(net)
        arc = root.node[2]
        assert arc >= 0

        def bits():
            sol = solve_min_cost_flow(net)
            return (_bits(sol.state.residual), _bits(sol.state.potential),
                    sol.state.arcs.tolist(), _bits([sol.lp_cost, *sol.node[:2]]), sol.node[2])

        args = dict(topology=net.topology, cost=net.cost, closed=frozenset(),
                    opened=frozenset({arc}), start=root.state, changed=arc, amount=inst.target,
                    stop=flow_tol(inst.target), push_cap=4 * len(net.cost) + 16)
        return args, bits

    @pytest.mark.parametrize("bad, message", [
        (lambda a: {"closed": frozenset({len(a["cost"])})}, _outside),
        (lambda a: {"closed": frozenset({-1})}, _outside),
        (lambda a: {"opened": a["opened"] | {len(a["cost"])}}, _outside),
        (lambda a: {"opened": a["opened"] | {-1}}, _outside),
        (lambda a: {"topology": dataclasses.replace(
            a["topology"], variable=a["topology"].variable - 100.0)},
         lambda a: (f"arc {min(a['opened'])} has unit cost "
                    f"{a['topology']._unit_cost[min(a['opened'])]}, not >= 0")),
        (lambda a: {"start": a["start"]._replace(
            arcs=np.append(a["start"].arcs[:-1], len(a["cost"])))}, _misfit),
        (lambda a: {"start": a["start"]._replace(
            arcs=np.append(-1, a["start"].arcs[1:]))}, _misfit),
    ], ids=["closed-m", "closed-negative", "opened-m", "opened-negative",
            "opened-negative-unit-cost", "start-arc-m", "start-arc-negative"])
    def test_rejected_by_c(self, root, bad, message):
        # the kernel checks these values itself, before it writes anything:
        # each raises its ValueError, and the root's branch arc, opened in the
        # rejected call, is not left marked, so the thread's next solve gets
        # a fresh thread's bits (its branch arc among them)
        args, bits = root
        with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread's new scratch
            fresh = pool.submit(bits).result(timeout=60)
        args = {**args, **bad(args)}
        with pytest.raises(ValueError) as err:
            flowcore._kernel()(**args)
        assert str(err.value) == message(args)
        assert bits() == fresh

    def test_read_only_arrays_solve_alike(self, root):
        # a read-only cost vector and start state take _pointer's other path
        args = root[0]
        start = FlowState(*map(np.array, args["start"][:3]), args["start"].shortfall)
        writable = list(flowcore._kernel()(**{**args, "cost": args["cost"].copy(),
                                              "start": start}))
        writable[2] = writable[2].copy()  # res: a view of the thread's work arrays
        frozen = []
        for array in (args["cost"].copy(), *map(np.array, args["start"][:3])):
            array.setflags(write=False)
            frozen.append(array)
        got = flowcore._kernel()(**{**args, "cost": frozen[0],
                                    "start": FlowState(*frozen[1:], args["start"].shortfall)})
        for a, b in zip(got, writable):
            assert _bits(a) == _bits(b)

    def test_failed_node_leaves_no_opened_mark(self):
        # the kernel marks a node's opened arcs in per-thread scratch; a node
        # ending in the infinite-capacity ValueError or the push cap must
        # leave it clean, so the thread's next node gets a fresh solve's bits.
        # Paths 0->1->3 and 0->2->3; arc 2 (0->2) has infinite capacity
        nan, inf = math.nan, math.inf
        inst = Instance(
            n_vertices=4, source=0, sink=3, edges=((0, 1), (1, 3), (0, 2), (2, 3)),
            capacities=np.array([5.0, inf]),
            fixed_cost=np.array([[1.0, nan], [1.0, nan], [nan, 1.0], [1.0, nan]]),
            variable_cost=np.array([[1.0, nan], [1.0, nan], [nan, 1.0], [1.0, nan]]),
            target=4.0)
        topology = compile_topology(inst)
        net = ExpandedNetwork(topology, np.array([1.5, 1.5, 5.0, 1.5]))
        root = solve_min_cost_flow(net)
        node = net._replace(opened=frozenset({0}))

        def bits():
            sol = solve_min_cost_flow(node, root.state, 0)
            return (_bits(sol.state.residual), _bits(sol.state.potential),
                    sol.state.arcs.tolist(), _bits([sol.lp_cost, *sol.node[:2]]), sol.node[2])

        with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread's new scratch
            fresh = pool.submit(bits).result(timeout=60)
        with pytest.raises(ValueError, match="arc 2: infinite capacity"):
            solve_min_cost_flow(net._replace(opened=frozenset({2})), root.state, 2)
        assert bits() == fresh
        with pytest.raises(FlowIterationError):
            flowcore._kernel()(topology, net.cost, frozenset(), frozenset({2, 3}), None, None,
                               4.0, 0.0, 0)
        assert bits() == fresh

    def test_topology_checked_when_built(self, wrapper):
        topology = wrapper[1]["topology"]
        with pytest.raises(TypeError, match="head must be"):
            dataclasses.replace(topology, head=topology.head.astype(np.int64))
        with pytest.raises(ValueError, match="adj has"):
            dataclasses.replace(topology, adj=topology.adj[:-1].copy())
        with pytest.raises(TypeError, match="capacity must be"):
            dataclasses.replace(topology, capacity=topology.capacity.astype(np.float32))

    def test_copies_bind_their_own_arrays(self):
        # a deep copy or an unpickled topology has its arrays elsewhere; it
        # must not reuse the addresses bound for the original
        inst = generate_random("grid", 9, 2, seed=3, target_fraction=0.6)
        topology = compile_topology(inst)
        net = ExpandedNetwork(topology, inst.variable_cost.reshape(-1)[topology.pairs])
        expected = solve_min_cost_flow(net)
        for copied in (copy.deepcopy(topology), pickle.loads(pickle.dumps(topology))):
            assert copied._kernel_args[2:] != topology._kernel_args[2:]
            got = solve_min_cost_flow(net._replace(topology=copied))
            assert got.flow.tobytes() == expected.flow.tobytes()
            assert got.lp_cost == expected.lp_cost


class CountingRandom(random.Random):
    """random.Random that counts the words its getrandbits draws."""

    words = 0

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


class TestSample:
    """The kernel's sample_positions against random.sample itself."""

    @pytest.mark.parametrize("length, count, pool", [
        (1, 1, True), (7, 5, True), (21, 2, True), (80, 8, True), (90, 9, False),
        (22, 1, False), (33, 3, False), (3114, 311, False),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_picks_and_words_of_random_sample(self, length, count, pool, seed):
        # pool is CPython's branch for (length, count); every prefix of the
        # words that random.sample used runs short by at least what is returned
        reference = CountingRandom(seed)
        expected = reference.sample(range(length), count)
        words = random.Random(seed).getrandbits(32 * reference.words).to_bytes(
            4 * reference.words, "little")
        sample = flowcore._kernel().sample
        used, positions = sample(words + bytes(8), length, count, pool)
        assert (used, positions.tolist()) == (reference.words, expected)
        for have in range(reference.words):
            short = sample(words[:4 * have], length, count, pool)[0]
            assert 1 <= -short <= reference.words - have

    @pytest.mark.parametrize("length, count", [(0, 1), (3, 4), (5, -1), (2**32, 1)])
    def test_rejected_before_c(self, length, count):
        with pytest.raises(ValueError, match="cannot pick"):
            flowcore._kernel().sample(b"", length, count, True)


def _decode_bits(instance, organism) -> tuple:
    scored = fitness(instance, organism)
    state = scored.flow.state
    return (scored.true_cost, scored.flow.lp_cost, scored.flow.flow.tobytes(),
            _bits(state.residual), _bits(state.potential), state.arcs.tolist())


class TestThreads:
    def test_concurrent_decodes_match_sequential(self):
        # each thread solves in its own work arrays, and the C call releases
        # the GIL: two threads decoding organisms of one shared instance at
        # once must get the bits of one thread decoding them in turn. A
        # larger instance now and then grows a thread's arrays mid-run.
        shared = generate_random("geometric", 40, 3, seed=5, target_fraction=0.6)
        larger = generate_random("geometric", 70, 3, seed=6, target_fraction=0.6)
        rng = random.Random(0)
        jobs = []
        for i in range(60):
            instance = larger if i % 10 == 9 else shared
            shape = (instance.n_edges, instance.n_capacities)
            entries = [rng.uniform(D_MIN, 20.0) for _ in range(shape[0] * shape[1])]
            jobs.append((instance, Organism(scale=np.array(entries))))
        expected = [_decode_bits(*job) for job in jobs]

        def decode_all(part):
            return [_decode_bits(*job) for job in part]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for _ in range(3):
                    futures = [pool.submit(decode_all, jobs[half::2]) for half in (0, 1)]
                    got = [future.result(timeout=120) for future in futures]
                    assert got[0] == expected[0::2] and got[1] == expected[1::2]
        finally:
            sys.setswitchinterval(switch)

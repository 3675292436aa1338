"""The C min-cost-flow kernel against its pure-Python reference, and its
loader.

reference_solve is the solve the C kernel (src/mcfcnf/_ssp.c) replaces:
residual setup, warm-start repair and the augmenting loop reference_augment,
kept here unchanged in what they compute. Every kernel call a solve or
max_flow makes is run through both, and the residuals, potentials, amount
left, cost, carrying arcs, amount sent and errors must agree bit for bit.
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
                    Organism, compile_topology, fitness, generate_random, solve_exact,
                    solve_min_cost_flow)
from mcfcnf import flowcore
from mcfcnf.flowcore import KernelBuildError, build_kernel, load_kernel, max_flow
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


def reference_solve(topology, cost, closed, start, changed, amount, stop, push_cap):
    """The kernel's solve (see flowcore.load_kernel) on numpy arrays around
    reference_augment: returns (left, lp_cost, res, pot, arcs, sent)."""
    head = topology.head
    m = len(cost)
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
    return left, lp_cost, res, pot, arcs, sent


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@contextlib.contextmanager
def checked_kernel(cap: int | None = None):
    """Run every kernel call of the solvers through the C kernel and the
    reference, asserting equal bits; with cap, both get that push cap.
    Yields the list of calls checked."""
    kernel = flowcore._kernel()
    calls = []

    def solve(topology, cost, closed, start, changed, amount, stop, push_cap):
        args = (topology, cost, closed, start, changed, amount, stop,
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
           closed_share=st.sampled_from([0.0, 0.3]), cap=st.sampled_from([None, None, 0, 1, 2]),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 1000)), max_size=5))
    def test_bit_identical(self, seed, full, infinite, closed_share, cap, steps):
        """Cold solves at or below the max flow, warm children (an arc closed
        or made cheaper), max flow at zero cost, infinite capacities, closed
        arcs and a push cap that runs out: every kernel call matches the
        reference."""
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
        cost = np.array([rng.choice([0.0, 0.5, rng.uniform(0.0, 10.0)]) for _ in range(m)])
        with checked_kernel(cap) as calls:
            with contextlib.suppress(FlowIterationError):
                max_flow(topology, closed)
            net = ExpandedNetwork(topology, cost, closed)
            _solve(net)
            parent = _solve(net, FlowState([], [], np.zeros(topology.n_vertices), 0.0))
            free = sorted(set(range(m)) - closed)
            for close, pick in steps:
                if parent is None or not free:
                    break
                arc = free.pop(pick % len(free))
                if close:
                    net = net._replace(closed=net.closed | {arc})
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
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        with checked_kernel() as calls:
            result = solve_exact(inst, budget=60)
        assert result.proven_optimal
        assert len(calls) == result.nodes_explored


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


class TestWrapper:
    """load_kernel's wrapper checks what it hands to C, before any C runs."""

    @pytest.fixture
    def wrapper(self, monkeypatch):
        calls = []

        class Library:  # stands in for the C library: records each call
            def __init__(self, path):
                self.ssp_solve = self

            def __call__(self, *args):
                calls.append(args)
                return 0

        monkeypatch.setattr(flowcore.ctypes, "CDLL", Library)
        inst = generate_random("grid", 9, 2, seed=3, target_fraction=0.6)
        topology = compile_topology(inst)
        m = len(topology.pairs)
        state = FlowState(np.array([0, m - 1]), np.zeros(4), np.zeros(topology.n_vertices), 0.0)
        args = dict(topology=topology, cost=np.ones(m), closed=frozenset({1}), start=state,
                    changed=0, amount=1.0, stop=0.0, push_cap=10)
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
        (lambda a: {"closed": frozenset({len(a["cost"])})}, ValueError),
        (lambda a: {"closed": frozenset({-1})}, ValueError),
        (lambda a: {"changed": len(a["cost"])}, ValueError),
        (lambda a: {"start": a["start"]._replace(arcs=np.array([0, len(a["cost"])]))},
         ValueError),
        (lambda a: {"start": a["start"]._replace(arcs=np.array([-1, 0]))}, ValueError),
        (lambda a: {"start": a["start"]._replace(residual=np.zeros(3))}, ValueError),
        (lambda a: {"start": a["start"]._replace(potential=np.zeros(1))}, ValueError),
    ], ids=["float32-cost", "strided-cost", "short-cost", "list-cost", "closed-m",
            "closed-negative", "changed-m", "start-arc-m", "start-arc-negative",
            "short-start-residual", "short-potential"])
    def test_rejected_before_c(self, wrapper, bad, error):
        solve, args, calls = wrapper
        with pytest.raises(error):
            solve(**{**args, **bad(args)})
        assert calls == []

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
            jobs.append((instance, Organism(scale=np.array(entries).reshape(shape))))
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

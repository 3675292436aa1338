import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfcnf import (D_MIN, GAP_DEFAULT, UNBOUNDED, ExpandedNetwork, FlowState,
                    Infeasible, Instance, Organism, build_expanded_network,
                    compile_topology, flow_tol, generate_random, lp_relaxation_bound,
                    max_throughput, parse_instance, solve_exact, solve_min_cost_flow,
                    verify_flow)
from mcfcnf.flowcore import compile_pairs, max_flow, seed_organism
from conftest import FACILITY_TEXT, integral_flow_min_cost, make_small_instance


def _ones_organism(instance, value=1.0):
    return Organism(scale=np.full(len(compile_topology(instance).pairs), value))


def _random_organism(instance, rng):
    shape = (instance.n_edges, instance.n_capacities)
    entries = np.array([rng.uniform(D_MIN, 8.0) for _ in range(shape[0] * shape[1])])
    flat = entries.reshape(shape)
    # sprinkle a few unbounded entries for coverage of the zero-fixed-cost path
    mask = np.array([[rng.random() < 0.15 for _ in range(shape[1])] for _ in range(shape[0])])
    return Organism(scale=_dense_scale(np.where(mask, UNBOUNDED, flat), instance))


def _dense_scale(dense, instance):
    """An (edge, class) array's entries on the instance's arcs, in arc order."""
    return dense.reshape(-1)[compile_topology(instance).pairs]


class TestBuildNetwork:
    def test_single_arc_unit_cost(self, minimal):
        net = build_expanded_network(minimal, _ones_organism(minimal))
        assert len(net.cost) == 1
        assert net.cost[0] == 2.0  # 1/1 + 1
        assert net.topology.capacity[0] == 5.0

    def test_unbounded_scale_zeroes_fixed_cost(self, minimal):
        net = build_expanded_network(minimal, _ones_organism(minimal, UNBOUNDED))
        assert net.cost[0] == 1.0  # exactly the variable cost

    def test_diamond_scaled_costs(self, fig1):
        org = Organism(scale=np.array([2.0, 1.0, 2.0, 1.0]))
        net = build_expanded_network(fig1, org)
        assert net.cost.tolist() == [3.5, 3.0, 3.5, 3.0]

    def test_unavailable_pairs_excluded(self):
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([2.0, 5.0]),
            fixed_cost=np.array([[math.nan, 3.0]]),
            variable_cost=np.array([[math.nan, 1.0]]),
            target=4.0,
        )
        net = build_expanded_network(inst, _ones_organism(inst))
        assert len(net.cost) == 1
        assert divmod(int(net.topology.pairs[0]), inst.n_capacities) == (0, 1)

    def test_shape_mismatch(self, fig1):
        with pytest.raises(ValueError, match="shape"):
            build_expanded_network(fig1, Organism(scale=np.ones((2, 1))))

    def test_dense_organism_rejected(self):
        # one divisor per offered pair, in arc order: a dense (edge, class)
        # organism is refused, not converted
        inst = parse_instance(FACILITY_TEXT)
        offered = int(inst.available.sum())
        assert offered < inst.available.size
        for shape in (inst.available.shape, (1,)):
            message = f"organism shape {shape} does not match the instance's {offered} offered pairs"
            with pytest.raises(ValueError, match=re.escape(message)):
                build_expanded_network(inst, Organism(scale=np.ones(shape)))
        assert len(build_expanded_network(inst, _ones_organism(inst)).cost) == offered

    def test_topology_compiled_once_per_instance(self, fig1):
        topo = compile_topology(fig1)
        assert build_expanded_network(fig1, _ones_organism(fig1)).topology is topo
        assert compile_topology(fig1) is topo
        assert compile_topology(dataclasses.replace(fig1)) is not topo

    def test_scale_floor_enforced(self):
        for below in (1e-9, np.nextafter(D_MIN, 0)):  # the floor is exact
            with pytest.raises(ValueError, match=">="):
                Organism(scale=np.array([below]))
        with pytest.raises(ValueError, match="NaN"):
            Organism(scale=np.array([math.nan]))
        with pytest.raises(ValueError, match=">= D_MIN .* or UNBOUNDED"):
            Organism(scale=np.array([-math.inf]))


class TestSolve:
    def test_single_arc(self, minimal):
        sol = solve_min_cost_flow(build_expanded_network(minimal, _ones_organism(minimal)))
        assert sol.flow[0, 0] == 3.0
        assert sol.lp_cost == 6.0

    def test_two_parallel_classes_greedy_by_cost(self):
        # one edge offering capacity 2 at unit cost 1 and capacity 5 at cost 10
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([2.0, 5.0]),
            fixed_cost=np.zeros((1, 2)),
            variable_cost=np.array([[1.0, 10.0]]),
            target=4.0,
        )
        sol = solve_min_cost_flow(build_expanded_network(inst, _ones_organism(inst)))
        assert sol.flow.tolist() == [[2.0, 2.0]]
        assert sol.lp_cost == 22.0

    def test_equal_cost_ties_take_lowest_arc_index(self):
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([2.0, 5.0]),
            fixed_cost=np.zeros((1, 2)),
            variable_cost=np.array([[3.0, 3.0]]),
            target=3.0,
        )
        sol = solve_min_cost_flow(build_expanded_network(inst, _ones_organism(inst)))
        assert sol.flow.tolist() == [[2.0, 1.0]]

    def test_diamond_flow_and_cost(self, fig1):
        org = Organism(scale=np.array([2.0, 1.0, 2.0, 1.0]))
        sol = solve_min_cost_flow(build_expanded_network(fig1, org))
        assert sol.flow.ravel().tolist() == [1.0, 2.0, 1.0, 2.0]
        assert sol.lp_cost == pytest.approx(19.0, abs=1e-9)

    def test_infeasible_reports_max_flow(self, minimal):
        bad = dataclasses.replace(minimal, target=10.0)
        with pytest.raises(Infeasible) as err:
            solve_min_cost_flow(build_expanded_network(bad, _ones_organism(bad)))
        assert err.value.max_flow == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_cost_not_nonnegative_rejected(self, bad):
        # NaN fails every comparison, so only "cost >= 0" rejects it; a
        # NaN arc is never relaxed, and the solve would route around it
        inst = Instance(
            n_vertices=3, source=0, sink=2, edges=((0, 1), (1, 2), (0, 2)),
            capacities=np.array([5.0]), fixed_cost=np.ones((3, 1)),
            variable_cost=np.ones((3, 1)), target=1.0,
        )
        net = ExpandedNetwork(compile_topology(inst), [1.0, 1.0, bad])
        with pytest.raises(ValueError, match="arc 2 has unit cost .*, not >= 0"):
            solve_min_cost_flow(net)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_closed_arc_equals_unavailable_pair(self, seed):
        rng = random.Random(seed)
        inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
        org = _random_organism(inst, rng)
        net = build_expanded_network(inst, org)
        arc = rng.randrange(len(net.cost))
        e, k = divmod(int(net.topology.pairs[arc]), inst.n_capacities)
        fixed = inst.fixed_cost.copy()
        fixed[e, k] = math.nan
        without = dataclasses.replace(inst, fixed_cost=fixed)
        try:
            expected = solve_min_cost_flow(build_expanded_network(
                without, Organism(scale=np.delete(org.scale, arc))))
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_min_cost_flow(net._replace(closed=frozenset({arc})))
            return
        closed = solve_min_cost_flow(net._replace(closed=frozenset({arc})))
        assert closed.flow.tobytes() == expected.flow.tobytes()
        assert closed.lp_cost == expected.lp_cost

    def test_deterministic(self):
        rng = random.Random(42)
        inst = make_small_instance(rng, n_capacities=2, cap_choices=(1, 2, 3))
        org = _random_organism(inst, random.Random(7))
        a = solve_min_cost_flow(build_expanded_network(inst, org))
        b = solve_min_cost_flow(build_expanded_network(inst, org))
        assert (a.flow == b.flow).all()
        assert a.lp_cost == b.lp_cost


class TestAgainstEnumeration:
    def test_matches_integral_enumeration(self):
        rng = random.Random(2024)
        for _ in range(40):
            inst = make_small_instance(
                rng, max_vertices=5, max_edges=6, n_capacities=rng.choice((1, 2)),
                cap_choices=(1, 2, 3), target_cap=4)
            org = _random_organism(inst, rng)
            net = build_expanded_network(inst, org)
            scale = np.ones(inst.available.shape)
            scale.reshape(-1)[net.topology.pairs] = org.scale
            unit_cost = np.where(inst.available,
                                 inst.fixed_cost / scale + inst.variable_cost, 0.0)
            expected = integral_flow_min_cost(inst, unit_cost)
            assert expected is not None
            sol = solve_min_cost_flow(net)
            assert sol.lp_cost == pytest.approx(expected, abs=1e-9)


class TestOptimalityCertificate:
    def _assert_no_negative_cycle(self, net, sol):
        # residual arcs: forward with slack, backward with flow; a negative
        # cycle would contradict optimality
        topo = net.topology
        arcs = []
        for i, p in enumerate(topo.pairs.tolist()):
            amount = sol.flow.reshape(-1)[p]
            src, dst, cost = topo.head[2 * i + 1], topo.head[2 * i], net.cost[i]
            if topo.capacity[2 * i] - amount > 1e-9:
                arcs.append((src, dst, cost))
            if amount > 1e-9:
                arcs.append((dst, src, -cost))
        dist = [0.0] * topo.n_vertices
        for _ in range(topo.n_vertices):
            changed = False
            for u, v, c in arcs:
                if dist[u] + c < dist[v] - 1e-9:
                    dist[v] = dist[u] + c
                    changed = True
            if not changed:
                return
        pytest.fail("negative-cost residual cycle found")

    def test_residual_network_has_no_negative_cycle(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)),
                                       cap_choices=(1, 2, 3, 4))
            org = _random_organism(inst, rng)
            net = build_expanded_network(inst, org)
            sol = solve_min_cost_flow(net)
            self._assert_no_negative_cycle(net, sol)


class TestProperties:
    def test_raising_one_scale_entry_lowers_cost(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            shape = (inst.n_edges, inst.n_capacities)
            base = np.array([[rng.uniform(0.5, 4.0) for _ in range(shape[1])]
                             for _ in range(shape[0])])
            before = solve_min_cost_flow(
                build_expanded_network(inst, Organism(scale=_dense_scale(base, inst)))).lp_cost
            bumped = base.copy()
            e = rng.randrange(shape[0])
            k = rng.randrange(shape[1])
            bumped[e, k] *= 10.0
            after = solve_min_cost_flow(
                build_expanded_network(inst, Organism(scale=_dense_scale(bumped, inst)))).lp_cost
            assert after <= before + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(lam=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
           seed=st.integers(0, 10_000))
    def test_cost_scale_invariance(self, lam, seed):
        rng = random.Random(seed)
        inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
        org = _random_organism(inst, rng)
        base = solve_min_cost_flow(build_expanded_network(inst, org)).lp_cost
        scaled = dataclasses.replace(
            inst, fixed_cost=inst.fixed_cost * lam, variable_cost=inst.variable_cost * lam)
        scaled_cost = solve_min_cost_flow(build_expanded_network(scaled, org)).lp_cost
        assert scaled_cost == pytest.approx(lam * base, rel=1e-9, abs=1e-9)

    def test_flow_solution_invariants(self):
        rng = random.Random(31)
        for _ in range(20):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            org = _random_organism(inst, rng)
            sol = solve_min_cost_flow(build_expanded_network(inst, org))
            g = sol.flow
            assert (g >= 0).all()
            assert (g <= inst.capacities[None, :] + 1e-9).all()
            per_edge = g.sum(axis=1)
            for v in range(inst.n_vertices):
                if v in (inst.source, inst.sink):
                    continue
                inflow = sum(per_edge[e] for e, (_, w) in enumerate(inst.edges) if w == v)
                outflow = sum(per_edge[e] for e, (u, _) in enumerate(inst.edges) if u == v)
                assert inflow == pytest.approx(outflow, abs=1e-9)
            sent = sum(per_edge[e] for e, (u, _) in enumerate(inst.edges) if u == inst.source)
            assert sent == pytest.approx(inst.target, abs=1e-9)


class TestRelaxationBound:
    def test_minimal_value(self, minimal):
        assert lp_relaxation_bound(minimal) == pytest.approx(3.6, abs=1e-12)

    def test_diamond_value(self, fig1):
        assert lp_relaxation_bound(fig1) == pytest.approx(15.0, abs=1e-12)


class TestMaxThroughput:
    def test_diamond(self, fig1):
        assert max_throughput(fig1) == pytest.approx(4.0)

    def test_uses_largest_available_class(self):
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([2.0, 5.0]),
            fixed_cost=np.array([[1.0, math.nan]]),
            variable_cost=np.array([[1.0, math.nan]]),
            target=1.0,
        )
        assert max_throughput(inst) == pytest.approx(2.0)

    def test_chain_bottleneck(self):
        inst = Instance(
            n_vertices=3, source=0, sink=2, edges=((0, 1), (1, 2)),
            capacities=np.array([3.0]),
            fixed_cost=np.ones((2, 1)), variable_cost=np.ones((2, 1)),
            target=1.0,
        )
        assert max_throughput(inst) == pytest.approx(3.0)


class TestMaxFlow:
    def test_every_offered_class_open(self):
        # classes 2 and 5 together carry 7; the widest class alone carries 5
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([2.0, 5.0]),
            fixed_cost=np.ones((1, 2)), variable_cost=np.ones((1, 2)), target=1.0,
        )
        topology = compile_topology(inst)
        assert max_flow(topology) == 7.0
        assert max_flow(topology, frozenset({1})) == 2.0
        assert max_throughput(inst) == 5.0

    @pytest.mark.parametrize("extra, cost, closed", [
        ((), 16.0, {(3,): 4.0}),
        (((0, 2),), 8.0, {(3,): math.inf, (3, 5): 8.0}),
    ], ids=["extra0-16.0", "extra1-8.0"])
    def test_infinite_class(self, extra, cost, closed):
        # the widest class is unbounded on every edge: so is the max flow.
        # Arc 2e + 1 is edge e's infinite class; closing it leaves its 4
        edges = ((0, 1), (1, 2)) + extra
        inst = Instance(
            n_vertices=3, source=0, sink=2, edges=edges,
            capacities=np.array([4.0, math.inf]), fixed_cost=np.ones((len(edges), 2)),
            variable_cost=np.ones((len(edges), 2)), target=7.0,
        )
        assert max_flow(compile_topology(inst)) == math.inf
        for arcs, flow in closed.items():
            assert max_flow(compile_topology(inst), frozenset(arcs)) == flow
        assert max_throughput(inst) == math.inf
        assert solve_exact(inst, budget=10).best.true_cost == cost

    def test_infinite_arc_into_finite_cut(self):
        # an unbounded first hop does not make the flow unbounded
        inst = Instance(
            n_vertices=3, source=0, sink=2, edges=((0, 1), (1, 2)),
            capacities=np.array([4.0, math.inf]),
            fixed_cost=np.array([[1.0, 1.0], [1.0, math.nan]]),
            variable_cost=np.array([[1.0, 1.0], [1.0, math.nan]]), target=3.0,
        )
        assert max_flow(compile_topology(inst)) == 4.0
        assert max_flow(compile_topology(inst), frozenset({0})) == 4.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_equals_ssp_max_flow(self, seed):
        # an unreachable target makes the SSP report the max flow it routed
        rng = random.Random(seed)
        inst = make_small_instance(rng, n_capacities=rng.randint(1, 3))
        inst = dataclasses.replace(inst, target=inst.capacities.sum() * inst.n_edges + 1)
        topology = compile_topology(inst)
        closed = frozenset(i for i in range(len(topology.pairs)) if rng.random() < 0.3)
        with pytest.raises(Infeasible) as err:
            solve_min_cost_flow(ExpandedNetwork(topology, [1.0] * len(topology.pairs), closed))
        assert max_flow(topology, closed) == err.value.max_flow


class TestCompilePairs:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_left_out_pairs_solve_like_closed_arcs(self, seed):
        # a topology of some of the pairs routes bit for bit like the full
        # one with the other arcs closed, cold and warm-started
        rng = random.Random(seed)
        inst = make_small_instance(rng, n_capacities=rng.randint(1, 3))
        full = compile_topology(inst)
        keep = np.array([rng.random() < 0.7 for _ in full.pairs], dtype=bool)
        sub = compile_pairs(inst, full.pairs[keep])
        cost = [rng.choice([0.0, rng.uniform(0.0, 10.0)]) for _ in full.pairs]
        left_out = frozenset(np.flatnonzero(~keep).tolist())
        nets = (ExpandedNetwork(full, cost, left_out),
                ExpandedNetwork(sub, [c for c, k in zip(cost, keep) if k]))
        zeros = [FlowState([], [], np.zeros(net.topology.n_vertices), 0.0) for net in nets]
        try:
            expected = solve_min_cost_flow(nets[0], zeros[0])
        except Infeasible as err:
            with pytest.raises(Infeasible) as sub_err:
                solve_min_cost_flow(nets[1], zeros[1])
            assert sub_err.value.max_flow == err.max_flow
            return
        got = solve_min_cost_flow(nets[1], zeros[1])
        assert np.array_equal(got.flow, expected.flow) and got.lp_cost == expected.lp_cost
        if len(got.state.arcs) == 0:
            return
        arc = rng.choice(got.state.arcs)  # close one carrying arc of the subset
        children = []
        for net, sol, a in zip(nets, (expected, got), (int(np.flatnonzero(keep)[arc]), arc)):
            try:
                children.append(solve_min_cost_flow(net._replace(closed=net.closed | {a}),
                                                    sol.state, a))
            except Infeasible:
                children.append(None)
        if children[0] is None or children[1] is None:
            assert children[0] is children[1]
        else:
            assert np.array_equal(children[1].flow, children[0].flow)
            assert children[1].lp_cost == children[0].lp_cost


class TestPushCap:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000),
           caps=st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=3, unique=True),
           costs=st.lists(st.one_of(st.sampled_from([0.0, 1e9]), st.floats(0.0, 1e9)),
                          min_size=36, max_size=36),
           half=st.booleans())
    def test_push_cap_never_reached(self, seed, caps, costs, half):
        # fractional capacities, per-arc costs from 0 to 1e9, the target at
        # the max flow or half of it: the augmentation cap is never reached
        base = make_small_instance(random.Random(seed), n_capacities=len(caps))
        base = dataclasses.replace(base, capacities=np.array(sorted(caps)))
        mf = max_flow(compile_topology(base))
        inst = dataclasses.replace(base, target=mf / 2 if half else mf)
        topology = compile_topology(inst)
        sol = solve_min_cost_flow(ExpandedNetwork(topology, costs[:len(topology.pairs)]))
        assert verify_flow(inst, sol) == []


def _solve_or_none(net, *start):
    try:
        return solve_min_cost_flow(net, *start)
    except Infeasible:
        return None


class TestWarmStart:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(0, 6), fractional=st.booleans(),
           slack=st.sampled_from([None, -3.0, -0.5, 0.0, 0.5, 3.0]),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 1000)), max_size=6))
    def test_warm_child_equals_cold_child(self, seed, k, fractional, slack, steps):
        """Branch-and-bound steps from the root: close an arc, or drop its
        cost from slope-scaled to variable. The child repaired from its
        parent's end state is infeasible exactly when a from-scratch solve
        is; otherwise its flow verifies and costs the same within the gap
        (degenerate ties may pick another optimal flow)."""
        rng = random.Random(seed)
        caps = (0.75, 1.5, 2.25, 3.5) if fractional else (1, 2, 3, 4)
        base = make_small_instance(rng, max_edges=10, n_capacities=2, cap_choices=caps)
        scaled = base.capacities * 10.0 ** k
        inst = dataclasses.replace(base, capacities=scaled, target=base.target * 10.0 ** k)
        if slack is not None:  # at the max flow, on both sides of flow_tol
            mf = max_flow(compile_topology(inst))
            inst = dataclasses.replace(inst, target=mf - slack * flow_tol(mf))
        topology = compile_topology(inst)
        net = build_expanded_network(inst, seed_organism(inst))
        cost, variable = net.cost, inst.variable_cost.reshape(-1)[topology.pairs]
        zero = FlowState([], [], np.zeros(inst.n_vertices), 0.0)
        parent = _solve_or_none(net, zero)
        assert (parent is None) == (_solve_or_none(net) is None)
        free = list(range(len(cost)))
        for close, pick in steps:
            if parent is None or not free:
                break
            arc = free.pop(pick % len(free))
            if close:
                net = net._replace(closed=net.closed | {arc})
            else:
                cost = net.cost.copy()
                cost[arc] = variable[arc]
                net = net._replace(cost=cost)
            warm = _solve_or_none(net, parent.state, arc)
            cold = _solve_or_none(net)
            assert (warm is None) == (cold is None)
            if warm is not None:
                assert verify_flow(inst, warm) == []
                # closed arcs carry exactly nothing, so branch-and-bound
                # takes its branch arc from the carrying arcs unmasked
                flat = warm.flow.reshape(-1)[topology.pairs]
                assert all(flat[a] == 0.0 for a in net.closed)
                assert warm.lp_cost == pytest.approx(
                    cold.lp_cost, abs=GAP_DEFAULT * max(1.0, abs(cold.lp_cost)))
            parent = warm

    def test_cheaper_infinite_arc_rejected(self):
        # paths 0->1->3 and 0->2->3; arc 2 (0->2) has infinite capacity.
        # Making it cheaper pays, and saturating it would leave inf - inf
        inst = Instance(
            n_vertices=4, source=0, sink=3, edges=((0, 1), (1, 3), (0, 2), (2, 3)),
            capacities=np.array([5.0, math.inf]),
            fixed_cost=np.array([[1.0, math.nan], [1.0, math.nan], [math.nan, 1.0],
                                 [1.0, math.nan]]),
            variable_cost=np.array([[1.0, math.nan], [1.0, math.nan], [math.nan, 1.0],
                                    [1.0, math.nan]]), target=4.0,
        )
        topology = compile_topology(inst)
        assert topology.capacity[0::2].tolist() == [5.0, 5.0, math.inf, 5.0]
        net = ExpandedNetwork(topology, np.array([1.0, 1.0, 5.0, 1.0]))
        root = solve_min_cost_flow(net, FlowState([], [], np.zeros(4), 0.0))
        assert root.lp_cost == 8.0
        with pytest.raises(ValueError, match="arc 2: infinite capacity"):
            solve_min_cost_flow(net._replace(cost=np.array([1.0, 1.0, 0.0, 1.0])),
                                root.state, 2)

    def test_degenerate_tie_may_pick_another_flow(self, fig1):
        # opening arc 0 makes fig1's two paths cost 4 per unit each: the
        # repaired child keeps its parent's flow [1, 2, 1, 2] where a
        # from-scratch solve picks [2, 1, 2, 1]; both are optimal
        net = build_expanded_network(fig1, seed_organism(fig1))
        root = solve_min_cost_flow(net, FlowState([], [], np.zeros(4), 0.0))
        cost = net.cost.copy()
        cost[0] = fig1.variable_cost[0, 0]
        net = net._replace(cost=cost)
        warm = solve_min_cost_flow(net, root.state, 0)
        cold = solve_min_cost_flow(net)
        assert warm.lp_cost == cold.lp_cost == 12.0
        assert verify_flow(fig1, warm) == verify_flow(fig1, cold) == []

    def test_cold_state_is_the_zero_start_state(self):
        # a cold solve returns the end state of one started from all zeros,
        # bit for bit, and it warm-starts every child exactly as that does
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        topology = compile_topology(inst)
        net = build_expanded_network(inst, seed_organism(inst))
        variable = inst.variable_cost.reshape(-1)[topology.pairs]

        def bits(sol):
            state = sol.state
            return (sol.flow.tobytes(), sol.lp_cost, state.arcs.tolist(),
                    state.residual.tobytes(), state.potential.tobytes(), state.shortfall)

        cold = solve_min_cost_flow(net)
        zero = solve_min_cost_flow(net, FlowState([], [], np.zeros(topology.n_vertices), 0.0))
        assert bits(cold) == bits(zero)
        for arc in cold.state.arcs.tolist():
            cheaper = net.cost.copy()
            cheaper[arc] = variable[arc]
            for child in (net._replace(closed=frozenset({arc})), net._replace(cost=cheaper)):
                warm = [_solve_or_none(child, parent.state, arc) for parent in (cold, zero)]
                assert (warm[0] is None) == (warm[1] is None)
                if warm[0] is not None:
                    assert bits(warm[0]) == bits(warm[1])

import dataclasses
import gc
import hashlib
import itertools
import math
import random
import time
import weakref

import numpy as np
import pytest

from mcfcnf import exact
from mcfcnf import (GAP_DEFAULT, FlowSolution, Infeasible, Instance, Organism,
                    ValidationError, build_expanded_network, compile_topology,
                    generate_random, lp_relaxation_bound, polish, score, solve_exact,
                    solve_min_cost_flow, validate, verify_flow)
from mcfcnf.evaluate import TRUE_COST_MARGIN, true_cost
from conftest import brute_force, integral_score_optimum, make_small_instance


def _scored_relaxation(instance, scale):
    """Score of the decode of dense (edge, class) divisors, taken on the arcs."""
    pairs = compile_topology(instance).pairs
    org = Organism(scale=np.asarray(scale, dtype=float).reshape(-1)[pairs])
    return score(instance, solve_min_cost_flow(build_expanded_network(instance, org)))


class TestBruteForce:
    def test_diamond(self, fig1):
        result = brute_force(fig1)
        assert result.best.true_cost == pytest.approx(20.0, abs=1e-9)
        assert result.proven_optimal

    def test_minimal(self, minimal):
        assert brute_force(minimal).best.true_cost == pytest.approx(4.0, abs=1e-9)

    def test_infeasible(self, minimal):
        bad = dataclasses.replace(minimal, target=10.0)
        with pytest.raises(Infeasible):
            brute_force(bad)

    def test_size_guard(self):
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=tuple((0, 1) for _ in range(21)),
            capacities=np.array([2.0]), fixed_cost=np.ones((21, 1)),
            variable_cost=np.ones((21, 1)), target=1.0,
        )
        with pytest.raises(ValueError, match="brute force"):
            brute_force(inst)

    def test_matches_independent_enumeration(self):
        # cross-check against indicator-charged integral-flow enumeration,
        # which is exact for integer capacities and targets
        rng = random.Random(404)
        for _ in range(30):
            inst = make_small_instance(
                rng, max_vertices=5, max_edges=6, n_capacities=rng.choice((1, 2)),
                cap_choices=(1, 2, 3), target_cap=4)
            expected = integral_score_optimum(inst)
            assert expected is not None
            result = brute_force(inst)
            assert result.best.true_cost == pytest.approx(expected, abs=1e-9)
            assert verify_flow(inst, result.best.flow) == []


class TestSolveExact:
    def test_diamond(self, fig1):
        result = solve_exact(fig1, budget=10)
        assert result.best.true_cost == pytest.approx(20.0, abs=1e-9)
        assert result.proven_optimal
        assert result.best.flow.flow.ravel().tolist() == [2.0, 1.0, 2.0, 1.0]

    def test_minimal(self, minimal):
        result = solve_exact(minimal, budget=10)
        assert result.best.true_cost == pytest.approx(4.0, abs=1e-9)
        assert result.proven_optimal

    def test_every_flow_costs_inf(self):
        # finite costs whose sum overflows: such an instance cannot be built,
        # since no flow could have a finite cost
        with pytest.raises(ValidationError, match="finite total"):
            solve_exact(Instance(
                n_vertices=3, source=0, sink=2, edges=((0, 1), (1, 2)),
                capacities=np.array([5.0]), fixed_cost=np.array([[1e308], [1.0]]),
                variable_cost=np.array([[1e308], [1.0]]), target=1.0,
            ), budget=10)

    def test_largest_finite_total_is_proven(self):
        # the finite total every Instance holds is all the root needs to
        # become the first incumbent, however close to overflow its cost is
        inst = Instance(n_vertices=2, source=0, sink=1, edges=((0, 1),),
                        capacities=np.array([5.0]), fixed_cost=np.array([[1.7e308]]),
                        variable_cost=np.array([[0.0]]), target=3.0)
        result = solve_exact(inst, budget=10)
        assert result.best.true_cost == 1.7e308
        assert result.proven_optimal and result.nodes_explored == 3

    def test_budget_must_be_positive(self, minimal):
        with pytest.raises(ValueError, match="budget"):
            solve_exact(minimal, budget=0)

    def test_nan_budget_rejected(self, minimal):
        # NaN passes a `budget <= 0` test, which let it run an unbounded search
        with pytest.raises(ValueError, match=r"budget must be positive \(got nan\)"):
            solve_exact(minimal, budget=float("nan"))

    def test_infeasible(self, minimal):
        bad = dataclasses.replace(minimal, target=10.0)
        with pytest.raises(Infeasible):
            solve_exact(bad, budget=10)

    def test_tiny_budget_returns_unproven_incumbent(self, fig1):
        result = solve_exact(fig1, budget=1e-9)
        assert not result.proven_optimal
        assert result.best.true_cost == pytest.approx(21.0, abs=1e-9)  # root score
        assert result.bound == pytest.approx(15.0, abs=1e-9)           # root bound

    def test_matches_brute_force(self):
        rng = random.Random(777)
        for _ in range(40):
            n_caps = rng.choice((1, 2))
            inst = make_small_instance(
                rng, max_vertices=6, max_edges=16 // n_caps, n_capacities=n_caps,
                cap_choices=(1, 2, 3, 4))
            expected = brute_force(inst).best.true_cost
            result = solve_exact(inst, budget=30)
            assert result.proven_optimal
            assert result.best.true_cost == pytest.approx(expected, rel=1e-9)
            assert verify_flow(inst, result.best.flow) == []

    def test_root_bound_equals_relaxation_bound(self):
        # the last instance has unoffered pairs, an infinite class (its fixed
        # cost spread to nothing) and a fractional root: 4 units on 2->3
        rng = random.Random(111)
        instances = [make_small_instance(rng, n_capacities=rng.choice((1, 2))) for _ in range(10)]
        nan = math.nan
        instances.append(Instance(
            n_vertices=4, source=0, sink=3, edges=((0, 1), (1, 3), (0, 2), (2, 3)),
            capacities=np.array([5.0, math.inf]),
            fixed_cost=np.array([[1.0, nan], [1.0, nan], [nan, 1.0], [1.0, nan]]),
            variable_cost=np.array([[1.0, nan], [1.0, nan], [nan, 1.0], [1.0, nan]]),
            target=4.0))
        for inst in instances:
            log = []
            solve_exact(inst, budget=30, node_log=log)
            root_bound = lp_relaxation_bound(inst)
            if log or inst is instances[-1]:
                # the first logged children hang off the root
                assert log[0][0] == root_bound

    def test_node_bounds_monotone_down_the_tree(self):
        rng = random.Random(222)
        for _ in range(20):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            log = []
            solve_exact(inst, budget=30, node_log=log)
            for parent_bound, child_bound in log:
                assert child_bound >= parent_bound - 1e-9

    def test_search_path_pinned_on_small_grid(self):
        # pinned values: any change to node bounds, branching or the
        # solver's tie-breaks moves the node count
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        result = solve_exact(inst, budget=60)
        assert result.proven_optimal
        assert result.nodes_explored == 891
        assert result.best.true_cost == 573.4276663730062

    @pytest.mark.parametrize("n, seed, nodes, cost, digest", [
        (16, 3, 891, 573.4276663730062,
         "a12bc409f134369f54682c7d12bf3fb9a4cc8ab90384166119d802cc5f38d68f"),
        (81, 6, 2571, 3466.792906966959,
         "a1524e6b4b9bfd46bf0dbbeb04f207aee185acbf30cba1b789fd21f53262a62d"),
    ])
    def test_node_log_pinned_on_grids(self, n, seed, nodes, cost, digest):
        # digests of the node log taken while every node was solved from
        # scratch: on integer data, children repaired from their parent's
        # end state reproduce every node bound bit for bit
        inst = generate_random("grid", n, 2, seed=seed, target_fraction=0.6)
        log = []
        result = solve_exact(inst, budget=600, node_log=log)
        assert result.proven_optimal
        assert (result.nodes_explored, result.best.true_cost) == (nodes, cost)
        assert hashlib.sha256(repr(log).encode()).hexdigest() == digest

    def test_proven_flag_matches_gap(self):
        rng = random.Random(333)
        for _ in range(10):
            inst = make_small_instance(rng, n_capacities=1)
            result = solve_exact(inst, budget=30)
            if result.proven_optimal:
                gap = result.best.true_cost - result.bound
                assert gap <= GAP_DEFAULT * max(1.0, abs(result.best.true_cost)) + 1e-15


class TestPolish:
    def test_already_optimal_returned_unchanged(self, fig1):
        warm = solve_exact(fig1, budget=10).best
        out = polish(fig1, warm, budget=1.0)
        assert out is warm

    def test_improves_suboptimal_warm(self, fig1):
        warm = _scored_relaxation(fig1, [[2.0], [1.0], [2.0], [1.0]])
        assert warm.true_cost == pytest.approx(21.0, abs=1e-9)
        out = polish(fig1, warm, budget=1.0)
        assert out.true_cost == pytest.approx(20.0, abs=1e-9)

    def test_vanishing_budget_returns_warm(self, fig1):
        warm = _scored_relaxation(fig1, [[2.0], [1.0], [2.0], [1.0]])
        out = polish(fig1, warm, budget=0.0)
        assert out is warm

    def test_nan_budget_returns_warm(self, fig1):
        # a search with a NaN deadline never stops for time; none is run
        warm = _scored_relaxation(fig1, [[2.0], [1.0], [2.0], [1.0]])
        assert polish(fig1, warm, budget=float("nan")) is warm

    def test_warm_short_of_what_the_search_routes_returned(self, minimal):
        # verify_flow accepts 5.0 against a target 5 + 5e-8 (VERIFY_TOL is
        # 1e-7), but the search allows only flow_tol short: its root is
        # infeasible, as validate says, and polish keeps the warm flow
        inst = dataclasses.replace(minimal, target=5.0 + 5e-8)
        flow = FlowSolution(flow=np.array([[5.0]]), lp_cost=0.0)
        assert validate(inst) and not verify_flow(inst, flow)
        warm = score(inst, flow)
        assert polish(inst, warm, 1.0) is warm

    def test_invalid_warm_rejected(self, fig1):
        from mcfcnf import FlowSolution
        bogus = score(fig1, FlowSolution(flow=np.full((4, 1), 9.0), lp_cost=0.0))
        with pytest.raises(ValueError, match="valid flow"):
            polish(fig1, bogus, budget=1.0)

    def test_nan_warm_rejected(self):
        inst = generate_random("grid", 9, 2, seed=3)
        nan = score(inst, FlowSolution(flow=np.full(inst.fixed_cost.shape, math.nan), lp_cost=0.0))
        with pytest.raises(ValueError, match="valid flow"):
            polish(inst, nan, budget=1.0)

    def test_never_regresses(self):
        rng = random.Random(555)
        for _ in range(15):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            warm = _scored_relaxation(
                inst, np.full((inst.n_edges, inst.n_capacities), rng.uniform(0.5, 5.0)))
            out = polish(inst, warm, budget=0.5)
            assert out.true_cost <= warm.true_cost + 1e-12
            assert verify_flow(inst, out.flow) == []

    @pytest.mark.parametrize("kind, n, k, seed, warm_cost, cost, calls, digest", [
        ("grid", 16, 2, 3, 677.6981502241204, 573.4276663730062, 481,
         "862bdd0843c1ec075e9ca5235a007638e4d5073c1c28e00de070406fe0781cfc"),
        ("geometric", 30, 3, 1, 461.33082758710015, 439.9109798257978, 2283,
         "77f4714d1cf089e5d4c1430557a4ef1ca08050dc13f058eee0ed1bdf8ee97748"),
    ])
    def test_search_pinned(self, monkeypatch, kind, n, k, seed, warm_cost, cost, calls,
                           digest):
        # polish from the GA's seed organism (divisors = class capacities) to
        # the end of its search; the solve count and the digest of the
        # feasible nodes' lp_cost pin its neighborhood, nodes and branching
        inst = generate_random(kind, n, k, seed=seed, target_fraction=0.6)
        warm = _scored_relaxation(inst, np.broadcast_to(inst.capacities, inst.fixed_cost.shape))
        assert warm.true_cost == warm_cost
        solve, made, lp_costs = exact.solve_min_cost_flow, 0, []

        def spy(*args):
            nonlocal made
            made += 1
            sol = solve(*args)  # infeasible children raise and add no lp_cost
            lp_costs.append(sol.lp_cost)
            return sol

        monkeypatch.setattr(exact, "solve_min_cost_flow", spy)
        assert polish(inst, warm, budget=600).true_cost == cost
        assert made == calls
        assert hashlib.sha256(repr(lp_costs).encode()).hexdigest() == digest

    def test_neighbourhood_topology_collected(self, monkeypatch):
        # the kernel keeps what it binds on the topology itself, so nothing
        # holds a polish's neighbourhood topology once polish returns
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        warm = _scored_relaxation(inst, np.broadcast_to(inst.capacities, inst.fixed_cost.shape))
        compile_pairs, topologies = exact.compile_pairs, []

        def spy(*args):
            topology = compile_pairs(*args)
            topologies.append(weakref.ref(topology))
            return topology

        monkeypatch.setattr(exact, "compile_pairs", spy)
        assert polish(inst, warm, budget=600).true_cost < warm.true_cost
        gc.collect()
        assert len(topologies) == 1 and topologies[0]() is None


def _record_solves(monkeypatch) -> list:
    """The solutions of every feasible node of the searches that follow."""
    solve, solutions = exact.solve_min_cost_flow, []

    def spy(*args):
        solutions.append(solve(*args))
        return solutions[-1]

    monkeypatch.setattr(exact, "solve_min_cost_flow", spy)
    return solutions


class TestArcSpaceCost:
    @pytest.mark.parametrize("kind, n, k, seed, search, digest", [
        ("grid", 16, 2, 3, "prove",
         "148174362a0549dc63c0ed8c7d261beba287e7715e81dbb0b78445609a21159f"),
        ("geometric", 30, 3, 1, "prove",
         "b11200f7b7cd9a78675a8212284e6de6670ed8c56cf3b04f44bbded99eb48a11"),
        ("grid", 16, 2, 3, "polish",
         "ab460dd3fb6678eba7fbe3bc60b4c968fd3eb22671f23d18370e87b6993a07fe"),
    ])
    def test_bit_identical_to_score(self, monkeypatch, kind, n, k, seed, search, digest):
        # a node's true cost, taken from its end state, is score's on the
        # dense flow bit for bit; the dense flows, built on first read, are
        # read-only and hash as the matrices each solve used to fill
        inst = generate_random(kind, n, k, seed=seed, target_fraction=0.6)
        solutions = _record_solves(monkeypatch)
        if search == "prove":
            solve_exact(inst, budget=600)
        else:  # the warm start's solve is not a node: it bypasses exact
            warm = _scored_relaxation(inst, np.broadcast_to(inst.capacities, inst.fixed_cost.shape))
            polish(inst, warm, budget=600)
        topology = solutions[0].topology
        assert all(sol.topology is topology for sol in solutions)
        assert (search == "polish") == (len(topology.pairs) < inst.available.sum())
        dense = hashlib.sha256()
        for sol in solutions:
            expected = score(inst, FlowSolution(flow=sol.flow, lp_cost=sol.lp_cost)).true_cost
            got = true_cost(topology, sol.state.arcs, sol.state.residual[1::2])
            assert got.hex() == expected.hex()
            assert not sol.flow.flags.writeable
            dense.update(sol.flow.tobytes())
        assert dense.hexdigest() == digest

    def test_score_runs_for_incumbents_only(self, monkeypatch):
        # score, and the dense flow it reads, is paid once per new incumbent,
        # never per node
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        solutions, scored, real_score = _record_solves(monkeypatch), [], exact.score

        def spy(*args):
            scored.append(real_score(*args))
            return scored[-1]

        monkeypatch.setattr(exact, "score", spy)
        result = solve_exact(inst, budget=600)
        costs = [score(inst, sol).true_cost for sol in solutions]
        best = [math.inf, *itertools.accumulate(costs, min)]
        improvements = [cost for cost, before in zip(costs, best) if cost < before]
        assert [s.true_cost for s in scored] == improvements
        assert scored[-1] is result.best
        assert len(scored) < result.nodes_explored // 20


class TestTrueCostEstimate:
    @pytest.mark.parametrize("kind, n, k, seed, search", [
        ("grid", 16, 2, 3, "prove"),
        ("geometric", 30, 3, 1, "prove"),
        ("grid", 16, 2, 3, "polish"),
        ("geometric", 30, 3, 1, "polish"),
    ])
    def test_estimate_within_margin(self, monkeypatch, kind, n, k, seed, search):
        # a node's exact true cost is taken only where the kernel's estimate
        # allows a new incumbent; that is exact only while the estimate is
        # within TRUE_COST_MARGIN of the true cost at every node
        inst = generate_random(kind, n, k, seed=seed, target_fraction=0.6)
        solutions = _record_solves(monkeypatch)
        if search == "prove":
            solve_exact(inst, budget=600)
        else:
            warm = _scored_relaxation(inst, np.broadcast_to(inst.capacities, inst.fixed_cost.shape))
            polish(inst, warm, budget=600)
        assert len(solutions) > 100
        for sol in solutions:
            cost = true_cost(sol.topology, sol.state.arcs, sol.state.residual[1::2])
            assert abs(sol.node[1] - cost) <= TRUE_COST_MARGIN * cost


def test_exact_runtime_stays_small_on_diamond(fig1):
    started = time.perf_counter()
    solve_exact(fig1, budget=10)
    assert time.perf_counter() - started < 1.0


def test_every_exported_name_resolves():
    import mcfcnf
    for name in mcfcnf.__all__:
        assert hasattr(mcfcnf, name), name

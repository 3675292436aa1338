import dataclasses
import math
import random

import numpy as np
import pytest

from mcfcnf import (FlowSolution, Organism, build_expanded_network, compile_topology,
                    flow_tol, generate_random, lp_relaxation_bound, score, solve_min_cost_flow,
                    verify_flow, write_solution_csv)
from conftest import make_small_instance


def _flow(instance, values):
    g = np.array(values, dtype=float).reshape(instance.n_edges, instance.n_capacities)
    return FlowSolution(flow=g, lp_cost=0.0)


def _lp_solution(instance, scale_value=1.0):
    org = Organism(scale=np.full(len(compile_topology(instance).pairs), scale_value))
    return solve_min_cost_flow(build_expanded_network(instance, org))


class TestScore:
    def test_zero_flow(self, fig1):
        scored = score(fig1, _flow(fig1, [0, 0, 0, 0]))
        assert scored.true_cost == 0.0
        assert scored.used.sum() == 0

    def test_minimal(self, minimal):
        scored = score(minimal, _flow(minimal, [3.0]))
        assert scored.used.tolist() == [[1]]
        assert scored.true_cost == 4.0  # fixed 1 + 3 units at 1

    def test_diamond_relaxation_solution(self, fig1):
        org = Organism(scale=np.array([2.0, 1.0, 2.0, 1.0]))
        sol = solve_min_cost_flow(build_expanded_network(fig1, org))
        scored = score(fig1, sol)
        assert scored.used.ravel().tolist() == [1, 1, 1, 1]
        assert scored.true_cost == pytest.approx(21.0, abs=1e-9)

    def test_pure_and_idempotent(self, fig1):
        sol = _lp_solution(fig1)
        a = score(fig1, sol)
        b = score(fig1, sol)
        assert a.true_cost == b.true_cost
        assert (a.used == b.used).all()

    def test_shape_mismatch(self, fig1, minimal):
        with pytest.raises(ValueError, match="shape"):
            score(fig1, _flow(minimal, [1.0]))

    def test_true_cost_recomputable(self):
        rng = random.Random(9)
        for _ in range(10):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            scored = score(inst, _lp_solution(inst))
            g = scored.flow.flow
            avail = inst.available
            recomputed = float(inst.fixed_cost[avail & (scored.used == 1)].sum()
                               + (inst.variable_cost[avail] * g[avail]).sum())
            assert scored.true_cost == pytest.approx(recomputed, rel=1e-9)

    @pytest.mark.parametrize("change", ["costs", "offer", "target"])
    def test_solve_of_another_instance_priced_at_own_costs(self, change):
        # a solve's flow scored against another instance of the same shape
        # gets that instance's dense-formula cost (costs, offers and zero
        # rule), never the costs of the instance it was solved on
        inst = generate_random("grid", 16, 2, seed=3, target_fraction=0.6)
        sol = _lp_solution(inst)
        fixed, carrying = inst.fixed_cost.copy(), np.argwhere(sol.flow > 0)[0]
        fixed[tuple(carrying)] = math.nan  # the pair is not offered any more
        other = dataclasses.replace(inst, **{
            "costs": {"fixed_cost": 2 * inst.fixed_cost, "variable_cost": inst.variable_cost + 1},
            "offer": {"fixed_cost": fixed},
            "target": {"target": 1e12 * sol.flow[tuple(carrying)]}}[change])
        g, avail = sol.flow, other.available
        used = (g > flow_tol(other.target)) & avail
        expected = (float(other.fixed_cost[used].sum())
                    + float((other.variable_cost[avail] * g[avail]).sum()))
        got = score(other, sol)
        assert got.true_cost == expected
        assert got.used.tolist() == used.astype(np.int8).tolist()
        assert got.true_cost != score(inst, sol).true_cost


class TestVerifyFlow:
    def test_lp_solution_passes(self):
        rng = random.Random(13)
        for _ in range(10):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            assert verify_flow(inst, _lp_solution(inst)) == []

    def test_capacity_violation(self, minimal):
        problems = verify_flow(minimal, _flow(minimal, [7.0]))
        assert any("exceeds capacity" in p for p in problems)

    def test_conservation_violation(self, fig1):
        # 2 units into vertex 1, only 1 out
        problems = verify_flow(fig1, _flow(fig1, [2.0, 1.0, 1.0, 2.0]))
        vertex1 = [p for p in problems if p.startswith("vertex 1:")]
        assert vertex1 and "residual 1.0" in vertex1[0]

    def test_target_violation(self, minimal):
        problems = verify_flow(minimal, _flow(minimal, [2.0]))
        assert any("target" in p for p in problems)

    def test_negative_flow_flagged(self, minimal):
        problems = verify_flow(minimal, _flow(minimal, [-1.0]))
        assert any("negative" in p for p in problems)

    def test_nan_entry_flagged(self):
        inst = generate_random("grid", 9, 2, seed=3)
        flow = _lp_solution(inst).flow.copy()
        e, k = np.argwhere(flow > 0)[0]
        flow[e, k] = math.nan
        problems = verify_flow(inst, FlowSolution(flow=flow, lp_cost=0.0))
        assert f"edge {e} capacity {k}: negative or NaN flow nan" in problems
        assert any("conservation violated, residual nan" in p for p in problems)

    def test_all_nan_flow_flagged(self):
        inst = generate_random("grid", 9, 2, seed=3)
        flow = FlowSolution(flow=np.full(inst.fixed_cost.shape, math.nan), lp_cost=0.0)
        problems = verify_flow(inst, flow)
        assert sum("NaN flow nan" in p for p in problems) == inst.fixed_cost.size
        assert problems[-1].startswith("source outflow nan misses target")
        assert math.isnan(score(inst, flow).true_cost)


class TestDominance:
    def test_true_cost_dominates_slope_scaled_cost(self):
        # with divisors equal to capacities, fixed/capacity * flow never
        # exceeds the full fixed charge of a used pair
        rng = random.Random(23)
        for _ in range(15):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            caps_org = Organism(
                scale=inst.capacities[compile_topology(inst).pairs % inst.n_capacities])
            sol = solve_min_cost_flow(build_expanded_network(inst, caps_org))
            scored = score(inst, sol)
            assert scored.true_cost >= sol.lp_cost - 1e-9

    def test_any_valid_flow_beats_relaxation_bound(self):
        rng = random.Random(29)
        for _ in range(15):
            inst = make_small_instance(rng, n_capacities=rng.choice((1, 2)))
            bound = lp_relaxation_bound(inst)
            scored = score(inst, _lp_solution(inst, scale_value=2.5))
            assert scored.true_cost >= bound - 1e-9


class TestCsvExport:
    def test_format(self, tmp_path, minimal):
        scored = score(minimal, _flow(minimal, [3.0]))
        path = tmp_path / "sol.csv"
        write_solution_csv(path, scored)
        lines = path.read_text().splitlines()
        assert lines[0] == "edge_index,capacity_index,flow,z"
        assert lines[1] == "0,0,3.0,1"
        assert lines[-1] == "# true_cost=4.0"

    def test_only_positive_rows(self, tmp_path, fig1):
        scored = score(fig1, _flow(fig1, [2.0, 0.0, 2.0, 0.0]))
        path = tmp_path / "sol.csv"
        write_solution_csv(path, scored)
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # header + 2 rows + trailer

"""The one zero-flow rule (flowcore.flow_tol) seen from every consumer: the
solvers, validate, score and verify_flow must agree on what a flow amount
of "zero" is, so every reported cost belongs to a verified flow."""
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfcnf import (GAP_DEFAULT, UNBOUNDED, GAConfig, Infeasible, Instance, Organism,
                    compile_topology, evolve, fitness, flow_tol,
                    lp_relaxation_bound, polish, save_instance, solve_exact,
                    validate, verify_flow)
from mcfcnf.cli import main
from mcfcnf.flowcore import max_flow
from conftest import brute_force, make_small_instance

NA = np.nan


def shortfall_instance() -> Instance:
    """One edge whose only class falls 5e-7 short of the 1e6 target: within
    flow_tol(1e6) = 1e-6, so the target counts as met."""
    return Instance(
        n_vertices=2, source=0, sink=1, edges=((0, 1),),
        capacities=np.array([999999.9999995]),
        fixed_cost=np.array([[5.0]]), variable_cost=np.array([[1.0]]),
        target=1e6,
    )


def sliver_instance() -> Instance:
    """Two parallel edges: class 1 (fixed 1, variable 1) on the first, class
    2 (fixed 100, variable 2) on the second, target 1 + 5e-10. The 5e-10 over
    the first edge's capacity exceeds flow_tol, so it must be routed on the
    second edge, which then pays its fixed charge: optimum 102.000000001."""
    return Instance(
        n_vertices=2, source=0, sink=1, edges=((0, 1), (0, 1)),
        capacities=np.array([1.0, 2.0]),
        fixed_cost=np.array([[1.0, NA], [NA, 100.0]]),
        variable_cost=np.array([[1.0, NA], [NA, 2.0]]),
        target=1.0 + 5e-10,
    )


class TestShortfallWithinRule:
    def test_cli_solve_and_exact_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "a.mcfcnf"
        save_instance(shortfall_instance(), path)
        assert main(["solve", "--instance", str(path), "--iterations", "2"]) == 0
        assert main(["exact", "--instance", str(path), "--budget", "5"]) == 0
        assert "proven=true" in capsys.readouterr().out

    def test_solver_flows_verify(self):
        inst = shortfall_instance()
        assert validate(inst) == []
        exact = solve_exact(inst, budget=5)
        assert exact.proven_optimal
        assert verify_flow(inst, exact.best.flow) == []
        run = evolve(inst, GAConfig(iteration_limit=2))
        assert verify_flow(inst, run.best.flow) == []
        assert verify_flow(inst, run.polished.flow) == []


class TestSliverPaysFixedCharge:
    def test_every_solver_charges_the_second_edge(self):
        inst = sliver_instance()
        bound = lp_relaxation_bound(inst)
        assert bound == pytest.approx(2.000000026, abs=1e-12)
        run = evolve(inst, GAConfig(iteration_limit=3))
        costs = {
            "solve_exact": solve_exact(inst, budget=5).best.true_cost,
            "brute_force": brute_force(inst).best.true_cost,
            "evolve": run.best.true_cost,
            "polish": run.polished.true_cost,
        }
        for name, cost in costs.items():
            assert cost == pytest.approx(102.000000001, abs=1e-12), name
            assert cost >= bound, name

    def test_fitness_routes_the_sliver(self):
        inst = sliver_instance()
        scored = fitness(inst, Organism(scale=np.full(2, UNBOUNDED)))  # the offered pairs
        assert scored.flow.flow[1, 1] == pytest.approx(5e-10, rel=1e-6)
        assert scored.used.tolist() == [[1, 0], [0, 1]]


class TestToleranceBoundary:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(0, 6),
           slack=st.sampled_from([-1e3, -3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0, 1e3]))
    def test_flows_verify_and_respect_bound(self, seed, k, slack):
        """Capacities scaled by 10^k, target = max flow - slack * flow_tol:
        on both sides of the rule, every solver agrees with validate, and
        every flow it returns verifies and costs at least the LP bound."""
        rng = random.Random(seed)
        base = make_small_instance(rng, max_edges=10, n_capacities=2)
        base = dataclasses.replace(base, capacities=base.capacities * 10.0 ** k)
        mf = max_flow(compile_topology(base))
        inst = dataclasses.replace(base, target=mf - slack * flow_tol(mf))
        if validate(inst):
            with pytest.raises(Infeasible):
                solve_exact(inst, budget=5)
            with pytest.raises(Infeasible):
                brute_force(inst)
            return

        bound = lp_relaxation_bound(inst)
        floor = bound - GAP_DEFAULT * max(1.0, bound)
        shape = (inst.n_edges, inst.n_capacities)
        organism = Organism(scale=np.array(
            [rng.uniform(1e-3, 20.0) for _ in range(shape[0] * shape[1])]))
        decoded = fitness(inst, organism)
        exact = solve_exact(inst, budget=5)
        for scored in (decoded, exact.best, polish(inst, decoded, budget=1.0)):
            assert verify_flow(inst, scored.flow) == []
            assert scored.true_cost >= floor
        if exact.proven_optimal:
            optimum = brute_force(inst).best.true_cost
            assert exact.best.true_cost == pytest.approx(
                optimum, abs=GAP_DEFAULT * max(1.0, optimum))

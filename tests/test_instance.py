import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfcnf import (FacilityInstance, GAConfig, Infeasible, Instance, ParseError,
                    Terminal, ValidationError, evolve, format_instance,
                    from_facility_form, generate_random, invariant_violations, load_instance,
                    max_throughput, parse_instance, save_instance, solve_exact,
                    validate)
from conftest import (FACILITY_TEXT, brute_force, fig1_instance, make_small_instance,
                      two_class_edge_instance)

MINIMAL_TEXT = """\
MCFCNF 1
VERTICES 2 SOURCE 0 SINK 1
TARGET 3.0
CAPACITIES 1 5.0
EDGES 1
0 1 1.0 1.0
"""

FIG1_TEXT = """\
# diamond with two parallel two-hop paths
MCFCNF 1
VERTICES 4 SOURCE 0 SINK 3
TARGET 3.0
CAPACITIES 1 2.0
EDGES 4
0 1 6.0 0.5
0 2 2.0 1.0
1 3 6.0 0.5
2 3 2.0 1.0
"""


class TestParsing:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "minimal.mcfcnf"
        path.write_text(MINIMAL_TEXT)
        inst = load_instance(path)
        assert inst.n_edges == 1
        assert inst.n_capacities == 1
        assert inst.target == 3.0
        assert inst.edges == ((0, 1),)

    def test_diamond_file(self, tmp_path):
        path = tmp_path / "fig1.mcfcnf"
        path.write_text(FIG1_TEXT)
        inst = load_instance(path)
        assert inst.n_edges == 4
        assert inst.n_capacities == 1
        # independently enumerated optimum for the reconstructed file
        assert brute_force(inst).best.true_cost == pytest.approx(20.0, abs=1e-9)

    def test_zero_target_rejected(self, tmp_path):
        path = tmp_path / "bad.mcfcnf"
        for target in ("0", "inf"):
            path.write_text(MINIMAL_TEXT.replace("TARGET 3.0", f"TARGET {target}"))
            with pytest.raises(ValidationError, match="target must be positive"):
                load_instance(path)

    @pytest.mark.parametrize("costs", ["inf 1.0", "1.0 inf"])
    def test_infinite_cost_rejected(self, tmp_path, costs):
        # the max flow is 5, but no solve routes through an infinite cost
        path = tmp_path / "bad.mcfcnf"
        path.write_text(MINIMAL_TEXT.replace("0 1 1.0 1.0", f"0 1 {costs}"))
        with pytest.raises(ValidationError, match="edge 0 capacity 0: .* must be finite"):
            load_instance(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("costs,ok", [("1.0 1e308", False), ("1.7e308 0.0", True)])
    def test_overflowing_cost_total_rejected(self, tmp_path, costs, ok):
        # target 3: 3 x 1e308 overflows, 1.7e308 + 0 does not
        path = tmp_path / "huge.mcfcnf"
        path.write_text(MINIMAL_TEXT.replace("0 1 1.0 1.0", f"0 1 {costs}"))
        if ok:
            assert load_instance(path).fixed_cost[0, 0] == 1.7e308
        else:
            with pytest.raises(ValidationError, match="finite total"):
                load_instance(path)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL_TEXT.replace(
            "EDGES 1", "EDGES 1  # one edge")
        inst = parse_instance(text)
        assert inst.n_edges == 1

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("VERTICES 2 SOURCE 0 SINK 1\n")

    def test_truncated_edges(self):
        with pytest.raises(ParseError, match="edge"):
            parse_instance(MINIMAL_TEXT.replace("0 1 1.0 1.0\n", ""))

    def test_na_marks_class_unavailable(self):
        text = (
            "MCFCNF 1\nVERTICES 2 SOURCE 0 SINK 1\nTARGET 3.0\n"
            "CAPACITIES 2 2.0 5.0\nEDGES 1\n0 1 NA NA 1.0 1.0\n"
        )
        inst = parse_instance(text)
        assert not inst.available[0, 0]
        assert inst.available[0, 1]

    def test_na_requires_na_variable_cost(self):
        text = (
            "MCFCNF 1\nVERTICES 2 SOURCE 0 SINK 1\nTARGET 3.0\n"
            "CAPACITIES 2 2.0 5.0\nEDGES 1\n0 1 NA 7.0 1.0 1.0\n"
        )
        with pytest.raises(ParseError, match="NA"):
            parse_instance(text)

    @pytest.mark.parametrize("pair", ["nan 7", "NaN NA", "-nan 1"])
    def test_nan_fixed_cost_rejected(self, pair):
        # only NA NA marks a class an edge does not offer; a NaN number would
        # drop the class and its variable cost without a word
        with pytest.raises(ParseError, match="line 6: expected a number for fixed cost 0"):
            parse_instance(MINIMAL_TEXT.replace("0 1 1.0 1.0", "0 1 " + pair))

    @pytest.mark.parametrize("old, new, match", [
        ("SINK 1", "SINK 1 whatever", "line 2: expected 'VERTICES' with 5 fields"),
        ("TARGET 3.0", "TARGET 3.0 99", "line 3: expected 'TARGET' with 1 fields"),
        ("EDGES 1", "EDGES 1 extra", "line 5: expected 'EDGES' with 1 fields"),
    ])
    def test_extra_section_fields_rejected(self, old, new, match):
        with pytest.raises(ParseError, match=match):
            parse_instance(MINIMAL_TEXT.replace(old, new))

    def test_negative_variable_cost_rejected(self, tmp_path):
        path = tmp_path / "bad.mcfcnf"
        path.write_text(MINIMAL_TEXT.replace("0 1 1.0 1.0", "0 1 1.0 -1.0"))
        with pytest.raises(ValidationError, match="edge 0 capacity 0"):
            load_instance(path)


class TestRoundTrip:
    @pytest.mark.parametrize("kind,n,k", [("grid", 9, 1), ("grid", 12, 3), ("geometric", 30, 2)])
    def test_save_load_bytes(self, tmp_path, kind, n, k):
        inst = generate_random(kind, n, k, seed=5)
        path = tmp_path / "x.mcfcnf"
        save_instance(inst, path)
        text = path.read_text()
        reloaded = load_instance(path)
        assert format_instance(reloaded) == text

    def test_na_round_trip(self):
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([2.0, 5.0]),
            fixed_cost=np.array([[math.nan, 3.0]]),
            variable_cost=np.array([[math.nan, 1.5]]),
            target=4.0,
        )
        again = parse_instance(format_instance(inst))
        assert format_instance(again) == format_instance(inst)


class TestValidate:
    def test_valid_minimal(self, minimal):
        assert validate(minimal) == []

    def test_target_exceeds_cut(self, minimal):
        import dataclasses
        bad = dataclasses.replace(minimal, target=6.0)
        problems = validate(bad)
        assert len(problems) == 1
        assert problems[0].startswith("target exceeds max flow")

    @pytest.mark.parametrize("excess, feasible", [(5e-10, False), (1e-13, True)])
    def test_agrees_with_solvers_near_max_flow(self, fig1, excess, feasible):
        import dataclasses
        inst = dataclasses.replace(fig1, target=4.0 + excess)  # max flow is 4
        assert (validate(inst) == []) == feasible
        if feasible:
            assert solve_exact(inst, budget=10).proven_optimal
            evolve(inst, GAConfig(iteration_limit=1))
        else:
            with pytest.raises(Infeasible):
                solve_exact(inst, budget=10)
            with pytest.raises(Infeasible):
                evolve(inst, GAConfig(iteration_limit=1))

    def test_negative_cost_names_pair(self, fig1):
        import dataclasses
        var = fig1.variable_cost.copy()
        var[2, 0] = -3.0
        bad = dataclasses.replace(fig1, variable_cost=var)
        problems = validate(bad)
        assert any("edge 2 capacity 0" in p for p in problems)

    def test_self_loop_rejected(self):
        inst = Instance(
            n_vertices=3, source=0, sink=2, edges=((0, 1), (1, 1), (1, 2)),
            capacities=np.array([2.0]),
            fixed_cost=np.ones((3, 1)), variable_cost=np.ones((3, 1)), target=1.0,
        )
        assert any("self-loop" in p for p in validate(inst))

    def test_capacities_must_increase(self):
        inst = Instance(
            n_vertices=2, source=0, sink=1, edges=((0, 1),),
            capacities=np.array([5.0, 2.0]),
            fixed_cost=np.ones((1, 2)), variable_cost=np.ones((1, 2)), target=1.0,
        )
        assert any("strictly increasing" in p for p in validate(inst))

    def test_ids_beyond_int64_rejected(self):
        # below the vertex count, but the compiled network numbers vertices in int64
        big = 2**63
        inst = Instance(n_vertices=10**23, source=0, sink=big, edges=((0, big), (big - 1, 1)),
                        capacities=np.array([5.0]), fixed_cost=np.ones((2, 1)),
                        variable_cost=np.ones((2, 1)), target=1.0)
        bound = f"out of range [0, {big})"
        assert invariant_violations(inst) == [f"sink id {big} {bound}",
                                              f"edge 0: endpoint (0, {big}) {bound}"]

    def test_source_equals_sink(self):
        inst = Instance(
            n_vertices=2, source=0, sink=0, edges=((0, 1),),
            capacities=np.array([2.0]),
            fixed_cost=np.ones((1, 1)), variable_cost=np.ones((1, 1)), target=1.0,
        )
        assert any("differ" in p for p in validate(inst))

    def test_arrays_are_immutable(self, fig1):
        with pytest.raises(ValueError):
            fig1.fixed_cost[0, 0] = 99.0


def _small_facility() -> FacilityInstance:
    return FacilityInstance(
        n_vertices=2, edges=((0, 1),),
        capacities=np.array([5.0]),
        fixed_cost=np.array([[3.0]]),
        variable_cost=np.array([[0.5]]),
        sources=(Terminal(vertex=0, open_cost=10.0, unit_cost=1.0, limit=5.0),),
        sinks=(Terminal(vertex=1, open_cost=20.0, unit_cost=2.0, limit=5.0),),
        target=4.0,
    )


class TestFacilityForm:
    def test_smallest_translation(self):
        inst = from_facility_form(_small_facility())
        assert inst.n_vertices == 4
        assert inst.n_edges == 3
        assert inst.source == 2 and inst.sink == 3
        assert validate(inst) == []
        # terminal edges carry the terminal costs at the limit class
        assert inst.edges[1] == (2, 0)
        assert inst.fixed_cost[1, 0] == 10.0 and inst.variable_cost[1, 0] == 1.0
        assert inst.edges[2] == (1, 3)
        assert inst.fixed_cost[2, 0] == 20.0 and inst.variable_cost[2, 0] == 2.0

    def test_distinct_limits_extend_capacity_list(self):
        fac = _small_facility()
        import dataclasses
        fac = dataclasses.replace(
            fac, sources=(Terminal(vertex=0, open_cost=1.0, unit_cost=0.0, limit=7.0),))
        inst = from_facility_form(fac)
        assert inst.capacities.tolist() == [5.0, 7.0]
        assert not inst.available[0, 1]  # transport edge keeps only its class
        assert inst.available[1, 1]      # source edge lives at the 7-class

    def test_unreachable_second_source_is_fine(self):
        fac = FacilityInstance(
            n_vertices=3, edges=((0, 1),),
            capacities=np.array([5.0]),
            fixed_cost=np.array([[3.0]]), variable_cost=np.array([[0.5]]),
            sources=(Terminal(0, 10.0, 1.0, 5.0), Terminal(2, 1.0, 0.1, 9.0)),
            sinks=(Terminal(1, 20.0, 2.0, 5.0),),
            target=4.0,
        )
        inst = from_facility_form(fac)
        assert validate(inst) == []  # first source alone covers the target

    def test_insufficient_source_rate_flagged(self):
        fac = _small_facility()
        import dataclasses
        fac = dataclasses.replace(fac, target=9.0)
        inst = from_facility_form(fac)
        problems = validate(inst)
        assert len(problems) == 1 and problems[0].startswith("target exceeds max flow")

    def test_unknown_vertex_rejected(self):
        fac = _small_facility()
        import dataclasses
        fac = dataclasses.replace(
            fac, sources=(Terminal(vertex=7, open_cost=1.0, unit_cost=0.0, limit=5.0),))
        with pytest.raises(ValueError, match="source vertex 7"):
            from_facility_form(fac)

    @pytest.mark.parametrize("role", ["sources", "sinks"])
    def test_nan_open_cost_rejected(self, role):
        # a NaN fixed cost marks no offer, which would drop the terminal
        fac = _small_facility()
        nan = dataclasses.replace(getattr(fac, role)[0], open_cost=math.nan)
        with pytest.raises(ValueError, match="open cost must not be NaN"):
            from_facility_form(dataclasses.replace(fac, **{role: (nan,)}))

    def test_duplicate_capacities_rejected(self):
        # both classes would map to one column of the union, losing one's costs
        fac = dataclasses.replace(
            _small_facility(), capacities=np.array([5.0, 5.0]),
            fixed_cost=np.array([[3.0, 7.0]]), variable_cost=np.array([[0.5, 0.25]]))
        with pytest.raises(ValueError, match="transport capacities must be distinct"):
            from_facility_form(fac)

    def test_feasibility_preserved(self):
        # translated max flow equals what the terminals and transport allow
        inst = from_facility_form(_small_facility())
        assert max_throughput(inst) == pytest.approx(5.0)


class TestGenerators:
    def test_grid_determinism(self):
        a = generate_random("grid", 9, 1, seed=1)
        b = generate_random("grid", 9, 1, seed=1)
        assert format_instance(a) == format_instance(b)

    def test_grid_shape(self):
        inst = generate_random("grid", 9, 1, seed=1)
        # 3x3 lattice plus attached source and sink
        assert inst.n_vertices == 11
        assert inst.source == 9 and inst.sink == 10
        # 3 source feeds + 6 rightward + 12 vertical (both ways) + 3 sink feeds
        assert inst.n_edges == 24
        assert validate(inst) == []

    def test_grid_topology_independent_of_capacity_count(self):
        a = generate_random("grid", 9, 1, seed=1)
        b = generate_random("grid", 9, 3, seed=1)
        assert a.edges == b.edges

    def test_economies_of_scale(self):
        inst = generate_random("grid", 9, 3, seed=1)
        ratio = inst.fixed_cost / inst.capacities[None, :]
        assert (np.diff(ratio, axis=1) < 0).all()

    def test_geometric_validates_clean(self):
        inst = generate_random("geometric", 100, 5, target_fraction=0.8, seed=7)
        assert validate(inst) == []

    def test_geometric_terminals_pure(self):
        inst = generate_random("geometric", 60, 2, seed=3)
        assert all(w != inst.source for _, w in inst.edges)
        assert all(u != inst.sink for u, _ in inst.edges)

    def test_integer_capacities_and_target(self):
        inst = generate_random("geometric", 40, 3, seed=11)
        assert (inst.capacities == np.round(inst.capacities)).all()
        assert inst.target == round(inst.target)

    def test_target_fraction_one_feasible(self):
        inst = generate_random("grid", 9, 2, target_fraction=1.0, seed=2)
        assert validate(inst) == []
        assert inst.target == pytest.approx(max_throughput(inst))

    def test_rejects_tiny_vertex_count(self):
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            generate_random("grid", 1, 1, seed=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate_random("ring", 9, 1, seed=0)

    def test_seeds_differ(self):
        a = generate_random("geometric", 30, 2, seed=1)
        b = generate_random("geometric", 30, 2, seed=2)
        assert format_instance(a) != format_instance(b)


def test_fig1_reconstruction_matches_fixture(tmp_path):
    path = tmp_path / "fig1.mcfcnf"
    save_instance(fig1_instance(), path)
    assert format_instance(load_instance(path)) == format_instance(fig1_instance())


class TestFeasibilityAgreement:
    def test_two_class_edge(self):
        inst = two_class_edge_instance()
        assert validate(inst) == []
        exact = solve_exact(inst, budget=10)
        assert exact.proven_optimal and exact.best.true_cost == 6.5
        assert exact.best.flow.flow.tolist() == [[2.0, 2.0]]
        assert brute_force(inst).best.true_cost == 6.5
        assert evolve(inst, GAConfig(iteration_limit=3)).polished.true_cost == 6.5

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_validate_iff_solvable(self, seed):
        rng = random.Random(seed)
        inst = make_small_instance(rng, max_vertices=5, max_edges=6,
                                   n_capacities=rng.randint(2, 3))
        out_of_source = sum(inst.capacities[k] for e, (u, _) in enumerate(inst.edges)
                            for k in range(inst.n_capacities)
                            if u == inst.source and inst.available[e, k])
        inst = dataclasses.replace(inst, target=float(rng.randint(1, int(out_of_source) + 1)))
        try:
            solve_exact(inst, budget=10)
            solvable = True
        except Infeasible:
            solvable = False
        assert (validate(inst) == []) == solvable


class TestFacilityFile:
    def test_round_trip(self, tmp_path):
        # a facility file reads as its translation, which saves and reloads
        # as the same canonical bytes
        path = tmp_path / "x.facility"
        path.write_text(FACILITY_TEXT)
        inst = load_instance(path)
        assert format_instance(parse_instance(FACILITY_TEXT)) == format_instance(inst)
        fac = FacilityInstance(
            n_vertices=3, edges=((0, 1), (2, 1)), capacities=np.array([2.0, 5.0]),
            fixed_cost=np.array([[3.0, math.nan], [math.nan, 4.0]]),
            variable_cost=np.array([[0.5, math.nan], [math.nan, 0.25]]),
            sources=(Terminal(0, 10.0, 1.0, 5.0), Terminal(2, 1.0, 0.1, 9.0)),
            sinks=(Terminal(1, 20.0, 2.0, 5.0),), target=4.0,
        )
        assert format_instance(inst) == format_instance(from_facility_form(fac))
        assert inst.edges == ((0, 1), (2, 1), (3, 0), (3, 2), (1, 4))
        assert inst.capacities.tolist() == [2.0, 5.0, 9.0]
        save_instance(inst, path)
        assert format_instance(load_instance(path)) == format_instance(inst)

    @pytest.mark.parametrize("old, new, match", [
        ("VERTICES 3", "VERTICES", "VERTICES"),
        ("SOURCES 2", "SOURCES", "SOURCES"),
        ("2 1 NA NA 4.0 0.25\n", "2 1 NA NA 4.0 0.25\n0 2 1.0 1.0 NA NA\n", "trailing content"),
        ("VERTICES 3", "VERTICES 3 whatever", "line 2: expected 'VERTICES' with 1 fields"),
        ("TARGET 4.0", "TARGET 4.0 99", "line 3: expected 'TARGET' with 1 fields"),
        ("SOURCES 2", "SOURCES 2 extra", "line 5: expected 'SOURCES' with 1 fields"),
        ("SINKS 1", "SINKS 1 extra", "line 8: expected 'SINKS' with 1 fields"),
        ("EDGES 2", "EDGES 2 extra", "line 10: expected 'EDGES' with 1 fields"),
    ])
    def test_malformed_raises_parse_error(self, old, new, match):
        with pytest.raises(ParseError, match=match):
            parse_instance(FACILITY_TEXT.replace(old, new))

    @pytest.mark.parametrize("old, new, match", [
        ("0 10.0 1.0 5.0", "3 10.0 1.0 5.0", "source vertex 3 not in transport graph"),
        ("1 20.0 2.0 5.0", "1 20.0 2.0 0.0", "sink at vertex 1: limit must be positive"),
        ("CAPACITIES 2 2.0 5.0", "CAPACITIES 2 5.0 5.0", "capacities must be distinct"),
    ])
    def test_translation_error_is_validation_error(self, old, new, match):
        with pytest.raises(ValidationError, match=match):
            parse_instance(FACILITY_TEXT.replace(old, new))


@pytest.mark.parametrize("kind, n, k, seed, fraction, digest", [
    ("geometric", 130, 3, 7, 0.6, "cf19ea6b76dd6b07"),   # bench desk
    ("geometric", 150, 3, 81, 0.5, "7ef6b958a1d60fa2"),  # bench large_a
    ("grid", 81, 2, 6, 0.6, "ce3f36a6180bae54"),         # bench grid81
])
def test_bench_instances_byte_identical(kind, n, k, seed, fraction, digest):
    text = format_instance(generate_random(kind, n, k, seed=seed, target_fraction=fraction))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

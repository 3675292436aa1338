import numpy as np
import pytest

import mcfcnf.instance
from mcfcnf import (FlowSolution, GAConfig, Infeasible, evolve, load_instance,
                    lp_relaxation_bound, save_instance, validate, verify_flow)
from mcfcnf.cli import main
from conftest import (FACILITY_TEXT, brute_force, fig1_instance, minimal_instance,
                      two_class_edge_instance)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.mcfcnf"
    save_instance(fig1_instance(), path)
    return path


@pytest.fixture
def minimal_file(tmp_path):
    path = tmp_path / "minimal.mcfcnf"
    save_instance(minimal_instance(), path)
    return path


@pytest.fixture
def infeasible_file(tmp_path):
    import dataclasses
    path = tmp_path / "infeasible.mcfcnf"
    save_instance(dataclasses.replace(minimal_instance(), target=10.0), path)
    return path


def _summary_fields(line: str) -> dict:
    return dict(field.split("=", 1) for field in line.split())


class TestSolve:
    def test_diamond_summary(self, fig1_file, tmp_path, capsys):
        code = main([
            "solve", "--instance", str(fig1_file), "--iterations", "5", "--seed", "1",
            "--solution", str(tmp_path / "sol.csv"),
            "--convergence", str(tmp_path / "conv.csv"),
        ])
        assert code == 0
        fields = _summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
        assert float(fields["polished_cost"]) == pytest.approx(20.0)
        assert float(fields["bound"]) == pytest.approx(15.0)
        assert int(fields["iterations"]) == 5
        assert (tmp_path / "sol.csv").exists()
        conv = (tmp_path / "conv.csv").read_text().splitlines()
        assert conv[0] == "iteration,elapsed_s,best_cost,mean_cost,lp_solves"
        assert len(conv) == 7

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "missing.mcfcnf"),
                     "--iterations", "1"])
        assert code == 1
        assert "missing.mcfcnf" in capsys.readouterr().err

    def test_infeasible_instance(self, infeasible_file, capsys):
        code = main(["solve", "--instance", str(infeasible_file), "--iterations", "1"])
        assert code == 2
        assert "target exceeds max flow" in capsys.readouterr().err

    def test_default_artifact_paths(self, fig1_file, capsys):
        code = main(["solve", "--instance", str(fig1_file), "--iterations", "2"])
        assert code == 0
        assert fig1_file.with_suffix(".mcfcnf.sol.csv").exists()
        assert fig1_file.with_suffix(".mcfcnf.conv.csv").exists()


class TestExact:
    def test_diamond(self, fig1_file, tmp_path, capsys):
        code = main(["exact", "--instance", str(fig1_file), "--budget", "10",
                     "--solution", str(tmp_path / "sol.csv")])
        assert code == 0
        fields = _summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
        assert float(fields["cost"]) == pytest.approx(20.0)
        assert fields["proven"] == "true"
        sol = (tmp_path / "sol.csv").read_text().splitlines()
        assert sol[-1] == "# true_cost=20.0"

    def test_minimal(self, minimal_file, tmp_path, capsys):
        code = main(["exact", "--instance", str(minimal_file), "--budget", "10",
                     "--solution", str(tmp_path / "sol.csv")])
        assert code == 0
        fields = _summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
        assert float(fields["cost"]) == pytest.approx(4.0)
        assert fields["proven"] == "true"

    def test_tiny_budget_unproven(self, fig1_file, tmp_path, capsys):
        code = main(["exact", "--instance", str(fig1_file), "--budget", "1e-9",
                     "--solution", str(tmp_path / "sol.csv")])
        assert code == 0
        fields = _summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
        assert fields["proven"] == "false"
        assert float(fields["cost"]) >= float(fields["bound"])

    def test_every_flow_costs_inf(self, tmp_path, capsys):
        # finite costs whose sum overflows: rejected on load, since no flow
        # could have a finite cost
        path = tmp_path / "huge.mcfcnf"
        path.write_text("MCFCNF 1\nVERTICES 3 SOURCE 0 SINK 2\nTARGET 1\nCAPACITIES 1 5\n"
                        "EDGES 2\n0 1 1e308 1e308\n1 2 1.0 1.0\n")
        code = main(["exact", "--instance", str(path), "--budget", "10",
                     "--solution", str(tmp_path / "sol.csv")])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err
        assert err.startswith("error:") and "finite total" in err
        assert out == ""

    def test_infeasible_instance(self, infeasible_file, tmp_path, capsys):
        code = main(["exact", "--instance", str(infeasible_file), "--budget", "10",
                     "--solution", str(tmp_path / "sol.csv")])
        assert code == 2
        assert "exceeds max flow" in capsys.readouterr().err

    def test_vertices_no_edge_touches_cost_nothing(self, tmp_path, capsys):
        # a vertex count far beyond memory: only the two vertices the edge
        # touches are ever numbered, so nothing of that size is allocated
        path = tmp_path / "sparse.mcfcnf"
        path.write_text("MCFCNF 1\nVERTICES 1000000000000 SOURCE 0 SINK 1\nTARGET 1\n"
                        "CAPACITIES 2 1 5\nEDGES 1\n0 1 1 1 2 1\n")
        assert main(["exact", "--instance", str(path), "--budget", "10",
                     "--solution", str(tmp_path / "exact.csv")]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == \
            "cost=2.0 proven=true bound=2.0 nodes=3"
        assert main(["solve", "--instance", str(path), "--iterations", "2",
                     "--solution", str(tmp_path / "ga.csv"),
                     "--convergence", str(tmp_path / "conv.csv")]) == 0
        fields = _summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
        assert fields["polished_cost"] == "2.0"


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.mcfcnf", tmp_path / "b.mcfcnf"
        for out in (a, b):
            code = main(["gen", "--kind", "grid", "--vertices", "9",
                         "--capacities", "3", "--seed", "1", "-o", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_geometric_validates_ok(self, tmp_path, capsys):
        code = main(["gen", "--kind", "geometric", "--vertices", "100",
                     "--capacities", "5", "--seed", "7", "-o", str(tmp_path / "x.mcfcnf")])
        assert code == 0
        assert "validate: OK" in capsys.readouterr().out

    def test_too_few_vertices(self, tmp_path, capsys):
        code = main(["gen", "--kind", "grid", "--vertices", "1",
                     "--capacities", "1", "-o", str(tmp_path / "x.mcfcnf")])
        assert code == 1
        assert "need at least 2 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--fixed-min", "nan"], ["--variable-min", "-3"], ["--fixed-max", "inf"],
        ["--variable-max", "nan"], ["--fixed-min", "50", "--fixed-max", "4"],
        ["--fixed-min", "-1"],
    ])
    def test_bad_cost_range(self, tmp_path, capsys, flags):
        # each used to crash, write an instance that fails validate, or draw
        # costs outside 0 <= min <= max
        out = tmp_path / "x.mcfcnf"
        code = main(["gen", "--kind", "grid", "--vertices", "9", "--capacities", "2",
                     *flags, "-o", str(out)])
        assert code == 1
        assert "cost range must be finite with 0 <= min <= max" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_capacities(self, tmp_path, capsys):
        # the class sizes grow geometrically until one overflows a float;
        # that used to raise OverflowError out of math.ceil
        out = tmp_path / "x.mcfcnf"
        code = main(["gen", "--kind", "grid", "--vertices", "9", "--capacities", "1500",
                     "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "overflows a float" in err
        assert not out.exists()

    @pytest.mark.parametrize("capacities, message", [
        ("2", "edge 0 capacity 1: fixed cost must be finite"),
        ("1", "must have a finite total"),
    ])
    def test_overflowing_costs_exit_one(self, tmp_path, capsys, capacities, message):
        # drawn costs that overflow break an invariant: a usage error, not
        # the infeasible exit, which means a target above the max flow
        out = tmp_path / "x.mcfcnf"
        code = main(["gen", "--kind", "grid", "--vertices", "9", "--capacities", capacities,
                     "--fixed-min", "1e308", "--fixed-max", "1.7e308", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not out.exists()


@pytest.mark.parametrize("run", [
    lambda path, tmp: validate(load_instance(path)),
    lambda path, tmp: main(["exact", "--instance", str(path), "--budget", "10",
                            "--solution", str(tmp / "sol.csv")]),
    lambda path, tmp: main(["solve", "--iterations", "2", "--instance", str(path),
                            "--solution", str(tmp / "sol.csv"),
                            "--convergence", str(tmp / "conv.csv")]),
], ids=["load-validate", "exact", "solve"])
def test_invariants_are_checked_once(fig1_file, tmp_path, monkeypatch, capsys, run):
    check = mcfcnf.instance._broken_invariants
    calls = []
    monkeypatch.setattr(mcfcnf.instance, "_broken_invariants",
                        lambda instance: calls.append(1) or check(instance))
    run(fig1_file, tmp_path)
    assert len(calls) == 1


class TestCompare:
    def test_two_instances(self, fig1_file, minimal_file, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["compare", "--instances", str(tmp_path / "*.mcfcnf"),
                     "--budget", "5", "--repeats", "2", "--iterations", "5",
                     "--seed", "1", "-o", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("instance,ga_cost_mean,exact_cost")
        assert len(lines) == 3
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        fig1_row = rows["fig1"]
        assert float(fig1_row[1]) == pytest.approx(20.0)  # GA mean
        assert float(fig1_row[2]) == pytest.approx(20.0)  # exact
        assert float(fig1_row[1]) >= float(fig1_row[4]) - 1e-6  # >= lower bound
        assert float(rows["minimal"][2]) == pytest.approx(4.0)
        # the bound column is the GA runs' own bound, the slope-scaling relaxation
        for name, path in (("fig1", fig1_file), ("minimal", minimal_file)):
            assert rows[name][4] == f"{lp_relaxation_bound(load_instance(path)):.6f}"

    def test_unroutable_instance(self, infeasible_file, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["compare", "--instances", str(infeasible_file), "--budget", "1",
                     "--repeats", "1", "--iterations", "2", "-o", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"{infeasible_file}: target exceeds max flow (target=10.0, max flow=5.0)\n"
        assert not report.exists()
        # the GA's first decode gives validate's message, word for word
        instance = load_instance(infeasible_file)
        with pytest.raises(Infeasible) as raised:
            evolve(instance, GAConfig(iteration_limit=1))
        assert str(raised.value) == validate(instance)[0]

    def test_zero_cost_optimum(self, tmp_path, capsys):
        # every cost 0: the optimum is 0, and cost_ratio used to divide by it
        path, report = tmp_path / "free.mcfcnf", tmp_path / "report.csv"
        assert main(["gen", "--kind", "grid", "--vertices", "9", "--capacities", "2",
                     "--fixed-min", "0", "--fixed-max", "0", "--variable-min", "0",
                     "--variable-max", "0", "-o", str(path)]) == 0
        assert main(["compare", "--instances", str(path), "--budget", "1", "--repeats", "1",
                     "--iterations", "2", "-o", str(report)]) == 0
        header, row = report.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["exact_cost"] == fields["ga_cost_mean"] == "0.000000"
        assert fields["cost_ratio"] == "1.000000"

    def test_empty_glob(self, tmp_path, capsys):
        code = main(["compare", "--instances", str(tmp_path / "none-*.mcfcnf"),
                     "--budget", "1", "-o", str(tmp_path / "r.csv")])
        assert code == 1
        assert "no instances matched" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["solve"]) == 1

    @pytest.mark.parametrize("command", [
        "solve --instance {f}",
        "solve --instance {f} --iterations 3 --population 1",
        "solve --instance {f} --iterations -1",
        "solve --instance {f} --iterations 3 --crossover 0",
        "exact --instance {f} --budget 0",
        "compare --instances {f} --budget 0 -o {out}",
        "compare --instances {f} --budget 1 --repeats 0 -o {out}",
    ])
    def test_bad_numbers_exit_one(self, fig1_file, tmp_path, capsys, command):
        argv = command.format(f=fig1_file, out=tmp_path / "report.csv").split()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_infinite_time_limit_exits_one(self, fig1_file, capsys):
        # without the check, solve ran forever: evolution and polish unbounded
        assert main(["solve", "--instance", str(fig1_file), "--time-limit", "inf"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    def test_compare_infinite_budget_exits_one(self, fig1_file, tmp_path, capsys):
        # the budget is also the GA's time limit; rejected before any instance
        # is read, naming the option; exact still accepts it
        report = tmp_path / "report.csv"
        assert main(["compare", "--instances", str(fig1_file), "--budget", "inf",
                     "-o", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--budget" in err and "time_limit" not in err
        assert not report.exists()
        assert main(["exact", "--instance", str(fig1_file), "--budget", "inf",
                     "--solution", str(tmp_path / "fig1.sol.csv")]) == 0


def test_two_class_edge_solves(tmp_path, capsys):
    """The target routes only with both classes of the edge open; solve and
    exact both reach the optimum 6.5."""
    path = tmp_path / "two.mcfcnf"
    save_instance(two_class_edge_instance(), path)
    solution = str(tmp_path / "two.sol.csv")
    assert main(["exact", "--instance", str(path), "--budget", "10",
                 "--solution", solution]) == 0
    assert _summary_fields(capsys.readouterr().out.strip())["cost"] == "6.5"
    assert main(["solve", "--instance", str(path), "--iterations", "3",
                 "--solution", solution]) == 0
    assert _summary_fields(capsys.readouterr().out.strip())["polished_cost"] == "6.5"


def test_facility_file_runs_every_solver(tmp_path, capsys):
    path = tmp_path / "ccs.mcfcnf"
    path.write_text(FACILITY_TEXT)
    instance = load_instance(path)
    solutions = [tmp_path / f"{name}.sol.csv" for name in ("solve", "exact")]
    assert main(["solve", "--instance", str(path), "--iterations", "5",
                 "--solution", str(solutions[0])]) == 0
    assert main(["exact", "--instance", str(path), "--budget", "10",
                 "--solution", str(solutions[1])]) == 0
    fields = _summary_fields(capsys.readouterr().out.strip().splitlines()[-1])
    assert fields["proven"] == "true"
    assert float(fields["cost"]) == brute_force(instance).best.true_cost == pytest.approx(34.4)
    report = tmp_path / "report.csv"
    assert main(["compare", "--instances", str(path), "--budget", "5", "--repeats", "1",
                 "--iterations", "5", "-o", str(report)]) == 0
    header, row = report.read_text().splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["exact_cost"]) == \
        pytest.approx(34.4)
    # solution rows index the translated instance's edges and classes
    for solution in solutions:
        flow = np.zeros(instance.fixed_cost.shape)
        for line in solution.read_text().splitlines()[1:-1]:
            e, k, amount, _ = line.split(",")
            flow[int(e), int(k)] = float(amount)
        assert verify_flow(instance, FlowSolution(flow=flow, lp_cost=0.0)) == []


_HEAD = b"MCFCNF 1\nVERTICES 3 SOURCE 0 SINK 2\nTARGET 1\n"
_DEGENERATE = {
    "no-edges": _HEAD + b"CAPACITIES 1 5\nEDGES 0\n",
    "no-capacities": _HEAD + b"CAPACITIES 0\nEDGES 2\n0 1\n1 2\n",
    "zero-costs": _HEAD + b"CAPACITIES 1 5\nEDGES 2\n0 1 0 0\n1 2 0 0\n",
    "not-utf8": _HEAD + b"CAPACITIES 1 5\nEDGES 2\n0 1 0 0\n1 2 0 0 # caf\xe9\n",
    # facility files whose translation fails
    "facility-bad-terminal": FACILITY_TEXT.replace("SINKS 1\n1 ", "SINKS 1\n3 ").encode(),
    "facility-duplicate-capacities": FACILITY_TEXT.replace("2 2.0 5.0", "2 5.0 5.0").encode(),
    # an id below the vertex count but beyond int64, which numbers the network
    "id-beyond-int64": (b"MCFCNF 1\nVERTICES " + b"1" + b"0" * 23 + b" SOURCE 0 SINK 1\n"
                        b"TARGET 1\nCAPACITIES 1 5\nEDGES 2\n0 " + b"1" + b"0" * 20
                        + b" 1 1\n" + b"1" + b"0" * 20 + b" 1 1 1\n"),
}


@pytest.mark.parametrize("command", [
    "solve --instance {f} --iterations 2 --solution {out} --convergence {conv}",
    "exact --instance {f} --budget 5 --solution {out}",
    "compare --instances {f} --budget 1 --repeats 1 --iterations 2 -o {out}",
], ids=["solve", "exact", "compare"])
@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_degenerate_file_exits_cleanly(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.mcfcnf"
    path.write_bytes(_DEGENERATE[name])
    argv = command.format(f=path, out=tmp_path / "out.csv", conv=tmp_path / "conv.csv")
    status = main(argv.split())
    err = capsys.readouterr().err
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if name in ("not-utf8", "id-beyond-int64") or name.startswith("facility"):
        assert status == 1 and err.startswith(f"error: {path}: ")

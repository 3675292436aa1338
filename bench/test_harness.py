"""Self-test of the benchmark harness on a tiny instance (a few seconds).

Run with: python3 -m pytest -q bench/test_harness.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = dict(kind="grid", n_vertices=9, n_capacities=2, seed=3, target_fraction=0.6)


@pytest.fixture(scope="module")
def mcfcnf():
    return run.import_solver()


@pytest.fixture()
def tiny(mcfcnf, monkeypatch):
    """Register a tiny instance, with its optimum proven by branch-and-bound,
    and one solve and one exact workload on it."""
    instance = mcfcnf.generate_random(TINY["kind"], TINY["n_vertices"], TINY["n_capacities"],
                                      seed=TINY["seed"], target_fraction=TINY["target_fraction"])
    proof = mcfcnf.solve_exact(instance, budget=30)
    assert proof.proven_optimal
    optimum = proof.best.true_cost
    monkeypatch.setitem(reference.INSTANCES, "tiny", reference.InstanceSpec(
        **TINY, optimum=optimum, lower=optimum, highs_gap=0.0))
    monkeypatch.setitem(run.WORKLOADS, "tiny-solve", run.Workload("tiny", "solve", iterations=5))
    monkeypatch.setitem(run.WORKLOADS, "tiny-exact", run.Workload("tiny", "exact", budget=30.0))


def _declared(section: str) -> dict[str, str]:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[section]}


def test_benchmark_json_matches_harness():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == spans.LAYER_UNITS


@pytest.mark.parametrize("workload", ["tiny-solve", "tiny-exact"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    result = run.run(workload, seed=1, seconds=0.0, trace=trace, ga_seed=None)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_spans_match_the_program(tiny):
    result = run.run("tiny-exact", seed=1, seconds=0.0, trace=True, ga_seed=None)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["exact.nodes"] >= 1
    assert metrics["flowcore.ssp_calls"] == metrics["exact.nodes"]
    assert metrics["instance.validate_calls"] == 1


@pytest.mark.parametrize("workload", ["tiny-solve", "tiny-exact"])
def test_corrupted_solution_counts_as_failure(tiny, mcfcnf, monkeypatch, workload):
    write = mcfcnf.cli.write_solution_csv

    def write_doubled(path, scored):
        write(path, scored)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        doubled = [lines[0]] + [
            ",".join([*line.split(",")[:2], repr(2 * float(line.split(",")[2])),
                      line.split(",")[3]])
            for line in lines[1:] if not line.startswith("#")] + [lines[-1]]
        Path(path).write_text("\n".join(doubled) + "\n", encoding="utf-8")

    monkeypatch.setattr(mcfcnf.cli, "write_solution_csv", write_doubled)
    result = run.run(workload, seed=1, seconds=0.0, trace=False, ga_seed=None)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_recorded_best_cost_counts_as_failure(tiny, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny-solve", run.Workload(
        "tiny", "solve", iterations=5, best_costs={seed: 0.5 for seed in range(16)}))
    result = run.run("tiny-solve", seed=1, seconds=0.0, trace=False, ga_seed=None)
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_recorded_node_count_counts_as_failure(tiny, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny-exact", run.Workload(
        "tiny", "exact", budget=30.0, nodes=10**6))
    result = run.run("tiny-exact", seed=1, seconds=0.0, trace=False, ga_seed=None)
    assert result["failed"] == result["attempted"] >= 1


def test_missing_function_reads_as_absent(tiny, mcfcnf, monkeypatch):
    monkeypatch.delattr(mcfcnf.ga, "build_expanded_network")
    monkeypatch.setattr(mcfcnf.ga, "fitness", lambda instance, organism: mcfcnf.score(
        instance, mcfcnf.solve_min_cost_flow(mcfcnf.flowcore.build_expanded_network(
            instance, organism))))
    result = run.run("tiny-solve", seed=1, seconds=0.0, trace=True, ga_seed=None)
    assert result["correct"]
    assert result["metrics"]["flowcore.expand_calls"]["value"] == 0.0
    assert result["metrics"]["ga.decodes"]["value"] > 0


def test_refuses_to_run_without_the_solver_sources(tmp_path):
    copy = tmp_path / "bench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "ga-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout

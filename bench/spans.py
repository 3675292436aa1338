"""Spans recorded from outside the solver, and the per-layer metrics they give.

A traced run replaces each public function of the solver modules with a
wrapper, at the name its caller looks it up under (for example
mcfcnf.ga.solve_min_cost_flow, which ga imported by name), and restores the
originals afterwards. Wrappers take *args and **kwargs and pass them through
unread (the ga.fitness wrapper only hashes whatever arrays they hold, to count
distinct genomes), so a changed signature does not break them; a function
that no longer exists is not wrapped, and its metrics read as absent.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: (module, attribute, span name). One span name may be looked up in several
#: modules; each lookup is wrapped separately.
TARGETS = (
    ("mcfcnf.cli", "load_instance", "instance.load"),
    ("mcfcnf.cli", "validate", "instance.validate"),
    ("mcfcnf.ga", "validate", "instance.validate"),
    ("mcfcnf.ga", "build_expanded_network", "flowcore.expand"),
    ("mcfcnf.ga", "solve_min_cost_flow", "flowcore.ssp"),
    ("mcfcnf.exact", "solve_min_cost_flow", "flowcore.ssp"),
    ("mcfcnf.flowcore", "solve_min_cost_flow", "flowcore.ssp"),
    ("mcfcnf.cli", "lp_relaxation_bound", "flowcore.bound"),
    ("mcfcnf.ga", "score", "evaluate.score"),
    ("mcfcnf.exact", "score", "evaluate.score"),
    ("mcfcnf.exact", "verify_flow", "evaluate.verify"),
    ("mcfcnf.ga", "fitness", "ga.fitness"),
    ("mcfcnf.ga", "evolve", "ga.evolve"),
    ("mcfcnf.exact", "solve_exact", "exact.solve"),
    ("mcfcnf.exact", "polish", "exact.polish"),
    ("mcfcnf.cli", "write_solution_csv", "cli.write"),
    ("mcfcnf.ga", "write_convergence_csv", "cli.write"),
)

#: The span the harness opens around each traced CLI call.
ROOT = "cli.main"

#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "instance.load_ms": "ms",
    "instance.validate_ms": "ms",
    "instance.validate_calls": "count",
    "flowcore.expand_ms": "ms",
    "flowcore.expand_calls": "count",
    "flowcore.ssp_ms": "ms",
    "flowcore.ssp_ms_tail": "ms",
    "flowcore.ssp_calls": "count",
    "flowcore.ssp_s": "s",
    "flowcore.bound_ms": "ms",
    "evaluate.score_ms": "ms",
    "evaluate.verify_ms": "ms",
    "ga.fitness_ms": "ms",
    "ga.fitness_self_ms": "ms",
    "ga.fitness_share_pct": "%",
    "ga.decodes": "count",
    "ga.distinct_ratio": "ratio",
    "ga.evolve_s": "s",
    "ga.generation_ms": "ms",
    "exact.self_s": "s",
    "exact.nodes": "count",
    "exact.node_ms": "ms",
    "exact.covered_pct": "%",
    "exact.polish_s": "s",
    "exact.polish_ssp_calls": "count",
    "exact.polish_self_s": "s",
    "exact.polish_gain": "cost",
    "cli.write_ms": "ms",
    "trace_overhead_pct": "%",
}


class Tracer:
    """Spans kept in memory: name, start, end and the index of the parent."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.wrapped: set[str] = set()
        # (span index, digest of the arguments) per ga.fitness call
        self.genomes: list[tuple[int, bytes]] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def root_of(self, index: int) -> int:
        while self.parents[index] >= 0:
            index = self.parents[index]
        return index


def _genome_digest(args, kwargs) -> bytes:
    """Digest of every array among the arguments and their fields, so equal
    genomes give equal digests whatever the signature looks like."""
    h = hashlib.blake2b(digest_size=16)
    for value in (*args, *kwargs.values()):
        fields = vars(value).values() if hasattr(value, "__dict__") else ()
        for item in (value, *fields):
            if isinstance(item, np.ndarray):
                h.update(np.ascontiguousarray(item).tobytes())
    return h.digest()


def _wrap(tracer: Tracer, name: str, fn):
    record_genome = name == "ga.fitness"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # hashed before the span opens, so the digest is not charged to fitness
        digest = _genome_digest(args, kwargs) if record_genome else b""
        index = tracer.open(name)
        if record_genome:
            tracer.genomes.append((index, digest))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target that exists; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, _wrap(tracer, span, fn))
            saved.append((module, attr, fn))
            tracer.wrapped.add(span)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (nearest rank);
    the maximum when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], "max"
    q = 1.0 - 10.0 / n
    return ordered[min(n - 1, int(q * n))], f"p{100 * q:.1f}"


def layer_metrics(tracer: Tracer, generation_s: list[float], polish_gains: list[float],
                  overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans of the traced CLI calls, plus the
    generation times read from their convergence logs, their pre- minus
    post-polish costs and the measured tracing overhead.

    Timings are medians over all spans of a layer; counts are medians over
    the traced calls. Returns the metrics and human-readable notes: sample
    counts, the tail's percentile and layers absent from the program.
    """
    n = len(tracer.names)
    duration = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    root = [tracer.root_of(i) for i in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            children[parent].append(i)
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)
    roots = by_name.get(ROOT, [])

    def self_time(i: int) -> float:
        return duration[i] - sum(duration[c] for c in children[i])

    def descendants(i: int, name: str) -> int:
        count, stack = 0, list(children[i])
        while stack:
            j = stack.pop()
            count += tracer.names[j] == name
            stack.extend(children[j])
        return count

    def durations(name: str) -> list[float]:
        return [duration[i] for i in by_name.get(name, [])]

    notes: list[str] = []
    metrics: dict[str, float] = {}

    def put(metric: str, values: list[float], scale: float = 1.0) -> None:
        """Median of values (0 when there are none)."""
        metrics[metric] = scale * statistics.median(values) if values else 0.0
        notes.append(f"{metric}: n={len(values)}")

    def per_call(name: str, weight=lambda i: 1) -> list[float]:
        return [sum(weight(i) for i in by_name.get(name, []) if root[i] == r) for r in roots]

    put("instance.load_ms", durations("instance.load"), 1e3)
    put("instance.validate_ms", durations("instance.validate"), 1e3)
    put("instance.validate_calls", per_call("instance.validate"))
    put("flowcore.expand_ms", durations("flowcore.expand"), 1e3)
    put("flowcore.expand_calls", per_call("flowcore.expand"))
    ssp = durations("flowcore.ssp")
    put("flowcore.ssp_ms", ssp, 1e3)
    tail, label = _tail(ssp) if ssp else (0.0, "none")
    metrics["flowcore.ssp_ms_tail"] = 1e3 * tail
    notes.append(f"flowcore.ssp_ms_tail: {label} of n={len(ssp)}")
    put("flowcore.ssp_calls", per_call("flowcore.ssp"))
    put("flowcore.ssp_s", per_call("flowcore.ssp", duration.__getitem__))
    put("flowcore.bound_ms", durations("flowcore.bound"), 1e3)
    put("evaluate.score_ms", durations("evaluate.score"), 1e3)
    put("evaluate.verify_ms", durations("evaluate.verify"), 1e3)

    fitness = by_name.get("ga.fitness", [])
    put("ga.fitness_ms", durations("ga.fitness"), 1e3)
    put("ga.fitness_self_ms", [self_time(i) for i in fitness], 1e3)
    evolve_total = sum(durations("ga.evolve"))
    metrics["ga.fitness_share_pct"] = (
        100.0 * sum(duration[i] for i in fitness) / evolve_total if evolve_total else 0.0)
    put("ga.decodes", per_call("ga.fitness"))
    distinct = []
    for r in roots:
        digests = [d for i, d in tracer.genomes if root[i] == r]
        if digests:
            distinct.append(len(set(digests)) / len(digests))
    put("ga.distinct_ratio", distinct)
    put("ga.evolve_s", durations("ga.evolve"))
    put("ga.generation_ms", generation_s, 1e3)

    solves = by_name.get("exact.solve", [])
    nodes = [descendants(i, "flowcore.ssp") for i in solves]
    put("exact.self_s", [self_time(i) for i in solves])
    put("exact.nodes", nodes)
    put("exact.node_ms", [duration[i] / k for i, k in zip(solves, nodes) if k], 1e3)
    covered = []
    for i in solves:
        inner = sum(duration[j] for j in children[i] if tracer.names[j] == "flowcore.ssp")
        covered.append(100.0 * (inner + self_time(i)) / duration[root[i]])
    put("exact.covered_pct", covered)
    polishes = by_name.get("exact.polish", [])
    put("exact.polish_s", durations("exact.polish"))
    put("exact.polish_ssp_calls", [descendants(i, "flowcore.ssp") for i in polishes])
    put("exact.polish_self_s", [self_time(i) for i in polishes])
    put("exact.polish_gain", polish_gains)
    put("cli.write_ms", per_call("cli.write", duration.__getitem__), 1e3)
    metrics["trace_overhead_pct"] = overhead_pct

    missing = sorted({span for _, _, span in TARGETS} - tracer.wrapped)
    if missing:
        notes.append("absent (not found in the program, metrics read 0): " + ", ".join(missing))
    return metrics, notes

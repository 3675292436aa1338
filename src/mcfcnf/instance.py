"""Problem instances: data model, text file formats, validation, translation
from facility form, and random generators.

An instance is a directed graph with a designated source and sink, a shared
list of capacity classes, per-(edge, class) fixed and variable costs, and a
target flow amount. A NaN fixed cost marks a class that an edge does not
offer ("NA" in the file format).
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flowcore import compile_topology, flow_tol, max_flow, max_throughput, unroutable


class ParseError(ValueError):
    """Malformed instance file."""


class ValidationError(ValueError):
    """An instance that breaks a structural invariant cannot be built."""


_HEADER = "MCFCNF 1"
_FACILITY_HEADER = "MCFCNF-FACILITY 1"


def _fmt(x: float) -> str:
    # repr() is the shortest representation that round-trips a float64
    return repr(float(x))


@dataclass(frozen=True, eq=False)
class Instance:
    """Single-source single-sink multi-capacity fixed-charge flow instance.

    Cost matrices are indexed (edge, capacity class). Construction (and so
    dataclasses.replace) checks the structural invariants and raises
    ValidationError, with one message per broken one, so every Instance
    holds them. Instances are immutable after construction (arrays are
    read-only) and safe to share across threads.
    """

    n_vertices: int
    source: int
    sink: int
    edges: tuple[tuple[int, int], ...]
    capacities: np.ndarray
    fixed_cost: np.ndarray
    variable_cost: np.ndarray
    target: float

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        caps = np.array(self.capacities, dtype=np.float64).reshape(-1)
        fixed = np.array(self.fixed_cost, dtype=np.float64)
        var = np.array(self.variable_cost, dtype=np.float64)
        shape = (len(edges), caps.size)
        if fixed.shape != shape:
            raise ValidationError(f"fixed_cost shape {fixed.shape} != (edges, capacities) {shape}")
        if var.shape != shape:
            raise ValidationError(f"variable_cost shape {var.shape} != (edges, capacities) {shape}")
        avail = ~np.isnan(fixed)
        for arr in (caps, fixed, var, avail):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "fixed_cost", fixed)
        object.__setattr__(self, "variable_cost", var)
        object.__setattr__(self, "n_vertices", int(self.n_vertices))
        object.__setattr__(self, "source", int(self.source))
        object.__setattr__(self, "sink", int(self.sink))
        object.__setattr__(self, "target", float(self.target))
        object.__setattr__(self, "_available", avail)
        problems = _broken_invariants(self)
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_capacities(self) -> int:
        return int(self.capacities.size)

    @property
    def available(self) -> np.ndarray:
        """Boolean (edge, class) mask of offered capacity classes."""
        return self._available


def _broken_invariants(instance: Instance) -> list[str]:
    """The structural invariants, checked once per Instance when it is
    built; one message per violation."""
    v: list[str] = []
    n = min(instance.n_vertices, 2**63)  # the compiled network numbers vertices in int64
    if not 0 <= instance.source < n:
        v.append(f"source id {instance.source} out of range [0, {n})")
    if not 0 <= instance.sink < n:
        v.append(f"sink id {instance.sink} out of range [0, {n})")
    if instance.source == instance.sink:
        v.append("source and sink must differ")
    for e, (u, w) in enumerate(instance.edges):
        if not 0 <= u < n or not 0 <= w < n:
            v.append(f"edge {e}: endpoint ({u}, {w}) out of range [0, {n})")
        elif u == w:
            v.append(f"edge {e}: self-loops are not allowed")
    caps = instance.capacities
    for k, c in enumerate(caps):
        if not c > 0:
            v.append(f"capacity {k} must be positive (got {c})")
    if np.any(np.diff(caps) <= 0):
        v.append("capacities must be strictly increasing")
    if not 0 < instance.target < math.inf:
        v.append("target must be positive and finite")
    for name, cost in (("fixed", instance.fixed_cost), ("variable", instance.variable_cost)):
        bad = instance.available & ~((cost >= 0) & (cost < math.inf))
        for e, k in zip(*np.nonzero(bad)):
            v.append(f"edge {e} capacity {k}: {name} cost must be finite and nonnegative")
    if not v:  # Python floats: an overflow reads inf, with no numpy warning
        fixed = sum(instance.fixed_cost[instance.available].tolist())
        variable = sum(instance.variable_cost[instance.available].tolist())
        if not fixed + instance.target * variable < math.inf:
            v.append("offered fixed costs plus target x variable costs must have a finite total")
    return v


def validate(instance: Instance) -> list[str]:
    """Routability of the target, the one check an Instance does not make
    when it is built: [] or the message the solvers' Infeasible carries.

    A max flow on the capacity-expanded network with every offered (edge,
    class) pair open, so one edge may use several classes, allowing the
    solvers' shortfall (flowcore.flow_tol).
    """
    mf = max_flow(compile_topology(instance))
    if instance.target - mf > flow_tol(instance.target):
        return [unroutable(instance.target, mf)]
    return []


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _significant_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((ln, body.split()))
    return out


def _parse_float(token: str, ln: int, what: str) -> float:
    try:
        if not math.isnan(value := float(token)):  # only NA NA marks a class not offered
            return value
    except ValueError:
        pass
    raise ParseError(f"line {ln}: expected a number for {what}, got {token!r}")


def _parse_int(token: str, ln: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {ln}: expected an integer for {what}, got {token!r}") from None


def _parse_cost_pairs(tokens: list[str], n_caps: int, ln: int) -> tuple[list[float], list[float]]:
    a_row, b_row = [], []
    for k in range(n_caps):
        a_tok, b_tok = tokens[2 * k], tokens[2 * k + 1]
        if a_tok.upper() == "NA":
            if b_tok.upper() != "NA":
                raise ParseError(f"line {ln}: capacity {k} marked NA must have NA variable cost")
            a_row.append(math.nan)
            b_row.append(math.nan)
        else:
            a_row.append(_parse_float(a_tok, ln, f"fixed cost {k}"))
            b_row.append(_parse_float(b_tok, ln, f"variable cost {k}"))
    return a_row, b_row


class _Reader:
    """Section reader shared by both text formats: a header line, then
    keyword sections in a fixed order, the EDGES section last."""

    def __init__(self, text: str):
        self.lines = _significant_lines(text)
        self.header = " ".join(self.lines[0][1]) if self.lines else None
        self.i = 1

    def section(self, keyword: str, n_fields: int, exact: bool = True) -> tuple[int, list[str]]:
        """The next line, which must be keyword with n_fields - 1 fields (or
        more, unless exact)."""
        if self.i >= len(self.lines):
            raise ParseError(f"unexpected end of file, expected {keyword} section")
        ln, toks = self.lines[self.i]
        if toks[0] != keyword or len(toks) < n_fields or exact and len(toks) > n_fields:
            raise ParseError(f"line {ln}: expected '{keyword}' with {n_fields - 1} fields")
        self.i += 1
        return ln, toks

    def rows(self, keyword: str, what: str):
        """The lines of a 'keyword <count>' section, one at a time."""
        ln, toks = self.section(keyword, 2)
        count = _parse_int(toks[1], ln, f"{what} count")
        if count < 0:
            raise ParseError(f"line {ln}: {what} count must be nonnegative")
        for _ in range(count):
            if self.i >= len(self.lines):
                raise ParseError(f"unexpected end of file, expected {count} {what} lines")
            self.i += 1
            yield self.lines[self.i - 1]

    def target_and_capacities(self) -> tuple[float, list[float]]:
        ln, toks = self.section("TARGET", 2)
        target = _parse_float(toks[1], ln, "target")
        ln, toks = self.section("CAPACITIES", 2, exact=False)
        n_caps = _parse_int(toks[1], ln, "capacity count")
        if len(toks) != 2 + n_caps:
            raise ParseError(f"line {ln}: expected {n_caps} capacity values")
        return target, [_parse_float(t, ln, "capacity") for t in toks[2:]]

    def edges(self, n_caps: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
        """The EDGES section, which must end the file: edges and their
        (edge, class) fixed and variable cost matrices."""
        edges, a_rows, b_rows = [], [], []
        for ln, toks in self.rows("EDGES", "edge"):
            if len(toks) != 2 + 2 * n_caps:
                raise ParseError(f"line {ln}: edge line needs 2 endpoints and {n_caps} cost pairs")
            edges.append((_parse_int(toks[0], ln, "edge src"), _parse_int(toks[1], ln, "edge dest")))
            a_row, b_row = _parse_cost_pairs(toks[2:], n_caps, ln)
            a_rows.append(a_row)
            b_rows.append(b_row)
        m = len(edges)
        if self.i < len(self.lines):
            raise ParseError(f"line {self.lines[self.i][0]}: trailing content after {m} edges")
        return (tuple(edges), np.array(a_rows).reshape(m, n_caps),
                np.array(b_rows).reshape(m, n_caps))


def parse_instance(text: str) -> Instance:
    """Parse either text format: the canonical one, or the facility one,
    translated by from_facility_form. Raises ParseError on malformed input
    and ValidationError when the instance breaks a structural invariant or
    a facility file does not translate. Target routability is not checked
    here; validate() checks it.
    """
    reader = _Reader(text)
    if reader.header == _FACILITY_HEADER:
        return _parse_facility(reader)
    if reader.header != _HEADER:
        raise ParseError(f"missing header line {_HEADER!r} or {_FACILITY_HEADER!r}")
    ln, toks = reader.section("VERTICES", 6)
    if toks[2] != "SOURCE" or toks[4] != "SINK":
        raise ParseError(f"line {ln}: expected 'VERTICES <n> SOURCE <s> SINK <t>'")
    n = _parse_int(toks[1], ln, "vertex count")
    source = _parse_int(toks[3], ln, "source id")
    sink = _parse_int(toks[5], ln, "sink id")
    target, caps = reader.target_and_capacities()
    edges, fixed, var = reader.edges(len(caps))
    return Instance(
        n_vertices=n, source=source, sink=sink, edges=edges, capacities=np.array(caps),
        fixed_cost=fixed, variable_cost=var, target=target,
    )


def format_instance(instance: Instance) -> str:
    """Render the canonical text form (stable byte-for-byte), with NA NA for
    a class an edge does not offer."""
    caps = instance.capacities.tolist()
    out = [_HEADER,
           f"VERTICES {instance.n_vertices} SOURCE {instance.source} SINK {instance.sink}",
           f"TARGET {_fmt(instance.target)}",
           "CAPACITIES " + " ".join([str(len(caps))] + [_fmt(c) for c in caps]),
           f"EDGES {instance.n_edges}"]
    for (u, w), a_row, b_row in zip(instance.edges, instance.fixed_cost.tolist(),
                                    instance.variable_cost.tolist()):
        fields = [str(u), str(w)]
        for a, b in zip(a_row, b_row):
            fields += ("NA", "NA") if math.isnan(a) else (_fmt(a), _fmt(b))
        out.append(" ".join(fields))
    return "\n".join(out) + "\n"


def load_instance(path) -> Instance:
    """parse_instance of the UTF-8 text of an instance file of either
    format, with its errors."""
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(format_instance(instance), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# facility form (multi-source / multi-sink with terminal costs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Terminal:
    """A capture source or storage sink attached to a transport vertex."""

    vertex: int
    open_cost: float
    unit_cost: float
    limit: float  # max rate for sources, max capacity for sinks


@dataclass(frozen=True, eq=False)
class FacilityInstance:
    """Facility-style input: a transport graph plus costed sources and sinks."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    capacities: np.ndarray
    fixed_cost: np.ndarray
    variable_cost: np.ndarray
    sources: tuple[Terminal, ...]
    sinks: tuple[Terminal, ...]
    target: float


def from_facility_form(facility: FacilityInstance) -> Instance:
    """Translate a facility instance into single-source/single-sink form.

    A fresh super-source and super-sink are appended as vertices n and n+1.
    Each source j contributes an edge super-source -> j offered at a single
    capacity class equal to j's limit, with the open cost as fixed cost and
    the unit cost as variable cost; sinks contribute the mirror edge into the
    super-sink. Transport edges keep their full cost table. The capacity list
    becomes the sorted union of transport capacities and terminal limits.

    Raises ValueError when a cost table is not (edges, transport capacities)
    in shape, two transport capacities are equal (one class's costs would be
    lost), or a terminal names a vertex outside the transport graph or has a
    nonpositive limit or a NaN open cost, and ValidationError when the
    translation breaks a structural invariant, as every Instance does. The
    target's routability is not checked: a facility instance whose
    terminals cannot carry the target translates into an instance that
    validate() flags.
    """
    n = facility.n_vertices
    for role, terms in (("source", facility.sources), ("sink", facility.sinks)):
        for t in terms:
            if not 0 <= t.vertex < n:
                raise ValueError(f"{role} vertex {t.vertex} not in transport graph (n={n})")
            if not t.limit > 0:
                raise ValueError(f"{role} at vertex {t.vertex}: limit must be positive")
            if math.isnan(t.open_cost):  # a NaN fixed cost would drop the terminal
                raise ValueError(f"{role} at vertex {t.vertex}: open cost must not be NaN")

    old_caps = np.asarray(facility.capacities, dtype=np.float64).tolist()
    old_fixed, old_var = (np.asarray(t, dtype=np.float64)
                          for t in (facility.fixed_cost, facility.variable_cost))
    for what, table in (("fixed_cost", old_fixed), ("variable_cost", old_var)):
        if table.shape != (len(facility.edges), len(old_caps)):
            raise ValueError(f"{what} shape {table.shape} is not (edges, transport "
                             f"capacities) {(len(facility.edges), len(old_caps))}")
    if len(set(old_caps)) < len(old_caps):
        raise ValueError(f"transport capacities must be distinct (got {old_caps})")
    limits = [float(t.limit) for t in facility.sources + facility.sinks]
    new_caps = sorted(set(old_caps) | set(limits))
    col = {c: k for k, c in enumerate(new_caps)}
    n_caps = len(new_caps)

    m_total = len(facility.edges) + len(facility.sources) + len(facility.sinks)
    fixed = np.full((m_total, n_caps), math.nan)
    var = np.full((m_total, n_caps), math.nan)
    edges: list[tuple[int, int]] = []

    for e, (u, w) in enumerate(facility.edges):
        edges.append((u, w))
        for k, c in enumerate(old_caps):
            fixed[e, col[c]], var[e, col[c]] = old_fixed[e, k], old_var[e, k]

    super_source, super_sink = n, n + 1
    for t in facility.sources:
        e = len(edges)
        edges.append((super_source, t.vertex))
        fixed[e, col[float(t.limit)]] = t.open_cost
        var[e, col[float(t.limit)]] = t.unit_cost
    for t in facility.sinks:
        e = len(edges)
        edges.append((t.vertex, super_sink))
        fixed[e, col[float(t.limit)]] = t.open_cost
        var[e, col[float(t.limit)]] = t.unit_cost

    return Instance(
        n_vertices=n + 2, source=super_source, sink=super_sink, edges=tuple(edges),
        capacities=np.array(new_caps), fixed_cost=fixed, variable_cost=var,
        target=facility.target,
    )


def _parse_facility(reader: _Reader) -> Instance:
    """The facility text format after its header: the canonical sections
    with a bare vertex count, plus SOURCES and SINKS sections of terminal
    lines (vertex, open cost, unit cost, limit) before EDGES, translated by
    from_facility_form."""
    ln, toks = reader.section("VERTICES", 2)
    n = _parse_int(toks[1], ln, "vertex count")
    target, caps = reader.target_and_capacities()
    terminals = []
    for keyword, what in (("SOURCES", "source"), ("SINKS", "sink")):
        terms = []
        for ln, toks in reader.rows(keyword, what):
            if len(toks) != 4:
                raise ParseError(f"line {ln}: terminal line needs 4 fields")
            terms.append(Terminal(
                vertex=_parse_int(toks[0], ln, "terminal vertex"),
                open_cost=_parse_float(toks[1], ln, "open cost"),
                unit_cost=_parse_float(toks[2], ln, "unit cost"),
                limit=_parse_float(toks[3], ln, "limit"),
            ))
        terminals.append(tuple(terms))
    edges, fixed, var = reader.edges(len(caps))
    try:
        return from_facility_form(FacilityInstance(
            n_vertices=n, edges=edges, capacities=np.array(caps), fixed_cost=fixed,
            variable_cost=var, sources=terminals[0], sinks=terminals[1], target=target,
        ))
    except ValueError as err:
        raise ValidationError(str(err)) from None


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostParams:
    """Ranges from which the random generators draw each edge's fixed and
    variable cost of the first capacity class."""

    fixed_range: tuple[float, float] = (4.0, 40.0)
    variable_range: tuple[float, float] = (0.5, 4.0)

    def __post_init__(self):
        for what, (low, high) in (("fixed", self.fixed_range), ("variable", self.variable_range)):
            if not 0.0 <= low <= high < math.inf:  # NaN fails too
                raise ValueError(f"{what} cost range must be finite with 0 <= min <= max "
                                 f"(got {low!r} to {high!r})")


# Fixed costs grow sublinearly with capacity (exponent < 1): bigger pipes are
# cheaper per capacity unit in every class step, mirroring bulk discounts.
_FIRST_CAPACITY = (2, 6)
_CAPACITY_GROWTH = (1.6, 2.4)
_ECONOMY_EXPONENT = (0.55, 0.85)
_GEOMETRIC_RADIUS_FACTOR = 1.25
_MAX_GENERATOR_ATTEMPTS = 64


def _draw_capacities(rng: random.Random, n_capacities: int) -> list[float]:
    caps = [float(rng.randint(*_FIRST_CAPACITY))]
    for _ in range(n_capacities - 1):
        grown = caps[-1] * rng.uniform(*_CAPACITY_GROWTH)
        if grown == math.inf:
            raise ValueError(f"capacity class {len(caps)} of {n_capacities} overflows a float")
        caps.append(float(max(math.ceil(grown), caps[-1] + 1)))
    return caps


def _draw_costs(rng: random.Random, n_edges: int, caps: list[float],
                params: CostParams) -> tuple[np.ndarray, np.ndarray]:
    n_caps = len(caps)
    fixed = np.empty((n_edges, n_caps))
    var = np.empty((n_edges, n_caps))
    for e in range(n_edges):
        a1 = rng.uniform(*params.fixed_range)
        gamma = rng.uniform(*_ECONOMY_EXPONENT)
        b = rng.uniform(*params.variable_range)
        for k in range(n_caps):
            fixed[e, k] = a1 * (caps[k] / caps[0]) ** gamma
            if k > 0:
                b = b * rng.uniform(0.75, 0.98)
            var[e, k] = b
    return fixed, var


def _grid_topology(n_vertices: int) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Directed lattice of n_vertices cells plus an attached source and sink.

    Horizontal edges point rightward; vertical edges go both ways. The source
    feeds every left-column cell and every right-column cell feeds the sink.
    """
    rows = 1
    for d in range(int(math.isqrt(n_vertices)), 0, -1):
        if n_vertices % d == 0:
            rows = d
            break
    cols = n_vertices // rows
    source, sink = n_vertices, n_vertices + 1
    vid = lambda r, c: r * cols + c
    edges = [(source, vid(r, 0)) for r in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
                edges.append((vid(r + 1, c), vid(r, c)))
    edges.extend((vid(r, cols - 1), sink) for r in range(rows))
    return n_vertices + 2, source, sink, edges


def _geometric_topology(rng: random.Random, n_vertices: int) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Random points in the unit square, near neighbors connected both ways.

    The leftmost point is the source, the rightmost the sink; edges into the
    source and out of the sink are dropped so the terminals stay pure.
    """
    pts = [(rng.random(), rng.random()) for _ in range(n_vertices)]
    source = min(range(n_vertices), key=lambda i: (pts[i][0], i))
    sink = max(range(n_vertices), key=lambda i: (pts[i][0], -i))
    radius2 = (_GEOMETRIC_RADIUS_FACTOR ** 2) * math.log(max(n_vertices, 2)) / (math.pi * n_vertices)
    edges = []
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            if dx * dx + dy * dy <= radius2:
                for u, w in ((i, j), (j, i)):
                    if w != source and u != sink:
                        edges.append((u, w))
    return n_vertices, source, sink, edges


def generate_random(kind: str, n_vertices: int, n_capacities: int,
                    cost_params: CostParams | None = None,
                    target_fraction: float = 0.5, seed: int = 0) -> Instance:
    """Generate a random feasible instance, bit-reproducible per seed.

    kind is "grid" or "geometric". For grids, n_vertices counts the lattice
    cells; the attached source and sink add two more. Capacities and the
    target are integers so integral-flow reasoning applies; the target is
    target_fraction of the instance's max flow (at least 1). Raises
    ValueError for a bad argument and ValidationError for drawn costs that
    overflow.
    """
    if kind not in ("grid", "geometric"):
        raise ValueError(f"unknown kind {kind!r}, expected 'grid' or 'geometric'")
    if n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if n_capacities < 1:
        raise ValueError("need at least 1 capacity class")
    if not 0 < target_fraction <= 1:
        raise ValueError("target_fraction must be in (0, 1]")
    params = cost_params or CostParams()
    rng = random.Random(seed)

    for _ in range(_MAX_GENERATOR_ATTEMPTS):
        if kind == "grid":
            n, source, sink, edges = _grid_topology(n_vertices)
        else:
            n, source, sink, edges = _geometric_topology(rng, n_vertices)
        if source == sink or not edges:
            continue
        caps = _draw_capacities(rng, n_capacities)
        fixed, var = _draw_costs(rng, len(edges), caps, params)
        instance = Instance(
            n_vertices=n, source=source, sink=sink, edges=tuple(edges),
            capacities=np.array(caps), fixed_cost=fixed, variable_cost=var,
            target=1.0,
        )
        mf = max_throughput(instance)
        if mf < 1.0:
            continue
        target = float(max(1, math.floor(target_fraction * mf)))
        return dataclasses.replace(instance, target=target)
    raise RuntimeError(f"could not generate a routable {kind} instance after "
                       f"{_MAX_GENERATOR_ATTEMPTS} attempts (seed={seed})")

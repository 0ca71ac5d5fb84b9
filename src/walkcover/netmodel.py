"""Immutable weighted-multigraph network model.

A network is a connected multigraph whose edges carry positive lengths,
interpreted as electrical resistances.  Loops and parallel edges are first
class: a loop is stored once as an edge but exposed as two arcs (one per
traversal sense), and it counts twice in every degree-like quantity.

Vertices are dense integers ``0..n-1``.  Symbolic vertex names exist only in
the text file format and are mapped to dense ids at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DisconnectedNetwork,
    NetworkFormatError,
    NonPositiveLength,
    VertexOutOfRange,
)

__all__ = [
    "Arc",
    "Edge",
    "Network",
    "Orientation",
    "build_network",
    "vertex_conductance",
    "transition_distribution",
    "random_orientation",
    "parse_network_text",
    "serialize_network",
]


@dataclass(frozen=True)
class Edge:
    """One edge: dense id, unordered endpoints (equal for a loop), length."""

    id: int
    u: int
    v: int
    length: float

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class Arc:
    """An oriented edge.

    ``direction`` 0 runs u -> v as stored on the edge, 1 runs v -> u.  For a
    loop the two directions are the two traversal senses of the same edge.
    """

    edge: int
    direction: int


@dataclass(frozen=True)
class Orientation:
    """A chosen arc per edge, indexed densely by edge id."""

    directions: tuple[int, ...]


@dataclass(frozen=True)
class Network:
    """Connected weighted multigraph, immutable after construction.

    Construct through :func:`build_network`, which validates lengths,
    endpoint ranges, and connectivity.  Instances are safe to share across
    worker processes; all derived tables are read-only caches.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    @cached_property
    def total_length(self) -> float:
        return math.fsum(e.length for e in self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per-vertex tuple of outgoing ``(edge_id, direction, head)`` arcs."""
        rows: list[list[tuple[int, int, int]]] = [[] for _ in range(self.vertex_count)]
        for e in self.edges:
            rows[e.u].append((e.id, 0, e.v))
            rows[e.v].append((e.id, 1, e.u))
        return tuple(tuple(r) for r in rows)

    @cached_property
    def conductances(self) -> tuple[float, ...]:
        """Per-vertex sum of ``1/length`` over outgoing arcs (loops twice)."""
        out = []
        for row in self.adjacency:
            out.append(math.fsum(1.0 / self.edges[eid].length for eid, _, _ in row))
        return tuple(out)

    def arcs(self) -> tuple[Arc, ...]:
        """Both arcs of every edge; always exactly ``2 * len(edges)``."""
        return tuple(Arc(e.id, d) for e in self.edges for d in (0, 1))

    def arc_tail(self, arc: Arc) -> int:
        e = self.edges[arc.edge]
        return e.u if arc.direction == 0 else e.v

    def arc_head(self, arc: Arc) -> int:
        e = self.edges[arc.edge]
        return e.v if arc.direction == 0 else e.u

    def check_vertex(self, x: int) -> None:
        if not (isinstance(x, (int, np.integer)) and 0 <= x < self.vertex_count):
            raise VertexOutOfRange(f"vertex {x!r} not in 0..{self.vertex_count - 1}")


def build_network(vertex_count: int, edge_list: Sequence[tuple[int, int, float]]) -> Network:
    """Validate and build an immutable :class:`Network`.

    ``edge_list`` holds ``(u, v, length)`` triples; ``u == v`` makes a loop.
    Raises :class:`NonPositiveLength`, :class:`VertexOutOfRange`, or
    :class:`DisconnectedNetwork`.  The single-vertex network with no edges is
    the one permitted degenerate case (total length 0); it exists so that
    trivial cover experiments are expressible.
    """
    if vertex_count < 1:
        raise VertexOutOfRange(f"vertex_count must be >= 1, got {vertex_count}")
    edges = []
    for i, (u, v, length) in enumerate(edge_list):
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise VertexOutOfRange(
                f"edge {i} endpoints ({u}, {v}) not in 0..{vertex_count - 1}"
            )
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise NonPositiveLength(f"edge {i} has length {length}")
        edges.append(Edge(i, int(u), int(v), length))

    # Union-find connectivity; loops never join components.
    parent = list(range(vertex_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in edges:
        ra, rb = find(e.u), find(e.v)
        if ra != rb:
            parent[ra] = rb
    roots = {find(a) for a in range(vertex_count)}
    if len(roots) != 1:
        raise DisconnectedNetwork(
            f"{len(roots)} components over {vertex_count} vertices"
        )
    return Network(vertex_count, tuple(edges))


def vertex_conductance(net: Network, x: int) -> float:
    """Sum of reciprocal lengths over arcs leaving ``x`` (a loop counts twice)."""
    net.check_vertex(x)
    return net.conductances[x]


def transition_distribution(net: Network, x: int) -> dict[Arc, float]:
    """Jump-chain law at ``x``: arc over edge ``e`` has weight ``(1/len(e)) / C_x``."""
    net.check_vertex(x)
    c = net.conductances[x]
    out: dict[Arc, float] = {}
    for eid, d, _ in net.adjacency[x]:
        out[Arc(eid, d)] = (1.0 / net.edges[eid].length) / c
    return out


def random_orientation(net: Network, rng: np.random.Generator) -> Orientation:
    """Pick one arc per edge uniformly (deterministic given ``rng`` state)."""
    return Orientation(tuple(int(rng.integers(0, 2)) for _ in net.edges))


# ---------------------------------------------------------------------------
# Text file format
#
#   # comment
#   vertices <n>            (optional header)
#   edge <u> <v> <length> [fwd|bwd]
#
# Endpoints are nonnegative integers, used as ids directly, unless any
# endpoint token is symbolic, in which case every token is a label and labels
# map to dense ids in file order.  The optional fwd/bwd token fixes an
# orientation for that edge (fwd = u->v as written).
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"^\d+$")


def parse_network_text(text: str) -> tuple[Network, Orientation | None]:
    """Parse the line-oriented network format.

    Returns the network and, when any edge carried an ``fwd``/``bwd`` token,
    an :class:`Orientation` (edges without a token default to ``fwd``).
    """
    declared: int | None = None
    raw_edges: list[tuple[str, str, float, str | None, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if len(tokens) != 2 or not _INT_RE.match(tokens[1]):
                raise NetworkFormatError("expected 'vertices <n>'", lineno)
            if declared is not None:
                raise NetworkFormatError("duplicate vertices header", lineno)
            declared = int(tokens[1])
        elif tokens[0] == "edge":
            if len(tokens) not in (4, 5):
                raise NetworkFormatError(
                    "expected 'edge <u> <v> <length> [fwd|bwd]'", lineno
                )
            sense = None
            if len(tokens) == 5:
                if tokens[4] not in ("fwd", "bwd"):
                    raise NetworkFormatError(f"bad direction token {tokens[4]!r}", lineno)
                sense = tokens[4]
            try:
                length = float(tokens[3])
            except ValueError:
                raise NetworkFormatError(f"bad length {tokens[3]!r}", lineno) from None
            raw_edges.append((tokens[1], tokens[2], length, sense, lineno))
        else:
            raise NetworkFormatError(f"unknown record {tokens[0]!r}", lineno)

    integer_named = all(
        _INT_RE.match(u) and _INT_RE.match(v) for u, v, _, _, _ in raw_edges
    )
    ids: dict[str, int] = {}
    edge_list: list[tuple[int, int, float]] = []
    for u, v, length, _, lineno in raw_edges:
        if integer_named:
            a, b = int(u), int(v)
        else:
            a = ids.setdefault(u, len(ids))
            b = ids.setdefault(v, len(ids))
        edge_list.append((a, b, length))

    if integer_named:
        top = max((max(u, v) for u, v, _ in edge_list), default=-1)
        n = declared if declared is not None else top + 1
        if declared is not None and top >= declared:
            raise NetworkFormatError(
                f"vertex {top} outside declared count {declared}"
            )
    else:
        n = len(ids)
        if declared is not None and declared != n:
            raise NetworkFormatError(
                f"vertices header says {declared}, file names {n} labels"
            )
    if n < 1:
        raise NetworkFormatError("empty network")

    try:
        net = build_network(n, edge_list)
    except (NonPositiveLength, DisconnectedNetwork, VertexOutOfRange) as exc:
        raise NetworkFormatError(str(exc)) from exc

    if any(sense for _, _, _, sense, _ in raw_edges):
        dirs = tuple(
            1 if sense == "bwd" else 0 for _, _, _, sense, _ in raw_edges
        )
        return net, Orientation(dirs)
    return net, None


def serialize_network(net: Network, orientation: Orientation | None = None) -> str:
    """Emit the text format; parsing the result reproduces an equal network."""
    lines = [f"vertices {net.vertex_count}"]
    for e in net.edges:
        rec = f"edge {e.u} {e.v} {e.length!r}"
        if orientation is not None:
            rec += " fwd" if orientation.directions[e.id] == 0 else " bwd"
        lines.append(rec)
    return "\n".join(lines) + "\n"

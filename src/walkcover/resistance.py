"""Exact effective-resistance engine.

Resistances come from a dense direct solve of the grounded weighted
Laplacian: instances are desk scale, so exactness beats iteration.  Parallel
edges accumulate conductance; loops contribute nothing (they never carry
current between distinct vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedNetwork, InvalidSplit, SameVertex
from .netmodel import Network, build_network

__all__ = ["SplitSpec", "effective_resistance", "split_resistances", "via_probability"]


def _laplacian(net: Network) -> np.ndarray:
    n = net.vertex_count
    lap = np.zeros((n, n))
    for e in net.edges:
        if e.is_loop:
            continue
        g = 1.0 / e.length
        lap[e.u, e.u] += g
        lap[e.v, e.v] += g
        lap[e.u, e.v] -= g
        lap[e.v, e.u] -= g
    return lap


def effective_resistance(net: Network, x: int, y: int) -> float:
    """Voltage at ``x`` when unit current enters ``x`` and leaves grounded ``y``."""
    net.check_vertex(x)
    net.check_vertex(y)
    if x == y:
        raise SameVertex(f"effective resistance needs two distinct vertices, got {x}")
    lap = _laplacian(net)
    keep = [i for i in range(net.vertex_count) if i != y]
    rhs = np.zeros(len(keep))
    pos = keep.index(x)
    rhs[pos] = 1.0
    sol = np.linalg.solve(lap[np.ix_(keep, keep)], rhs)
    return float(sol[pos])


def _span(net: Network, edge_ids: frozenset[int]) -> set[int]:
    verts: set[int] = set()
    for eid in edge_ids:
        e = net.edges[eid]
        verts.add(e.u)
        verts.add(e.v)
    return verts


@dataclass(frozen=True)
class SplitSpec:
    """A two-terminal split: edge subset A against its complement B.

    The subnetworks spanned by A and B may share exactly the terminals
    ``{x, y}``, and each side must connect x to y on its own.  Validation is
    eager; every downstream formula refuses an invalid split rather than
    silently misapplying itself.

    A side connects the terminals exactly when it builds as a connected
    network: in a connected network, a piece of one side that missed both
    terminals would meet the other side at a third shared vertex, which the
    check before it rejects.  The sides built for that check are kept for
    :func:`split_resistances`; they are not fields, so equality, hashing,
    ``repr`` and pickles see only the four fields.
    """

    network: Network
    a_edges: frozenset[int]
    x: int
    y: int

    def __post_init__(self):
        net = self.network
        net.check_vertex(self.x)
        net.check_vertex(self.y)
        object.__setattr__(self, "a_edges", frozenset(self.a_edges))
        if self.x == self.y:
            raise InvalidSplit("terminals must be distinct")
        all_ids = set(range(len(net.edges)))
        if not self.a_edges:
            raise InvalidSplit("side A has no edges")
        if not self.a_edges <= all_ids:
            raise InvalidSplit(f"unknown edge ids {sorted(self.a_edges - all_ids)}")
        if self.a_edges == all_ids:
            raise InvalidSplit("side B has no edges")
        shared = _span(net, self.a_edges) & _span(net, self.b_edges)
        if shared != {self.x, self.y}:
            raise InvalidSplit(
                f"sides share vertices {sorted(shared)}, expected exactly "
                f"{sorted((self.x, self.y))}"
            )
        self._sides  # built now, which checks that each side connects x and y

    def __getstate__(self):
        # A copy builds its own sides when it first needs them.
        return {name: value for name, value in vars(self).items() if name != "_sides"}

    @cached_property
    def _sides(self) -> tuple[tuple[Network, int, int], tuple[Network, int, int]]:
        """``side_network`` of side A and of side B, built once."""
        sides = []
        for name, side in (("A", self.a_edges), ("B", self.b_edges)):
            try:
                sides.append(self.side_network(side))
            except DisconnectedNetwork:
                raise InvalidSplit(f"side {name} does not connect the terminals") from None
        return sides[0], sides[1]

    @property
    def b_edges(self) -> frozenset[int]:
        return frozenset(range(len(self.network.edges))) - self.a_edges

    def side_network(self, edge_ids: frozenset[int]) -> tuple[Network, int, int]:
        """Standalone network for one side plus the remapped terminals."""
        verts = sorted(_span(self.network, edge_ids))
        remap = {v: i for i, v in enumerate(verts)}
        edges = [
            (remap[self.network.edges[eid].u], remap[self.network.edges[eid].v],
             self.network.edges[eid].length)
            for eid in sorted(edge_ids)
        ]
        return build_network(len(verts), edges), remap[self.x], remap[self.y]


def split_resistances(spec: SplitSpec) -> tuple[float, float]:
    """Terminal-to-terminal resistance of each standalone side, (R_A, R_B)."""
    (net_a, xa, ya), (net_b, xb, yb) = spec._sides
    return (
        effective_resistance(net_a, xa, ya),
        effective_resistance(net_b, xb, yb),
    )


def via_probability(spec: SplitSpec) -> float:
    """Chance the first terminal-to-terminal passage arrives through side A.

    Equals ``C_A / (C_A + C_B)`` for the side conductances, which is the same
    as the full-network resistance divided by R_A.
    """
    r_a, r_b = split_resistances(spec)
    return r_b / (r_a + r_b)

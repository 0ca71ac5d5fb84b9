"""Closed double-cover walks and the epoch process that paces a random walk.

A double-cover walk visits every edge exactly once in each direction and
returns to its root.  Construction: depth-first spanning tree from the root,
where a non-tree edge (a chord or a loop) goes out and back at the first
visit of its later endpoint.

Epochs pace a simulated walk along a fixed double-cover walk.  Epoch ``i``
waits, depending on the mode, for either

* the *strong* condition: a step that traverses the walk's i-th edge from its
  scheduled tail to its scheduled head (for a loop, in the scheduled sense), or
* the *weak* condition: mere presence at the scheduled head, which is already
  satisfied at zero extra cost when the walker is standing there.

Directed mode uses the strong condition where the walk agrees with a fixed
orientation and the weak one elsewhere; by the final epoch the walker has
covered every oriented arc and is back at the root, and the expected final
epoch time is exactly twice the squared total length.  Arc mode uses the
strong condition everywhere and covers both directions of every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyInput
from .netmodel import Arc, Network, Orientation
from .walker import (
    DEFAULT_STEP_BUDGET,
    TimingModel,
    WalkOutcome,
    _arc_heads,
    _TableLanes,
    coverage_bits,
    run,
)

__all__ = [
    "ClosedWalk",
    "EpochRecord",
    "EpochSequence",
    "construct_double_cover_walk",
    "validate_closed_walk",
    "epoch_times",
    "per_edge_interval_means",
    "serialize_walk",
    "parse_walk",
]


@dataclass(frozen=True)
class ClosedWalk:
    """A closed arc sequence from ``root`` using every edge once per direction."""

    root: int
    arcs: tuple[Arc, ...]

    @cached_property
    def edge_indices(self) -> dict[int, tuple[int, int]]:
        """For each edge id, the two positions at which the walk uses it."""
        seen: dict[int, list[int]] = {}
        for i, arc in enumerate(self.arcs):
            seen.setdefault(arc.edge, []).append(i)
        return {e: (pos[0], pos[1]) for e, pos in seen.items()}


def validate_closed_walk(net: Network, walk: ClosedWalk) -> None:
    """Structural check: incidence chain, closure, and exact arc multiset."""
    net.check_vertex(walk.root)
    if len(walk.arcs) != 2 * len(net.edges):
        raise ValueError(
            f"walk has {len(walk.arcs)} arcs, expected {2 * len(net.edges)}"
        )
    at = walk.root
    for i, arc in enumerate(walk.arcs):
        if net.arc_tail(arc) != at:
            raise ValueError(f"arc {i} departs {net.arc_tail(arc)}, walker is at {at}")
        at = net.arc_head(arc)
    if at != walk.root:
        raise ValueError(f"walk ends at {at}, not at root {walk.root}")
    if sorted(walk.arcs, key=lambda a: (a.edge, a.direction)) != sorted(
        net.arcs(), key=lambda a: (a.edge, a.direction)
    ):
        raise ValueError("walk does not use every arc exactly once")


def construct_double_cover_walk(
    net: Network, root: int, neighbor_order: str = "ascending"
) -> ClosedWalk:
    """Depth-first double cover from ``root``.

    One rule: at a vertex's first visit, every unused edge to an already
    visited vertex goes out and back, so a non-tree edge does so at the first
    visit of its later endpoint (a loop's only endpoint is visited then).
    The descent then takes the unused edges, which all lead to unvisited
    vertices, into the tree, each returning when its subtree is done.
    ``neighbor_order`` ("ascending" or "descending" by edge id) only changes
    the visiting order, giving a second, genuinely different walk for
    invariance tests.
    """
    net.check_vertex(root)
    if neighbor_order not in ("ascending", "descending"):
        raise ValueError(f"unknown neighbor_order {neighbor_order!r}")
    reverse = neighbor_order == "descending"
    rows = [sorted(row, key=lambda a: a[0], reverse=reverse) for row in net.adjacency]
    visited = [False] * net.vertex_count
    used = [False] * len(net.edges)
    arcs: list[Arc] = []
    # Each frame is (iterator over a vertex's row, arc back to its parent).
    stack: list = []

    def visit(v: int, back: Arc | None) -> None:
        visited[v] = True
        for eid, d, head in rows[v]:
            if not used[eid] and visited[head]:
                used[eid] = True
                arcs.extend((Arc(eid, d), Arc(eid, 1 - d)))
        stack.append((iter(rows[v]), back))

    visit(root, None)
    while stack:
        row, back = stack[-1]
        for eid, d, head in row:
            if not used[eid]:
                used[eid] = True
                arcs.append(Arc(eid, d))
                visit(head, Arc(eid, 1 - d))
                break
        else:
            stack.pop()
            if back is not None:
                arcs.append(back)

    walk = ClosedWalk(root, tuple(arcs))
    validate_closed_walk(net, walk)
    return walk


def serialize_walk(walk: ClosedWalk) -> str:
    """Whitespace format: root token then ``edge:direction`` tokens."""
    return " ".join([str(walk.root)] + [f"{a.edge}:{a.direction}" for a in walk.arcs])


def parse_walk(text: str) -> ClosedWalk:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty walk text")
    arcs = []
    for tok in tokens[1:]:
        e, _, d = tok.partition(":")
        arcs.append(Arc(int(e), int(d)))
    return ClosedWalk(int(tokens[0]), tuple(arcs))


# ---------------------------------------------------------------------------
# Epoch tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    """Epoch times of one trial plus the per-edge interval decomposition."""

    taus: tuple[float, ...]
    intervals: dict[int, tuple[float, float]]
    covered_ok: bool

    @property
    def final_time(self) -> float:
        return self.taus[-1]


@dataclass(frozen=True)
class EpochSequence:
    """Stopping rule: run the epoch process to its final epoch.

    ``mode`` is ``"arc"`` (strong condition everywhere) or ``"directed"``
    (strong only where the walk agrees with ``orientation``).  The rule is a
    stopping time of the jump chain; its auxiliary payload carries the epoch
    times and a post-hoc coverage check.
    """

    walk: ClosedWalk
    mode: str
    orientation: Orientation | None = None

    def anchor(self) -> int | None:
        return self.walk.root

    def label(self) -> str:
        return f"epochs({self.mode};root={self.walk.root})"

    def make_tracker(self, net: Network):
        return _EpochTracker(self._plan(net))

    def make_lanes(self, net: Network):
        return self._plan(net).lanes

    def _plan(self, net: Network) -> "_EpochPlan":
        """The rule's tables on ``net``, shared by equal rules on equal networks."""
        return _plans(net, self.walk, self.mode, self.orientation)


class _EpochPlan:
    """An epoch rule's per-position tables on one network, shared by its trials.

    Arcs are numbered ``2 * edge + direction``.  Epoch ``i`` fires on a step
    along ``arcs[i]`` when it is strong and on any arrival at ``heads[i]``
    when it is weak.  Either way the walker then stands at ``heads[i]``, so
    the pending weak epochs that fire with it depend on ``i`` alone:
    ``after[i]`` is the index once they have.  ``first`` is the index after
    the weak epochs satisfied at the root before any step.
    """

    def __init__(self, net: Network, walk: ClosedWalk, mode: str, orientation):
        if mode not in ("arc", "directed"):
            raise ValueError(f"unknown epoch mode {mode!r}")
        if mode == "directed" and orientation is None:
            raise ValueError("directed mode needs an orientation")
        validate_closed_walk(net, walk)
        # ``bits`` is the coverage bookkeeping for the post-hoc check.  An
        # epoch is strong exactly where its arc counts towards coverage.
        self.net = net
        self.bits, self.full = coverage_bits(net, mode, orientation)
        self.arcs = [2 * a.edge + a.direction for a in walk.arcs]
        self.strong = [self.bits[a] != 0 for a in self.arcs]
        self.heads = [net.arc_head(a) for a in walk.arcs]
        self.after = [self._weak_run(i + 1, v) for i, v in enumerate(self.heads)]
        self.first = self._weak_run(0, walk.root)

    @cached_property
    def lanes(self) -> _TableLanes:
        """The rule's lane tables: ``next`` and ``stop`` over (state, arc).

        State s is the epoch index ``first + s``; the last state, index 2E,
        is where a lane stops, and stays put after that.
        """
        first, final = self.first, len(self.heads)
        arc_heads = _arc_heads(self.net)
        arc_ids = np.arange(len(arc_heads))
        nxt = np.repeat(np.arange(final - first + 1, dtype=np.intp)[:, None], len(arc_ids), 1)
        for s, i in enumerate(range(first, final)):
            fires = arc_ids == self.arcs[i] if self.strong[i] else arc_heads == self.heads[i]
            nxt[s, fires] = self.after[i] - first
        return _TableLanes(nxt, nxt == final - first, None)

    def _weak_run(self, i: int, v: int) -> int:
        """The index after the weak epochs from ``i`` on that ``v`` satisfies."""
        while i < len(self.heads) and not self.strong[i] and self.heads[i] == v:
            i += 1
        return i


_plans = lru_cache(maxsize=8)(_EpochPlan)


class _EpochTracker:
    def __init__(self, plan: _EpochPlan):
        self.bits, self.full = plan.bits, plan.full
        self.strong, self.heads, self.arcs, self.after = (
            plan.strong, plan.heads, plan.arcs, plan.after
        )
        # The walk starts at the root (the rule is anchored there), where the
        # first weak epochs fire at time 0.
        self.i = plan.first
        self.taus = [0.0] * plan.first
        self.covered = 0

    def start(self, v: int) -> bool:
        return self.i == len(self.heads)

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        arc = 2 * e + d
        self.covered |= self.bits[arc]
        i = self.i
        if self.strong[i]:
            if arc != self.arcs[i]:
                return False
        elif v != self.heads[i]:
            return False
        j = self.after[i]
        self.taus += [t] * (j - i)
        self.i = j
        return j == len(self.heads)

    def result(self):
        ok = self.covered == self.full
        return {"taus": tuple(self.taus), "covered_ok": ok}


def epoch_times(
    net: Network,
    walk: ClosedWalk,
    mode: str,
    model: TimingModel,
    rng: np.random.Generator,
    orientation: Orientation | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
    tables=None,
) -> EpochRecord:
    """Simulate one epoch run along ``walk`` and decompose it per edge."""
    rule = EpochSequence(walk, mode, orientation)
    out = run(
        net, walk.root, rule, model, rng, step_budget=step_budget, tables=tables
    )
    return record_from_outcome(walk, out)


def record_from_outcome(walk: ClosedWalk, outcome: WalkOutcome) -> EpochRecord:
    """Turn an :class:`EpochSequence` outcome into an :class:`EpochRecord`."""
    aux = outcome.auxiliary or {}
    taus = aux["taus"]
    covered_ok = bool(aux["covered_ok"])
    intervals: dict[int, tuple[float, float]] = {}
    for eid, (j, k) in walk.edge_indices.items():
        first = taus[j] - (taus[j - 1] if j else 0.0)
        second = taus[k] - (taus[k - 1] if k else 0.0)
        intervals[eid] = (first, second)
    return EpochRecord(taus=tuple(taus), intervals=intervals, covered_ok=covered_ok)


def per_edge_interval_means(records) -> dict[int, float]:
    """Sample mean of the two epoch intervals charged to each edge."""
    records = list(records)
    if not records:
        raise EmptyInput("no epoch records")
    sums: dict[int, float] = {}
    for rec in records:
        for eid, (a, b) in rec.intervals.items():
            sums[eid] = sums.get(eid, 0.0) + a + b
    return {eid: s / len(records) for eid, s in sums.items()}

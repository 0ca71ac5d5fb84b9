"""Closed double-cover walks and the epoch process that paces a random walk.

A double-cover walk visits every edge exactly once in each direction and
returns to its root.  Construction: depth-first spanning tree from the root,
with every non-tree edge (chords and loops) spliced in as an out-and-back
pair at the first visit of one of its endpoints.

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

    Tree edges contribute their descend/return arc pair around the subtree
    visit; every chord and loop is spliced as an immediate out-and-back pair
    at the first visit of an endpoint.  ``neighbor_order`` ("ascending" or
    "descending" by edge id) only changes the visiting order, giving a second,
    genuinely different walk for invariance tests.
    """
    net.check_vertex(root)
    if neighbor_order not in ("ascending", "descending"):
        raise ValueError(f"unknown neighbor_order {neighbor_order!r}")
    reverse = neighbor_order == "descending"
    visited = [False] * net.vertex_count
    spliced = [False] * len(net.edges)
    arcs: list[Arc] = []

    # Iterative DFS; each frame is (vertex, iterator over outgoing arcs,
    # return arc to emit when the frame pops).
    def outgoing(v: int):
        row = sorted(net.adjacency[v], key=lambda a: a[0], reverse=reverse)
        return iter(row)

    def splice_local(v: int) -> None:
        # Loops and already-visited-endpoint chords attach at v's first visit.
        for eid, d, head in sorted(net.adjacency[v], key=lambda a: a[0], reverse=reverse):
            if spliced[eid]:
                continue
            e = net.edges[eid]
            if e.is_loop:
                if d == 0:  # each loop shows up as both senses; handle once
                    spliced[eid] = True
                    arcs.append(Arc(eid, 0))
                    arcs.append(Arc(eid, 1))
            elif visited[head]:
                spliced[eid] = True
                arcs.append(Arc(eid, d))
                arcs.append(Arc(eid, 1 - d))

    visited[root] = True
    splice_local(root)
    stack = [(root, outgoing(root), None)]
    while stack:
        v, it, ret = stack[-1]
        advanced = False
        for eid, d, head in it:
            if spliced[eid] or visited[head]:
                continue
            # Unvisited head: take this edge into the tree.
            spliced[eid] = True
            visited[head] = True
            arcs.append(Arc(eid, d))
            splice_local(head)
            stack.append((head, outgoing(head), Arc(eid, 1 - d)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if ret is not None:
                arcs.append(ret)

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
        """The rule's tables on ``net``, checked and built once per network."""
        plan = self.__dict__.get("_cached_plan")
        if plan is None or plan.net is not net:
            plan = _EpochPlan(net, self.walk, self.mode, self.orientation)
            object.__setattr__(self, "_cached_plan", plan)
        return plan


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
        if mode == "directed":
            if orientation is None:
                raise ValueError("directed mode needs an orientation")
            if len(orientation.directions) != len(net.edges):
                raise ValueError("orientation does not match the network")
        validate_closed_walk(net, walk)
        dirs = orientation.directions if mode == "directed" else None
        # ``bits`` is the coverage bookkeeping for the post-hoc check.  An
        # epoch is strong exactly where its arc counts towards coverage.
        self.net = net
        self.bits, self.full = coverage_bits(len(net.edges), mode, dirs)
        self.strong = [self.bits[a.edge][a.direction] != 0 for a in walk.arcs]
        self.heads = [net.arc_head(a) for a in walk.arcs]
        self.arcs = [2 * a.edge + a.direction for a in walk.arcs]
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
        self.covered |= self.bits[e][d]
        i = self.i
        if self.strong[i]:
            if 2 * e + d != self.arcs[i]:
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
    rule = _epoch_rule(walk, mode, orientation)
    out = run(
        net, walk.root, rule, model, rng, step_budget=step_budget, tables=tables
    )
    return record_from_outcome(walk, out)


@lru_cache(maxsize=8)
def _epoch_rule(walk: ClosedWalk, mode: str, orientation) -> EpochSequence:
    """One rule per (walk, mode, orientation), so that repeated
    :func:`epoch_times` calls on one network share its plan."""
    return EpochSequence(walk, mode, orientation)


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

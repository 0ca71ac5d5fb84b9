"""Jump-chain random-walk simulator with pluggable stopping rules.

The walk samples the next arc at each vertex with probability proportional
to the reciprocal edge length, then charges elapsed time under one of two
timing models:

* ``L_SQUARED`` charges exactly ``length**2`` per traversal.
* ``BROWNIAN_MEAN`` charges the conditional mean time a Brownian particle
  needs to leave the current vertex through the sampled edge.  Charging the
  conditional mean instead of sampling a traversal-time distribution leaves
  every expectation of a jump-chain stopping time unchanged, because whether
  the walk has stopped is decided by the arc sequence alone.

Stopping rules are small frozen dataclasses; each knows how to build a
per-trial tracker that consumes one ``(edge, direction, arrival)`` event per
step and says when to stop.  Rules defined elsewhere (the epoch sequences in
:mod:`walkcover.tours`) plug in through the same ``make_tracker`` and
``make_lanes`` hooks.

A tracker's ``update`` runs on every jump step, so it should do no more than
look up and compare: trackers build their per-arc tables (such as
:func:`coverage_bits`) once, in ``make_tracker``, rather than branching on the
rule's options per step.  Where those tables cost more than a short trial,
the rule builds them once per network and its trackers share them, as the
epoch sequences do.  The loop in :func:`run` draws its uniforms in blocks
of 64, 256, 1024, 4096 and then 16384, each capped at the steps left in the
budget, so the budget is checked once per block.

A rule with a table form also has ``make_lanes``, which builds its progress
as tables over (state, arc) or as coverage bits (see the section below):
commute, refined commute, first passage, cover-and-return, vertex cover and
the epoch sequences of :mod:`walkcover.tours`.  The lanes are the one
definition of a rule's meaning that the estimator and the exact solver
(:mod:`walkcover.exact`) read.  :func:`run` with its trackers is the
reference that the tests hold every walker to, and the only walker for
recorded trajectories, auxiliary payloads (epoch times, commute arcs) and
rules without a table form.  The estimator walks its trials on the lanes
alone, in two ways that the tests hold to :func:`run` trial by trial.  A
trial walked on its own runs a fused loop over rows that fold the rule's
state into the vertex, with no per-step method call.  Those rows are
indexed by each draw's rank among the sampling rows' breakpoints, found by
one ``searchsorted`` per refill block, so a step bisects nothing, while
they hold at most ``RANK_ENTRIES_MAX`` (2**14) entries, one per row and
rank; above that size a step bisects the vertex's ``cum`` list.  A block
of at least ``estimate.LOCKSTEP_MIN_LANES`` trials walks in lockstep, one
numpy step over all its trials at a time, while its masks fit in 64 bits,
on uniforms it draws in groups by PCG64 jump-ahead.  It hands its last
``estimate.LOCKSTEP_MIN_LIVE`` or fewer live trials to the fused loop,
which goes on from each trial's vertex, progress, clock, step count and
generator state, so no step is walked twice.  Every step draws exactly one
uniform, so a trial's k-th draw is its k-th step in all three walkers.  The
gate's values and the measured tables behind them, the draw groups and the
hand-off are in :mod:`walkcover.estimate`.  The walkers and the exact
solver read the sampling rows through one layout, :func:`_slot_columns`.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import length_hint
from typing import Iterable, Sequence

import numpy as np

from .errors import StepBudgetExceeded, UnsamplableArc, VertexOutOfRange
from .netmodel import Arc, Network, Orientation
from .resistance import SplitSpec

__all__ = [
    "TimingModel",
    "WalkEvent",
    "WalkOutcome",
    "FirstPassage",
    "Commute",
    "RefinedCommute",
    "EdgeCoverReturn",
    "ArcCoverReturn",
    "DirectedCoverReturn",
    "VertexCover",
    "StoppingRule",
    "DEFAULT_STEP_BUDGET",
    "build_tables",
    "step",
    "run",
    "commute_trips",
]

DEFAULT_STEP_BUDGET = 10**9

REFINED_KINDS = ("either", "forward", "backward", "both")


class TimingModel(Enum):
    L_SQUARED = "l2"
    BROWNIAN_MEAN = "brownian"


@dataclass(frozen=True)
class WalkEvent:
    """One step: the arc taken, where it landed, and cumulative elapsed time."""

    step_index: int
    arc: Arc
    arrival_vertex: int
    elapsed: float


@dataclass(frozen=True)
class WalkOutcome:
    """Result of one simulated trial."""

    stop_time: float
    step_count: int
    auxiliary: dict | None = None
    events: tuple[WalkEvent, ...] | None = None


# ---------------------------------------------------------------------------
# Stopping rules.  Each tracker exposes:
#   start(v)            -> bool   (True if the rule is satisfied before any step)
#   update(e, d, v, t)  -> bool   (True to stop after this arrival; every step)
#   result()            -> dict | None
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstPassage:
    target: int

    def anchor(self) -> int | None:
        return None

    def label(self) -> str:
        return f"first_passage(target={self.target})"

    def make_tracker(self, net: Network):
        net.check_vertex(self.target)
        return _FirstPassageTracker(self.target)

    def make_lanes(self, net: Network):
        heads = _arc_heads(net)
        return _TableLanes(np.zeros((1, len(heads)), np.intp), heads[None] == self.target, None)


class _FirstPassageTracker:
    def __init__(self, target: int):
        self.target = target
        self.arrival = None

    def start(self, v: int) -> bool:
        return v == self.target

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        if v == self.target:
            self.arrival = (e, d)
            return True
        return False

    def result(self):
        return {"arrival_arc": self.arrival}


@dataclass(frozen=True)
class Commute:
    """Go from x to y and back to x; one elementary commute."""

    x: int
    y: int

    def anchor(self) -> int | None:
        return self.x

    def label(self) -> str:
        return f"commute(x={self.x};y={self.y})"

    def make_tracker(self, net: Network):
        if self.x == self.y:
            raise VertexOutOfRange("commute endpoints must differ")
        net.check_vertex(self.y)
        return _CommuteTracker(self.x, self.y)

    def make_lanes(self, net: Network):
        # State 0 is the trip out to y, state 1 the trip back to x.
        heads = _arc_heads(net)
        nxt = np.ones((2, len(heads)), np.intp)
        nxt[0] = heads == self.y
        back = np.zeros((2, len(heads)), np.int64)
        back[1] = heads == self.x
        return _TableLanes(nxt, back == 1, back)


class _CommuteTracker:
    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y
        self.outbound = True
        self.fwd = None
        self.bwd = None

    def start(self, v: int) -> bool:
        return False

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        if self.outbound:
            if v == self.y:
                self.fwd = (e, d)
                self.outbound = False
        elif v == self.x:
            self.bwd = (e, d)
            return True
        return False

    def result(self):
        return {"commutes": [(self.fwd, self.bwd)], "commute_count": 1}


@dataclass(frozen=True)
class RefinedCommute:
    """Stop at the first commute whose trips touch side A in the given way.

    ``kind`` is one of ``either`` / ``forward`` / ``backward`` / ``both``.  A
    trip counts as through A when its arriving arc (into y on the way out,
    into x on the way back) belongs to A; the two sides share only the
    terminals, so any passage entering through A must finish on an A arc.
    The ``both`` kind keeps its two flags across commutes: it stops at the
    first commute completion by which some forward trip and some backward
    trip have each gone through A.
    """

    kind: str
    spec: SplitSpec

    def anchor(self) -> int | None:
        return self.spec.x

    def label(self) -> str:
        return f"refined({self.kind};x={self.spec.x};y={self.spec.y})"

    def make_tracker(self, net: Network):
        if self.kind not in REFINED_KINDS:
            raise ValueError(f"unknown refined-commute kind {self.kind!r}")
        if self.spec.network != net:
            raise ValueError("split spec belongs to a different network")
        return _RefinedTracker(self.kind, self.spec.x, self.spec.y, self.spec.a_edges)

    def make_lanes(self, net: Network):
        # State bits: 1 on the trip back to x, 2 the trip out went through A,
        # 4 and 8 the ``both`` kind's seen-forward and seen-backward flags.
        x, y, kind = self.spec.x, self.spec.y, self.kind
        heads = _arc_heads(net).tolist()
        in_a = [arc.edge in self.spec.a_edges for arc in net.arcs()]
        nxt = np.zeros((16, len(heads)), np.intp)
        back = np.zeros((16, len(heads)), np.int64)
        stop = np.zeros((16, len(heads)), bool)
        for s in range(16):
            for arc, (head, a) in enumerate(zip(heads, in_a)):
                if not s & 1:
                    nxt[s, arc] = s | 1 | 2 * a if head == y else s
                elif head != x:
                    nxt[s, arc] = s
                else:
                    f = bool(s & 2)
                    seen = s & 12 | 4 * f | 8 * a
                    nxt[s, arc] = seen
                    back[s, arc] = 1
                    stop[s, arc] = {"forward": f, "backward": a, "either": f or a,
                                    "both": seen == 12}[kind]
        return _TableLanes(nxt, stop, back)


class _RefinedTracker:
    def __init__(self, kind: str, x: int, y: int, a_edges: frozenset[int]):
        self.kind = kind
        self.x = x
        self.y = y
        self.a = a_edges
        self.outbound = True
        self.fwd = None
        self.commutes: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self.seen_f = False
        self.seen_b = False

    def start(self, v: int) -> bool:
        return False

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        if self.outbound:
            if v == self.y:
                self.fwd = (e, d)
                self.outbound = False
            return False
        if v != self.x:
            return False
        fwd = self.fwd
        self.commutes.append((fwd, (e, d)))
        f = fwd[0] in self.a
        b = e in self.a
        self.seen_f |= f
        self.seen_b |= b
        self.outbound = True
        kind = self.kind
        if kind == "forward":
            return f
        if kind == "backward":
            return b
        if kind == "either":
            return f or b
        return self.seen_f and self.seen_b

    def result(self):
        return {"commutes": self.commutes, "commute_count": len(self.commutes)}


@dataclass(frozen=True)
class EdgeCoverReturn:
    """Every edge traversed at least once (either way) and the walk back at root."""

    root: int

    def anchor(self) -> int | None:
        return self.root

    def label(self) -> str:
        return f"cover(edge;root={self.root})"

    def make_tracker(self, net: Network):
        return _MaskTracker(self.root, *coverage_bits(len(net.edges), "edge"))

    def make_lanes(self, net: Network):
        return _cover_lanes(self.root, *coverage_bits(len(net.edges), "edge"))


@dataclass(frozen=True)
class ArcCoverReturn:
    """Every edge traversed in both directions and the walk back at root."""

    root: int

    def anchor(self) -> int | None:
        return self.root

    def label(self) -> str:
        return f"cover(arc;root={self.root})"

    def make_tracker(self, net: Network):
        return _MaskTracker(self.root, *coverage_bits(len(net.edges), "arc"))

    def make_lanes(self, net: Network):
        return _cover_lanes(self.root, *coverage_bits(len(net.edges), "arc"))


@dataclass(frozen=True)
class DirectedCoverReturn:
    """Every edge traversed in its pre-assigned direction and the walk back at root."""

    root: int
    orientation: Orientation

    def anchor(self) -> int | None:
        return self.root

    def label(self) -> str:
        return f"cover(directed;root={self.root})"

    def make_tracker(self, net: Network):
        if len(self.orientation.directions) != len(net.edges):
            raise ValueError("orientation does not match the network's edge count")
        bits = coverage_bits(len(net.edges), "directed", self.orientation.directions)
        return _MaskTracker(self.root, *bits)

    def make_lanes(self, net: Network):
        bits = coverage_bits(len(net.edges), "directed", self.orientation.directions)
        return _cover_lanes(self.root, *bits)


def coverage_bits(
    edge_count: int, mode: str, directions: Sequence[int] | None = None
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Per-edge coverage mask bits and the full mask.

    ``bits[e][d]`` is the bit that arc ``(e, d)`` covers.  ``edge`` gives
    edge ``e`` bit ``e`` both ways, ``arc`` gives its two directions bits
    ``2e`` and ``2e + 1``, and ``directed`` gives bit ``e`` to direction
    ``directions[e]`` only and 0 to the other.  A tracker ORs ``bits[e][d]``
    into its mask on every step, without branching on the mode.
    """
    if mode == "edge":
        return tuple((1 << e, 1 << e) for e in range(edge_count)), (1 << edge_count) - 1
    if mode == "arc":
        bits = tuple((1 << 2 * e, 1 << (2 * e + 1)) for e in range(edge_count))
        return bits, (1 << (2 * edge_count)) - 1
    bits = tuple((0, 1 << e) if d else (1 << e, 0) for e, d in enumerate(directions))
    return bits, (1 << edge_count) - 1


class _MaskTracker:
    """Coverage bitmask plus a return-to-root condition."""

    def __init__(self, root: int, bits: tuple[tuple[int, int], ...], full: int):
        self.root = root
        self.bits = bits
        self.full = full
        self.mask = 0

    def start(self, v: int) -> bool:
        return self.mask == self.full and v == self.root

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        self.mask |= self.bits[e][d]
        return v == self.root and self.mask == self.full

    def result(self):
        return None


@dataclass(frozen=True)
class VertexCover:
    """Every vertex visited; optionally also return to root afterwards."""

    root: int
    with_return: bool = False

    def anchor(self) -> int | None:
        return self.root

    def label(self) -> str:
        return f"vcover(root={self.root};return={str(self.with_return).lower()})"

    def make_tracker(self, net: Network):
        return _VertexTracker(self.root, net.vertex_count, self.with_return)

    def make_lanes(self, net: Network):
        bits = [1 << head for head in _arc_heads(net).tolist()]
        full = (1 << net.vertex_count) - 1
        return _MaskLanes(bits, full, self.root if self.with_return else None, 1 << self.root)


class _VertexTracker:
    def __init__(self, root: int, n: int, with_return: bool):
        self.root = root
        self.full = (1 << n) - 1
        self.mask = 0
        self.with_return = with_return

    def start(self, v: int) -> bool:
        self.mask |= 1 << v
        if self.mask != self.full:
            return False
        return (not self.with_return) or v == self.root

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        self.mask |= 1 << v
        if self.mask != self.full:
            return False
        return (not self.with_return) or v == self.root

    def result(self):
        return None


# ---------------------------------------------------------------------------
# Lane tables.  A rule with a table form also has ``make_lanes(net)``, which
# builds its progress as tables over arcs, numbered ``2 * edge + direction``
# as in ``net.arcs()``.  The estimator (:mod:`walkcover.estimate`) walks on
# them in two ways.  Lanes expose:
#   walker(tables, start, label) -> walk(rng, budget, *resumed)
#       one trial at a time in a fused loop: (stop time, steps, commutes),
#       with commutes -1 for rules that do not count them, and the same
#       StepBudgetExceeded as ``run``, naming the full budget; on rank rows
#       (``_rank_rows``) of up to ``RANK_ENTRIES_MAX`` entries, and by
#       bisection above it.  From ``start`` without ``resumed``; with a
#       lane's ``resume`` tuple, on from that lane's step, with ``rng`` at
#       the lane's generator state.  Build it once per estimate and walk
#       every trial on it
#   lockstep                          (True where the lockstep walker serves)
#   begin(count)                      (start ``count`` lockstep lanes)
#   update(arc, head) -> bool array  (True where the lane stops on this step)
#   keep(mask)                        (drop the lanes where mask is False)
#   counts                            (commute counts per lane, or None)
#   resume(vertex, clock, steps)      (per lane, the ``resumed`` arguments
#                                      that go on from its vertex, progress,
#                                      clock and count after ``steps`` steps)
# The exact solver (:mod:`walkcover.exact`) reads them one state at a time:
#   initial                           (the progress before the first step)
#   stepper() -> step(progress, arc, head) -> (progress, stops)
#   rank(progress) -> int             (grows whenever progress changes, for
#                                      every rule the solver supports)
# The epoch sequences in :mod:`walkcover.tours` build :class:`_TableLanes`
# too, with the epoch index as the state.
# ---------------------------------------------------------------------------


def _arc_heads(net: Network) -> np.ndarray:
    """Each arc's head, in ``net.arcs()`` order (edge ``u -> v`` first)."""
    return np.array([head for e in net.edges for head in (e.v, e.u)], np.intp)


def _no_stop(step_budget: int, label: str) -> StepBudgetExceeded:
    return StepBudgetExceeded(f"no stop within {step_budget} steps for {label}")


def _refills(rand, budget: int, done: int = 0):
    """A trial's uniforms after its first ``done`` steps, in blocks of 64,
    256, 1024, 4096 and then 16384, each capped at the steps left in
    ``budget``: yields the steps taken by the end of each block and an
    iterator over its draws, as ``rand(n)`` gives them (the uniforms, or
    their ranks; see :func:`_ranks`)."""
    block = 64
    while done < budget:
        n = min(block, budget - done)
        done += n
        yield done, iter(rand(n).tolist())
        block = min(4 * block, 16384)


# Most entries for which the fused walkers run on rank rows; above it they
# bisect.  Rank rows hold an entry per row and rank, one row per vertex for
# every state, so they grow as states x vertices x breakpoints, where bisect
# rows grow with the arcs; the gate bounds that size.  Measured on a 2-CPU
# host (Xeon, Python 3.11, numpy 2.4) in one process, on the same trials,
# as the bisect walker's time per step over the rank-row walker's (best of
# 7 interleaved rounds of CPU time, the mean of two network seeds), with
# both build times, on random networks with lengths in 0.8-1.25:
#
#   rule               network   entries  steps/trial   build ms    ratio
#   edge cover         n=20,m=30     820          260   0.03  0.12   1.23
#   edge cover         n=40,m=76    4520          680   0.08  0.52   1.09
#   edge cover         n=60,m=120  10860         1220   0.12  1.17   1.06
#   edge cover         n=70,m=140  14770         1380   0.12  1.53   0.99
#   edge cover         n=85,m=170  21760         1620   0.17  2.27   0.91
#   edge cover         n=100,m=200 30100         2180   0.20  3.00   0.84
#   edge cover         n=200,m=400 120200        4920   0.42 11.56   0.78
#   commute, far pair  n=60,m=68    9240          360   0.12  0.61   1.00
#   commute, far pair  n=80,m=90   16160          570   0.16  0.99   0.98
#   commute, far pair  n=120,m=135 36240          590   0.25  2.13   0.92
#   directed epochs    n=12,m=16    8316          530   0.18  0.35   1.23
#   directed epochs    n=20,m=30   50020         1810   0.51  1.70   1.06
#   directed epochs    n=30,m=50  215130         4850   1.33  6.40   1.16
#
# Vertex cover with a return reads like edge cover up to 14770 entries
# (1.03-1.17), then 1.03, 0.85 and 0.81.  Covers and commutes stop gaining
# near 15000 entries.  Epochs, whose walks go through their states in turn,
# keep a gain per step past it, but build every state's copy.  Below the
# table's sizes, tree:4 edge cover (124 entries), tree:3 directed epochs
# (1740), a 15-hop path commute (480) and lollipop:14 vertex cover (252)
# gain 1.37-1.63.  A trial pays one searchsorted call per refill block,
# about a microsecond, so the shortest walks lose: in a pass of perfbench's
# short_trials, fused trials of under 16 steps took 3.81 us against 3.50 by
# bisection (905 trials, 0.3 ms of a 277 ms pass), and those of 16-63 steps
# 4.45 us against 5.05 (3725 trials).  Every workload of perfbench builds
# rows of at most 1740 entries.
RANK_ENTRIES_MAX = 2**14


def _slot_columns(tables):
    """The sampling rows' slots in one run of columns: per vertex its
    ``cum`` list (None without arcs) and the range ``[a, z)`` of its slots,
    then per slot its arc ``2 * edge + direction``, head and charge."""
    slots, arcs, heads, charges = [], [], [], []
    for row in tables:
        cum, meta = row or (None, ())
        slots.append((cum, len(arcs), len(arcs) + len(meta)))
        arcs += [2 * e + d for e, d, _, _ in meta]
        heads += [h for _, _, h, _ in meta]
        charges += [c for _, _, _, c in meta]
    return slots, arcs, heads, charges


def _rank_rows(tables, states: int = 1):
    """The breakpoints of the sampling rows and each vertex's slot per rank,
    or None when ``states`` copies of the rows would hold more than
    ``RANK_ENTRIES_MAX`` entries, one per vertex and rank.

    The breakpoints are the sorted distinct entries of every row's ``cum``
    but its last (1.0).  A uniform's rank is the count of breakpoints at or
    below it, so draws of one rank lie between two neighbouring
    breakpoints, and ``bisect_right`` makes the same comparisons, and finds
    the same slot, for all of them: that of the rank's lowest breakpoint,
    or slot 0 below every breakpoint.  Returns the breakpoints as an array
    and an int array of shape (vertices, ranks) of positions in
    :func:`_slot_columns`' slots (0 for a vertex without arcs, which no
    step reaches).
    """
    breaks = sorted({c for row in tables if row is not None for c in row[0][:-1]})
    if states * len(tables) * (len(breaks) + 1) > RANK_ENTRIES_MAX:
        return None
    at = np.zeros((len(tables), len(breaks) + 1), np.intp)
    a = 0
    for v, row in enumerate(tables):
        if row is not None:
            cum = row[0]
            at[v] = [a] + [a + bisect_right(cum, u) for u in breaks]
            a += len(cum)
    return np.array(breaks), at


def _link(walk, rows: list[list], entries: list, at: np.ndarray) -> None:
    """Fill rank rows in place: ``rows[i][r] = entries[at[i, r]]``, with
    ``at`` of shape (rows, ranks) or any shape that flattens to it.  Every
    rank a slot covers shares that slot's entry, so the rows add only
    references.  An entry holds the row it leads to, which is how a step
    finds the next one, so the rows form reference cycles.  They are
    emptied when ``walk`` is freed, so that they go at once rather than
    pile up for the cycle collector's full passes."""
    picked = np.fromiter(entries, object, len(entries))[at].reshape(len(rows), -1)
    for row, new in zip(rows, picked.tolist()):
        row[:] = new
    weakref.finalize(walk, _unlink, rows)


def _unlink(rows: list[list]) -> None:
    """Break the rank rows' reference cycles."""
    for row in rows:
        row.clear()


def _ranks(rng: np.random.Generator, breaks: np.ndarray):
    """``n -> ranks of n uniforms``: one ``searchsorted`` per refill block."""
    rand, search = rng.random, breaks.searchsorted
    return lambda n: search(rand(n), "right")


class _TableLanes:
    """Progress as a small state number, advanced by per-(state, arc) tables.

    ``back`` counts commutes: 1 where the step completes one.
    """

    lockstep = True
    initial = 0
    rank = staticmethod(int)  # the state number itself

    def __init__(self, nxt: np.ndarray, stop: np.ndarray, back: np.ndarray | None):
        self.arcs = nxt.shape[1]
        self.next = nxt.ravel()
        self.stop = stop.ravel()
        self.back = None if back is None else back.ravel()

    def begin(self, count: int) -> None:
        self.state = np.zeros(count, np.intp)
        self.counts = None if self.back is None else np.zeros(count, np.int64)

    def update(self, arc: np.ndarray, head: np.ndarray) -> np.ndarray:
        key = self.state * self.arcs + arc
        self.state = self.next[key]
        if self.back is not None:
            self.counts += self.back[key]
        return self.stop[key]

    def keep(self, mask: np.ndarray) -> None:
        self.state = self.state[mask]
        if self.counts is not None:
            self.counts = self.counts[mask]

    def resume(self, vertex: np.ndarray, clock: np.ndarray, steps: int):
        counts = repeat(0) if self.counts is None else self.counts.tolist()
        return zip(vertex.tolist(), self.state.tolist(), clock.tolist(), repeat(steps), counts)

    def stepper(self):
        nxt, stop, arcs = self.next.tolist(), self.stop.tolist(), self.arcs

        def step(state: int, arc: int, head: int) -> tuple[int, bool]:
            k = state * arcs + arc
            return nxt[k], stop[k]

        return step

    def walker(self, tables, start: int, label: str):
        """Fused walks on rows indexed by ``state * vertices + vertex``:
        ``walk(rng, budget)`` from ``start``, or ``walk(rng, budget, vertex,
        state, t, steps, commutes)`` on from a lockstep lane (``resume``).

        On rank rows (see :func:`_rank_rows`) a row holds, per rank, the
        step's charge, the row it leads to and a code: 0 to go on, 1 where
        the step completes a commute, and ``-1`` less its commute where it
        stops.  A step is then one index, one add and one test of the code.

        Otherwise a row holds the vertex's ``cum`` list, the charge of each
        slot and the row each slot leads to, and a step bisects ``cum``.  A
        step that completes a commute leads to that row less ``size``, the
        row count, which Python's negative indexing reads as the same row; a
        step that stops leads below ``-size``, to ``-size - 1`` less its
        commute.  So one sign test per step finds both.
        """
        n, states = len(tables), len(self.next) // self.arcs
        size = states * n
        nxt, stop = self.next.reshape(states, -1), self.stop.reshape(states, -1)
        back = np.zeros_like(nxt) if self.back is None else self.back.reshape(states, -1)
        slots, arcs, heads, charges = _slot_columns(tables)
        b = back[:, arcs]
        to = nxt[:, arcs] * n + heads
        ends = stop[:, arcs]
        counted = self.back is not None
        ranked = _rank_rows(tables, states)

        if ranked is not None:
            breaks, at = ranked
            rows = [[] for _ in range(size)]

            def walk(rng: np.random.Generator, budget: int, vertex: int = start, state: int = 0,
                     t: float = 0.0, steps: int = 0, commutes: int = 0) -> tuple[float, int, int]:
                row = rows[state * n + vertex]
                for end, ranks in _refills(_ranks(rng, breaks), budget, steps):
                    for r in ranks:
                        c, row, k = row[r]
                        t += c
                        if k:
                            if k < 0:
                                commutes -= 1 + k
                                return t, end - length_hint(ranks), commutes if counted else -1
                            commutes += 1
                raise _no_stop(budget, label)

            codes = np.where(ends, -1 - b, b).ravel().tolist()
            _link(walk, rows, [(c, rows[x], k) for c, x, k in
                               zip(charges * states, to.ravel().tolist(), codes)],
                  np.arange(0, to.size, len(arcs))[:, None, None] + at)
            return walk

        to -= size * b
        to[ends] = -size - 1 - b[ends]
        rows = [(cum, charges[a:z], row_to[a:z]) for row_to in to.tolist()
                for cum, a, z in slots]

        def walk(rng: np.random.Generator, budget: int, vertex: int = start, state: int = 0,
                 t: float = 0.0, steps: int = 0, commutes: int = 0) -> tuple[float, int, int]:
            cum, charges, row_to = rows[state * n + vertex]
            bisect = bisect_right
            for end, draws in _refills(rng.random, budget, steps):
                for u in draws:
                    k = bisect(cum, u)
                    t += charges[k]
                    x = row_to[k]
                    if x < 0:
                        if x < -size:
                            commutes -= size + 1 + x
                            return t, end - length_hint(draws), commutes if counted else -1
                        commutes += 1
                    cum, charges, row_to = rows[x]
            raise _no_stop(budget, label)

        return walk


class _MaskLanes:
    """A coverage mask per lane, plus a return to ``root`` unless it is None.

    ``bits[arc]`` is the bit that arc sets.  The masks are Python ints on the
    fused walker, so any width works there; the lockstep walker takes masks
    of at most 64 bits.
    """

    counts = None
    rank = staticmethod(int.bit_count)

    def __init__(self, bits: Sequence[int], full: int, root: int | None, initial: int):
        self.bits = list(bits)
        self.full = full
        self.root = root
        self.initial = initial
        self.lockstep = full.bit_length() <= 64

    def begin(self, count: int) -> None:
        self.lane_bits = np.array(self.bits, np.uint64)
        self.lane_full = np.uint64(self.full)
        self.mask = np.full(count, self.initial, np.uint64)

    def update(self, arc: np.ndarray, head: np.ndarray) -> np.ndarray:
        self.mask |= self.lane_bits[arc]
        done = self.mask == self.lane_full
        if self.root is not None:
            done &= head == self.root
        return done

    def keep(self, mask: np.ndarray) -> None:
        self.mask = self.mask[mask]

    def resume(self, vertex: np.ndarray, clock: np.ndarray, steps: int):
        return zip(vertex.tolist(), self.mask.tolist(), clock.tolist(), repeat(steps))

    def stepper(self):
        bits, full, root = self.bits, self.full, self.root

        def step(mask: int, arc: int, head: int) -> tuple[int, bool]:
            mask |= bits[arc]
            return mask, mask == full and (root is None or head == root)

        return step

    def walker(self, tables, start: int, label: str):
        """Fused walks on per-vertex rows: ``walk(rng, budget)`` from
        ``start``, or ``walk(rng, budget, vertex, mask, t, steps)`` on from a
        lockstep lane (``resume``).

        On rank rows (see :func:`_rank_rows`) a vertex's row holds, per
        rank, the step's charge, its bit, the row of the vertex it leads to
        and whether the walk may stop there (at the root, or anywhere
        without a return).  Otherwise a row holds the vertex's ``cum`` list,
        and per slot its charge, its bit and its head, then whether the walk
        may stop at the vertex, and a step bisects ``cum``.
        """
        full, initial, root = self.full, self.initial, self.root
        slots, arcs, heads, charges = _slot_columns(tables)
        arc_bits = [self.bits[arc] for arc in arcs]
        ranked = _rank_rows(tables)

        if ranked is not None:
            breaks, at = ranked
            rows = [[] for _ in tables]

            def walk(rng: np.random.Generator, budget: int, vertex: int = start,
                     mask: int = initial, t: float = 0.0,
                     steps: int = 0) -> tuple[float, int, int]:
                row = rows[vertex]
                for end, ranks in _refills(_ranks(rng, breaks), budget, steps):
                    for r in ranks:
                        c, b, row, home = row[r]
                        t += c
                        mask |= b
                        if home and mask == full:
                            return t, end - length_hint(ranks), -1
                raise _no_stop(budget, label)

            _link(walk, rows, [(c, bit, rows[h], root is None or h == root)
                               for c, bit, h in zip(charges, arc_bits, heads)], at)
            return walk

        rows = [
            (cum, charges[a:z], arc_bits[a:z], heads[a:z], root is None or v == root)
            for v, (cum, a, z) in enumerate(slots)
        ]

        def walk(rng: np.random.Generator, budget: int, vertex: int = start,
                 mask: int = initial, t: float = 0.0,
                 steps: int = 0) -> tuple[float, int, int]:
            cum, charges, arc_bits, heads, home = rows[vertex]
            bisect = bisect_right
            for end, draws in _refills(rng.random, budget, steps):
                for u in draws:
                    k = bisect(cum, u)
                    t += charges[k]
                    mask |= arc_bits[k]
                    cum, charges, arc_bits, heads, home = rows[heads[k]]
                    if home and mask == full:
                        return t, end - length_hint(draws), -1
            raise _no_stop(budget, label)

        return walk


def _cover_lanes(root: int, bits, full: int) -> _MaskLanes:
    return _MaskLanes([b for pair in bits for b in pair], full, root, 0)


# Any object with anchor()/label()/make_tracker(); the concrete rule set also
# includes the epoch sequences defined in walkcover.tours.
StoppingRule = (
    FirstPassage
    | Commute
    | RefinedCommute
    | EdgeCoverReturn
    | ArcCoverReturn
    | DirectedCoverReturn
    | VertexCover
)


# ---------------------------------------------------------------------------
# Sampling tables and the simulation loop
# ---------------------------------------------------------------------------


def build_tables(net: Network, model: TimingModel):
    """Per-vertex cumulative sampling rows: ``(cum, [(edge, dir, head, charge)])``.

    Every ``cum`` rises strictly from above 0 to exactly 1.0, so each arc
    owns a slot that some uniform in [0, 1) reaches, as every reader of the
    rows assumes; a network whose lengths break that raises
    :class:`UnsamplableArc`.  A model must be a :class:`TimingModel`.

    Build once per (network, model) and reuse across trials; construction is
    linear in the arc count but dwarfs a single trial if repeated per trial.
    """
    from .closedform import mean_predeparture_time

    if not isinstance(model, TimingModel):
        raise TypeError(f"timing model must be a TimingModel, got {model!r}")
    rows = []
    for v in range(net.vertex_count):
        adj = net.adjacency[v]
        if not adj:
            rows.append(None)
            continue
        c = net.conductances[v]
        if model is TimingModel.BROWNIAN_MEAN:
            pre = mean_predeparture_time(net, v)
        cum: list[float] = []
        meta: list[tuple[int, int, int, float]] = []
        acc = 0.0
        for eid, d, head in adj:
            length = net.edges[eid].length
            acc += (1.0 / length) / c
            if model is TimingModel.BROWNIAN_MEAN:
                charge = length * length / 3.0 + pre
            else:
                charge = length * length
            cum.append(acc)
            meta.append((eid, d, head, charge))
        cum[-1] = 1.0  # guard the last slot against rounding
        lost = [k for k, (lo, hi) in enumerate(zip([0.0, *cum], cum)) if not lo < hi]
        if lost:
            raise UnsamplableArc(f"edge {adj[lost[0]][0]} out of vertex {v}: its step "
                                 "probability is lost to rounding against the other lengths")
        rows.append((cum, meta))
    return rows


def step(
    net: Network,
    at: int,
    model: TimingModel,
    rng: np.random.Generator,
    tables=None,
) -> tuple[Arc, int, float]:
    """Sample a single step out of ``at``; deterministic given the rng state."""
    net.check_vertex(at)
    if tables is None:
        tables = build_tables(net, model)
    row = tables[at]
    if row is None:
        raise VertexOutOfRange(f"vertex {at} has no incident arcs")
    cum, meta = row
    k = bisect_right(cum, rng.random())
    e, d, head, charge = meta[k]
    return Arc(e, d), head, charge


def checked_tracker(net: Network, start: int, rule, step_budget: int = DEFAULT_STEP_BUDGET):
    """Check a trial's arguments as :func:`run` does; return a fresh tracker."""
    if step_budget < 1:
        raise ValueError(f"step budget must be at least 1, got {step_budget}")
    net.check_vertex(start)
    anchor = rule.anchor()
    if anchor is not None and anchor != start:
        raise ValueError(f"rule {rule.label()} is anchored at {anchor}, not {start}")
    return rule.make_tracker(net)


def run(
    net: Network,
    start: int,
    rule,
    model: TimingModel = TimingModel.L_SQUARED,
    rng: np.random.Generator | None = None,
    *,
    step_budget: int = DEFAULT_STEP_BUDGET,
    tables=None,
    record: bool = False,
) -> WalkOutcome:
    """Simulate one trial from ``start`` until ``rule`` fires.

    Raises :class:`StepBudgetExceeded` beyond ``step_budget`` jump steps, and
    ``ValueError`` for a budget below 1; the budget exists to surface
    misconfigured rules, never to truncate silently.
    With ``record=True`` the full event trajectory is kept on the outcome.
    """
    tracker = checked_tracker(net, start, rule, step_budget)
    if rng is None:
        rng = np.random.default_rng()
    if tables is None:
        tables = build_tables(net, model)

    if tracker.start(start):
        return WalkOutcome(0.0, 0, tracker.result(), () if record else None)

    row = tables[start]
    if row is None:
        raise VertexOutOfRange(f"vertex {start} has no incident arcs")
    cum, meta = row
    update = tracker.update
    events: list[WalkEvent] = []
    if record:
        update = _recording(update, events)
    bisect = bisect_right
    t = 0.0
    for end, draws in _refills(rng.random, step_budget):
        for u in draws:
            e, d, head, charge = meta[bisect(cum, u)]
            t += charge
            if update(e, d, head, t):
                steps = end - length_hint(draws)  # less the block's unread draws
                return WalkOutcome(t, steps, tracker.result(), tuple(events) if record else None)
            cum, meta = tables[head]
    raise _no_stop(step_budget, rule.label())


def _recording(update, events: list[WalkEvent]):
    """Wrap a tracker's ``update`` so that every step also appends its event."""

    def recorded(e: int, d: int, v: int, t: float) -> bool:
        events.append(WalkEvent(len(events), Arc(e, d), v, t))
        return update(e, d, v, t)

    return recorded


def commute_trips(
    outcomes: Iterable[WalkOutcome], a_edges: frozenset[int] | Sequence[int]
) -> list[tuple[bool, bool]]:
    """Per-commute (forward through A, backward through A) flags.

    Works on outcomes of :class:`Commute` and :class:`RefinedCommute` runs,
    whose auxiliary payload records each commute's arriving arcs.
    """
    a = frozenset(a_edges)
    flags: list[tuple[bool, bool]] = []
    for out in outcomes:
        aux = out.auxiliary or {}
        for fwd, bwd in aux.get("commutes", []):
            flags.append((fwd[0] in a, bwd[0] in a))
    return flags

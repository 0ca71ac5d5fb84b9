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
epoch sequences do.  The four mask rules (edge, arc and directed
cover-and-return, and vertex cover) share one body: one spec, ``(bits,
full, root or None, initial)`` with :func:`coverage_bits`' one bit per arc,
builds both their tracker and their lanes, so each rule class holds only
its fields, its label and its mode.  The two commute rules share one body
the same way: one spec, ``(x, y, A's edges, stop test)``, builds both
their tracker and their lanes.  A plain commute has no side A and stops at
its first commute, and the lanes hold only the states the walk reaches.

The loop in :func:`run` draws its uniforms in blocks of 64, 128, 256, 512
and then 1024 (``REFILL_FIRST`` doubling up to ``REFILL_MAX``), each capped
at the steps left in the budget, so the budget is checked once per block and
a walk draws fewer than ``REFILL_MAX`` uniforms it does not walk.

A rule with a table form also has ``make_lanes``, which builds its progress
as read-only tables over (state, arc) or as coverage bits (see the section
below): commute, refined commute, first passage, cover-and-return, vertex
cover and the epoch sequences of :mod:`walkcover.tours`.  The lanes are the
one definition of a rule's meaning that the estimator and the exact solver
(:mod:`walkcover.exact`) read.  :func:`run` with its trackers is the
reference that the tests hold every walker to, and the only walker for
recorded trajectories, auxiliary payloads (epoch times, commute arcs) and
rules without a table form.  The estimator walks its trials on the lanes
alone, in two ways that the tests hold to :func:`run` trial by trial.  A
trial walked on its own runs a fused loop over rows that fold the rule's
state into the vertex, with no per-step method call.  A row's entries hold
the step's charge, the row it leads to and what the step does to the rule.
While the rows hold at most ``RANK_ENTRIES_MAX`` entries, a row has an
entry per rank of a draw among the sampling rows' breakpoints, so a step
bisects nothing.  The ranks are found a refill block at a time: a trial's
first block by one ``searchsorted``, and every later block by a lookup
(:func:`_grid`) on a one-row grid over the breakpoints, built directly
from them once per estimate (:func:`_breaks_grid`).  The two cross
between blocks of 128 and 256 draws (the table is beside
``REFILL_MAX``).  Above the gate, a slot row has the vertex's
``cum`` list and the same entries, one per slot, and a step bisects
``cum``.

A block of at least ``estimate.LOCKSTEP_MIN_LANES`` trials walks in
lockstep, one draw group of steps over all its trials at a time, while its
masks fit in 64 bits, on uniforms it draws in groups by PCG64 jump-ahead.
It walks a group as a chase and a settle (:class:`_Steps`): the chase
takes the group's steps in turn and moves only what the next step looks
up, and the settle reads every step's charge, stop and commute, or
coverage bit, from the chase's keys at once, as running values down the
group's rows.  One builder, the lanes' ``walkers``, gives an estimate both
walkers, ``(walk, moves)``: the fused walk, and ``moves()``, the lockstep
walker's moves on either side of the rank gate.  Each lane kind gives it
only its entries' columns, its two fused loops and its settle fold.  On
rank rows the moves read the fused walker's layout, as flat arrays of the
same entries with one entry per row and rank.  The lockstep walker ranks
each draw group once, on the same one-row grid, and a step of the chase
is a key, ``position + rank``, and the next position at that key; a table
rule's state is folded into the row, as in the fused loop.  Above the
gate, a step of the chase finds every trial's slot with one lookup on a
per-vertex grid of its draw, at any row width, and moves the trial's
progress through the lanes' ``lockstep`` step, one pure, vectorised
update over per-slot tables, which the exact solver steps through too.
Either way the lockstep walker keeps every trial's progress and commute
count itself, and records the trials that stopped at each group's end.
At a group's end it hands its last ``estimate.LOCKSTEP_MIN_LIVE`` or fewer live trials to
the fused loop, which goes on from each trial's vertex, progress, clock,
step count and generator state, so no step is walked twice; each such tail
first reads a block of its next ``estimate.TAIL_BLOCK`` draws that the
lockstep walker drew and ranked in numpy, and sets its generator only if
it walks past them.  Every step draws exactly one uniform, so a trial's
k-th draw is its k-th step in all three walkers.  The gate's value and the
measured tables behind it, the draw groups, the hand-off and the tails'
block are in :mod:`walkcover.estimate`; the grid and its bound,
``GRID_ENTRIES_MAX``, are here.  The walkers and the exact solver read the
sampling rows through one layout, :func:`_slot_columns`.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache, partial
from operator import length_hint
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ChargeOverflow, StepBudgetExceeded, UnsamplableArc, VertexOutOfRange
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


# A commute's stop test by kind, read once per completed commute: whether
# the trip out and the trip back went through A, then whether some trip out
# and some trip back have, counting this commute.  A plain commute stops at
# the first.
_COMMUTE_STOPS = {
    "commute": lambda f, b, seen_f, seen_b: True,
    "either": lambda f, b, seen_f, seen_b: f or b,
    "forward": lambda f, b, seen_f, seen_b: f,
    "backward": lambda f, b, seen_f, seen_b: b,
    "both": lambda f, b, seen_f, seen_b: seen_f and seen_b,
}


class _CommuteRule:
    """The commute rules' one body: trips out from x to y and back, through
    side A or not, until the kind's stop test in ``_COMMUTE_STOPS`` holds.

    :meth:`_spec` gives ``(x, y, A's edges, stop test)``, from which both
    the reference tracker and the lanes are built; the lanes gather
    :func:`_commute_table`'s rows over the arcs by each arc's class.
    """

    def make_tracker(self, net: Network):
        return _CommuteTracker(*self._spec(net))

    def make_lanes(self, net: Network):
        # An arc's class is 1 into y, 2 into x, plus 4 in A, and 0 for any
        # other arc; arc 2 * e + 1 - d of an edge at v runs into v, against
        # arc 2 * e + d out of v.
        x, y, a_edges, stops = self._spec(net)
        cls, present = [0] * (2 * len(net.edges)), set()
        for c, v in (1, y), (2, x):
            for e, d, _ in net.adjacency[v]:
                cls[2 * e + 1 - d] = k = c | 4 * (e in a_edges)
                present.add(k)
        nxt, stop, back = _commute_table(stops, tuple(sorted(present))).take(cls, axis=2)
        return _TableLanes(nxt, stop == 1, back)


@dataclass(frozen=True)
class Commute(_CommuteRule):
    """Go from x to y and back to x; one elementary commute."""

    x: int
    y: int

    def anchor(self) -> int | None:
        return self.x

    def label(self) -> str:
        return f"commute(x={self.x};y={self.y})"

    def _spec(self, net: Network):
        if self.x == self.y:
            raise VertexOutOfRange("commute endpoints must differ")
        net.check_vertex(self.y)
        return self.x, self.y, frozenset(), _COMMUTE_STOPS["commute"]


@dataclass(frozen=True)
class RefinedCommute(_CommuteRule):
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

    def _spec(self, net: Network):
        if self.kind not in REFINED_KINDS:
            raise ValueError(f"unknown refined-commute kind {self.kind!r}")
        if self.spec.network != net:
            raise ValueError("split spec belongs to a different network")
        return self.spec.x, self.spec.y, self.spec.a_edges, _COMMUTE_STOPS[self.kind]


class _CommuteTracker:
    """Trips out to ``y`` and back to ``x``, each commute's arriving arcs
    recorded, until ``stops`` holds at a commute's end."""

    def __init__(self, x: int, y: int, a_edges: frozenset[int], stops):
        self.x, self.y, self.a, self.stops = x, y, a_edges, stops
        self.outbound = True
        self.fwd = None
        self.commutes: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self.seen_f = self.seen_b = False

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
        f, b = fwd[0] in self.a, e in self.a
        self.seen_f, self.seen_b = self.seen_f or f, self.seen_b or b
        self.outbound = True
        return self.stops(f, b, self.seen_f, self.seen_b)

    def result(self):
        return {"commutes": self.commutes, "commute_count": len(self.commutes)}


@lru_cache(maxsize=None)
def _commute_table(stops, present: tuple[int, ...]) -> np.ndarray:
    """A commute's moves per state and arc class, for a network whose arcs
    into y or x have the classes ``present``: an array of shape (3, states,
    8) of the number of the state a step reaches, 1 where it stops and 1
    where it completes a commute.

    A state is a set of bits: 1 on the trip back to x, 2 the trip out went
    through A, and 4 and 8 some trip out and some trip back went through A.
    On the way out a step into y turns back, on the way back a step into x
    completes a commute, and every other step stays put, as does a stopping
    one.  The states are those that steps which do not stop reach from
    state 0, numbered in the order a breadth-first search reaches them.
    The moves depend only on ``stops`` and ``present``, so they are found
    once for each.
    """
    order, rows = [0], ([], [], [])
    for i, s in enumerate(order):
        nxt, stop, back = [i] * 8, [0] * 8, [0] * 8
        for c in present:
            if not s & 1 and c & 1:
                t = s | 1 | c >> 1 & 2
            elif s & 1 and c & 2:
                f, b = bool(s & 2), bool(c & 4)
                seen_f, seen_b = f or bool(s & 4), b or bool(s & 8)
                back[c] = 1
                if stops(f, b, seen_f, seen_b):
                    stop[c] = 1
                    continue
                t = 4 * seen_f | 8 * seen_b
            else:
                continue
            if t not in order:
                order.append(t)
            nxt[c] = order.index(t)
        for column, part in zip(rows, (nxt, stop, back)):
            column += part
    table = np.array(rows).reshape(3, -1, 8)
    table.flags.writeable = False
    return table


class _MaskRule:
    """The cover rules' one body: a coverage mask over arcs, from
    :func:`coverage_bits` in the rule's ``mode``, and a return to ``root``.

    :meth:`_spec` gives ``(bits, full, root or None, initial)``, from which
    both the reference tracker and the lanes are built.
    """

    def anchor(self) -> int | None:
        return self.root

    def label(self) -> str:
        return f"cover({self.mode};root={self.root})"

    def _spec(self, net: Network):
        return *coverage_bits(net, self.mode), self.root, 0

    def make_tracker(self, net: Network):
        return _MaskTracker(*self._spec(net))

    def make_lanes(self, net: Network):
        return _MaskLanes(*self._spec(net))


@dataclass(frozen=True)
class EdgeCoverReturn(_MaskRule):
    """Every edge traversed at least once (either way) and the walk back at root."""

    root: int
    mode = "edge"


@dataclass(frozen=True)
class ArcCoverReturn(_MaskRule):
    """Every edge traversed in both directions and the walk back at root."""

    root: int
    mode = "arc"


@dataclass(frozen=True)
class DirectedCoverReturn(_MaskRule):
    """Every edge traversed in its pre-assigned direction and the walk back at root."""

    root: int
    orientation: Orientation
    mode = "directed"

    def _spec(self, net: Network):
        return *coverage_bits(net, self.mode, self.orientation), self.root, 0


@dataclass(frozen=True)
class VertexCover(_MaskRule):
    """Every vertex visited; optionally also return to root afterwards."""

    root: int
    with_return: bool = False
    mode = "vertex"

    def label(self) -> str:
        return f"vcover(root={self.root};return={str(self.with_return).lower()})"

    def _spec(self, net: Network):
        bits, full = coverage_bits(net, self.mode)
        return bits, full, self.root if self.with_return else None, 1 << self.root


def coverage_bits(
    net: Network, mode: str, orientation: Orientation | None = None
) -> tuple[list[int], int]:
    """The coverage bit of each arc, numbered ``2 * edge + direction``, and
    the full mask.

    ``edge`` gives both arcs of edge ``e`` bit ``e``, ``arc`` gives arc
    ``a`` bit ``a``, ``directed`` gives bit ``e`` to the arc of edge ``e``
    in direction ``orientation.directions[e]`` and 0 to the other, and
    ``vertex`` gives each arc the bit of its head.  A tracker ORs its step's
    bit into its mask, without branching on the mode.
    """
    m = len(net.edges)
    if mode == "vertex":
        return [1 << head for e in net.edges for head in (e.v, e.u)], (1 << net.vertex_count) - 1
    if mode == "arc":
        return [1 << a for a in range(2 * m)], (1 << 2 * m) - 1
    if mode == "edge":
        return [1 << (a >> 1) for a in range(2 * m)], (1 << m) - 1
    if len(orientation.directions) != m:
        raise ValueError("orientation does not match the network's edge count")
    pairs = ((0, 1 << e) if d else (1 << e, 0) for e, d in enumerate(orientation.directions))
    return [b for pair in pairs for b in pair], (1 << m) - 1


class _MaskTracker:
    """A coverage mask, from ``initial``, that ORs in each step's arc bit,
    and stops once it is full, at ``root`` unless that is None."""

    def __init__(self, bits: list[int], full: int, root: int | None, initial: int):
        self.bits = bits
        self.full = full
        self.root = root
        self.mask = initial

    def start(self, v: int) -> bool:
        return self.mask == self.full and (self.root is None or v == self.root)

    def update(self, e: int, d: int, v: int, t: float) -> bool:
        self.mask |= self.bits[2 * e + d]
        return self.mask == self.full and (self.root is None or v == self.root)

    def result(self):
        return None


# ---------------------------------------------------------------------------
# Lane tables.  A rule with a table form also has ``make_lanes(net)``, which
# builds its progress as tables over arcs, numbered ``2 * edge + direction``
# as in ``net.arcs()``.  Lanes are read-only once built, so a rule may hand
# out one object for every estimate (the epoch sequences do); the walkers
# and the exact solver keep all per-trial state themselves.  The estimator
# (:mod:`walkcover.estimate`) walks on them in two ways, and the exact solver
# (:mod:`walkcover.exact`) steps a breadth-first level of states at a time
# through the vectorised step the lockstep walker takes above the rank gate.
# Lanes expose:
#   walkers(tables, start, label) -> (walk, moves)
#       ``walk(rng, budget, *resumed)`` walks one trial at a time in a fused
#       loop: (stop time, steps, commutes), with commutes -1 for rules that
#       do not count them, and the same StepBudgetExceeded as ``run``,
#       naming the full budget.  From ``start`` without ``resumed``; with
#       ``resumed = (vertex, progress, clock, steps, commutes, ahead)``, on
#       from that step, reading the draws ``ahead`` first and then ``rng``
#       (rules that count no commutes ignore the commutes).  ``moves()``
#       builds the lockstep walker's moves (a :class:`_Steps`) at its first
#       call: on the same rank rows below ``RANK_ENTRIES_MAX``, and on the
#       per-vertex grid above it; ``moves`` is None where ``dtype`` is.
#       Build them once per estimate and walk every trial on them.  Both
#       kinds take it from :class:`_Lanes`, the one builder, and give it
#       three pieces: their entries' columns (the row each (state, slot)
#       leads to, and a code, or a bit and a home flag), their fused loops
#       on slot rows and on rank rows, and their settle fold and ``where``
#       on rank rows
#   lockstep(arcs, heads) -> (step, resumed)
#       the one vectorised step, over slots with these arcs and heads (int
#       arrays, one entry per slot): ``step(progress, slot) -> (progress,
#       stop, back)`` over arrays of lanes, which broadcast together, from
#       ``initial``: the new progress, True where the lane stops, and 1
#       where it completes a commute, or None for rules that count none.
#       ``resumed(progress)`` gives the progress values the fused walker
#       resumes from, as a list.  Built once per estimate or solve; it
#       holds its own per-slot tables
#   dtype                             (numpy type of the step's progress, or
#                                      None for object arrays, as masks wider
#                                      than 64 bits need; the lockstep walker
#                                      takes only a numpy type, so ``walkers``
#                                      gives no moves for None)
#   initial                           (the progress before the first step)
#   rank(progress) -> int             (of the step's progress: grows whenever
#                                      progress changes, for every rule the
#                                      exact solver supports)
# The epoch sequences in :mod:`walkcover.tours` build :class:`_TableLanes`
# too, with the epoch index as the state.
# ---------------------------------------------------------------------------


def _arc_heads(net: Network) -> np.ndarray:
    """Each arc's head, in ``net.arcs()`` order (edge ``u -> v`` first)."""
    return np.array([head for e in net.edges for head in (e.v, e.u)], np.intp)


def _no_stop(step_budget: int, label: str) -> StepBudgetExceeded:
    return StepBudgetExceeded(f"no stop within {step_budget} steps for {label}")


# The first refill block and the largest.  A walk that stops in a block
# leaves the rest of it unread, so it draws fewer than ``REFILL_MAX``
# uniforms it does not walk, and a walk of at most 64 steps draws at most
# 64.  A draw's value does not depend on the blocks: PCG64's ``random(a)``
# then ``random(b)`` gives the doubles of ``random(a + b)``, and a walk's
# steps are the draws it read, so the schedule changes no result.  Each
# unread uniform still costs its draw (about 2.6 ns) and, on rank rows, its
# rank: in a trial's first block one ``searchsorted`` and a ``tolist``, and
# in every later block a lookup on the one-row grid of :func:`_rankers`.
# Each block costs its calls, a few microseconds.  Ranking one block, in
# microseconds, by ``searchsorted`` and ``tolist`` / on the grid, draws
# excluded (the lower of two runs of best of 15 rounds of 200 blocks, wall
# time, in one process), on the networks of ``tools/draw_costs.py``:
#
#   network (breakpoints)      64       128       256       512      1024
#   tree:4 (3)            1.4/2.8   2.5/3.0   4.6/3.4   8.9/4.3  18.1/5.8
#   tree:3 (3)            1.5/3.0   2.7/3.2   5.0/3.7   9.4/4.5  17.6/5.8
#   15-hop path (1)       1.3/2.9   2.3/3.1   4.1/3.4   7.3/4.2  14.2/5.5
#   lollipop:14 (17)      2.5/2.8   4.6/3.0   8.7/3.4  16.9/4.3  32.7/5.4
#
# The two cross between 128 and 256 draws, and a block of 1024 ranks for
# 14-33 ns a uniform by ``searchsorted`` against 5.4-5.8 ns on the grid.
# So a trial's first block of 64, which every walk of at most 64 steps
# reads, keeps its ``searchsorted`` (a lockstep tail's first block starts
# with its numpy-drawn ``estimate.TAIL_BLOCK`` draws, ranked on the grid
# with the lockstep's), and the blocks after it, of 128 draws and up, rank
# on the grid.
#
# The cap was measured on a 2-CPU host (Xeon, Python 3.11, numpy 2.4) in
# one process, on every check of one seed-1 pass of perfbench's
# ``long_walks``, by rule kind (checks x trials), for blocks that grow 4x up
# to 16384 (the earlier schedule) or double up to each cap.  First the
# uniforms drawn over the steps walked:
#
#   rule kind (checks x trials)          steps  4x:16384  2x:4096  2048  1024   512   256
#   edge cover, tree:4 (14 x 24)         1.90M      2.26     1.31  1.18  1.09  1.04  1.02
#   arc cover, tree:4 (14 x 24)          1.81M      2.14     1.32  1.19  1.10  1.05  1.03
#   directed cover, tree:4 (12 x 24)     1.61M      2.06     1.31  1.18  1.09  1.05  1.02
#   vertex cover, lollipop (16 x 6)      37.5k      2.31     1.45  1.45  1.42  1.38  1.28
#   directed epochs, tree:3 (24 x 100)   2.41M      2.21     1.47  1.47  1.40  1.24  1.13
#   path commute, 12-18 hops (24 x 100)  1.10M      2.16     1.50  1.50  1.50  1.43  1.27
#   all of long_walks                    8.88M      2.17     1.38  1.30  1.23  1.15  1.08
#
# With every block ranked by ``searchsorted``, 1024 read best in total: the
# whole pass took 0.80 of the 4x:16384 schedule's CPU time, against 0.86
# for 2x:4096, 0.90 for 2048 and 256 and 0.91 for 512 (median of 11
# interleaved rounds).  With the blocks past the first on the grid, each
# kind's CPU time over that of the same pass with every block ranked by
# ``searchsorted`` at a cap of 1024 (the sum of per-check minima over 5
# rounds in one process, 8 rounds of fresh processes alternating the four
# in turn; median and quartiles of the 8):
#
#   rule kind                     512                  1024                 2048
#   edge cover, tree:4        0.902 (0.889-0.917)  0.849 (0.844-0.860)  0.843 (0.839-0.851)
#   arc cover, tree:4         0.915 (0.901-0.926)  0.867 (0.857-0.880)  0.861 (0.849-0.867)
#   directed cover, tree:4    0.906 (0.886-0.914)  0.851 (0.841-0.866)  0.847 (0.839-0.854)
#   vertex cover, lollipop    1.005 (0.978-1.019)  1.001 (0.992-1.023)  1.016 (1.001-1.048)
#   directed epochs, tree:3   0.869 (0.859-0.883)  0.866 (0.862-0.875)  0.886 (0.871-0.897)
#   path commute, 12-18 hops  0.907 (0.895-0.916)  0.912 (0.906-0.917)  0.921 (0.910-0.931)
#   all of long_walks         0.897 (0.887-0.911)  0.870 (0.862-0.879)  0.875 (0.862-0.878)
#
# Unread uniforms now cost less, which favours larger caps, but 2048 ties
# 1024 within the rounds' spread and 512 still reads worst, so
# ``REFILL_MAX`` stays 1024.  Short walks keep their one block of 64, and
# lockstep tails the 32 draws their block adds to the numpy-drawn ones.
REFILL_FIRST = 64
REFILL_MAX = 1024


def _refills(rand, budget: int, done: int = 0, first=np.ndarray.tolist, later=np.ndarray.tolist,
             *, ahead=()):
    """A trial's uniforms after its first ``done`` steps, in blocks of
    ``REFILL_FIRST``, then twice the last up to ``REFILL_MAX`` (64, 128,
    256, 512, then 1024 a block), each capped at the steps left in
    ``budget``: yields the steps taken by the end of each block and an
    iterator over ``first(rand(n))`` for the first block and
    ``later(rand(n))`` for the rest: the uniforms as a list, or their ranks
    (see :func:`_rankers`).

    ``ahead`` is the head of the first block, drawn already and read as it
    is (a lockstep tail's numpy-drawn block, within the budget): it comes
    first, and the first block draws only the rest of its 64."""
    end, block, pick = done, REFILL_FIRST, first
    if ahead:
        done += len(ahead)
        yield done, iter(ahead)
    while done < budget:
        end = min(end + block, budget)
        block = min(2 * block, REFILL_MAX)
        if end > done:
            yield end, iter(pick(rand(end - done)))
            done, pick = end, later


# Most entries for which the fused walkers run on rank rows; above it they
# run on slot rows.  Rank rows hold an entry per row and rank, one row per
# vertex for every state, so they grow as states x vertices x breakpoints,
# where slot rows grow with the arcs; the gate bounds that size.  Measured
# on a 2-CPU host (Xeon, Python 3.11, numpy 2.4) in one process, on the same
# trials, as the slot-row walker's time per step over the rank-row walker's
# (best of 7 interleaved rounds of CPU time, the mean of two network seeds;
# the range where more runs were made), with both build times, on random
# networks with lengths in 0.8-1.25:
#
#   rule               network      entries  steps   build ms   ratio
#                                                   rank  slot
#   edge cover /       n=20,m=30        820    300  0.21  0.08  1.07 / 1.03
#   vertex cover with  n=25,m=40       1400    390  0.23  0.06  1.06 / 1.04
#   a return (steps    n=30,m=50       2130    530  0.53  0.11  0.93 / 1.03
#   and builds of      n=35,m=60       3010    610  0.84  0.18  1.06 / 1.07
#   edge cover)        n=40,m=76       4520    630  0.67  0.11  0.93-0.96 / 0.90-0.99
#                      n=45,m=88       5940    770  1.41  0.30  0.98 / 0.88
#                      n=50,m=100      7550    920  1.40  0.15  0.82 / 1.00
#                      n=55,m=110      9130   1020  1.68  0.22  1.02 / 0.99
#                      n=60,m=120     10860   1220  1.85  0.25  0.91-0.92 / 1.02-1.03
#                      n=65,m=130     12740   1340  2.72  0.37  0.90 / 1.00
#                      n=70,m=140     14770   1380  2.49  0.18  0.89-0.93 / 0.91-0.92
#                      n=85,m=170     21760   1800  2.69  0.20  0.83 / 0.96
#                      n=200,m=400   120200   5160 15.29  0.49  0.60 / 0.72
#   commute, far pair  n=30,m=34       2340    390  0.46  0.17  1.15
#                      n=40,m=45       4080    510  0.75  0.28  1.09
#                      n=50,m=56       6300    580  0.56  0.18  1.08
#                      n=55,m=62       7700    860  0.76  0.17  1.08
#                      n=60,m=68       9240    960  0.81  0.19  0.94-0.96
#                      n=70,m=79      12460    840  1.38  0.28  0.94
#                      n=80,m=90      16160   1030  1.44  0.24  0.92-0.93
#                      n=120,m=135    36240   2390  2.91  0.35  0.85
#   directed epochs    n=8,m=10        2184    200  0.17  0.13  1.26
#                      n=10,m=12       3750    290  0.57  0.33  1.24
#                      n=10,m=14       5510    390  0.73  0.47  1.18
#                      n=12,m=16       8316    520  0.50  0.46  1.08-1.19
#                      n=13,m=18      11544    670  0.76  0.43  1.21
#                      n=14,m=20      15498    810  1.08  0.47  1.12-1.28
#                      n=16,m=24      25872   1170  1.01  0.57  1.23
#                      n=20,m=30      50020   1850  1.77  0.95  1.01
#                      n=30,m=50     215130   5040  9.02  2.48  1.01
#
# Below the table's sizes, tree:4 edge cover (124 entries), tree:3 arc
# cover (60), tree:3 directed epochs (1740), a 15-hop path commute (480)
# and lollipop:14 vertex cover (252) read 1.20-1.53.  Covers and commutes
# cross near 8000-9000 entries, and their rank rows build 5-10x slower
# there, so the gate sits at 2**13.  Epochs walk through their states in
# turn, so a step reads one state's copy of the rows: rank rows keep them
# 8-28% faster per step up to about 26000 entries, and the two tie from
# 50000, so epochs of 2**13 to 26000 entries pay that on slot rows.  A
# trial on rank rows pays one searchsorted call for its first refill block,
# 1.3-2.5 us at 64 draws, which is all a walk of up to 64 steps pays, so
# walks of under about 16 steps lose a few tenths of a microsecond there.
# Each later block is ranked on a one-row grid instead, 3-6 us a block
# (four more up to 1984 steps and one more per 1024 steps beyond; the
# table is beside ``REFILL_MAX``).  Every workload of perfbench builds rows
# of at most 1740 entries.  The gate also sets how a lockstep block steps:
# on flat arrays of the rank rows' entries below it, and on the per-vertex
# grid above.  The table times the fused walkers only; the lockstep side of
# the gate has not been timed.
RANK_ENTRIES_MAX = 2**13


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


def _fused_rows(tables, slots, states: int = 1):
    """Empty rows for a fused walker, one per state and vertex in the order
    ``state * vertices + vertex``: ``(breaks, rows, fill)``.

    Up to ``RANK_ENTRIES_MAX`` entries, ``breaks`` is the breakpoints of
    :func:`_rank_rows` and a row is a list of one entry per rank.  Above
    it, ``breaks`` is None and a row is a slot row ``(cum, entries)``: the
    vertex's ``cum`` list and one entry per slot, and a step bisects
    ``cum``.  Either way the entries come from one list, numbered ``state *
    slots + slot`` over ``slots`` (:func:`_slot_columns`), and each holds
    the row it leads to, so the walker makes them once the rows exist.
    ``fill`` is what :func:`_link` fills the rows from: their lists, the
    numbers of the entries those hold, in row order, and where each row's
    numbers begin.
    """
    size = slots[-1][2]
    offsets = range(0, states * size, size)
    ranked = _rank_rows(tables, states)
    if ranked is None:
        rows = [(cum, []) for _ in offsets for cum, _, _ in slots]
        firsts = [o + a for o in offsets for _, a, _ in slots]
        return None, rows, ([row for _, row in rows], np.arange(states * size), firsts)
    breaks, at = ranked
    rows = [[] for _ in range(states * len(slots))]
    at = np.array(offsets)[:, None, None] + at
    return breaks, rows, (rows, at.ravel(), range(0, at.size, at.shape[-1]))


def _link(walk, fill, entries: list) -> None:
    """Fill the rows of :func:`_fused_rows` in place from ``entries``.
    Every rank a slot covers shares that slot's entry, so rank rows add
    only references.  An entry holds the row it leads to, which is how a
    step finds the next one, so the rows form reference cycles.  They are
    emptied when ``walk`` is freed, so that they go at once rather than
    pile up for the cycle collector's full passes."""
    lists, at, firsts = fill
    picked = np.fromiter(entries, object, len(entries))[at].tolist()
    for row, a, z in zip(lists, firsts, [*firsts[1:], len(picked)]):
        row[:] = picked[a:z]
    weakref.finalize(walk, _unlink, lists)


def _unlink(rows: list[list]) -> None:
    """Break the fused rows' reference cycles."""
    for row in rows:
        row.clear()


# Most entries of a grid (:func:`_grid`: vertices x 2**g), the lockstep
# walker's and the fused walkers' one-row grid alike.  A finer grid means
# fewer thresholds a bin, so fewer numpy passes a step, but a larger table
# to build and to read at random.  Measured as lockstep block time in ms,
# grid build included, by the bound (best of 3 interleaved rounds of CPU
# time), with g and the thresholds a bin, k:
#
#   bound                          2^14          2^16          2^18          2^20
#   commute, star:200, 400      59.6 g6 k4    30.2 g8 k1    47.4 g8 k1    29.4 g8 k1
#   commute, star:800, 400     897.4 g4 k51  328.3 g6 k13  189.5 g8 k4   176.6 g10 k1
#   commute, star:800, 2000   2793.4 g4 k51 1137.2 g6 k13  639.2 g8 k4   512.3 g10 k1
#   first passage, 400          90.7 g8 k6    76.2 g10 k4   85.3 g12 k4   93.5 g14 k3
#   first passage, 2000        278.6 g8 k6   309.2 g10 k4  368.5 g12 k4  383.0 g14 k3
#
# The first passage is to the last vertex of a random 40-vertex network
# with 120 edges of lengths 10**U(-6, 0), whose breakpoints no bound parts.
# Commutes on star:80 and random:60,400 and an edge cover on star:56 need
# at most 2^14 entries and read the same at every bound.  Finer grids win
# on the widest hubs but lose on rows that no grid parts, whose larger
# tables are read at random, so the bound sits at 2^16, 0.5 MB a column.
GRID_ENTRIES_MAX = 2**16


def _grid(slots) -> tuple[int, np.ndarray, np.ndarray]:
    """A grid of ``2**g`` bins over [0, 1) per vertex, from
    :func:`_slot_columns`' ``slots``: ``(g, lo, thr)``, indexed by
    ``(vertex << g) + bin``.

    ``lo`` is the vertex's first slot plus the count of its ``cum`` entries
    below the bin, and the ``k`` rows of ``thr`` hold the entries inside it,
    padded with 2.0, above every uniform.  A uniform ``u`` in bin ``(u *
    2**g)`` has every entry below the bin at or below it and every entry
    above the bin over it, so its slot is ``lo`` plus the count of ``thr``
    entries ``<= u``: the slot ``bisect_right`` finds in a rising row.  Both
    products are exact, as ``2**g`` is a power of two.  ``g`` is the
    smallest at which no bin holds two entries of one row, so ``k`` is at
    most 1, unless the grid would pass ``GRID_ENTRIES_MAX`` entries; then it
    is the largest within that, and ``k`` the most entries a bin holds.
    The last entry of each ``cum`` (1.0) is left out, as no uniform reaches
    it.  The grid is :func:`_binned`'s over every row's entries, with each
    row's ``lo`` moved on by its first slot less the entries before it.
    """
    n = len(slots)
    widths = np.array([z - a - 1 if cum else 0 for cum, a, z in slots])
    entries = np.array([c for cum, _, _ in slots if cum for c in cum[:-1]])
    g, lo, thr = _binned(entries, n, np.arange(n).repeat(widths))
    first = np.array([a for _, a, _ in slots])
    rows = lo.reshape(n, -1)
    rows += (first + widths - widths.cumsum())[:, None]
    return g, lo, thr


def _binned(entries: np.ndarray, n: int, rows=None) -> tuple[int, np.ndarray, np.ndarray]:
    """The grid of ``n`` rows over sorted ``entries``, each in its row of
    ``rows`` (an int array, or None for one row): ``(g, lo, thr)`` as
    :func:`_grid` gives them, but with ``lo`` the count of all entries below
    each bin.  ``lo`` is counted out by ``repeat`` from the entries' keys:
    at 2**16 bins it takes about 23 us, against 230-580 us for a
    ``searchsorted`` of the bin edges and about 3 ns a bin for a running
    sum of each bin's count."""
    # The keys on the finest grid within the bound, shifted right, are the
    # keys on every coarser one.  So two neighbours whose finest keys' XOR
    # has bit length b share a bin up to g = finest - b and are parted from
    # one more on; neighbours in two rows differ in the row's bits, and
    # need no g.  Both products are exact, and so is the XOR's float.
    finest = max((GRID_ENTRIES_MAX // n).bit_length() - 1, 0)
    fine = (entries * 2.0**finest).astype(np.intp)
    if rows is not None:
        fine += rows << finest
    bits = np.frexp(fine[1:] ^ fine[:-1])[1]
    g = min(finest + 1 - int(bits.min(initial=finest + 1)), finest)
    key = fine >> finest - g
    # lo steps up by one at each key: bins up to the first key hold lo 0,
    # and the bins after key i up to key i + 1 hold lo i + 1.
    bounds = np.empty(len(key) + 2, np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = -1, key, (n << g) - 1
    lo = np.arange(len(key) + 1).repeat(bounds[1:] - bounds[:-1])
    place = np.arange(len(key)) - lo.take(key)
    thr = np.full((place.max(initial=-1) + 1, n << g), 2.0)
    thr[place, key] = entries
    return g, lo, thr


def _grid_slots(lo: np.ndarray, thr: np.ndarray, at: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The slots of uniforms ``u`` at grid positions ``at`` (:func:`_grid`)."""
    slot = lo.take(at)
    for column in thr:
        slot += column.take(at) <= u
    return slot


def _breaks_grid(breaks: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`_grid` of one row whose ``cum`` is the sorted breakpoints and
    1.0, built directly from them (:func:`_binned`)."""
    return _binned(breaks, 1)


def _row_grid(breaks: np.ndarray):
    """A one-row :func:`_grid` over the breakpoints (:func:`_breaks_grid`),
    built at the first call of the function returned: ``(2**g, lo, thr,
    small)``, where ``small`` is ``lo`` as uint8 while there are at most
    256 ranks (``lo`` above)."""

    @cache
    def grid():
        g, lo, thr = _breaks_grid(breaks)
        return 2.0**g, lo, list(thr), lo.astype(np.uint8) if len(breaks) < 256 else lo

    return grid


def _grid_ranks(grid, u: np.ndarray) -> np.ndarray:
    """The ranks of the uniforms ``u`` (any shape) among the breakpoints of
    the one-row ``grid`` (:func:`_row_grid`), as intp."""
    scale, lo, thr, _ = grid()
    return _grid_slots(lo, thr, (u * scale).astype(np.intp), u)


def _rankers(breaks: np.ndarray, grid):
    """A rank-row walker's ``(first, later)``, each ``u -> the ranks of the
    uniforms u`` among ``breaks`` (``np.searchsorted(breaks, u, "right")``),
    for :func:`_refills`.  ``first`` ranks a trial's first refill block by
    one ``searchsorted`` and a ``tolist``.  ``later`` ranks every block
    after it on the one-row ``grid`` (a :func:`_row_grid` of ``breaks``),
    as bytes while there are at most 256 ranks, and as a list above."""
    search = breaks.searchsorted
    out = np.ndarray.tobytes if len(breaks) < 256 else np.ndarray.tolist

    def first(u: np.ndarray) -> list[int]:
        return search(u, "right").tolist()

    def later(u: np.ndarray) -> bytes | list[int]:
        scale, _, thr, small = grid()
        return out(_grid_slots(small, thr, (u * scale).astype(np.intp), u))

    return first, later


class _Steps(NamedTuple):
    """The lockstep walker's moves (:func:`walkcover.estimate._lockstep`),
    built once per estimate.  Each lane has a position and a progress.

    ``start`` is every lane's first position, and ``initial`` and ``dtype``
    its first progress.  A draw group's (rows, lanes) uniforms ``draws``
    walk as a chase, then a settle.  ``prepare(draws)`` gives what the
    chase looks up, once per group.  ``chase(at, progress, draws, marks)``
    takes the group's steps in row order, ``marks`` being
    ``prepare(draws)``, and moves only what the next step's lookup needs:
    it returns ``(keys, at, progress)``, the keys of every row and the
    positions and progress after the group.  ``settle(keys, progress,
    clock, commutes)`` reads every row's step from its keys at once, and
    returns each lane's running values after every row, of shape (rows,
    lanes): ``(clocks, stops, counts, progress)``, with ``stops`` True
    where the lane stops, ``counts`` its commutes, or None for rules that
    count none, and ``progress`` after the group.  ``where(at, progress)``
    gives the vertices and progress values the fused walk goes on from, as
    lists, and ``reads(draws)`` what the fused walk reads of uniforms:
    their ranks on rank rows, the uniforms themselves on slot rows.
    """

    start: int
    initial: int
    dtype: type
    prepare: Callable
    chase: Callable
    settle: Callable
    where: Callable
    reads: Callable


def _running(rows: np.ndarray, first: np.ndarray, ufunc=np.add) -> np.ndarray:
    """The running ``ufunc`` (a sum, or a bitwise or) of each lane's column
    of ``rows`` down the rows, from the lane's ``first`` value, in place:
    row k holds ``first`` with rows 0 to k folded in, one row at a time, so
    a running sum of charges adds them in step order, as the fused walk
    does.  A call a row: ``ufunc.accumulate`` down the rows of an (8, 600)
    array takes about four times as long (21 against 5 us), as it loops
    over the columns."""
    before = first
    for row in rows:
        ufunc(row, before, out=row)
        before = row
    return rows


def _rank_chase(moved: np.ndarray) -> Callable:
    """The chase on rank rows: a step's key is its position plus its draw's
    rank, written over the ranks, and its next position ``moved`` at the
    key."""

    def chase(at, progress, draws, ranks):
        for key in ranks:
            key += at
            at = moved.take(key)
        return ranks, at, progress

    return chase


class _Lanes:
    """What both lane kinds share: :meth:`walkers`, the one builder of an
    estimate's walkers.  Each kind gives it three pieces: ``_columns``, its
    entries' columns; ``_fused``, its two fused loops, written out by hand
    because a call per step would cost more than the loop body; and
    ``_fold``, its settle fold and ``where`` on rank rows."""

    def walkers(self, tables, start: int, label: str):
        """Both walkers of an estimate on one layout: ``(walk, moves)``.

        ``walk`` is fused walks on the rows of :func:`_fused_rows`:
        ``walk(rng, budget)`` from ``start``, or ``walk(rng, budget, vertex,
        progress, t, steps, commutes, ahead)`` on from a lockstep lane (see
        :func:`_refills` for ``ahead``).  An entry holds the step's charge,
        the row it leads to and the kind's columns, one entry per (state,
        slot) from ``_columns(arcs, heads, vertices)``: the row each leads
        to, ``state * vertices + head``, and the columns.

        ``moves()`` builds the lockstep walker's :class:`_Steps` at its first
        call.  On rank rows they come from the same entries, one per row and
        rank, with a table rule's state folded into the row: a lane's
        position is its row times the ranks, so a step's key is its position
        plus its draw's rank, and the draws are ranked on the one-row grid
        that ranks the fused walk's later blocks.  The chase reads the next
        position per key, and the settle the charge and the kind's fold.  On
        slot rows they are :meth:`_grid_moves`.  ``moves`` is None where the
        progress has no numpy type (masks wider than 64 bits), which never
        walk in lockstep.
        """
        slots, arcs, heads, charges = _slot_columns(tables)
        arcs, heads = np.array(arcs, np.intp), np.array(heads, np.intp)
        n = len(tables)
        to, columns = self._columns(arcs, heads, n)
        states = len(to) // len(arcs)
        breaks, rows, fill = _fused_rows(tables, slots, states)
        tiled = charges * states
        entries = list(zip(tiled, map(rows.__getitem__, to.tolist()),
                           *[column.tolist() for column in columns]))
        if breaks is None:
            walk = self._fused(rows, n, start, label)
            moves = partial(self._grid_moves, slots, arcs, heads, charges, start)
        else:
            grid = _row_grid(breaks)
            width, picks = len(breaks) + 1, fill[1]
            walk = self._fused(rows, n, start, label, _rankers(breaks, grid))

            def moves() -> _Steps:
                fold, where = self._fold(n, *[column[picks] for column in columns])
                charge, moved = np.array(tiled)[picks], (to * width)[picks]

                def settle(keys, progress, clock, commutes):
                    stops, counts, progress = fold(keys, progress, commutes)
                    return _running(charge.take(keys), clock), stops, counts, progress

                rank = partial(_grid_ranks, grid)
                return _Steps(start * width, self.initial, self.dtype, rank, _rank_chase(moved),
                              settle, lambda at, progress: where(at // width, progress), rank)

        _link(walk, fill, entries)
        return walk, None if self.dtype is None else cache(moves)

    def _grid_moves(self, slots, arcs, heads, charges, start: int) -> _Steps:
        """The lockstep walker's moves on slot rows: the lanes' ``lockstep``
        step over slots found on a per-vertex grid (:func:`_grid`).  A
        lane's position is its vertex shifted to its grid row, a group's
        draws are binned once, and a step's slot is ``lo`` at (position +
        bin) plus the count of that bin's thresholds at or below its draw.
        The chase moves each lane's position and progress by slot and keeps
        the slots, stops and commutes, from which the settle reads the
        charges and running values."""
        g, lo, thr = _grid(slots)
        lane_step, resumed = self.lockstep(arcs, heads)
        moved, charge_of, thr, scale = heads << g, np.array(charges), list(thr), 2.0**g

        def prepare(draws):
            return (draws * scale).astype(np.intp)

        def chase(at, progress, draws, bins):
            keys = []
            for b, u in zip(bins, draws):
                slot = _grid_slots(lo, thr, at + b, u)
                at = moved.take(slot)
                progress, stop, back = lane_step(progress, slot)
                keys.append((slot, stop, back))
            return keys, at, progress

        def settle(keys, progress, clock, commutes):
            slots, stops, backs = zip(*keys)
            counts = None if backs[0] is None else _running(np.array(backs), commutes)
            return _running(charge_of.take(slots), clock), np.array(stops), counts, progress

        def where(at, progress):
            return (at >> g).tolist(), resumed(progress)

        return _Steps(start << g, self.initial, self.dtype, prepare, chase, settle, where,
                      lambda d: d)


class _TableLanes(_Lanes):
    """Progress as a small state number, advanced by per-(state, arc) tables.

    ``next``, ``stop`` and ``back`` are 2-D over (state, arc); ``back``
    counts commutes: 1 where the step completes one.
    """

    dtype = np.intp
    initial = 0
    rank = staticmethod(int)  # the state number itself

    def __init__(self, nxt: np.ndarray, stop: np.ndarray, back: np.ndarray | None):
        self.next, self.stop, self.back = nxt, stop, back

    def _by_slot(self, arcs: Sequence[int] | np.ndarray):
        """``next``, ``stop`` and ``back`` (zeros where that is None) per
        (state, slot), for slots with these ``arcs``."""
        back = np.zeros_like(self.next) if self.back is None else self.back
        return self.next[:, arcs], self.stop[:, arcs], back[:, arcs]

    def lockstep(self, arcs: np.ndarray, heads: np.ndarray):
        """The vectorised step over slots with these ``arcs``: ``(step,
        resumed)``.  ``step(state, slot)`` reads flat (state, slot) tables
        whose states are premultiplied by the slot count, so a key is one
        add; ``resumed`` gives the state numbers the fused walker takes."""
        nxt, stop, back = self._by_slot(arcs)
        size = nxt.shape[1]
        nxt, stop = (nxt * size).ravel(), stop.ravel()
        back = None if self.back is None else back.ravel()

        def step(state: np.ndarray, slot: np.ndarray):
            key = state + slot
            return nxt.take(key), stop.take(key), None if back is None else back.take(key)

        return step, lambda state: (state // size).tolist()

    def _columns(self, arcs: np.ndarray, heads: np.ndarray, n: int):
        """Per (state, slot), the row its step leads to and its code: 0 to
        go on, 1 where the step completes a commute, and ``-1`` less its
        commute where it stops."""
        nxt, stop, back = self._by_slot(arcs)
        return (nxt * n + heads).ravel(), [np.where(stop, -1 - back, back).ravel()]

    def _fused(self, rows, n: int, start: int, label: str, rankers=None):
        """The fused walk on slot rows, or on rank rows with ``rankers``
        (:func:`_rankers`).  A step is one index (after a bisection on slot
        rows), one add and one test of the code."""
        counted = self.back is not None
        if rankers is None:

            def walk(rng: np.random.Generator, budget: int, vertex: int = start, state: int = 0,
                     t: float = 0.0, steps: int = 0, commutes: int = 0,
                     ahead=()) -> tuple[float, int, int]:
                cum, row = rows[state * n + vertex]
                bisect = bisect_right
                for end, draws in _refills(rng.random, budget, steps, ahead=ahead):
                    for u in draws:
                        c, (cum, row), k = row[bisect(cum, u)]
                        t += c
                        if k:
                            if k < 0:
                                commutes -= 1 + k
                                return t, end - length_hint(draws), commutes if counted else -1
                            commutes += 1
                raise _no_stop(budget, label)

            return walk
        first, later = rankers

        def walk(rng: np.random.Generator, budget: int, vertex: int = start, state: int = 0,
                 t: float = 0.0, steps: int = 0, commutes: int = 0,
                 ahead=()) -> tuple[float, int, int]:
            row = rows[state * n + vertex]
            for end, ranks in _refills(rng.random, budget, steps, first, later, ahead=ahead):
                for r in ranks:
                    c, row, k = row[r]
                    t += c
                    if k:
                        if k < 0:
                            commutes -= 1 + k
                            return t, end - length_hint(ranks), commutes if counted else -1
                        commutes += 1
            raise _no_stop(budget, label)

        return walk

    def _fold(self, n: int, codes: np.ndarray):
        """The settle's fold on rank rows, ``(keys, state, commutes) ->
        (stops, counts, state)``, from the codes per (row, rank): the state
        is in the row, so it passes through.  ``where(row, state)`` splits
        the rows into vertices and states."""
        stops = codes < 0
        backs = None if self.back is None else np.where(stops, ~codes, codes)

        def fold(keys, state, commutes):
            counts = None if backs is None else _running(backs.take(keys), commutes)
            return stops.take(keys), counts, state

        def where(row, state):
            return (row % n).tolist(), (row // n).tolist()

        return fold, where


class _MaskLanes(_Lanes):
    """A coverage mask per lane, plus a return to ``root`` unless it is None.

    ``bits[arc]`` is the bit that arc sets.  The masks are Python ints on the
    fused walker, so any width works there.  The vectorised step holds them
    in uint64 arrays up to 64 bits and in object arrays above; the exact
    solver steps masks of any width through it, and the lockstep walker
    takes masks of at most 64 bits.
    """

    rank = staticmethod(int.bit_count)

    def __init__(self, bits: Sequence[int], full: int, root: int | None, initial: int):
        self.bits = list(bits)
        self.full = full
        self.root = root
        self.initial = initial
        self.dtype = np.uint64 if full.bit_length() <= 64 else None

    def lockstep(self, arcs: np.ndarray, heads: np.ndarray):
        """The vectorised step over slots with these ``arcs`` and ``heads``:
        ``(step, resumed)``, where ``step(mask, slot)`` reads each slot's bit
        and whether it ends at the root, and ``resumed`` gives the masks as
        the fused walker takes them.  Masks wider than 64 bits are Python
        ints in object arrays."""
        bits = np.array(self.bits, self.dtype or object)[arcs]
        full = self.full if self.dtype is None else np.uint64(self.full)
        home = None if self.root is None else heads == self.root

        def step(mask: np.ndarray, slot: np.ndarray):
            mask = mask | bits.take(slot)
            stop = mask == full
            if home is not None:
                stop &= home.take(slot)
            return mask, stop, None

        return step, np.ndarray.tolist

    def _columns(self, arcs: np.ndarray, heads: np.ndarray, n: int):
        """Per slot, the row of its head, its bit and whether the walk may
        stop there: at the root, or anywhere without a return."""
        home = np.full(len(heads), True) if self.root is None else heads == self.root
        return heads, [np.array(self.bits, self.dtype or object)[arcs], home]

    def _fused(self, rows, n: int, start: int, label: str, rankers=None):
        """The fused walk on slot rows, or on rank rows with ``rankers``
        (:func:`_rankers`): a step ORs its bit into the mask and tests for
        a full mask where the walk may stop."""
        full, initial = self.full, self.initial
        if rankers is None:

            def walk(rng: np.random.Generator, budget: int, vertex: int = start,
                     mask: int = initial, t: float = 0.0, steps: int = 0,
                     commutes: int = -1, ahead=()) -> tuple[float, int, int]:
                cum, row = rows[vertex]
                bisect = bisect_right
                for end, draws in _refills(rng.random, budget, steps, ahead=ahead):
                    for u in draws:
                        c, (cum, row), b, home = row[bisect(cum, u)]
                        t += c
                        mask |= b
                        if home and mask == full:
                            return t, end - length_hint(draws), -1
                raise _no_stop(budget, label)

            return walk
        first, later = rankers

        def walk(rng: np.random.Generator, budget: int, vertex: int = start,
                 mask: int = initial, t: float = 0.0, steps: int = 0,
                 commutes: int = -1, ahead=()) -> tuple[float, int, int]:
            row = rows[vertex]
            for end, ranks in _refills(rng.random, budget, steps, first, later, ahead=ahead):
                for r in ranks:
                    c, row, b, home = row[r]
                    t += c
                    mask |= b
                    if home and mask == full:
                        return t, end - length_hint(ranks), -1
            raise _no_stop(budget, label)

        return walk

    def _fold(self, n: int, bits: np.ndarray, home: np.ndarray):
        """The settle's fold on rank rows, ``(keys, mask, commutes) ->
        (stops, None, mask)``, from the bits and home flags per (vertex,
        rank): the running OR of the masks down the rows, stopping where a
        full mask may stop.  ``where(row, mask)`` gives the vertices and
        masks as lists."""
        full, home = np.uint64(self.full), None if self.root is None else home

        def fold(keys, mask, commutes):
            masks = _running(bits.take(keys), mask, np.bitwise_or)
            stops = masks == full
            if home is not None:
                stops &= home.take(keys)
            return stops, None, masks[-1]

        def where(row, mask):
            return row.tolist(), mask.tolist()

        return fold, where


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
    :class:`UnsamplableArc`.  Every charge is finite; a length whose charge
    overflows raises :class:`ChargeOverflow`.  A model must be a
    :class:`TimingModel`.

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
            if not math.isfinite(charge):
                raise ChargeOverflow(f"edge {eid} out of vertex {v}: its time charge "
                                     f"is {charge} under {model.name}")
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

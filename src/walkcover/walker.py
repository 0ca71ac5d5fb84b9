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
its fields, its label and its mode.

The loop in :func:`run` draws its uniforms in blocks of 64, 256, 1024, 4096
and then 16384, each capped at the steps left in the budget, so the budget
is checked once per block.

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
entry per rank of a draw among the sampling rows' breakpoints, found by one
``searchsorted`` per refill block, so a step bisects nothing; above it, a
slot row has the vertex's ``cum`` list and the same entries, one per slot,
and a step bisects ``cum``.  A block of at least
``estimate.LOCKSTEP_MIN_LANES`` trials walks in lockstep, one numpy step
over all its trials at a time, while its masks fit in 64 bits and its
widest row is narrow enough for its size, on uniforms it draws in groups by
PCG64 jump-ahead.  That walker keeps every trial's
progress and commute count itself and reads the lanes through one pure,
vectorised ``advance``.  It hands its last ``estimate.LOCKSTEP_MIN_LIVE``
or fewer live trials to the fused loop, which goes on from each trial's
vertex, progress, clock, step count and generator state, so no step is
walked twice.  Every step draws exactly one uniform, so a trial's k-th draw
is its k-th step in all three walkers.  The gate's values and the measured
tables behind them, the draw groups and the hand-off are in
:mod:`walkcover.estimate`.  The walkers and the exact solver read the
sampling rows through one layout, :func:`_slot_columns`.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import length_hint
from typing import Iterable, Sequence

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
# keep all per-trial state themselves.  The estimator
# (:mod:`walkcover.estimate`) walks on them in two ways.  Lanes expose:
#   walker(tables, start, label) -> walk(rng, budget, *resumed)
#       one trial at a time in a fused loop: (stop time, steps, commutes),
#       with commutes -1 for rules that do not count them, and the same
#       StepBudgetExceeded as ``run``, naming the full budget.  From
#       ``start`` without ``resumed``; with ``resumed = (vertex, progress,
#       clock, steps, commutes)``, on from that step, with ``rng`` at the
#       trial's generator state (rules that count no commutes ignore the
#       last).  Build it once per estimate and walk every trial on it
#   dtype                             (numpy type of a lane's progress in
#                                      lockstep; None where it does not serve)
#   advance(progress, arc, head) -> (progress, stop, back)
#                                     (one step over arrays of lanes, which
#                                      broadcast together: the new progress,
#                                      True where the lane stops, and 1 where
#                                      it completes a commute, or None for
#                                      rules that count none.  Progress is of
#                                      ``dtype``, or of object type where that
#                                      is None, as for masks wider than 64
#                                      bits)
# The exact solver (:mod:`walkcover.exact`) steps a breadth-first level of
# states at a time through ``advance``, and reads:
#   initial                           (the progress before the first step)
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
# trial pays one searchsorted call per refill block, about a microsecond,
# so walks of under about 16 steps lose a few tenths of a microsecond on
# rank rows.  Every workload of perfbench builds rows of at most 1740
# entries.
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


def _ranks(rng: np.random.Generator, breaks: np.ndarray):
    """``n -> ranks of n uniforms``: one ``searchsorted`` per refill block."""
    rand, search = rng.random, breaks.searchsorted
    return lambda n: search(rand(n), "right")


class _TableLanes:
    """Progress as a small state number, advanced by per-(state, arc) tables.

    ``back`` counts commutes: 1 where the step completes one.
    """

    dtype = np.intp
    initial = 0
    rank = staticmethod(int)  # the state number itself

    def __init__(self, nxt: np.ndarray, stop: np.ndarray, back: np.ndarray | None):
        self.arcs = nxt.shape[1]
        self.next = nxt.ravel()
        self.stop = stop.ravel()
        self.back = None if back is None else back.ravel()

    def advance(self, state: np.ndarray, arc: np.ndarray, head: np.ndarray):
        key = state * self.arcs + arc
        return self.next[key], self.stop[key], None if self.back is None else self.back[key]

    def walker(self, tables, start: int, label: str):
        """Fused walks on the rows of :func:`_fused_rows`: ``walk(rng,
        budget)`` from ``start``, or ``walk(rng, budget, vertex, state, t,
        steps, commutes)`` on from a lockstep lane.

        An entry holds the step's charge, the row it leads to and a code: 0
        to go on, 1 where the step completes a commute, and ``-1`` less its
        commute where it stops.  A step is then one index (after a bisection
        on slot rows), one add and one test of the code.
        """
        n, states = len(tables), len(self.next) // self.arcs
        nxt, stop = self.next.reshape(states, -1), self.stop.reshape(states, -1)
        back = np.zeros_like(nxt) if self.back is None else self.back.reshape(states, -1)
        slots, arcs, heads, charges = _slot_columns(tables)
        b = back[:, arcs]
        to = (nxt[:, arcs] * n + heads).ravel().tolist()
        codes = np.where(stop[:, arcs], -1 - b, b).ravel().tolist()
        counted = self.back is not None
        breaks, rows, fill = _fused_rows(tables, slots, states)
        entries = [(c, rows[x], k) for c, x, k in zip(charges * states, to, codes)]

        if breaks is None:

            def walk(rng: np.random.Generator, budget: int, vertex: int = start, state: int = 0,
                     t: float = 0.0, steps: int = 0, commutes: int = 0) -> tuple[float, int, int]:
                cum, row = rows[state * n + vertex]
                bisect = bisect_right
                for end, draws in _refills(rng.random, budget, steps):
                    for u in draws:
                        c, (cum, row), k = row[bisect(cum, u)]
                        t += c
                        if k:
                            if k < 0:
                                commutes -= 1 + k
                                return t, end - length_hint(draws), commutes if counted else -1
                            commutes += 1
                raise _no_stop(budget, label)

        else:

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

        _link(walk, fill, entries)
        return walk


class _MaskLanes:
    """A coverage mask per lane, plus a return to ``root`` unless it is None.

    ``bits[arc]`` is the bit that arc sets.  The masks are Python ints on the
    fused walker, so any width works there; the lockstep walker takes masks
    of at most 64 bits, and ``advance`` takes wider ones in object arrays.
    """

    rank = staticmethod(int.bit_count)

    def __init__(self, bits: Sequence[int], full: int, root: int | None, initial: int):
        self.bits = list(bits)
        self.full = full
        self.root = root
        self.initial = initial
        self.dtype = np.uint64 if full.bit_length() <= 64 else None
        self.lane_bits = np.array(self.bits, self.dtype or object)
        self.lane_full = full if self.dtype is None else np.uint64(full)

    def advance(self, mask: np.ndarray, arc: np.ndarray, head: np.ndarray):
        mask = mask | self.lane_bits[arc]
        stop = mask == self.lane_full
        if self.root is not None:
            stop &= head == self.root
        return mask, stop, None

    def walker(self, tables, start: int, label: str):
        """Fused walks on the rows of :func:`_fused_rows`: ``walk(rng,
        budget)`` from ``start``, or ``walk(rng, budget, vertex, mask, t,
        steps, commutes)`` on from a lockstep lane.

        An entry holds the step's charge, its bit, the row of the vertex it
        leads to and whether the walk may stop there (at the root, or
        anywhere without a return).
        """
        full, initial, root = self.full, self.initial, self.root
        slots, arcs, heads, charges = _slot_columns(tables)
        breaks, rows, fill = _fused_rows(tables, slots)
        entries = [(c, self.bits[arc], rows[h], root is None or h == root)
                   for c, arc, h in zip(charges, arcs, heads)]

        if breaks is None:

            def walk(rng: np.random.Generator, budget: int, vertex: int = start,
                     mask: int = initial, t: float = 0.0, steps: int = 0,
                     commutes: int = -1) -> tuple[float, int, int]:
                cum, row = rows[vertex]
                bisect = bisect_right
                for end, draws in _refills(rng.random, budget, steps):
                    for u in draws:
                        c, b, (cum, row), home = row[bisect(cum, u)]
                        t += c
                        mask |= b
                        if home and mask == full:
                            return t, end - length_hint(draws), -1
                raise _no_stop(budget, label)

        else:

            def walk(rng: np.random.Generator, budget: int, vertex: int = start,
                     mask: int = initial, t: float = 0.0, steps: int = 0,
                     commutes: int = -1) -> tuple[float, int, int]:
                row = rows[vertex]
                for end, ranks in _refills(_ranks(rng, breaks), budget, steps):
                    for r in ranks:
                        c, b, row, home = row[r]
                        t += c
                        mask |= b
                        if home and mask == full:
                            return t, end - length_hint(ranks), -1
                raise _no_stop(budget, label)

        _link(walk, fill, entries)
        return walk


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

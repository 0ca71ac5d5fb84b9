"""Monte Carlo experiment harness: seeded trials, aggregation, verdicts.

Reproducibility contract: trial ``i`` of an experiment with master seed ``s``
always runs on its own generator derived from the seed pair ``(s, i)``, so a
report depends only on (seed, trials, rule, model) and never on how trials
were scheduled across workers.  Aggregation reduces the per-trial values in
trial order with compensated summation, which makes reports byte-identical
for any worker count.

:func:`trial_rng` is the definition of trial ``i``'s stream.  The estimator
does not call it per trial: it derives the same PCG64 states for a whole
block of trials in one numpy pass, which a test pins to :func:`trial_rng`
state by state.

Trials walk on the rule's lane tables (``make_lanes``: commute, refined
commute, first passage, epoch sequences, cover-and-return and vertex
cover), and :func:`walkcover.walker.run` is the reference they are tested
against, trial by trial.  A block of fewer than ``LOCKSTEP_MIN_LANES``
(400) trials loads each state into one reused generator and walks each
trial in the lanes' fused loop, with no per-step method call.  A larger
block walks all its trials in lockstep on the same streams, with draw k
being step k, while its masks fit in 64 bits, at any row width: each step
finds every lane's slot with one lookup on a grid of its draw.  It draws
each trial's uniforms in groups, by PCG64 jump-ahead on the whole block at
once, and hands the last ``LOCKSTEP_MIN_LIVE`` (48) or fewer live trials
to the fused loop, which goes on from the step each reached.  Rules
without lane tables, and walks that stop before their first step, run
every trial on ``run``.  All three walkers give the same bits; the
measurements behind the gate, the group sizes and the hand-off are with
the constants below, and those behind the grid's bound with
``walker.GRID_ENTRIES_MAX``.  A block's samples are three arrays: stop
times, steps and commutes.  The sampling tables, the lanes and the fused
loop's rows are built once per estimate in the calling process, and once
more in each forked worker.

``workers`` is an upper bound.  An estimate that walks in lockstep (at
least ``LOCKSTEP_MIN_LANES`` trials, lanes whose progress fits in 64 bits)
walks every trial in the calling process, as one block, at any
``workers``: a 600-trial ``verify`` check walks no pilot and starts no
process.  Only the other estimates, which walk fused blocks, can fork:
they fork when a pilot of their first trials (a sixteenth of them, at most
``FORK_PILOT`` = 32) predicts at least ``FORK_MIN_STEPS`` (2^19) steps for
the rest, and never run more processes than the CPUs they may use.  So a
block walks in lockstep exactly when it has at least
``LOCKSTEP_MIN_LANES`` trials and its lanes allow it.  The fork table is
with the constants.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, field
from itertools import repeat
from multiprocessing import get_context
from typing import Iterable

import numpy as np

from .errors import StepBudgetExceeded
from .netmodel import Network
from .resistance import SplitSpec
from .walker import (
    DEFAULT_STEP_BUDGET,
    RefinedCommute,
    TimingModel,
    VertexCover,
    _grid,
    _grid_slots,
    _slot_columns,
    build_tables,
    checked_tracker,
    run,
)

__all__ = [
    "EstimateReport",
    "ComparisonVerdict",
    "trial_rng",
    "estimate",
    "estimate_refined",
    "estimate_vertex_cover",
    "verify",
    "CSV_HEADER",
    "format_number",
    "render_csv",
    "render_text",
]

Z_95 = 1.96

# Relative allowance added to every verdict's slack, as a multiple of
# max(1, |target|): a zero-variance estimate and an exact target that differ
# only by floating-point rounding must still agree.
ROUNDING_ALLOWANCE = 1e-12


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one trial.

    The 64-bit PCG64 generator is seeded through numpy's SeedSequence hash of
    the ``(seed, index)`` pair; both algorithms are documented and stable.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


# ---------------------------------------------------------------------------
# Bulk stream setup.  ``_trial_states`` derives, for a whole block of trial
# indices at once, the PCG64 (state, inc) that ``trial_rng`` would build, by
# replaying numpy's SeedSequence hash and PCG64's seeding step on
# uint32/uint64 arrays.  The hash's pool of four 32-bit words is one (4, n)
# uint32 array, and its products wrap modulo 2**32 as SeedSequence's do.
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


@functools.cache
def _hash_column(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Constants ``first`` to ``first + count`` (inclusive) of a running
    hash, as a (count + 1, 1) uint32 column: constant k is the one before
    the k-th hash call."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32
                     for k in range(first, first + count + 1)], np.uint32)[:, None]


def _hashmix(value, first: int, count: int, init=_INIT_A, mult=_MULT_A) -> np.ndarray:
    """SeedSequence's ``hashmix`` as calls ``first`` to ``first + count - 1``
    of its running hash, one a row: ``value`` broadcast against a (count, 1)
    column.  ``_INIT_B`` and ``_MULT_B`` give its output hash instead."""
    const = _hash_column(init, mult, first, count)
    value = (value ^ const[:-1]) * const[1:]
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, low word first, as SeedSequence
    splits each entropy entry (``0`` is one zero word)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


# The pool words each source word is mixed into, in SeedSequence's order.
_MIX_DST = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _seed_pool(entropy: list, n: int) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` into a (4, n) pool, for ``n`` entropies
    whose words are ints or uint32 arrays of length ``n``.  Its hash calls
    are 4 on the pool's first words, 3 for each source word, mixed into the
    other three in one step, and 4 for each word past the fourth, mixed
    into all four."""
    words = np.zeros((_POOL_SIZE, n), np.uint32)
    for row, word in zip(words, entropy):
        row[:] = word
    pool = _hashmix(words, 0, _POOL_SIZE)
    for src, dst in enumerate(_MIX_DST):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _POOL_SIZE + 3 * src, 3))
    for j, word in enumerate(entropy[_POOL_SIZE:], _POOL_SIZE):
        pool = _mix(pool, _hashmix(word, _POOL_SIZE * j, _POOL_SIZE))
    return pool


def _mulhi64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (uint64 array by int
    or by uint64 array, broadcast)."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    low = a0 * b1 + (mid & _MASK32)
    return a1 * b1 + (mid >> 32) + (low >> 32)


def _mul128(x_hi, x_lo, c_hi, c_lo) -> tuple[np.ndarray, np.ndarray]:
    """Low 128 bits of ``x * c`` as (hi, lo) words, for uint64 arrays ``x``
    and ints or uint64 arrays ``c``, broadcast."""
    return _mulhi64(x_lo, c_lo) + x_lo * c_hi + x_hi * c_lo, x_lo * c_lo


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """``x + y`` modulo 2**128 as (hi, lo) words."""
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo


def _pcg64_seed(pool: np.ndarray) -> tuple[np.ndarray, ...]:
    """``generate_state(4, uint64)`` from a (4, n) pool, then
    ``pcg64_set_seed``."""
    out = _hashmix(np.concatenate([pool, pool]), 0, 8, _INIT_B, _MULT_B).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << 32
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    # state = 0; step (state = inc); state += initstate; step again.
    s_hi, s_lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    state_hi, state_lo = _add128(*_mul128(s_hi, s_lo, _PCG_MULT_HI, _PCG_MULT_LO), inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def _trial_states(seed: int, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """PCG64 state and increment of ``trial_rng(seed, i)`` for each ``i`` in
    ``[lo, hi)``, as four uint64 arrays: ``state_hi, state_lo, inc_hi,
    inc_lo`` (the high and low 64 bits of each 128-bit word).

    The entropy of ``SeedSequence((seed, i))`` is the words of ``seed`` then
    the words of ``i``.  Indices are taken in runs that share their words
    above the lowest, so that word is the only one that varies.
    """
    seed_words = _uint32_words(seed)
    runs = []
    a = lo
    while a < hi:
        b = min(hi, (a | _MASK32) + 1)
        low = np.arange(a & _MASK32, (b - 1 & _MASK32) + 1, dtype=np.uint32)
        upper = _uint32_words(a >> 32) if a > _MASK32 else []
        runs.append(_pcg64_seed(_seed_pool(seed_words + [low] + upper, len(low))))
        a = b
    return tuple(np.concatenate(part) for part in zip(*runs))


# ---------------------------------------------------------------------------
# Lockstep walker.  A block of at least ``LOCKSTEP_MIN_LANES`` trials whose
# rule's lanes serve it (``lockstep``) walks all its trials together, one
# numpy step over every live lane at a time, on the same streams.  It draws
# each lane's uniforms in groups: with ``a`` PCG64's multiplier, the state
# k steps after state s is ``A_k s + G_k inc`` modulo 2**128, where ``A_k =
# a**k`` and ``G_k`` is the sum of ``a**j`` for j < k.  So one pass of
# 128-bit multiply-adds on hi/lo uint64 arrays gives a (group, lanes)
# matrix of states, and the next group of the same size is the last one
# advanced by ``A_k`` plus each lane's ``G_k inc``; a group of one is the
# plain one-step advance.  The group size follows the live lanes
# (``LOCKSTEP_GROUPS``), and the groups' rows drop stopped lanes with the
# other arrays.  Each state's output is XSL-RR and its uniform the top 53
# bits, as ``Generator.random`` computes them, and row k of the group feeds
# the group's k-th step.  Every step draws exactly one
# uniform, so a lane's k-th draw is its k-th step whatever the scalar
# walker's refill schedule.  Each lane adds its charges in step order, so its
# clock is the scalar walker's float sum.
#
# A step finds each lane's slot on a grid of its draw (``walker._grid``):
# the group's draws are binned once, ``bin = u * 2**g``, and a lane's slot is
# ``lo`` at (vertex, bin) plus the count of that bin's thresholds at or
# below ``u``, so one lookup serves every row width.  The rule then moves
# by slot, not by arc: the lanes' ``lockstep`` gives one step over flat
# per-slot tables, so no step maps a slot to its arc.  The walker owns
# every per-lane array: grid row (vertex << g), progress (of the lanes'
# ``dtype``), commute count and clock.  It drops stopped lanes from all of
# them at once, after writing their samples into the block's arrays, so
# the lanes stay read-only.  When fewer than ``LOCKSTEP_MIN_LIVE`` lanes
# are left, or the live lanes reach the step budget, the rest go on, in
# trial order, on the fused scalar loop from the step they reached: their
# vertex, progress, clock, step count, commute count and PCG64 state carry
# over, so they give the same results (or raise the same
# ``StepBudgetExceeded``).
# ---------------------------------------------------------------------------

# Block size from which the lockstep walker runs, and the live lanes below
# which it hands the rest to the fused scalar loop.  Measured on a 2-CPU
# host (Xeon, Python 3.11, numpy 2.4) in one process, as the fused block
# time over the lockstep block time, with the fused loop on rank rows and
# the lockstep walker on the grid and the draw groups below (best of 7
# interleaved rounds, CPU time):
#
#   lanes                       100   200   300   400   500   700  1000  2000
#   commute, path:1,1,1, 0-3   1.06  1.69  2.14  2.62  3.01  3.64  4.05  5.78
#   arc cover, triangle        1.11  1.86  2.51  3.10  3.54  4.21  4.86  7.43
#   edge cover, random:8,10    0.97  1.40  1.69  1.68  3.48  2.73  2.86  4.03
#   arc cover, tree:3          0.69  0.90  1.10  1.28  1.42  1.69  1.72  2.32
#   12-hop path commute        0.65  0.85  1.03  1.22  1.36  1.55  1.59  2.11
#   vcover+ret, random:12,14   1.00  1.22  1.63  1.84  2.15  2.99  2.57  3.56
#
# Short walks gain from 100-200 lanes and walks of hundreds of steps (687 a
# trial on tree:3) from 200-300.  At 300 the 12-hop commute reads 1.03,
# within the rounds' spread, so the gate stays at 400, where every row
# gains at least 1.22x.  An estimate that walks in lockstep is one block at
# any ``workers`` (see the fork table), so a 600-trial ``verify`` walks in
# lockstep at any ``--workers``.
#
# A lockstep step costs the same at any row width (see ``walker._grid``),
# so a hub walks in lockstep like any other network.  Measured as above, on
# stars, whose centre is the widest row, with commutes between two leaves
# and edge covers from the centre (edge covers of more than 64 arms need
# wider masks, so they walk the fused loop):
#
#   lanes                      400   2000
#   commute, star:28          2.01   3.96
#   commute, star:80          2.08   3.78
#   commute, star:200         2.12   3.50
#   commute, star:800         1.10   1.99
#   edge cover, star:28       2.42   4.58
#   edge cover, star:56       3.39   5.95
#   edge cover, star:64       3.21   5.58
#
# Before the grid, a step compared each lane with every ``cum`` column of
# the widest row, and commutes lost to the fused loop from about 19 columns
# at 400 lanes (star:28 read 0.72, star:80 0.24), so such blocks walked the
# fused loop.  Only star:800's grid is held to ``GRID_ENTRIES_MAX``; its
# bins keep 13 thresholds.
#
# Draw groups and the hand-off were measured on every lockstep block of one
# seed-1 pass of perfbench's ``verify_exact`` (112 blocks of 568
# trials) and ``short_trials`` (128 of 2000), replayed in one process, as
# block time over that of one draw a step with the tail rerun from its
# first step (median of 11 interleaved rounds, CPU time):
#
#   draw groups                           verify_exact  short_trials
#   1 at any width                            1.05          1.01
#   8 at any width                            0.64          1.14
#   8 at <= 700 lanes, else 1                 0.66          0.96
#   8 at <= 700, 2 at <= 2000, else 1         0.61          0.93
#
#   hand-off at live lanes       16     48    128    256
#   verify_exact               0.61   0.58   0.61   0.71
#   short_trials               0.91   0.92   1.04   1.29
#
# Wide groups lose on wide blocks, where a step's arithmetic on every lane
# costs more than its numpy calls.  On ``verify_exact``, groups of 4 or 16
# at <= 700 lanes, or 16 or 32 below 200 lanes and 8 up to 700, read
# 0.61-0.68 against 0.63 for 8 (5 rounds).  A group of one is 6-17% slower
# than the plain one-step advance it generalises, but only blocks of more
# than 2000 live lanes draw that way, and at 20,000 lanes the two tied.
# The hand-off walks only the steps the lockstep did not (in the
# ``verify_exact`` pass, 117,808 fused steps for the 5,082 trials handed
# off, against 661,706 from their first step), and 48 stays the best.
LOCKSTEP_MIN_LANES = 400
LOCKSTEP_MIN_LIVE = 48

# Draw-group size by live lanes: groups of ``size`` while at most ``lanes``
# lanes are live, the first row that fits, else one draw a step.
LOCKSTEP_GROUPS = ((700, 8), (2000, 2))


def _group_size(live: int) -> int:
    for lanes, size in LOCKSTEP_GROUPS:
        if live <= lanes:
            return size
    return 1


def _jumps(size: int) -> tuple[np.ndarray, ...]:
    """PCG64's jump-ahead words for 1 to ``size`` steps: ``A_k`` and
    ``G_k`` as hi, lo, hi, lo uint64 arrays of shape (size, 1)."""
    mask = (1 << 128) - 1
    mult = _PCG_MULT_HI << 64 | _PCG_MULT_LO
    a, g, words = 1, 0, []
    for _ in range(size):
        a, g = a * mult & mask, g + a & mask
        words.append((a >> 64, a & _MASK64, g >> 64, g & _MASK64))
    return tuple(np.array(column, np.uint64)[:, None] for column in zip(*words))


_JUMPS = {size: _jumps(size) for size in {1, *(size for _, size in LOCKSTEP_GROUPS)}}


def _group_states(state_hi, state_lo, inc_hi, inc_lo, size: int):
    """Each lane's PCG64 states after 1 to ``size`` more steps, as (size,
    lanes) hi/lo arrays, and the jump that advances them by ``size`` steps
    more (:func:`_next_group`): ``A_size`` as two ints, and each lane's
    ``G_size inc`` as (1, lanes) hi/lo arrays."""
    a_hi, a_lo, g_hi, g_lo = _JUMPS[size]
    g_inc_hi, g_inc_lo = _mul128(inc_hi, inc_lo, g_hi, g_lo)
    group = _add128(*_mul128(state_hi, state_lo, a_hi, a_lo), g_inc_hi, g_inc_lo)
    return group, (int(a_hi[-1, 0]), int(a_lo[-1, 0]), g_inc_hi[-1:], g_inc_lo[-1:])


def _next_group(group_hi, group_lo, jump):
    """The states a group's size of steps after each of ``group``'s."""
    a_hi, a_lo, g_inc_hi, g_inc_lo = jump
    return _add128(*_mul128(group_hi, group_lo, a_hi, a_lo), g_inc_hi, g_inc_lo)


def _uniforms(state_hi, state_lo) -> np.ndarray:
    """``Generator.random``'s uniform from each PCG64 state: the top 53 bits
    of its XSL-RR output."""
    x = state_hi ^ state_lo
    rot = state_hi >> 58
    return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53


def _lane_table(tables, lanes):
    """The lockstep walker's tables: ``g``, ``lo`` and ``thr`` of
    ``walker._grid``, each slot's head shifted to its grid row and its
    charge, and the lanes' ``lockstep`` step and hand-off over the slots."""
    slots, arcs, heads, charges = _slot_columns(tables)
    g, lo, thr = _grid(slots)
    arcs, heads = np.array(arcs, np.intp), np.array(heads, np.intp)
    return (g, lo, list(thr), heads << g, np.array(charges), *lanes.lockstep(arcs, heads))


def _lanes(net, start, rule, tables, budget):
    """The rule's lane tables, checked as ``run`` checks a trial, or None to
    walk every trial on ``run``: the rule has no table form, or ``run``
    stops before the first step or raises there."""
    make_lanes = getattr(rule, "make_lanes", None)
    if make_lanes is None:
        return None
    tracker = checked_tracker(net, start, rule, budget)
    if tracker.start(start) or tables[start] is None:
        return None
    return make_lanes(net)


def _walker(net, start, rule, model, tables, lanes):
    """``walk(rng, budget) -> (stop time, steps, commutes)`` for one trial:
    the fused walk on the rule's lane tables, or ``run`` without them."""
    if lanes is not None:
        return lanes.walker(tables, start, rule.label())

    def walk(rng, budget):
        res = run(net, start, rule, model, rng, step_budget=budget, tables=tables)
        return res.stop_time, res.step_count, (res.auxiliary or {}).get("commute_count", -1)

    return walk


def _lockstep(lanes, table, start, streams, budget, samples):
    """Walk a block's trials in lockstep on :func:`_lane_table`'s ``table``
    and write the stop time, steps and commutes of those that stop while
    the walker runs into ``samples``' three arrays.  Return the others'
    indices, in trial order, their PCG64 state and increment words as
    ``streams`` gives them, and per trial the arguments that continue its
    fused walk: its vertex, progress, clock, step count and commutes.

    Stopped lanes stay in the arrays, masked out of ``live``, until they are
    a quarter of them; then every array drops them at once.
    """
    g, lo, thr, heads_at, charge_of, step, resumed = table
    times, step_counts, commute_counts = samples
    state_hi, state_lo, inc_hi, inc_lo = streams
    lane = np.arange(len(state_hi))
    live = np.ones(len(lane), bool)
    at = np.full(len(lane), start << g, np.intp)
    progress = np.full(len(lane), lanes.initial, lanes.dtype)
    commutes = np.zeros(len(lane), np.int64)
    clock = np.zeros(len(lane))
    left = len(lane)
    steps = 0
    # Row k of the group holds each lane's state after, and uniform and grid
    # bin of, the group's (k + 1)-th step; before the first group, row -1
    # holds the lanes' states before their first step.
    group_hi, group_lo = state_hi[None], state_lo[None]
    size = k = 0
    while left >= LOCKSTEP_MIN_LIVE and steps < budget:
        if k == size:
            fit = _group_size(left)
            if fit == size:
                group_hi, group_lo = _next_group(group_hi, group_lo, jump)
            else:
                (group_hi, group_lo), jump = _group_states(
                    group_hi[k - 1], group_lo[k - 1], inc_hi, inc_lo, fit
                )
                size = fit
            draws = _uniforms(group_hi, group_lo)
            bins = (draws * 2.0**g).astype(np.intp)
            k = 0
        slot = _grid_slots(lo, thr, at + bins[k], draws[k])
        k += 1
        steps += 1
        clock += charge_of.take(slot)
        at = heads_at.take(slot)
        progress, stop, back = step(progress, slot)
        if back is not None:
            commutes += back
        stop &= live
        idx = stop.nonzero()[0]
        if not len(idx):
            continue
        done = lane.take(idx)
        times[done] = clock.take(idx)
        step_counts[done] = steps
        if back is not None:
            commute_counts[done] = commutes.take(idx)
        live[idx] = False
        left -= len(idx)
        if 4 * left < 3 * len(lane):
            keep = np.flatnonzero(live)
            lane, at, progress, commutes, clock, inc_hi, inc_lo = (
                a.take(keep) for a in (lane, at, progress, commutes, clock, inc_hi, inc_lo)
            )
            group_hi, group_lo, draws, bins, g_inc_hi, g_inc_lo = (
                a.take(keep, axis=1) for a in (group_hi, group_lo, draws, bins, *jump[2:])
            )
            jump = *jump[:2], g_inc_hi, g_inc_lo
            live = np.ones(left, bool)
    rest = group_hi[k - 1][live], group_lo[k - 1][live], inc_hi[live], inc_lo[live]
    resume = zip((at[live] >> g).tolist(), resumed(progress[live]), clock[live].tolist(),
                 repeat(steps), commutes[live].tolist())
    return lane[live], rest, resume


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated Monte Carlo result for one rule under one timing model."""

    rule: str
    model: TimingModel
    trials: int
    seed: int
    mean: float
    stderr: float
    ci95: tuple[float, float]
    aux_means: dict = field(default_factory=dict)

    @property
    def ci_lo(self) -> float:
        return self.ci95[0]

    @property
    def ci_hi(self) -> float:
        return self.ci95[1]


@dataclass(frozen=True)
class ComparisonVerdict:
    """An estimate held against an exact target at a sigma-scaled slack."""

    estimate: EstimateReport
    target: float
    kind: str  # "equality" or "upper_bound"
    slack_sigmas: float
    passed: bool


def _block_walker(net, start, rule, model, seed, budget):
    """``(block, lockstep)``.  ``block(lo, hi, streams=None)`` gives trials
    ``[lo, hi)`` as three arrays, of stop times, steps and commutes, on
    ``streams`` as :func:`_trial_states` derives them for those trials
    (derived here when None).  ``lockstep(n)`` says whether a block of
    ``n`` trials walks in lockstep: it does when it has at least
    ``LOCKSTEP_MIN_LANES`` trials and the rule's lanes serve it.  The
    tables, lanes and fused rows are built here, once per estimate, and the
    lockstep tables when a block first needs them; every block of the
    estimate reuses them."""
    tables = build_tables(net, model)
    lanes = _lanes(net, start, rule, tables, budget)
    walk = _walker(net, start, rule, model, tables, lanes)
    lane_table = functools.cache(lambda: _lane_table(tables, lanes))
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)

    def lockstep(n: int) -> bool:
        return lanes is not None and lanes.dtype is not None and n >= LOCKSTEP_MIN_LANES

    def block(lo, hi, streams=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if streams is None:
            streams = _trial_states(seed, lo, hi)
        samples = np.empty(hi - lo), np.empty(hi - lo, np.int64), np.full(hi - lo, -1, np.int64)
        times, steps, commutes = samples
        rest, resume = np.arange(hi - lo), repeat(())
        if lockstep(hi - lo):
            rest, streams, resume = _lockstep(lanes, lane_table(), start, streams, budget, samples)
        state_hi, state_lo, inc_hi, inc_lo = (a.tolist() for a in streams)
        for j, s_hi, s_lo, i_hi, i_lo, at in zip(
            rest.tolist(), state_hi, state_lo, inc_hi, inc_lo, resume
        ):
            bit_gen.state = {
                "bit_generator": "PCG64",
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            try:
                times[j], steps[j], commutes[j] = walk(rng, budget, *at)
            except StepBudgetExceeded as exc:
                raise StepBudgetExceeded(f"trial {lo + j}: {exc}") from None
        return samples

    return block, lockstep


def _trial_block(args) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One block of trials on its own, as a forked worker walks it:
    ``(lo, samples)`` for ``args = (net, start, rule, model, seed, lo, hi,
    budget)``."""
    net, start, rule, model, seed, lo, hi, budget = args
    return lo, _block_walker(net, start, rule, model, seed, budget)[0](lo, hi)


def _joined(parts):
    """Blocks' samples, in the order given, as one set of three arrays."""
    return tuple(np.concatenate(column) for column in zip(*parts))


# ---------------------------------------------------------------------------
# Fan-out.  An estimate that walks in lockstep walks every trial in the
# calling process as one block, at any ``workers``: it walks no pilot and
# starts no pool.  The others walk fused blocks.  Starting a pool costs
# about 16 ms, and at the sizes ``verify`` runs that is more than a second
# process saves, so at ``workers > 1`` the parent first walks a pilot of
# their lowest trials, a sixteenth of them (at least 1, at most
# ``FORK_PILOT``), predicts the rest as (trials left) x (mean pilot steps),
# and forks only when that reaches ``FORK_MIN_STEPS``; otherwise it walks
# the rest itself.  When it forks, it walks the first of ``workers`` blocks
# itself while ``workers - 1`` processes walk the others, and it never
# counts more workers than the CPUs this process may run on.
#
# Measured on a 2-CPU host (Xeon, Python 3.11, numpy 2.4) as wall time in
# one process over wall time forked into 2 processes, median (quartiles) of
# 9 interleaved rounds, seeds 1-9, every forked report equal to the one
# process's.  Lockstep rows fork all the trials into 2 lockstep blocks with
# no pilot, the cheapest fork a lockstep estimate could have; fused rows
# fork as the estimator does, after the pilot, with ``FORK_MIN_STEPS`` = 0:
#
#   lockstep                       trials     steps   1 / 2 procs  one process
#   edge cover, random:8,10           600       32k  0.20 (0.20-0.24)    3.8 ms
#                                    2000      112k  0.32 (0.31-0.37)   12.3 ms
#                                   20000     1.12M  0.67 (0.64-0.86)   60.5 ms
#   commute, 15-hop path              600      274k  0.92 (0.79-0.96)   30.7 ms
#                                    2000      903k  1.09 (1.07-1.14)   69.3 ms
#                                   20000     9.02M  1.53 (1.51-1.55)  407 ms
#   edge cover, tree:4                600     3.07M  1.47 (1.28-1.52)  208 ms
#                                    2000     10.5M  1.38 (1.13-1.46)  459 ms
#   arc cover, triangle              2000       27k  0.27 (0.22-0.30)    2.7 ms
#                                   20000      268k  0.61 (0.59-0.69)   18.6 ms
#                                  100000     1.34M  1.02 (0.83-1.10)   74.7 ms
#
#   fused                          trials     steps   1 / 2 procs  one process
#   edge cover, tree:4                100      525k  1.32 (1.17-1.42)   60.6 ms
#                                     300     1.52M  1.46 (1.16-1.60)  124 ms
#   arc cover, star:40                500      168k  1.20 (1.14-1.26)   44.2 ms
#                                    2000      682k  1.49 (1.28-1.62)  133 ms
#                                    8000     2.74M  1.49 (1.30-1.85)  500 ms
#
# A lockstep step costs 2-4x less than a fused one, so a lockstep estimate
# breaks even on a fork only near 10^6 steps, while the fused pilot that
# decided the fork cost 17% of a 600-trial edge cover on random:8,10 (3.98
# against 3.41 ms of process CPU time, best of 9).  Every ``verify`` check
# of 600 trials predicts far fewer steps, so lockstep estimates do not
# fork; the price is 1.4-1.5x on lockstep estimates of several million
# steps while the second CPU is free (an earlier run of the same rounds
# read 1.91 for the 20,000-trial commute and 1.10 for the 2000-trial tree:4
# cover; this host's second CPU is shared).  Fused work gains from about
# 2^19 steps (a star:40 cover of 500 trials, 168k steps, read 0.94 in that
# earlier run), so the gate stays
# there.  A pilot of 32 trials predicts a cover walk's total within about
# 10% (one trial's steps have a standard deviation about half their mean),
# and its trials are part of the estimate.  One process walks it, so it is
# kept to a sixteenth of the trials: 48 cover walks of about 376,000 steps
# on a depth-6 binary tree fork after 3 trials, rather than after 32 with
# only 16 left to share.
FORK_PILOT = 32
FORK_MIN_STEPS = 2**19


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _collect(net, start, rule, model, trials, seed, budget, workers):
    def job(lo, hi):
        return (net, start, rule, model, seed, lo, hi, budget)

    block, lockstep = _block_walker(net, start, rule, model, seed, budget)
    workers = min(workers, _usable_cpus())
    # The streams of every trial, derived in one bulk call; the pilot, the
    # rest and the parent's block of a fan-out walk slices of them.
    streams = _trial_states(seed, 0, trials)

    def part(lo, hi):
        return block(lo, hi, tuple(a[lo:hi] for a in streams))

    if workers == 1 or lockstep(trials):
        return part(0, trials)
    pilot = min(FORK_PILOT, max(1, trials // 16))
    samples = part(0, pilot)
    left = trials - pilot
    if left > 1 and left * int(samples[1].sum()) / pilot >= FORK_MIN_STEPS:
        return _joined([samples, *_fan_out(job, part, pilot, trials, min(workers, left))])
    return _joined([samples, part(pilot, trials)])


def _fan_out(job, block, lo, hi, workers):
    """Trials ``[lo, hi)`` in ``workers`` blocks, a list of their samples:
    the parent walks the first on ``block`` while a pool of ``workers - 1``
    processes walks the others, each on tables of its own built from
    ``job``."""
    bounds = [lo + round((hi - lo) * k / workers) for k in range(workers + 1)]
    with get_context("fork").Pool(workers - 1) as pool:
        # Blocks are read in trial order, so a failure raises the lowest
        # failing block's error, as one worker would, not the first to fail.
        others = pool.imap(_trial_block, [job(a, b) for a, b in zip(bounds[1:], bounds[2:])])
        return [block(*bounds[:2]), *(more for _, more in others)]


def _aggregate(rule_label, model, trials, seed, samples) -> EstimateReport:
    # Steps and commutes are int64 arrays, summed exactly; their quotient is
    # the correctly rounded mean, as ``fsum`` gives below 2^53.  The squares
    # keep Python's ``(x - mean) ** 2`` (libm ``pow``), whose bits ``d * d``
    # can miss; a list of them feeds ``fsum`` faster than a generator.
    times, steps, commutes = samples
    times = times.tolist()
    mean = math.fsum(times) / trials
    var = math.fsum([(x - mean) ** 2 for x in times]) / (trials - 1)
    stderr = math.sqrt(var / trials)
    aux = {"steps": int(steps.sum()) / trials}
    if commutes[0] >= 0:
        aux["commutes"] = int(commutes.sum()) / trials
    return EstimateReport(
        rule=rule_label,
        model=model,
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        ci95=(mean - Z_95 * stderr, mean + Z_95 * stderr),
        aux_means=aux,
    )


def estimate(
    net: Network,
    start: int,
    rule,
    model: TimingModel,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EstimateReport:
    """Run ``trials`` independent walks and aggregate their stop times.

    Args:
        net: network to walk on (shared read-only across workers).
        start: start vertex; must match the rule's anchor when it has one.
        rule: any stopping rule.
        model: timing model charged per traversal.
        trials: number of independent trials, at least 2.
        seed: master seed, at least 0; trial ``i`` uses the ``(seed, i)``
            stream.
        workers: the most processes to walk on, at least 1.  The estimate
            forks only when its pilot predicts enough steps to pay for it,
            and never runs more processes than the CPUs it may use.  The
            report is identical for any value.
        step_budget: per-trial hard cap, propagated with the trial index on
            failure.

    Returns:
        An :class:`EstimateReport` with mean, standard error, and 95% CI.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if step_budget < 1:
        raise ValueError(f"step budget must be at least 1, got {step_budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    samples = _collect(net, start, rule, model, trials, seed, step_budget, workers)
    return _aggregate(rule.label(), model, trials, seed, samples)


def estimate_refined(
    spec: SplitSpec,
    kind: str,
    model: TimingModel,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EstimateReport:
    """Monte Carlo mean of one refined-commute time on a validated split."""
    rule = RefinedCommute(kind, spec)
    return estimate(
        spec.network, spec.x, rule, model, trials, seed,
        workers=workers, step_budget=step_budget,
    )


def estimate_vertex_cover(
    net: Network,
    root: int,
    with_return: bool,
    model: TimingModel,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EstimateReport:
    """Monte Carlo mean time to visit every vertex (and return when asked)."""
    rule = VertexCover(root, with_return)
    return estimate(
        net, root, rule, model, trials, seed,
        workers=workers, step_budget=step_budget,
    )


def verify(
    report: EstimateReport,
    target: float,
    kind: str = "equality",
    slack_sigmas: float = 3.0,
) -> ComparisonVerdict:
    """Compare an estimate against an exact target.

    ``equality`` passes when the mean sits within ``slack_sigmas`` standard
    errors of the target; ``upper_bound`` passes when the mean does not
    exceed the target by more than the slack.  Both kinds widen the slack by
    ``ROUNDING_ALLOWANCE * max(1, |target|)`` for rounding.  Targets are
    expected to come from the exact layer, never from constants baked into
    callers.  ``slack_sigmas`` must be a finite number of at least 0.
    """
    if kind not in ("equality", "upper_bound"):
        raise ValueError(f"unknown comparison kind {kind!r}")
    if not (math.isfinite(slack_sigmas) and slack_sigmas >= 0):
        raise ValueError(f"slack must be a finite number of at least 0, got {slack_sigmas}")
    slack = slack_sigmas * report.stderr + ROUNDING_ALLOWANCE * max(1.0, abs(target))
    if kind == "equality":
        passed = abs(report.mean - target) <= slack
    else:
        passed = report.mean <= target + slack
    return ComparisonVerdict(report, float(target), kind, slack_sigmas, passed)


# ---------------------------------------------------------------------------
# Report rendering.  One row per (report, optional verdict); all floats go
# through the same 6-significant-digit format so identical runs are
# byte-identical.
# ---------------------------------------------------------------------------

CSV_HEADER = "rule,model,trials,seed,mean,stderr,ci_lo,ci_hi,target,kind,pass"


def format_number(x: float) -> str:
    return f"{x:.6g}"


def _row_fields(item) -> list[str]:
    report, verdict = item
    fields = [
        report.rule,
        report.model.value,
        str(report.trials),
        str(report.seed),
        format_number(report.mean),
        format_number(report.stderr),
        format_number(report.ci_lo),
        format_number(report.ci_hi),
    ]
    if verdict is None:
        fields += ["", "", ""]
    else:
        fields += [
            format_number(verdict.target),
            verdict.kind,
            "true" if verdict.passed else "false",
        ]
    return fields


def render_csv(items: Iterable[tuple[EstimateReport, ComparisonVerdict | None]]) -> str:
    lines = [CSV_HEADER]
    lines += [",".join(_row_fields(item)) for item in items]
    return "\n".join(lines) + "\n"


def render_text(items: Iterable[tuple[EstimateReport, ComparisonVerdict | None]]) -> str:
    blocks = []
    for report, verdict in items:
        lines = [
            f"rule:    {report.rule}",
            f"model:   {report.model.value}",
            f"trials:  {report.trials}",
            f"seed:    {report.seed}",
            f"mean:    {format_number(report.mean)}",
            f"stderr:  {format_number(report.stderr)}",
            f"ci95:    [{format_number(report.ci_lo)}, {format_number(report.ci_hi)}]",
        ]
        if verdict is not None:
            lines += [
                f"target:  {format_number(verdict.target)} ({verdict.kind})",
                f"slack:   {format_number(verdict.slack_sigmas)} sigma",
                f"pass:    {'true' if verdict.passed else 'false'}",
            ]
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks)) + "\n"

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
being step k, while its masks fit in 64 bits, at any row width.  It draws
each trial's uniforms in groups, by PCG64 jump-ahead on the whole block at
once, and walks a group as a chase and a settle: the chase takes the
group's steps in turn and moves only what the next step looks up, and the
settle reads every step's charge, progress, stop and commute at once.
While the fused loop's rows are rank rows, it ranks each group once, on
the fused loop's one-row grid, and a step of the chase is a key,
position + rank, and the next position at that key, in flat arrays of
the same rows' entries; above ``walker.RANK_ENTRIES_MAX`` a step of the
chase finds every lane's slot with one lookup on a per-vertex grid of its
draw.  At each group's end it records the trials that stopped in it,
and once fewer than ``LOCKSTEP_MIN_LIVE`` (48) are live, it hands the
rest to the fused loop, which goes on from the step each reached, reading
first a block of its next ``TAIL_BLOCK`` (32) draws that the lockstep
walker derived and ranked in numpy.  Rules without lane tables, and walks
that stop before their first step, run every trial on ``run``.  All three
walkers give the same bits; the measurements behind the gate, the group
sizes, the hand-off and the tails' block are with the constants below,
and those behind the grid's bound with ``walker.GRID_ENTRIES_MAX``.  A
block's samples are three arrays: stop times, steps and commutes.  The
sampling tables, the lanes and both walkers' rows are built once per
estimate in the calling process, and once more in each forked worker.

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


# uint64 constants for the 128-bit arithmetic below, so that no operation
# converts a Python int.
_M32, _U1, _U11, _U32, _U58, _U63 = (np.uint64(c) for c in (_MASK32, 1, 11, 32, 58, 63))


def _limbs(hi, lo) -> tuple:
    """A 128-bit multiplier's uint64 limbs, as the products below take it:
    ``(hi, lo, lo & 0xFFFFFFFF, lo >> 32)``, of uint64 scalars or arrays."""
    return hi, lo, lo & _M32, lo >> _U32


_PCG_LIMBS = _limbs(np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO))


def _mulhi64(a: np.ndarray, b: tuple) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``: a uint64 array by the
    low word of the multiplier limbs ``b`` (:func:`_limbs`), broadcast."""
    _, _, b0, b1 = b
    a0, a1 = a & _M32, a >> _U32
    mid = a1 * b0
    low = a0 * b0
    low >>= _U32
    mid += low
    np.multiply(a0, b1, out=low)
    low += mid & _M32
    low >>= _U32
    mid >>= _U32
    high = a1 * b1
    high += mid
    high += low
    return high


def _mul128(x_hi, x_lo, c: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Low 128 bits of ``x * c`` as new (hi, lo) words, for uint64 arrays
    ``x`` and multiplier limbs ``c`` (:func:`_limbs`), broadcast."""
    c_hi, c_lo = c[:2]
    hi = _mulhi64(x_lo, c)
    part = x_lo * c_hi
    hi += part
    np.multiply(x_hi, c_lo, out=part)
    hi += part
    return hi, x_lo * c_lo


def _add128(x_hi, x_lo, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """``x += y`` modulo 2**128, in place on the (hi, lo) words of ``x``,
    which hold the broadcast shape; returns them."""
    x_lo += y_lo
    x_hi += y_hi
    x_hi += x_lo < y_lo
    return x_hi, x_lo


def _pcg64_seed(pool: np.ndarray) -> tuple[np.ndarray, ...]:
    """``generate_state(4, uint64)`` from a (4, n) pool, then
    ``pcg64_set_seed``."""
    out = _hashmix(np.concatenate([pool, pool]), 0, 8, _INIT_B, _MULT_B).astype(np.uint64)
    words = out[1::2] << _U32
    words |= out[0::2]
    init_hi, init_lo, seq_hi, seq_lo = words
    inc_hi = seq_hi << _U1
    inc_hi |= seq_lo >> _U63
    inc_lo = seq_lo << _U1
    inc_lo |= _U1
    # state = 0; step (state = inc); state += initstate; step again.
    _add128(init_hi, init_lo, inc_hi, inc_lo)
    state_hi, state_lo = _add128(*_mul128(init_hi, init_lo, _PCG_LIMBS), inc_hi, inc_lo)
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
# draw group of steps over every live lane at a time, on the same streams.
# It draws each lane's uniforms in groups: with ``a`` PCG64's multiplier,
# the state k steps after state s is ``A_k s + G_k inc`` modulo 2**128,
# where ``A_k = a**k`` and ``G_k`` is the sum of ``a**j`` for j < k.  So
# one pass of 128-bit multiply-adds on hi/lo uint64 arrays gives a (group,
# lanes) matrix of states, and the next group of the same size is the last
# one advanced by ``A_k`` plus each lane's ``G_k inc``; a group of one is
# the plain one-step advance.  The multipliers are held as uint64 limbs
# (``_limbs``), cached with the jumps, and the products update their
# temporaries in place (``out=``, ``+=``) rather than making an array per
# operation: a 128-bit multiply makes 8 arrays where it made about 20.
# The group size follows the live lanes
# (``LOCKSTEP_GROUPS``), cut at the step budget, and the groups' rows drop
# stopped lanes with the other arrays.  Each state's output is XSL-RR and
# its uniform the top 53 bits, as ``Generator.random`` computes them, and
# row k of the group feeds the group's k-th step.  Every step draws
# exactly one uniform, so a lane's k-th draw is its k-th step whatever the
# scalar walker's refill schedule.
#
# How a step moves a lane is a ``walker._Steps``, which the lanes'
# ``walkers`` build once per estimate, on either side of the rank gate,
# beside the fused walk.  A group is a chase, then a settle.  The chase
# takes the group's steps in turn and moves only what the next step's
# lookup needs, and keeps each step's keys; the settle then reads every
# step from its keys at once and gives each lane's running values after
# each row: its clock, by adding the charges down the rows from the lane's
# clock, one row at a time (so each lane adds its charges in step order,
# and its clock is the scalar walker's float sum), its coverage mask by
# or-ing the bits down the rows, its stops and its commute count.  While
# the fused loop's rows are rank rows, the moves come from the same
# entries: a lane's position is its row (a table rule's state folded in)
# times the ranks, each group's draws are ranked once on the fused loop's
# one-row grid, and a step of the chase is two
# numpy calls, ``key = position + rank`` and ``position = moved[key]``;
# flat per-(row, rank) arrays give the settle the charge, the stop and the
# commute, or the coverage bit.  Above ``walker.RANK_ENTRIES_MAX`` a step
# of the chase finds each lane's slot on a per-vertex grid of its draw
# (``walker._grid``): the group's draws are binned once, ``bin = u *
# 2**g``, and a lane's slot is ``lo`` at (vertex, bin) plus the count of
# that bin's thresholds at or below ``u``, so one lookup serves every row
# width.  The rule then moves by slot, not by arc: the lanes' ``lockstep``
# gives one step over flat per-slot tables (a table rule's state is
# carried in its key, state + slot), so no step maps a slot to its arc;
# the chase keeps its slots, stops and commutes for the settle.  The
# walker owns every per-lane array: position, progress, commute count and
# clock.  At each group's end, lanes that stopped in it write the samples
# of their first stop row into the block's arrays, and once a quarter of
# the lanes have stopped, every array drops them at once, so the lanes
# stay read-only.  When fewer than
# ``LOCKSTEP_MIN_LIVE`` lanes are left at a group's end, or the live lanes
# reach the step budget, the rest go on, in trial order, on the fused
# scalar loop from the step they reached: their vertex, progress, clock,
# step count, commute count and PCG64 state carry over, so they give the
# same results (or raise the same ``StepBudgetExceeded``).  Each first
# reads its next ``TAIL_BLOCK`` draws within the budget, derived for every
# tail at once by one more jump-ahead pass and ranked on the same grid,
# and a tail sets its generator to the state after them only if it walks
# past them (``_Deferred``).
# ---------------------------------------------------------------------------

# Block size from which the lockstep walker runs, and the live lanes below
# which it hands the rest to the fused scalar loop.  Measured on a 2-CPU
# host (Xeon, Python 3.11, numpy 2.4) in one process, as the fused block
# time over the lockstep block time, both on rank rows, with the draw
# groups, hand-off and tails' block below (best of 7 interleaved rounds,
# CPU time; ``random:8,10`` and ``random:12,14`` are seed 1):
#
#   lanes                       100   200   300   400   500   700  1000  2000
#   commute, path:1,1,1, 0-3   1.48  2.21  2.82  3.33  3.86  4.53  4.62  6.42
#   arc cover, triangle        1.73  2.59  3.57  4.20  4.72  5.52  5.78  8.39
#   edge cover, random:8,10    1.34  2.02  2.47  2.90  3.03  3.68  3.45  4.40
#   arc cover, tree:3          0.92  1.17  1.46  1.63  1.83  2.10  1.99  2.39
#   12-hop path commute        0.88  1.28  1.47  1.69  1.80  2.12  1.97  2.46
#   vcover+ret, random:12,14   1.12  1.72  2.09  2.49  2.69  3.07  3.01  3.85
#
# Short walks gain from 100 lanes and walks of hundreds of steps (687 a
# trial on tree:3) from 100-200.  Every row now gains at least 1.46x at
# 300, but the gate stays at 400: an estimate that walks in lockstep is one
# block at any ``workers`` and never forks (see the fork table), while a
# fused tree:4 edge cover of 300 trials gains 1.46x from a fork at 2
# workers, about what tree:3 gains in lockstep.  Moving the gate waits for
# one cost model for both choices.  So a 600-trial ``verify``
# walks in lockstep at any ``--workers``, and every row gains at least
# 1.63x at the gate.  Past 700 lanes groups hold 2 rows, and rows of
# hundreds of steps gain less at 1000 lanes than at 700.
#
# A lockstep step costs the same at any row width, on rank rows and on the
# per-vertex grid (see ``walker._grid``), so a hub walks in lockstep like
# any other network.  Measured as above (best of 5), on stars, whose centre
# is the widest row, with commutes between two leaves and edge covers from
# the centre (edge covers of more than 64 arms need wider masks, so they
# walk the fused loop); star:28 to star:80 walk on rank rows, star:200 and
# star:800 on the grid:
#
#   lanes                      400   2000
#   commute, star:28          2.28   3.49
#   commute, star:80          1.90   3.38
#   commute, star:200         1.97   3.53
#   commute, star:800         0.95   1.71
#   edge cover, star:28       2.52   3.79
#   edge cover, star:56       2.66   3.51
#   edge cover, star:64       2.62   3.54
#
# Before the grid, a step compared each lane
# with every ``cum`` column of the widest row, and commutes lost to the
# fused loop from about 19 columns at 400 lanes (star:28 read 0.72, star:80
# 0.24), so such blocks walked the fused loop.  Only star:800's grid is
# held to ``GRID_ENTRIES_MAX``; its bins keep 13 thresholds, and it loses
# at 400 lanes.
#
# Draw groups, the hand-off, the tails' block and the share of stopped
# lanes at which the arrays drop them were measured on every
# estimate of one seed-1 pass of perfbench's ``verify_exact`` (108
# lockstep blocks of 600 trials) and ``short_trials`` (128 of 2000),
# replayed in one process, as the sum over estimates of each one's best
# CPU time of 9 interleaved rounds, over that of the constants chosen here
# (in brackets):
#
#   draw groups                           verify_exact  short_trials
#   1 at any width                            2.11          1.20
#   8 at any width                            1.02          1.23
#   8 at <= 700 lanes, else 1                 1.02          1.09
#   4 at <= 700, 2 at <= 2000, else 1         1.15          1.07
#   16 at <= 700, 2 at <= 2000, else 1        1.02          1.11
#   8 at <= 700, 4 at <= 2000, else 1         1.03          1.10
#   16 at <= 300, 4 at <= 2000, else 1        1.05          1.09
#   [8 at <= 700, 2 at <= 2000, else 1]       1.00          1.00
#
#   hand-off at live lanes       16     32   [48]     64    128
#   verify_exact               1.02   1.01   1.00   1.01   1.09
#   short_trials               0.99   0.98   1.00   1.00   1.03
#
#   tails' block (draws)       none     16   [32]     48     64
#   verify_exact               1.03   1.01   1.00   0.99   0.99
#   short_trials               1.04   1.00   1.00   1.01   1.01
#
#   drop stopped lanes at     1/16    1/8  [1/4]    1/2   any
#   verify_exact               1.01   1.01   1.00   1.00   1.03
#   short_trials               1.01   0.98   1.00   1.05   1.01
#
# Every ``verify_exact`` block has 600 lanes, so the rows that agree up to
# 700 lanes walk it alike; their 1.01-1.03 is the rounds' spread, about
# 2%.  Wide groups lose on wide blocks, where a step's arithmetic on every
# lane costs more than its numpy calls, and no other row gains on both
# workloads, so the groups stay.
# A group of one is 6-17% slower than the plain one-step advance it
# generalises, but only blocks of more than 2000 live lanes draw that way,
# and at 20,000 lanes the two tied.  The hand-off walks only the steps the
# lockstep did not, and 32 to 64 read alike, so it stays at 48.  A tail
# with no numpy block sets its generator and draws a block of 64; one of
# 32 draws spares that for the three quarters of ``verify_exact``'s 4,169
# tails that stop within it, and larger blocks draw more that short tails
# never read, so it stays at 32.  Dropping stopped lanes takes 13 numpy
# calls; at a quarter of the lanes it happens at 602 of a ``short_trials``
# pass's 837 group ends, and no other share (``any``: every group end
# with a stop) gains on both workloads.
LOCKSTEP_MIN_LANES = 400
LOCKSTEP_MIN_LIVE = 48

# Draws each trial handed to the fused loop gets from the lockstep walker's
# numpy pass, as the head of its first refill block (table above).
TAIL_BLOCK = 32

# Draw-group size by live lanes: groups of ``size`` while at most ``lanes``
# lanes are live, the first row that fits, else one draw a step.
LOCKSTEP_GROUPS = ((700, 8), (2000, 2))


def _group_size(live: int) -> int:
    for lanes, size in LOCKSTEP_GROUPS:
        if live <= lanes:
            return size
    return 1


@functools.cache
def _jumps(size: int) -> tuple[tuple, ...]:
    """PCG64's jump-ahead multipliers for 1 to ``size`` steps, as limbs
    (:func:`_limbs`): ``A_k`` and ``G_k`` as uint64 columns of shape
    (size, 1), and ``A_size`` as uint64 scalars."""
    mask = (1 << 128) - 1
    mult = _PCG_MULT_HI << 64 | _PCG_MULT_LO
    a, g, words = 1, 0, []
    for _ in range(size):
        a, g = a * mult & mask, g + a & mask
        words.append((a >> 64, a & _MASK64, g >> 64, g & _MASK64))
    a_hi, a_lo, g_hi, g_lo = (np.array(column, np.uint64)[:, None] for column in zip(*words))
    return _limbs(a_hi, a_lo), _limbs(g_hi, g_lo), _limbs(a_hi[-1, 0], a_lo[-1, 0])


def _group_states(state_hi, state_lo, inc_hi, inc_lo, size: int):
    """Each lane's PCG64 states after 1 to ``size`` more steps, as (size,
    lanes) hi/lo arrays, and the jump that advances them by ``size`` steps
    more (:func:`_next_group`): ``A_size``'s limbs, and each lane's
    ``G_size inc`` as (1, lanes) hi/lo arrays."""
    a, g, a_size = _jumps(size)
    g_inc_hi, g_inc_lo = _mul128(inc_hi, inc_lo, g)
    group = _add128(*_mul128(state_hi, state_lo, a), g_inc_hi, g_inc_lo)
    return group, (a_size, g_inc_hi[-1:], g_inc_lo[-1:])


def _next_group(group_hi, group_lo, jump):
    """The states a group's size of steps after each of ``group``'s, as new
    arrays."""
    a, g_inc_hi, g_inc_lo = jump
    return _add128(*_mul128(group_hi, group_lo, a), g_inc_hi, g_inc_lo)


def _uniforms(state_hi, state_lo) -> np.ndarray:
    """``Generator.random``'s uniform from each PCG64 state: the top 53 bits
    of its XSL-RR output."""
    x = state_hi ^ state_lo
    rot = state_hi >> _U58
    right = x >> rot
    # (64 - rot) & 63, the left shift of the rotation.
    np.negative(rot, out=rot)
    rot &= _U63
    x <<= rot
    x |= right
    x >>= _U11
    return x * 2.0**-53


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


def _walkers(net, start, rule, model, tables, lanes):
    """``(walk, moves)``: ``walk(rng, budget) -> (stop time, steps,
    commutes)`` for one trial, the fused walk on the rule's lane tables or
    ``run`` without them, and ``moves()``, the lanes' lockstep moves (see
    ``walkers`` of the lanes), or None where the estimate never walks in
    lockstep."""
    if lanes is not None:
        return lanes.walkers(tables, start, rule.label())

    def walk(rng, budget):
        res = run(net, start, rule, model, rng, step_budget=budget, tables=tables)
        return res.stop_time, res.step_count, (res.auxiliary or {}).get("commute_count", -1)

    return walk, None


def _lockstep(table, streams, budget, samples):
    """Walk a block's trials in lockstep on ``table``'s moves (a
    ``walker._Steps``) and write the stop time, steps and commutes of
    those that stop while the walker runs into ``samples``' three arrays.
    Return the others' indices, in trial order, their PCG64 state and
    increment words after their numpy-drawn block, and per trial the
    arguments that continue its fused walk: its vertex, progress, clock,
    step count, commutes and that block, the next ``TAIL_BLOCK`` draws
    within the budget as the fused walk reads them.

    A draw group of ``rows`` steps is a chase and a settle
    (``walker._Steps``), then the group's end: lanes that stopped in it
    record their samples from their first stop row and leave ``live``.
    Stopped lanes stay in the arrays, walking on unread, until they are a
    quarter of them; then, at that group's end, every array drops them at
    once.  Groups are cut at the budget, and the hand-off is at a group's
    end.
    """
    times, step_counts, commute_counts = samples
    state_hi, state_lo, inc_hi, inc_lo = streams
    lane = np.arange(len(state_hi))
    live = np.ones(len(lane), bool)
    at = np.full(len(lane), table.start, np.intp)
    progress = np.full(len(lane), table.initial, table.dtype)
    commutes = np.zeros(len(lane), np.int64)
    clock = np.zeros(len(lane))
    left = len(lane)
    steps = size = 0
    prepare, chase, settle = table.prepare, table.chase, table.settle
    # Row k of the group holds each lane's state after the group's (k + 1)-th
    # step; before the first group, its one row holds the seeded states.
    group_hi, group_lo = state_hi[None], state_lo[None]
    while left >= LOCKSTEP_MIN_LIVE and steps < budget:
        rows = min(_group_size(left), budget - steps)
        if rows == size:
            group_hi, group_lo = _next_group(group_hi, group_lo, jump)
        else:
            (group_hi, group_lo), jump = _group_states(
                group_hi[-1], group_lo[-1], inc_hi, inc_lo, rows
            )
            size = rows
        draws = _uniforms(group_hi, group_lo)
        keys, at, progress = chase(at, progress, draws, prepare(draws))
        clocks, stops, counts, progress = settle(keys, progress, clock, commutes)
        clock = clocks[-1]
        if counts is not None:
            commutes = counts[-1]
        stopped = stops.any(0)
        stopped &= live
        idx = stopped.nonzero()[0]
        steps += rows
        if not len(idx):
            continue
        row = stops[:, idx].argmax(0)
        done = lane.take(idx)
        times[done] = clocks[row, idx]
        step_counts[done] = row + (steps - rows + 1)
        if counts is not None:
            commute_counts[done] = counts[row, idx]
        live[idx] = False
        left -= len(idx)
        if 4 * left < 3 * len(lane):
            keep = live.nonzero()[0]
            lane, at, progress, commutes, clock, inc_hi, inc_lo = (
                a.take(keep) for a in (lane, at, progress, commutes, clock, inc_hi, inc_lo)
            )
            group_hi, group_lo, g_inc_hi, g_inc_lo = (
                a.take(keep, axis=1) for a in (group_hi, group_lo, *jump[1:])
            )
            jump = jump[0], g_inc_hi, g_inc_lo
            live = np.ones(left, bool)
    keep = live.nonzero()[0]
    lane, at, progress, commutes, clock, inc_hi, inc_lo = (
        a.take(keep) for a in (lane, at, progress, commutes, clock, inc_hi, inc_lo)
    )
    state_hi, state_lo = group_hi[-1].take(keep), group_lo[-1].take(keep)
    ahead, blocks = min(TAIL_BLOCK, budget - steps), repeat(())
    if ahead and len(lane):
        (block_hi, block_lo), _ = _group_states(state_hi, state_lo, inc_hi, inc_lo, ahead)
        blocks = table.reads(_uniforms(block_hi, block_lo)).T.tolist()
        state_hi, state_lo = block_hi[-1], block_lo[-1]
    resume = zip(*table.where(at, progress), clock.tolist(), repeat(steps),
                 commutes.tolist(), blocks)
    return lane, (state_hi, state_lo, inc_hi, inc_lo), resume


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


class _Deferred:
    """The generator a lockstep tail walks on past its numpy-drawn block:
    ``aim`` takes the tail's PCG64 state and increment words, and
    ``random`` sets the reused generator to them (``seek``) at the tail's
    first draw, so a tail that stops inside the block never sets it."""

    def __init__(self, seek, rng: np.random.Generator):
        self.seek, self.draw, self.words = seek, rng.random, None

    def aim(self, s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> None:
        self.words = s_hi, s_lo, i_hi, i_lo

    def random(self, n: int) -> np.ndarray:
        if self.words is not None:
            self.seek(*self.words)
            self.words = None
        return self.draw(n)


def _block_walker(net, start, rule, model, seed, budget):
    """``(block, lockstep)``.  ``block(lo, hi, streams=None)`` gives trials
    ``[lo, hi)`` as three arrays, of stop times, steps and commutes, on
    ``streams`` as :func:`_trial_states` derives them for those trials
    (derived here when None).  ``lockstep(n)`` says whether a block of
    ``n`` trials walks in lockstep: it does when it has at least
    ``LOCKSTEP_MIN_LANES`` trials and the rule's lanes give lockstep
    moves.  The tables, lanes and fused rows are built here, once per
    estimate, and the lockstep walker's moves when a block first needs
    them; every block of the estimate reuses them.  A fused trial's
    generator is set to its state before its walk, and a lockstep tail's
    at its first draw past its numpy-drawn block, if it has one."""
    tables = build_tables(net, model)
    lanes = _lanes(net, start, rule, tables, budget)
    walk, moves = _walkers(net, start, rule, model, tables, lanes)
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)

    def seek(s_hi, s_lo, i_hi, i_lo):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def lockstep(n: int) -> bool:
        return moves is not None and n >= LOCKSTEP_MIN_LANES

    def block(lo, hi, streams=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if streams is None:
            streams = _trial_states(seed, lo, hi)
        samples = np.empty(hi - lo), np.empty(hi - lo, np.int64), np.full(hi - lo, -1, np.int64)
        times, steps, commutes = samples
        rest, resume, gen, aim = np.arange(hi - lo), repeat(()), rng, seek
        if lockstep(hi - lo):
            rest, streams, resume = _lockstep(moves(), streams, budget, samples)
            gen = _Deferred(seek, rng)
            aim = gen.aim
        for j, s_hi, s_lo, i_hi, i_lo, at in zip(
            rest.tolist(), *(a.tolist() for a in streams), resume
        ):
            aim(s_hi, s_lo, i_hi, i_lo)
            try:
                times[j], steps[j], commutes[j] = walk(gen, budget, *at)
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

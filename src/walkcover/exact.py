"""Exact expected stop times by absorbing-chain block solve.

The expected stop time of a walk under a stopping rule solves one linear
system over states ``(position, rule progress)``.  Progress, and when a
step stops the walk, come from the rule's lane tables (``make_lanes`` in
:mod:`walkcover.walker`), the definition the estimator walks on.  Progress
is a coverage bitmask or a state number, and a step either keeps it or
raises its rank (the lanes' ``rank``: popcount, or the state number).  So
the system is block triangular, one block per reachable progress value
``p`` holding the positions that share it.  Blocks are solved in
descending rank, each as

    (I - P_pp) x_p = r + sum_q P_pq x_q

where every ``q`` is a progress value of higher rank whose block is already
solved, so no solve is larger than n x n for n vertices.  A step to a block
that is not yet solved (progress that falls or swaps, as a refined
commute's does) raises, rather than giving a wrong answer.  Every block
checks its residual ``|Ax - b|_inf <= 1e-9 max(1, |b|_inf)`` and raises
:class:`ExactSolveFailed` when it does not hold.

The states are enumerated breadth first, one level at a time: one call of
the lanes' vectorised ``advance`` steps every slot of the level's states,
so each transition is stepped once, and a dict numbers the states in the
order the search first reaches them.  Progress wider than 64 bits travels
in object arrays.  The states are then laid out block after block in
solve order (descending rank, then ascending size, then first reached),
each block's states in the order they were reached.  Every block's
``I - P_pp`` is assembled in one flat array, a contiguous slice per block,
its entries summed per state in slot order.  Each batch of equal rank and
size sums its right-hand sides in one accumulate over the slots, the mean
charge first and 0.0 where a step stops or stays in the block, and is
solved with one stacked ``np.linalg.solve``.  So every value is the one a
state-by-state assembly in slot order gives, to the bit, whatever the
batch.  A step to a block not yet solved raises before the first batch, and
a singular batch raises when it is reached.  The residuals of all blocks
are checked together after the last solve, and a failure names the first
failing block in solve order.

The state count still grows exponentially in the edge count, so the
enumeration stops at ``MAX_STATES`` (2**20).  On a 2-CPU x86-64 host with
Python 3.11 and numpy 2.4, each in a fresh process (median of three), a
search that reaches the cap (binary_tree(5) arc cover, 124-bit masks)
fails after 1.4 s at a 234 MB peak, and a full solve of 600k states
(``random:n=9,m=11,seed=3`` arc cover) takes 1.6 s at a 310 MB peak.

This is the runtime source for equality targets that have no closed form
(for example cover-and-return means on named small networks).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import lshift, or_

import numpy as np

from .errors import ExactSolveFailed, StateSpaceTooLarge, VertexOutOfRange
from .netmodel import Network
from .walker import TimingModel, _slot_columns, build_tables, checked_tracker

__all__ = ["exact_stop_time", "MAX_STATES"]

# Fixed cap on reachable states; its time and memory are in the module docstring.
MAX_STATES = 2**20

# Relative bound on each block's residual |Ax - b|_inf, scaled by max(1, |b|_inf).
RESIDUAL_TOLERANCE = 1e-9

# Blocks per stacked solve; bounds the stack at _BATCH * n * n floats.
_BATCH = 1024

# Most states stepped at once; bounds the search's arrays at _CHUNK * width
# entries, and its overshoot past ``max_states``.
_CHUNK = 2**14


def exact_stop_time(
    net: Network,
    start: int,
    rule,
    model: TimingModel = TimingModel.L_SQUARED,
    max_states: int = MAX_STATES,
) -> float:
    """Expected stop time of ``rule`` from ``start``, solved exactly.

    Supports every rule with lane tables whose progress never returns to a
    lower rank; a refined commute's does, and its solve raises
    ``AssertionError``.  A rule without lane tables raises ``TypeError``.
    Rules are validated as :func:`walkcover.walker.run` validates them.
    Raises :class:`StateSpaceTooLarge` when the reachable state count
    exceeds ``max_states`` and :class:`ExactSolveFailed` when a block solve
    fails its residual check.
    """
    tracker = checked_tracker(net, start, rule)
    make_lanes = getattr(rule, "make_lanes", None)
    if make_lanes is None:
        raise TypeError(f"no exact solver for rule type {type(rule).__name__}")
    moves, weights = _slot_rows(build_tables(net, model))
    if tracker.start(start):
        return 0.0
    if not moves[start, 2, 0]:
        raise VertexOutOfRange(f"vertex {start} has no incident arcs")
    lanes = make_lanes(net)
    return _solve(*_reachable(moves, lanes, start, max_states), weights, lanes)


def _slot_rows(tables):
    """The sampling slots per vertex, padded to the widest row: ``(moves,
    weights)``.

    ``moves[v]`` holds, per slot of ``v``, its arc ``2 * edge + direction``,
    its head and 1 (0 in padding), shape (3, width); padding repeats the
    first slot (or arc 0 into vertex 0 where ``v`` has no arcs).
    ``weights[v]`` holds ``v``'s mean one-step charge, summed in slot order,
    then each slot's step probability (0.0 in padding).
    """
    columns, arcs, heads, charges = _slot_columns(tables)
    width = max(1, max(z - a for _, a, z in columns))
    moves, weights = [], []
    for cum, a, z in columns:
        prob = [c - prev for prev, c in zip([0.0, *cum], cum)] if cum else []
        mean = 0.0
        for p, charge in zip(prob, charges[a:z]):
            mean += p * charge
        pad = width - (z - a)
        arc, head = (arcs[a], heads[a]) if cum else (0, 0)
        moves += arcs[a:z] + [arc] * pad + heads[a:z] + [head] * pad + [1] * (z - a) + [0] * pad
        weights += [mean, *prob] + [0.0] * pad
    n = len(columns)
    return np.array(moves).reshape(n, 3, width), np.array(weights).reshape(n, width + 1)


def _reachable(moves, lanes, start, max_states):
    """Reachable non-stopped states in breadth-first order: their progress
    and vertex; per state and slot, whether the step goes on, flattened
    from shape (states, width); and for each step that goes on, in that
    order, the number of the state it reaches.

    States are expanded in the order they are first reached, a level (or
    ``_CHUNK`` states of one) at a time, each in one ``lanes.advance``
    call over all their slots.  A state's key is its progress shifted left
    past every vertex number, or its vertex.  One ``dict.setdefault`` per
    step, mapped in C, gives each key the first of the numbers offered to
    it, one per step taken so far; a step that gets its own number found a
    new state, and ranking those numbers gives the states' numbers.
    """
    shift = len(moves).bit_length()
    offer = {lanes.initial << shift | start: 0}.setdefault
    offered = count = 1
    dtype = lanes.dtype or object
    found = [(np.array([lanes.initial], dtype), np.array([start]))]
    pending = deque(found)
    # Per step, the number its key got and whether that was its own; the
    # start's entry comes first.
    lives, gots, news = [], [np.zeros(1, np.intp)], [np.ones(1, bool)]
    while pending:
        if count > max_states:
            raise StateSpaceTooLarge(f"more than {max_states} reachable states")
        progress, vertex = pending.popleft()
        if len(vertex) > _CHUNK:
            pending.appendleft((progress[_CHUNK:], vertex[_CHUNK:]))
            progress, vertex = progress[:_CHUNK], vertex[:_CHUNK]
        move = moves[vertex]
        heads = move[:, 1]
        after, stops, _ = lanes.advance(progress[:, None], move[:, 0], heads)
        live = move[:, 2] > stops
        after, heads = after[live], heads[live]
        steps = len(heads)
        keys = map(or_, map(lshift, after.tolist(), repeat(shift)), heads.tolist())
        numbers = np.arange(offered, offered + steps)
        got = np.fromiter(map(offer, keys, numbers.tolist()), np.intp, steps)
        new = got == numbers
        offered += steps
        lives.append(live)
        gots.append(got)
        news.append(new)
        fresh = np.count_nonzero(new)
        if fresh:
            count += fresh
            found.append((after[new], heads[new]))
            pending.append(found[-1])
    progress, vertex = (np.concatenate(column) for column in zip(*found))
    got = np.concatenate(gots)
    states = got[np.concatenate(news)]  # each state's number as offered, rising
    return progress, vertex, np.concatenate(lives, axis=None), states.searchsorted(got[1:])


def _solve(progress, vertex, live, reached, weights, lanes) -> float:
    """Solve the blocks of the states in descending rank and return the
    value at the first state (the start).

    Positions lay the states out block after block in solve order, each
    block's states in the order the search reached them.
    """
    count, (n, width) = len(vertex), weights.shape
    width -= 1
    index: dict = {}
    block = np.array([index.setdefault(p, len(index)) for p in progress.tolist()])
    size = np.bincount(block)
    rank = np.array(list(map(lanes.rank, index)))
    # Blocks in solve order: descending rank, then ascending size, then
    # first reached.  Batches are runs of equal rank and size in that order,
    # split every _BATCH blocks.
    order = np.lexsort((size, -rank))
    sizes, ranks = size[order], rank[order]
    groups = list(zip(ranks.tolist(), sizes.tolist()))
    cuts = [0]
    for j in range(1, len(groups) + 1):
        if j == len(groups) or groups[j] != groups[j - 1] or j - cuts[-1] == _BATCH:
            cuts.append(j)
    first = np.zeros(len(order) + 1, np.intp)  # each block's first position
    sizes.cumsum(out=first[1:])
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    perm = place[block].argsort(kind="stable")  # the state at each position
    pos = np.empty(count + 1, np.intp)  # each state's position, and -1 past them
    pos[perm] = np.arange(count)
    pos[count] = -1

    # By position and slot: the position a step reaches (-1 where it stops
    # or pads the row), and whether it stays in the block.
    target = np.full(count * width, count, np.intp)
    target[live] = reached
    del live, reached
    target = pos[target.reshape(count, width)[perm]]
    span, begin = sizes.repeat(sizes), first[:-1].repeat(sizes)
    rel = target - begin[:, None]
    inside = rel.view(np.uintp) < span.view(np.uintp)[:, None]

    # Every block's I - P_pp, its rows one after another in ``flat``, each
    # entry summed in slot order.
    row = np.zeros(count + 1, np.intp)
    span.cumsum(out=row[1:])
    flat = np.zeros(row[-1])
    flat[row[:-1] + np.arange(count) - begin] = 1.0
    weight = weights[vertex[perm]]
    rel += row[:-1, None]
    np.subtract.at(flat, rel[inside], weight[:, 1:][inside])
    del rel

    # Right-hand sides, one term per column of ``take`` and ``weight``:
    # the mean charge times ``x[count]`` (1.0), then per slot the step's
    # probability times the value it reaches, times ``x[-1]`` (0.0) where
    # the step stops or stays in the block.  A batch sums them in that
    # order with one accumulate: the sum a loop over the slots makes.
    target[inside] = -1
    take = np.full((count, width + 1), count)
    take[:, 1:] = target
    x = np.zeros(count + 2)
    x[count] = 1.0
    rhs, ax = np.empty(count), np.empty(count)

    # A step that leaves its block must reach a block of an earlier batch,
    # before the position where its own batch begins.
    starts = first[cuts]
    late = target >= np.repeat(starts[:-1], np.diff(starts))[:, None]
    del target
    if late.any():
        s, j = divmod(int(late.argmax()), width)
        raise AssertionError(
            f"progress {int(progress[perm[s]]):#x} -> {int(progress[perm[take[s, 1 + j]]]):#x} "
            "is not monotone; the block solve needs every step that changes progress to "
            "reach a higher rank"
        )
    bounds, ends, sizes = starts.tolist(), row[starts].tolist(), sizes[cuts[:-1]].tolist()
    with np.errstate(all="ignore"):  # a bad block shows in its residual below
        for i in range(len(cuts) - 1):
            lo, hi, k = bounds[i], bounds[i + 1], sizes[i]
            b = np.add.accumulate(weight[lo:hi] * x[take[lo:hi]], axis=1)[:, -1]
            mat = flat[ends[i]:ends[i + 1]].reshape(-1, k, k)
            try:
                sol = np.linalg.solve(mat, b.reshape(-1, k, 1))
            except np.linalg.LinAlgError:
                raise ExactSolveFailed(
                    f"a block of progress rank {ranks[cuts[i]]} is singular: the rule "
                    "cannot stop from it"
                ) from None
            x[lo:hi] = sol.ravel()
            rhs[lo:hi] = b
            ax[lo:hi] = (mat @ sol).ravel()
        # Each block's worst residual |Ax - b| against its bound.
        worst = np.maximum.reduceat(np.abs(ax - rhs), first[:-1])
        bound = RESIDUAL_TOLERANCE * np.maximum(1.0, np.maximum.reduceat(np.abs(rhs), first[:-1]))
        bad = ~(worst <= bound)
        if bad.any():
            j = int(bad.argmax())
            raise ExactSolveFailed(
                f"a block of progress rank {ranks[j]} has residual {worst[j]:.3g} "
                f"above {bound[j]:.3g}"
            )
    return float(x[pos[0]])

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

The states are enumerated breadth first, one level at a time.  A state is
a row of the lanes' entries and a progress, as the lockstep walker holds a
lane: the lanes' ``entries`` (built once per solve over the sampling
slots) give the row each entry leads to, each row's vertex and first
entry, and the fold the walker settles on.  A row's entries are its first
entry plus its vertex's slots, padded per vertex to the widest, so the
search's tables grow with the entries and the vertices, not with the rows
times the widest vertex.  One call of the fold steps every entry of the
level's rows, so each transition is stepped once.  A dict numbers the
states in the order the search first reaches them.  A level's keys are
built in numpy when its widest key fits in 64 bits.  Progress is held as
the fold holds it, and masks wider than 64 bits travel in object arrays.
The lanes' ``where`` gives each state its vertex and its block value, the
progress the fused walk takes: a table rule's state number, or the mask.
One stable sort of the block values gives the blocks, and the states are
then laid out block after block in solve order (descending rank, then
ascending size, then first reached), each block's states in the order they
were reached, at int32 positions.  Every block's ``I - P_pp``
is assembled in a flat array, a contiguous slice per block, its entries
summed per state in slot order.  Each batch of equal rank and size sums
its right-hand sides in one accumulate over the slots, the mean charge
first and 0.0 where a step stops or stays in the block, and is solved with
one stacked ``np.linalg.solve``.  So every value is the one a
state-by-state assembly in slot order gives, to the bit, whatever the
batch.  Only the positions each step reaches are held for every state: the
matrices and the per-slot weights are built a chunk of whole batches
(``_CHUNK`` states or more) at a time.  A step to a block not yet solved
raises before the first batch, and a singular batch raises when it is
reached.  The residuals of all blocks are checked together after the last
solve, and a failure names the first failing block in solve order.

The state count still grows exponentially in the edge count, so the
enumeration stops at ``MAX_STATES`` (2**20).  On a 2-CPU x86-64 host with
Python 3.11 and numpy 2.4, each in a fresh process
(``tools/exact_costs.py``), a search that reaches the cap (binary_tree(5)
arc cover, 124-bit masks) fails after 902 ms at a 227 MB peak, and a full
solve of 600k states (``random:n=9,m=11,seed=3`` arc cover) takes 865 ms
at a 142.5 MB peak.

This is the runtime source for equality targets that have no closed form
(for example cover-and-return means on named small networks).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import lshift, mul, or_, sub

import numpy as np

from .errors import ExactSolveFailed, StateSpaceTooLarge, VertexOutOfRange
from .netmodel import Network
from .walker import TimingModel, build_tables, checked_tracker, slot_columns

__all__ = ["exact_stop_time", "MAX_STATES"]

# Fixed cap on reachable states; its time and memory are in the module docstring.
MAX_STATES = 2**20

# Relative bound on each block's residual |Ax - b|_inf, scaled by max(1, |b|_inf).
RESIDUAL_TOLERANCE = 1e-9

# Most states stepped at once; bounds the search's arrays at _CHUNK * width
# entries, and its overshoot past ``max_states``.  The solve builds its
# matrices and per-slot weights for about as many states at a time, and
# stacks at most ``max(1, _CHUNK // k)`` blocks of k states in one solve,
# so a stack holds at most _CHUNK * k floats, or one k x k block.
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
    slots, arcs, heads, charges = slot_columns(build_tables(net, model))
    slot, weights = _slot_rows(slots, charges)
    valid = weights[:, 1:] > 0.0  # not padding: every slot has a positive probability
    if tracker.start(start):
        return 0.0
    if not valid[start, 0]:
        raise VertexOutOfRange(f"vertex {start} has no incident arcs")
    lanes = make_lanes(net)
    *entries, where = lanes.entries(arcs, heads, len(slots))
    progress, row, live, reached = _reachable(slot, valid, entries, lanes, start, max_states)
    vertex, value = where(row, progress)
    return _solve(value, vertex, live, reached, weights, lanes)


def _slot_rows(slots, charges):
    """The sampling slots per vertex, padded to the widest row: ``(slot,
    weights)``, from :func:`slot_columns`' columns.

    ``slot[v]`` holds the numbers of ``v``'s slots; padding repeats the
    first slot (or slot 0 where ``v`` has no arcs), so that every entry is
    one the lanes' fold can read.  ``weights[v]`` holds ``v``'s mean
    one-step charge, summed in slot order, then each slot's step
    probability (0.0 in padding).
    """
    width = max(1, max(z - a for _, a, z in slots))
    slot, weights = [], []
    for cum, a, z in slots:
        pad = width - (z - a)
        if cum:
            prob = list(map(sub, cum, [0.0, *cum]))
            mean = 0.0
            for term in map(mul, prob, charges[a:z]):
                mean += term
            slot += (*range(a, z), *(a,) * pad)
            weights += (mean, *prob, *(0.0,) * pad)
        else:
            slot += (0,) * width
            weights += (0.0,) * (width + 1)
    n = len(slots)
    return np.array(slot).reshape(n, width), np.array(weights, float).reshape(n, width + 1)


def _reachable(slot, valid, entries, lanes, start, max_states):
    """Reachable non-stopped states in breadth-first order: their progress
    and row; per state and slot of its vertex, whether the step goes on,
    flattened from shape (states, width); and for each step that goes on,
    in that order, the number of the state it reaches (int32).

    States are expanded in the order they are first reached, a level (or
    ``_CHUNK`` states of one) at a time, each in one call of the lanes'
    fold over all the entries of their rows, counting no commutes.
    ``entries`` is the lanes' ``(to, vertex, first, fold)``: a row's
    entries are its first entry plus its vertex's ``slot`` row, of which
    ``valid`` marks the slots that are not padding, and ``to`` gives the
    rows they lead to.  A state's key is its progress, as the fold holds
    it, shifted left past every row number, or its row.  Where a level's
    widest key fits in 64 bits, its keys are built in one uint64 array;
    wider ones (and object progress) as Python ints.  Either way the dict
    sees the same ints.  One ``dict.setdefault`` per step, mapped in C,
    gives each key the first of the numbers offered to it, one per step
    taken so far; a step that gets its own number found a new state.  A
    table indexed by offered number then maps every step's number to its
    state's.
    """
    to, vertex, first, fold = entries
    stated = first.any()  # False for lanes of one state, whose rows begin at entry 0
    shift, width = len(vertex).bit_length(), slot.shape[1]
    wide, top = np.uint64(shift), np.maximum.reduce
    offer = {lanes.initial << shift | start: 0}.setdefault
    offered = count = 1
    dtype = lanes.dtype or object
    found = [(np.array([lanes.initial], dtype), np.array([start]))]
    pending = deque(found)
    # Per step, the number its key got (its own where it found a new state);
    # the start's entry comes first.
    lives, gots = [], [np.zeros(1, np.intp)]
    while pending:
        if count > max_states:
            raise StateSpaceTooLarge(f"more than {max_states} reachable states")
        progress, row = pending.popleft()
        if len(row) > _CHUNK:
            pending.appendleft((progress[_CHUNK:], row[_CHUNK:]))
            progress, row = progress[:_CHUNK], row[:_CHUNK]
        at = vertex.take(row)
        keys = slot.take(at, 0)
        if stated:
            keys += first.take(row)[:, None]
        stops, _, after = fold(keys[None], progress[:, None].repeat(width, 1), None)
        live = valid.take(at, 0) > stops[0]
        after, row = after[live], to.take(keys)[live]
        steps = len(row)
        if dtype is not object and steps and int(top(after)).bit_length() <= 64 - shift:
            keys = (after.view(np.uint64) << wide | row.view(np.uint64)).tolist()
        else:
            keys = map(or_, map(lshift, after.tolist(), repeat(shift)), row.tolist())
        got = np.fromiter(map(offer, keys, range(offered, offered + steps)), np.intp, steps)
        new = got == np.arange(offered, offered + steps)
        offered += steps
        lives.append(live)
        gots.append(got)
        level = after[new], row[new]
        if len(level[1]):
            count += len(level[1])
            found.append(level)
            pending.append(level)
    del offer  # the dict, before the arrays are joined
    progress, row = (np.concatenate(column) for column in zip(*found))
    got = np.concatenate(gots)
    state = np.empty(offered, np.int32)  # by offered number: the state that got it
    state[got == np.arange(offered)] = np.arange(count, dtype=np.int32)
    return progress, row, np.concatenate(lives, axis=None), state[got[1:]]


def _solve(progress, vertex, live, reached, weights, lanes) -> float:
    """Solve the blocks of the states in descending rank and return the
    value at the first state (the start).  ``progress`` is each state's
    block value, as the lanes' ``where`` gives it, which is also how an
    error names it.

    One stable sort of the progress values gives the blocks: each value's
    states, in the order the search reached them, are a run of the sort,
    and the first of them says when the block was first reached.
    Positions (int32) lay the states out block after block in solve order,
    each block's states in that order.  For every state only the positions
    its steps reach are held, with where they fall in its block; the
    weights and the matrices are built a chunk of whole batches at a time.
    """
    count, (n, width) = len(vertex), weights.shape
    slots = width - 1
    by = progress.argsort(kind="stable")
    ordered = progress[by]
    edge = np.zeros(count + 1, bool)
    edge[0] = edge[count] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    edge = edge.nonzero()[0].astype(np.int32)  # where each value's run begins in ``by``
    run, size = edge[:-1], edge[1:] - edge[:-1]
    rank = np.array(list(map(lanes.rank, ordered[run].tolist())))
    del ordered
    # Blocks in solve order: descending rank, then ascending size (``kind``
    # rises along it), then first reached.  Batches are runs of one kind in
    # that order, split every ``_CHUNK // size`` blocks (at least one).
    kind = size - rank * (n + 1)
    order = np.lexsort((by[run], kind))
    kind, sizes = kind[order], size[order]
    runs = [0, *((kind[1:] != kind[:-1]).nonzero()[0] + 1).tolist(), len(order)]
    cuts = [c for a, z in zip(runs, runs[1:])
            for c in range(a, z, max(1, _CHUNK // int(sizes[a])))] + runs[-1:]
    first = np.zeros(len(order) + 1, np.int32)  # each block's first position
    sizes.cumsum(out=first[1:])
    begin = first[:-1].repeat(sizes)  # by position: its block's first position
    perm = by[(run[order] - first[:-1]).repeat(sizes) + np.arange(count)]  # the state at each
    del by, run
    pos = np.empty(count, np.int32)  # each state's position
    pos[perm] = np.arange(count, dtype=np.int32)

    # By position: -2 (where x holds 1.0, for the mean charge), then per
    # slot the position its step reaches, -1 where it stops or pads the row.
    # Columns line up with ``weights``'.
    target = np.full((count, width), -1, np.int32)
    target[:, 0] = -2
    target[:, 1:][live.reshape(count, slots)] = pos[reached]
    del live, reached
    target = target[perm]
    span = sizes.repeat(sizes)  # by position: its block's size
    inside = (target - begin[:, None]).view(np.uint32) < span.view(np.uint32)[:, None]

    # A step that leaves its block must reach a block of an earlier batch,
    # before the position where its own batch begins.  A step that stays in
    # its block reaches at least that far, so the XOR leaves the late ones.
    starts = first[cuts]
    late = target >= starts[:-1].repeat(starts[1:] - starts[:-1])[:, None]
    late ^= inside
    if late.any():
        s, j = divmod(int(late.argmax()), width)
        before, after = progress[perm[[s, target[s, j]]]].tolist()
        raise AssertionError(
            f"progress {before:#x} -> {after:#x} is not monotone; the block solve needs every "
            "step that changes progress to reach a higher rank"
        )
    del late

    # Every block's I - P_pp has its rows one after another in a flat array,
    # from ``row``, each entry summed in slot order.  It is assembled a chunk
    # of whole batches at a time, _CHUNK positions or more (but the last),
    # together with the chunk's ``weight`` rows and its ``take``: ``target``
    # with -1 where a step stays in its block.  Each batch then sums its
    # right-hand sides, one term per column of ``take`` and ``weight``: the
    # mean charge times ``x[-2]`` (1.0), then per slot the step's
    # probability times the value it reaches, times ``x[-1]`` (0.0) where the
    # step stops or stays in the block.  One accumulate sums them in that
    # order: the sum a loop over the slots makes.
    row = np.zeros(count + 1, np.intp)
    span.cumsum(out=row[1:])
    x = np.zeros(count + 2)
    x[-2] = 1.0
    residual = np.empty((2, count))  # per position: b, then Ax
    rhs, ax = residual
    at = vertex[perm]
    bounds, ends, sizes = starts.tolist(), row[starts].tolist(), sizes[cuts[:-1]].tolist()
    chunks = [0]  # the first batch of each chunk, then the batch count
    for i in range(1, len(sizes)):
        if bounds[i] - bounds[chunks[-1]] >= _CHUNK:
            chunks.append(i)
    chunks.append(len(sizes))
    with np.errstate(all="ignore"):  # a bad block shows in its residual below
        for c, d in zip(chunks, chunks[1:]):
            lo, hi, base = bounds[c], bounds[d], ends[c]
            take, weight, stay = target[lo:hi], weights[at[lo:hi]], inside[lo:hi]
            rows = row[lo:hi] - base
            flat = np.zeros(ends[d] - base)
            flat[rows + np.arange(lo, hi) - begin[lo:hi]] = 1.0
            entry = take - (begin[lo:hi] - rows)[:, None]  # its place in ``flat``
            np.subtract.at(flat, entry[stay], weight[stay])
            take[stay] = -1
            for i in range(c, d):
                a, z, k = bounds[i] - lo, bounds[i + 1] - lo, sizes[i]
                b = np.add.accumulate(weight[a:z] * x[take[a:z]], axis=1)[:, -1]
                mat = flat[ends[i] - base:ends[i + 1] - base].reshape(-1, k, k)
                try:
                    sol = np.linalg.solve(mat, b.reshape(-1, k, 1))
                except np.linalg.LinAlgError:
                    raise ExactSolveFailed(
                        f"a block of progress rank {rank[order[cuts[i]]]} is singular: the rule "
                        "cannot stop from it"
                    ) from None
                x[lo + a:lo + z] = sol.ravel()
                rhs[lo + a:lo + z] = b
                ax[lo + a:lo + z] = (mat @ sol).ravel()
        # Each block's worst residual |Ax - b| against its bound.
        ax -= rhs
        top, worst = np.maximum.reduceat(np.abs(residual, out=residual), first[:-1], axis=1)
        bound = RESIDUAL_TOLERANCE * np.maximum(1.0, top)
        bad = ~(worst <= bound)
        if bad.any():
            j = int(bad.argmax())
            raise ExactSolveFailed(
                f"a block of progress rank {rank[order[j]]} has residual {worst[j]:.3g} "
                f"above {bound[j]:.3g}"
            )
    return float(x[pos[0]])

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

The state count still grows exponentially in the edge count, so the
breadth-first enumeration of reachable states stops at ``MAX_STATES``
(2**20).  A state costs at most about 300 bytes.  On a 2-CPU x86-64 host
with Python 3.11, a search that reaches the cap (binary_tree(5) arc cover)
fails after 2 s at a 324 MB peak, and a full solve of 600k states
(``random:n=9,m=11,seed=3`` arc cover) takes 3.3 s at a 153 MB peak.

This is the runtime source for equality targets that have no closed form
(for example cover-and-return means on named small networks).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .errors import ExactSolveFailed, StateSpaceTooLarge, VertexOutOfRange
from .netmodel import Network
from .walker import TimingModel, build_tables, checked_tracker

__all__ = ["exact_stop_time", "MAX_STATES"]

# Fixed cap on reachable states; its time and memory are in the module docstring.
MAX_STATES = 2**20

# Relative bound on each block's residual |Ax - b|_inf, scaled by max(1, |b|_inf).
RESIDUAL_TOLERANCE = 1e-9

# Blocks per stacked solve; bounds the stack at _BATCH * n * n floats.
_BATCH = 1024


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
    if tracker.start(start):
        return 0.0
    lanes = make_lanes(net)
    step = lanes.stepper()
    steps = _step_rows(build_tables(net, model))
    blocks = _reachable_blocks(steps, start, lanes.initial, step, max_states)
    solved: dict[int, list[float]] = {}
    # Blocks of equal rank and size are solved together, stacked in batches
    # of at most _BATCH; _assemble checks that none reads an unsolved block.
    rank = lanes.rank
    order = sorted(blocks, key=lambda p: (-rank(p), len(blocks[p])))
    for (r, _), group in groupby(order, lambda p: (rank(p), len(blocks[p]))):
        group = list(group)
        for lo in range(0, len(group), _BATCH):
            batch = group[lo : lo + _BATCH]
            mat, rhs = _assemble(batch, blocks, steps, solved, step)
            solved.update(zip(batch, _solve_stack(mat, rhs, r).tolist()))
    return solved[lanes.initial][0]


def _step_rows(tables):
    """Per vertex: ``(mean one-step charge, [(arc, head, prob)])``, or None.

    Arcs are numbered ``2 * edge + direction``, as the lane tables number them.
    """
    rows = []
    for row in tables:
        if row is None:
            rows.append(None)
            continue
        cum, meta = row
        prev = 0.0
        mean = 0.0
        arcs = []
        for c, (e, d, head, charge) in zip(cum, meta):
            prob = c - prev
            prev = c
            mean += prob * charge
            arcs.append((2 * e + d, head, prob))
        rows.append((mean, arcs))
    return rows


def _reachable_blocks(steps, start, initial, step, max_states):
    """Reachable non-stopped states grouped by progress: ``{progress: {vertex: row}}``."""
    blocks: dict[int, dict[int, int]] = {initial: {start: 0}}
    count = 1
    frontier = [(start, initial)]
    while frontier:
        nxt: list[tuple[int, int]] = []
        for v, p in frontier:
            row = steps[v]
            if row is None:
                raise VertexOutOfRange(f"vertex {v} has no incident arcs")
            for arc, head, _ in row[1]:
                p2, stops = step(p, arc, head)
                if stops:
                    continue
                block = blocks.setdefault(p2, {})
                if head not in block:
                    if count >= max_states:
                        raise StateSpaceTooLarge(f"more than {max_states} reachable states")
                    block[head] = len(block)
                    count += 1
                    nxt.append((head, p2))
        frontier = nxt
    return blocks


def _assemble(batch, blocks, steps, solved, step):
    """Stacked ``I - P_pp`` and ``r + sum_q P_pq x_q`` for same-size blocks."""
    size = len(blocks[batch[0]])
    mat = np.tile(np.eye(size), (len(batch), 1, 1))
    rhs = np.empty((len(batch), size))
    for j, p in enumerate(batch):
        block = blocks[p]
        for v, i in block.items():
            acc, arcs = steps[v]
            for arc, head, prob in arcs:
                p2, stops = step(p, arc, head)
                if stops:
                    continue
                if p2 == p:
                    mat[j, i, block[head]] -= prob
                    continue
                x = solved.get(p2)
                if x is None:
                    raise AssertionError(
                        f"progress {p:#x} -> {p2:#x} is not monotone; the block solve "
                        "needs every step that changes progress to reach a higher rank"
                    )
                acc += prob * x[blocks[p2][head]]
            rhs[j, i] = acc
    return mat, rhs


def _solve_stack(mat: np.ndarray, rhs: np.ndarray, rank: int) -> np.ndarray:
    """Solve stacked blocks and check each residual; raise :class:`ExactSolveFailed` if off."""
    try:
        sol = np.linalg.solve(mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ExactSolveFailed(
            f"a block of progress rank {rank} is singular: the rule cannot stop from it"
        ) from None
    residual = np.max(np.abs(np.einsum("bij,bj->bi", mat, sol) - rhs), axis=1)
    bound = RESIDUAL_TOLERANCE * np.maximum(1.0, np.max(np.abs(rhs), axis=1))
    bad = ~(residual <= bound)
    if bad.any():
        j = int(np.argmax(bad))
        raise ExactSolveFailed(
            f"a block of progress rank {rank} has residual {residual[j]:.3g} "
            f"above {bound[j]:.3g}"
        )
    return sol

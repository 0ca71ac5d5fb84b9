"""Exact expected stop times by absorbing-chain block solve.

The expected stop time of a walk under any of the passage or cover rules
solves one linear system over states ``(position, rule progress)``.
Progress is a phase for passage rules and a coverage bitmask for cover
rules, and it only grows: a step either keeps it or moves it to a strict
superset.  So the system is block triangular, one block per reachable
progress value ``p`` holding the positions that share it.  Blocks are
solved supersets first (descending popcount), each as

    (I - P_pp) x_p = r + sum_q P_pq x_q

where every ``q`` is a strict superset of ``p`` whose block is already
solved, so no solve is larger than n x n for n vertices.  A transition that
shrinks or swaps progress raises, rather than giving a wrong answer.  Every
block checks its residual ``|Ax - b|_inf <= 1e-9 max(1, |b|_inf)`` and
raises :class:`ExactSolveFailed` when it does not hold.

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
from .walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    FirstPassage,
    TimingModel,
    VertexCover,
    build_tables,
)

__all__ = ["exact_stop_time", "MAX_STATES"]

# Fixed cap on reachable states; its time and memory are in the module docstring.
MAX_STATES = 2**20

# Relative bound on each block's residual |Ax - b|_inf, scaled by max(1, |b|_inf).
RESIDUAL_TOLERANCE = 1e-9

# Blocks per stacked solve; bounds the stack at _BATCH * n * n floats.
_BATCH = 1024


def _rule_machine(rule, net: Network):
    """Return (initial_payload, transition, absorbing-after-arrival)."""
    if isinstance(rule, FirstPassage):
        return 0, (lambda p, e, d, v: 0), (lambda v, p: v == rule.target)
    if isinstance(rule, Commute):
        def trans(p, e, d, v):
            return 1 if (p == 0 and v == rule.y) else p
        return 0, trans, (lambda v, p: p == 1 and v == rule.x)
    if isinstance(rule, EdgeCoverReturn):
        full = (1 << len(net.edges)) - 1
        return (
            0,
            (lambda p, e, d, v: p | (1 << e)),
            (lambda v, p: p == full and v == rule.root),
        )
    if isinstance(rule, ArcCoverReturn):
        full = (1 << (2 * len(net.edges))) - 1
        return (
            0,
            (lambda p, e, d, v: p | (1 << (2 * e + d))),
            (lambda v, p: p == full and v == rule.root),
        )
    if isinstance(rule, DirectedCoverReturn):
        full = (1 << len(net.edges)) - 1
        dirs = rule.orientation.directions
        return (
            0,
            (lambda p, e, d, v: p | (1 << e) if d == dirs[e] else p),
            (lambda v, p: p == full and v == rule.root),
        )
    if isinstance(rule, VertexCover):
        full = (1 << net.vertex_count) - 1
        def absorbing(v, p):
            return p == full and ((not rule.with_return) or v == rule.root)
        return 0, (lambda p, e, d, v: p | (1 << v)), absorbing
    raise TypeError(f"no exact solver for rule type {type(rule).__name__}")


def exact_stop_time(
    net: Network,
    start: int,
    rule,
    model: TimingModel = TimingModel.L_SQUARED,
    max_states: int = MAX_STATES,
) -> float:
    """Expected stop time of ``rule`` from ``start``, solved exactly.

    Supports the passage and cover rules (not refined commutes, which have
    closed forms, and not epoch sequences).  Rules are validated as
    :func:`walkcover.walker.run` validates them.  Raises
    :class:`StateSpaceTooLarge` when the reachable state count exceeds
    ``max_states`` and :class:`ExactSolveFailed` when a block solve fails
    its residual check.
    """
    net.check_vertex(start)
    anchor = rule.anchor()
    if anchor is not None and anchor != start:
        raise ValueError(f"rule {rule.label()} is anchored at {anchor}, not {start}")
    rule.make_tracker(net)
    payload0, transition, absorbing = _rule_machine(rule, net)
    if isinstance(rule, VertexCover):
        payload0 = 1 << start
    if isinstance(rule, FirstPassage) and start == rule.target:
        return 0.0
    if absorbing(start, payload0) and not isinstance(rule, (FirstPassage, Commute)):
        return 0.0

    steps = _step_rows(build_tables(net, model))
    blocks = _reachable_blocks(steps, start, payload0, transition, absorbing, max_states)
    solved: dict[int, list[float]] = {}
    # Blocks of equal rank never feed each other, so blocks of one rank and
    # one size are solved together, stacked in batches of at most _BATCH.
    order = sorted(blocks, key=lambda p: (-p.bit_count(), len(blocks[p])))
    for (rank, _), group in groupby(order, lambda p: (p.bit_count(), len(blocks[p]))):
        group = list(group)
        for lo in range(0, len(group), _BATCH):
            batch = group[lo : lo + _BATCH]
            mat, rhs = _assemble(batch, blocks, steps, solved, transition, absorbing)
            solved.update(zip(batch, _solve_stack(mat, rhs, rank).tolist()))
    return solved[payload0][0]


def _step_rows(tables):
    """Per vertex: ``(mean one-step charge, [(edge, dir, head, prob)])``, or None."""
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
            arcs.append((e, d, head, prob))
        rows.append((mean, arcs))
    return rows


def _reachable_blocks(steps, start, payload0, transition, absorbing, max_states):
    """Reachable non-absorbing states grouped by progress: ``{progress: {vertex: row}}``."""
    blocks: dict[int, dict[int, int]] = {payload0: {start: 0}}
    count = 1
    frontier = [(start, payload0)]
    while frontier:
        nxt: list[tuple[int, int]] = []
        for v, p in frontier:
            row = steps[v]
            if row is None:
                raise VertexOutOfRange(f"vertex {v} has no incident arcs")
            for e, d, head, _ in row[1]:
                p2 = transition(p, e, d, head)
                if p2 != p and p2 & p != p:
                    raise AssertionError(
                        f"progress {p:#x} -> {p2:#x} is not monotone; the block solve "
                        "needs every change of progress to be a strict superset"
                    )
                if absorbing(head, p2):
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


def _assemble(batch, blocks, steps, solved, transition, absorbing):
    """Stacked ``I - P_pp`` and ``r + sum_q P_pq x_q`` for same-size blocks."""
    size = len(blocks[batch[0]])
    mat = np.tile(np.eye(size), (len(batch), 1, 1))
    rhs = np.empty((len(batch), size))
    for j, p in enumerate(batch):
        block = blocks[p]
        for v, i in block.items():
            acc, arcs = steps[v]
            for e, d, head, prob in arcs:
                p2 = transition(p, e, d, head)
                if absorbing(head, p2):
                    continue
                if p2 == p:
                    mat[j, i, block[head]] -= prob
                else:
                    acc += prob * solved[p2][blocks[p2][head]]
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

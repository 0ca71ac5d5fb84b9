"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes from first principles: transition probabilities
and step charges are derived inline from edge lengths, resistances come from
series/parallel reduction, and expected times from hand-built linear systems
over explicit state dictionaries.  None of it shares code with the library's
solvers, so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

L2 = "l2"
BROWNIAN = "brownian"


def series_parallel_resistance(edges, x, y):
    """Reduce a two-terminal network of (u, v, length) triples.

    Repeatedly merges parallel edges, contracts through internal degree-2
    vertices, and prunes internal dangling vertices.  Raises ValueError if
    the network is not series-parallel reducible to a single x-y edge.
    """
    edges = [(u, v, float(l)) for u, v, l in edges if u != v]  # loops carry no current
    while True:
        # Parallel merge.
        merged = {}
        for u, v, l in edges:
            key = (min(u, v), max(u, v))
            merged[key] = 1.0 / (1.0 / merged[key] + 1.0 / l) if key in merged else l
        edges = [(u, v, l) for (u, v), l in merged.items()]
        if len(edges) == 1 and set(edges[0][:2]) == {x, y}:
            return edges[0][2]

        degree = {}
        for u, v, _ in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1

        # Prune internal dangling vertices.
        dangling = {w for w, d in degree.items() if d == 1 and w not in (x, y)}
        if dangling:
            edges = [(u, v, l) for u, v, l in edges if u not in dangling and v not in dangling]
            continue

        # Series contraction through one internal degree-2 vertex.
        for w, d in degree.items():
            if d == 2 and w not in (x, y):
                incident = [e for e in edges if w in e[:2]]
                (a1, b1, l1), (a2, b2, l2) = incident
                p = a1 if b1 == w else b1
                q = a2 if b2 == w else b2
                edges = [e for e in edges if e not in incident]
                edges.append((p, q, l1 + l2))
                break
        else:
            raise ValueError("not series-parallel reducible")


def _outgoing(net, v):
    """(edge_id, direction, head, prob, l2_charge, brownian_charge) per arc at v."""
    rows = []
    total_len = 0.0
    cond = 0.0
    for e in net.edges:
        if e.u == v:
            rows.append((e.id, 0, e.v, e.length))
        if e.v == v:
            rows.append((e.id, 1, e.u, e.length))
    for _, _, _, length in rows:
        cond += 1.0 / length
        total_len += length
    pre = (2.0 / 3.0) * total_len / cond if rows else 0.0
    out = []
    for eid, d, head, length in rows:
        prob = (1.0 / length) / cond
        out.append((eid, d, head, prob, length * length, length * length / 3.0 + pre))
    return out


def _charge_index(model):
    return 4 if model == L2 else 5


def expected_time_to_absorption(net, start_state, transition, absorbed, model=L2):
    """Generic absorbing solve over states (vertex, payload).

    ``transition(payload, edge, direction, head)`` yields the next payload;
    ``absorbed(vertex, payload)`` is evaluated after each arrival.  Returns
    the expected total charge starting from ``start_state``.
    """
    v0, p0 = start_state
    if absorbed(v0, p0):
        return 0.0
    ci = _charge_index(model)
    index = {(v0, p0): 0}
    order = [(v0, p0)]
    todo = [(v0, p0)]
    while todo:
        v, p = todo.pop()
        for row in _outgoing(net, v):
            p2 = transition(p, row[0], row[1], row[2])
            if absorbed(row[2], p2):
                continue
            s2 = (row[2], p2)
            if s2 not in index:
                index[s2] = len(order)
                order.append(s2)
                todo.append(s2)
    n = len(order)
    mat = np.eye(n)
    rhs = np.zeros(n)
    for si, (v, p) in enumerate(order):
        for row in _outgoing(net, v):
            eid, d, head, prob = row[:4]
            rhs[si] += prob * row[ci]
            p2 = transition(p, eid, d, head)
            if not absorbed(head, p2):
                mat[si, index[(head, p2)]] -= prob
    return float(np.linalg.solve(mat, rhs)[0])


def hitting_time(net, x, y, model=L2):
    """Expected time for a walk from x to first reach y."""
    return expected_time_to_absorption(
        net, (x, 0), lambda p, e, d, v: 0, lambda v, p: v == y, model
    )


def commute_oracle(net, x, y, model=L2):
    return expected_time_to_absorption(
        net,
        (x, 0),
        lambda p, e, d, v: 1 if (p == 0 and v == y) else p,
        lambda v, p: p == 1 and v == x,
        model,
    )


def edge_cover_return_oracle(net, root, model=L2):
    full = (1 << len(net.edges)) - 1
    return expected_time_to_absorption(
        net,
        (root, 0),
        lambda p, e, d, v: p | (1 << e),
        lambda v, p: p == full and v == root,
        model,
    )


def arc_cover_return_oracle(net, root, model=L2):
    full = (1 << (2 * len(net.edges))) - 1
    return expected_time_to_absorption(
        net,
        (root, 0),
        lambda p, e, d, v: p | (1 << (2 * e + d)),
        lambda v, p: p == full and v == root,
        model,
    )


def directed_cover_return_oracle(net, root, directions, model=L2):
    full = (1 << len(net.edges)) - 1
    return expected_time_to_absorption(
        net,
        (root, 0),
        lambda p, e, d, v: p | (1 << e) if d == directions[e] else p,
        lambda v, p: p == full and v == root,
        model,
    )


def vertex_cover_oracle(net, root, with_return=False, model=L2):
    full = (1 << net.vertex_count) - 1
    return expected_time_to_absorption(
        net,
        (root, 1 << root),
        lambda p, e, d, v: p | (1 << v),
        lambda v, p: p == full and ((not with_return) or v == root),
        model,
    )


def first_arrival_via_probability(net, x, y, a_edges):
    """Chance the arc completing the walk's first arrival at y lies in A."""
    a_edges = frozenset(a_edges)
    verts = [v for v in range(net.vertex_count) if v != y]
    index = {v: i for i, v in enumerate(verts)}
    mat = np.eye(len(verts))
    rhs = np.zeros(len(verts))
    for v in verts:
        for eid, d, head, prob, _, _ in _outgoing(net, v):
            if head == y:
                if eid in a_edges:
                    rhs[index[v]] += prob
            else:
                mat[index[v], index[head]] -= prob
    return float(np.linalg.solve(mat, rhs)[index[x]])


def specific_arc_traversal_time(net, start, edge_id, direction, model=L2):
    """Expected time from ``start`` until the walk traverses one given arc."""
    def transition(p, e, d, v):
        return 1 if (e == edge_id and d == direction) else p

    return expected_time_to_absorption(
        net, (start, 0), transition, lambda v, p: p == 1, model
    )


def epoch_final_time_oracle(net, walk, mode, directions=None, model=L2):
    """Exact expected final epoch time, one linear solve per epoch.

    Each epoch starts deterministically at the scheduled tail of its arc, so
    the total expectation is the sum of independent pieces: a specific-arc
    traversal wait for strong epochs, a plain hitting wait for weak ones
    (zero when the walker already stands at the scheduled head).
    """
    total = 0.0
    for arc in walk.arcs:
        tail = net.arc_tail(arc)
        head = net.arc_head(arc)
        strong = mode == "arc" or directions[arc.edge] == arc.direction
        if strong:
            total += specific_arc_traversal_time(net, tail, arc.edge, arc.direction, model)
        elif head != tail:
            total += hitting_time(net, tail, head, model)
    return total


def arc_epoch_closed_form(net):
    """Mean final epoch time in arc mode: sum over edges of 4 m l_e - 2 m R_e.

    An arc-mode epoch runs from an arc's tail until the walk steps along the
    arc.  By Kac's lemma the mean time between two steps along an arc of
    length l is 2 m l, and a walk from the arc's head must first reach its
    tail, so the epoch is 2 m l less that hitting time.  An edge's two epochs
    then sum to 4 m l less its commute time 2 m R_e, with R_e taken by
    series-parallel reduction (0 for a loop).
    """
    edges = [(e.u, e.v, e.length) for e in net.edges]
    m = sum(length for _, _, length in edges)
    total = 0.0
    for u, v, length in edges:
        r = 0.0 if u == v else series_parallel_resistance(edges, u, v)
        total += 4 * m * length - 2 * m * r
    return total

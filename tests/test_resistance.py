import hashlib
import heapq
import importlib
import pickle
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkcover.errors import InvalidSplit, SameVertex
from walkcover.netmodel import build_network
from walkcover.resistance import (
    SplitSpec,
    effective_resistance,
    split_resistances,
    via_probability,
)

import oracles
from support import random_net, random_split_spec


def shortest_path_length(net, x, y):
    dist = {x: 0.0}
    heap = [(0.0, x)]
    while heap:
        d, v = heapq.heappop(heap)
        if v == y:
            return d
        if d > dist.get(v, float("inf")):
            continue
        for eid, _, head in net.adjacency[v]:
            nd = d + net.edges[eid].length
            if nd < dist.get(head, float("inf")):
                dist[head] = nd
                heapq.heappush(heap, (nd, head))
    raise AssertionError("unreachable")


def test_single_edge():
    net = build_network(2, [(0, 1, 5.0)])
    assert effective_resistance(net, 0, 1) == pytest.approx(5.0, abs=1e-12)


def test_series_path():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert effective_resistance(net, 0, 2) == pytest.approx(3.0, abs=1e-12)


def test_parallel_edges():
    net = build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])
    assert effective_resistance(net, 0, 1) == pytest.approx(2 / 3, abs=1e-12)


def test_triangle_against_series_parallel_oracle():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    want = oracles.series_parallel_resistance(
        [(e.u, e.v, e.length) for e in net.edges], 0, 1
    )
    assert effective_resistance(net, 0, 1) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(2 / 3, abs=1e-12)


def test_loops_do_not_change_resistance():
    plain = build_network(2, [(0, 1, 1.5)])
    looped = build_network(2, [(0, 1, 1.5), (0, 0, 0.3), (1, 1, 2.0)])
    assert effective_resistance(looped, 0, 1) == pytest.approx(
        effective_resistance(plain, 0, 1), abs=1e-12
    )


def test_same_vertex_rejected():
    net = build_network(2, [(0, 1, 1.0)])
    with pytest.raises(SameVertex):
        effective_resistance(net, 1, 1)


# SHA-256 of the verdict of every side A and ordered terminal pair on
# ``random_net(seed, max_n=5)`` with at most 6 edges, seeds 0-119: "ok" or
# the ``InvalidSplit`` message, one case a line.
_SPLIT_VERDICTS_DIGEST = "e2cc3bf8542d566336875070eea26c09ed089939b9358f1e4404239b4b58a439"


def test_split_verdicts_are_pinned():
    verdicts, counts = [], Counter()
    for seed in range(120):
        net = random_net(seed, max_n=5)
        m = len(net.edges)
        if m > 6:
            continue
        for a in (a for k in range(m + 1) for a in combinations(range(m), k)):
            for x, y in permutations(range(net.vertex_count), 2):
                try:
                    SplitSpec(net, frozenset(a), x, y)
                    verdict = "ok"
                except InvalidSplit as exc:
                    verdict = str(exc)
                verdicts.append(f"{seed} {a} {x} {y} {verdict}")
                counts[verdict] += 1
    assert counts["ok"] == 1296
    for side in "AB":
        assert counts[f"side {side} does not connect the terminals"] == 198
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert digest == _SPLIT_VERDICTS_DIGEST


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_symmetry(seed):
    net = random_net(seed)
    x, y = 0, net.vertex_count - 1
    if x == y:
        return
    assert abs(
        effective_resistance(net, x, y) - effective_resistance(net, y, x)
    ) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_series_law_at_cut_vertex(seed):
    # Two independent blocks glued at a single cut vertex.
    left = random_net(seed, max_n=5, lengths=(0.5, 2.0))
    right = random_net(seed + 1, max_n=5, lengths=(0.5, 2.0))
    shift = left.vertex_count - 1  # right's vertex 0 becomes the cut vertex
    edges = [(e.u, e.v, e.length) for e in left.edges]
    edges += [
        (e.u + shift if e.u else shift, e.v + shift if e.v else shift, e.length)
        for e in right.edges
    ]
    net = build_network(left.vertex_count + right.vertex_count - 1, edges)
    x, z, y = 0, shift, net.vertex_count - 1
    if len({x, z, y}) < 3:
        return
    whole = effective_resistance(net, x, y)
    split = effective_resistance(net, x, z) + effective_resistance(net, z, y)
    assert abs(whole - split) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_parallel_law_on_random_splits(seed):
    spec = random_split_spec(seed)
    r_a, r_b = split_resistances(spec)
    r = effective_resistance(spec.network, spec.x, spec.y)
    assert abs(1.0 / r - (1.0 / r_a + 1.0 / r_b)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_resistance_bounded_by_shortest_path(seed):
    net = random_net(seed)
    if net.vertex_count < 2:
        return
    r = effective_resistance(net, 0, net.vertex_count - 1)
    assert 0.0 < r <= shortest_path_length(net, 0, net.vertex_count - 1) + 1e-12


def unit_triangle():
    return build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


def test_split_resistances_triangle():
    spec = SplitSpec(unit_triangle(), frozenset({0}), 0, 1)
    assert split_resistances(spec) == pytest.approx((1.0, 2.0), abs=1e-12)


def test_split_resistances_parallel_pair():
    net = build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])
    spec = SplitSpec(net, frozenset({0}), 0, 1)
    assert split_resistances(spec) == pytest.approx((1.0, 2.0), abs=1e-12)


def test_split_sides_are_built_once(monkeypatch):
    """A split builds its side networks once, when it is made, and
    ``split_resistances`` and ``via_probability`` reuse them.  The built
    sides change no equality, hash, ``repr`` or pickle, and a copy builds
    its own when it first needs them."""
    resistance_module = importlib.import_module("walkcover.resistance")
    build = resistance_module.build_network
    built = []
    monkeypatch.setattr(resistance_module, "build_network",
                        lambda *args: built.append(args) or build(*args))
    spec = SplitSpec(unit_triangle(), frozenset({0}), 0, 1)
    assert len(built) == 2
    assert split_resistances(spec) == pytest.approx((1.0, 2.0), abs=1e-12)
    assert via_probability(spec) == pytest.approx(2 / 3, abs=1e-12)
    assert len(built) == 2
    fresh = SplitSpec.__new__(SplitSpec)
    vars(fresh).update(network=spec.network, a_edges=spec.a_edges, x=0, y=1)
    assert pickle.dumps(spec) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
    assert split_resistances(copy) == split_resistances(spec) and len(built) == 4


def test_split_rejections():
    net = build_network(3, [(0, 2, 1.0), (2, 1, 2.0)])
    with pytest.raises(InvalidSplit):  # B empty
        SplitSpec(net, frozenset({0, 1}), 0, 1)
    with pytest.raises(InvalidSplit):  # A empty
        SplitSpec(net, frozenset(), 0, 1)
    with pytest.raises(InvalidSplit):  # A does not connect the terminals
        SplitSpec(net, frozenset({0}), 0, 1)
    with pytest.raises(InvalidSplit):  # terminals equal
        SplitSpec(unit_triangle(), frozenset({0}), 0, 0)
    # Sides sharing a non-terminal vertex.
    square = build_network(4, [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    with pytest.raises(InvalidSplit):
        SplitSpec(square, frozenset({0, 1}), 0, 1)
    with pytest.raises(InvalidSplit):  # unknown edge id
        SplitSpec(unit_triangle(), frozenset({7}), 0, 1)


def test_via_probability_examples():
    assert via_probability(SplitSpec(unit_triangle(), frozenset({0}), 0, 1)) == pytest.approx(
        2 / 3, abs=1e-12
    )
    pair = build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])
    assert via_probability(SplitSpec(pair, frozenset({0}), 0, 1)) == pytest.approx(
        2 / 3, abs=1e-12
    )
    # Mirror-symmetric split.
    sym = build_network(4, [(0, 2, 1.0), (2, 1, 1.0), (0, 3, 1.0), (3, 1, 1.0)])
    assert via_probability(SplitSpec(sym, frozenset({0, 1}), 0, 1)) == pytest.approx(
        0.5, abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_via_probability_matches_first_arrival_oracle(seed):
    spec = random_split_spec(seed)
    want = oracles.first_arrival_via_probability(
        spec.network, spec.x, spec.y, spec.a_edges
    )
    assert via_probability(spec) == pytest.approx(want, abs=1e-9)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkcover.errors import (
    DisconnectedNetwork,
    NetworkFormatError,
    NonPositiveLength,
    VertexOutOfRange,
)
from walkcover.netmodel import (
    Arc,
    Orientation,
    build_network,
    parse_network_text,
    serialize_network,
    transition_distribution,
    vertex_conductance,
)

from support import random_net


def test_single_edge():
    net = build_network(2, [(0, 1, 1.0)])
    assert net.total_length == 1.0
    assert len(net.arcs()) == 2


def test_parallel_multi_edge_total_length():
    net = build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])
    assert net.total_length == 3.0
    assert len(net.edges) == 2  # parallel edges stay distinct


def test_loop_counts_two_arcs():
    net = build_network(1, [(0, 0, 2.0)])
    assert net.total_length == 2.0
    assert len(net.arcs()) == 2
    assert [net.arc_tail(a) for a in net.arcs()] == [0, 0]


def test_disconnected_rejected():
    with pytest.raises(DisconnectedNetwork):
        build_network(3, [(0, 1, 1.0)])


def test_bad_length_rejected():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveLength):
            build_network(2, [(0, 1, bad)])


def test_endpoint_out_of_range():
    with pytest.raises(VertexOutOfRange):
        build_network(2, [(0, 2, 1.0)])
    with pytest.raises(VertexOutOfRange):
        build_network(0, [])


def test_network_immutable():
    net = build_network(2, [(0, 1, 1.0)])
    with pytest.raises(Exception):
        net.vertex_count = 5


def test_conductance_examples():
    pair = build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])
    assert vertex_conductance(pair, 0) == pytest.approx(1.5, abs=1e-15)
    single = build_network(2, [(0, 1, 1.0)])
    assert vertex_conductance(single, 0) == 1.0
    assert vertex_conductance(single, 1) == 1.0
    looped = build_network(1, [(0, 0, 1.0)])
    assert vertex_conductance(looped, 0) == 2.0  # loop counts twice
    with pytest.raises(VertexOutOfRange):
        vertex_conductance(single, 2)


def test_transition_distribution_examples():
    pair = build_network(2, [(0, 1, 1.0), (0, 1, 2.0)])
    dist = transition_distribution(pair, 0)
    assert dist[Arc(0, 0)] == pytest.approx(2 / 3, abs=1e-15)
    assert dist[Arc(1, 0)] == pytest.approx(1 / 3, abs=1e-15)

    star = build_network(5, [(0, i, 1.0) for i in range(1, 5)])
    dist = transition_distribution(star, 0)
    assert all(p == pytest.approx(0.25, abs=1e-15) for p in dist.values())

    looped = build_network(1, [(0, 0, 3.0)])
    dist = transition_distribution(looped, 0)
    assert dist == {Arc(0, 0): pytest.approx(0.5), Arc(0, 1): pytest.approx(0.5)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_transition_sums_to_one(seed):
    net = random_net(seed, max_n=7)
    for v in range(net.vertex_count):
        total = sum(transition_distribution(net, v).values())
        assert abs(total - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_arc_count_and_total_length(seed):
    net = random_net(seed)
    assert len(net.arcs()) == 2 * len(net.edges)
    assert net.total_length == math.fsum(e.length for e in net.edges)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_serialize_round_trip(seed):
    net = random_net(seed)
    rebuilt, orient = parse_network_text(serialize_network(net))
    assert rebuilt == net
    assert orient is None


def test_serialize_round_trip_with_orientation():
    net = build_network(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 1, 0.25)])
    orient = Orientation((0, 1, 1))
    rebuilt, parsed = parse_network_text(serialize_network(net, orient))
    assert rebuilt == net
    assert parsed == orient


def test_parse_symbolic_labels_in_file_order():
    text = """
    # a comment
    edge left right 1.0
    edge right far 2.0
    """
    net, orient = parse_network_text(text)
    assert net.vertex_count == 3
    assert [(e.u, e.v) for e in net.edges] == [(0, 1), (1, 2)]
    assert orient is None


def test_parse_orientation_defaults_forward():
    net, orient = parse_network_text("edge 0 1 1\nedge 1 2 2 bwd\n")
    assert orient == Orientation((0, 1))
    assert net.vertex_count == 3


def test_parse_vertices_header():
    net, _ = parse_network_text("vertices 2\nedge 0 1 1.5\n")
    assert net.vertex_count == 2
    with pytest.raises(NetworkFormatError):
        parse_network_text("vertices 2\nedge 0 3 1.0\n")
    with pytest.raises(NetworkFormatError):
        parse_network_text("vertices 4\nedge a b 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(NetworkFormatError) as exc:
        parse_network_text("edge 0 1 1.0\nnonsense 1 2\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(NetworkFormatError):
        parse_network_text("edge 0 1 zero\n")
    with pytest.raises(NetworkFormatError):
        parse_network_text("edge 0 1 1.0 sideways\n")
    with pytest.raises(NetworkFormatError):
        parse_network_text("# nothing\n")
    for text, line, message in (
        ("vertices x\nedge 0 1 1.0\n", 1, "expected 'vertices <n>'"),
        ("vertices 2\nvertices 2\nedge 0 1 1.0\n", 2, "duplicate vertices header"),
        ("vertices 2\n\nedge 0 1\n", 3, "expected 'edge <u> <v> <length> [fwd|bwd]'"),
    ):
        with pytest.raises(NetworkFormatError) as exc:
            parse_network_text(text)
        assert f"line {line}" in str(exc.value) and message in str(exc.value), text


def test_parse_rejects_disconnected():
    with pytest.raises(NetworkFormatError):
        parse_network_text("vertices 3\nedge 0 1 1.0\n")


def test_singleton_network_allowed():
    net = build_network(1, [])
    assert net.total_length == 0.0
    assert net.arcs() == ()

import pytest

from walkcover.errors import (
    InfeasibleParameters,
    InvalidDepth,
    NonPositiveLength,
    TooSmall,
)
from walkcover.generators import (
    GeneratorSpec,
    binary_tree,
    from_spec,
    lollipop,
    loop,
    parallel_pair,
    path,
    random_network,
    star,
    triangle,
)


def test_path():
    net = path([1.0] * 4)
    assert net.vertex_count == 5 and net.total_length == 4.0
    net = path([1.0, 2.0])
    assert net.total_length == 3.0
    with pytest.raises(NonPositiveLength):
        path([])
    with pytest.raises(NonPositiveLength):
        path([1.0, 0.0])


def test_loop():
    assert loop(1.0).total_length == 1.0
    assert loop(2.0).total_length == 2.0
    assert len(loop(2.0).arcs()) == 2
    with pytest.raises(NonPositiveLength):
        loop(0.0)


def test_parallel_pair():
    net = parallel_pair()
    assert net.vertex_count == 2
    assert net.total_length == 3.0
    assert [e.length for e in net.edges] == [1.0, 2.0]


def test_triangle_and_star():
    assert triangle().total_length == 3.0
    assert star(6).vertex_count == 7
    with pytest.raises(TooSmall):
        star(0)


def test_binary_tree():
    assert binary_tree(1).total_length == pytest.approx(0.5, abs=1e-12)
    assert binary_tree(6).total_length == pytest.approx(0.984375, abs=1e-12)
    assert binary_tree(6).vertex_count == 127
    for d in range(1, 7):
        assert binary_tree(d).total_length == pytest.approx(1 - 2.0**-d, abs=1e-12)
    with pytest.raises(InvalidDepth):
        binary_tree(0)


def test_lollipop():
    net = lollipop(6)  # clique on 4 plus a 2-vertex tail
    assert net.vertex_count == 6
    assert len(net.edges) == 8
    assert net.total_length == 8.0
    with pytest.raises(TooSmall):
        lollipop(3)


def test_random_network_examples():
    net = random_network(4, 6, (1.0, 1.0), seed=12)
    assert net.vertex_count == 4 and len(net.edges) == 6
    assert all(e.length == 1.0 for e in net.edges)
    assert all(not e.is_loop for e in net.edges)
    again = random_network(4, 6, (1.0, 1.0), seed=12)
    assert again == net
    with pytest.raises(InfeasibleParameters):
        random_network(3, 1, (1.0, 1.0), seed=0)
    with pytest.raises(InfeasibleParameters):
        random_network(4, 10, (1.0, 1.0), seed=0)  # over simple-graph capacity
    with pytest.raises(NonPositiveLength):
        random_network(3, 3, (0.0, 1.0), seed=0)
    with pytest.raises(InfeasibleParameters, match="at least one vertex"):
        random_network(0, 0, (1.0, 1.0), seed=0)
    with pytest.raises(InfeasibleParameters, match="only carry loops"):
        random_network(1, 1, (1.0, 1.0), allow_parallel=True, seed=0)


def test_random_network_thousand_seed_sweep():
    # Construction validates connectivity; a failure would raise.
    for seed in range(1000):
        random_network(5, 7, (0.2, 3.0), allow_loops=True, allow_parallel=True, seed=seed)


def test_from_spec():
    assert from_spec("path:1,1,1").total_length == 3.0
    assert from_spec("loop:2").total_length == 2.0
    assert from_spec("parallel_pair").vertex_count == 2
    assert from_spec("triangle").total_length == 3.0
    assert from_spec("tree:6").total_length == pytest.approx(0.984375)
    assert from_spec("lollipop:6").vertex_count == 6
    assert from_spec("star:3").vertex_count == 4
    net = from_spec("random:n=5,m=8,seed=4,lmin=0.5,lmax=2,loops=1,parallel=1")
    assert net.vertex_count == 5 and len(net.edges) == 8
    spec = GeneratorSpec.parse("random:n=5,m=8,seed=4")
    assert spec.kind == "random" and spec.options["m"] == "8"


def test_from_spec_errors():
    with pytest.raises(InfeasibleParameters):
        from_spec("hexagon")
    with pytest.raises(InfeasibleParameters):
        from_spec("path:one,two")
    with pytest.raises(InfeasibleParameters):
        from_spec("random:n=3")

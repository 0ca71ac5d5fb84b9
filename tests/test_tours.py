import hashlib
import math

import pytest

from walkcover.errors import EmptyInput
from walkcover.estimate import estimate, trial_rng
from walkcover.exact import exact_stop_time
from walkcover.generators import from_spec, loop, parallel_pair, star, triangle
from walkcover.netmodel import (
    Orientation,
    build_network,
    parse_network_text,
    random_orientation,
    serialize_network,
)
from walkcover.tours import (
    EpochSequence,
    construct_double_cover_walk,
    epoch_times,
    parse_walk,
    per_edge_interval_means,
    serialize_walk,
    validate_closed_walk,
)
from walkcover.walker import TimingModel, build_tables, run

import oracles
from support import random_net


@pytest.mark.parametrize(
    "net",
    [
        build_network(2, [(0, 1, 1.0)]),
        triangle(),
        parallel_pair(),
        loop(2.0),
        star(5),
        random_net(5),
        random_net(8),
        random_net(21),
    ],
)
def test_double_cover_walks_are_valid(net):
    for order in ("ascending", "descending"):
        walk = construct_double_cover_walk(net, 0, order)
        validate_closed_walk(net, walk)  # raises on any structural defect
        assert len(walk.arcs) == 2 * len(net.edges)


def test_double_cover_sweep_over_random_networks():
    # Construction self-validates; any structural defect raises.
    for seed in range(120):
        net = random_net(seed, max_n=7)
        construct_double_cover_walk(net, 0)
        construct_double_cover_walk(net, net.vertex_count - 1, "descending")


# SHA-256 of the double covers built on ``random_net(seed, max_n=9)`` for
# seeds 0-299, from every root in both orders, one serialized walk a line.
_DOUBLE_COVERS_DIGEST = "c60b5ff1dea84cc96cc71d5bb02da418aada93d1d696b20db8ff9b000dbf577a"


def test_double_covers_are_pinned():
    walks = [
        serialize_walk(construct_double_cover_walk(net, root, order))
        for net in (random_net(seed, max_n=9) for seed in range(300))
        for root in range(net.vertex_count)
        for order in ("ascending", "descending")
    ]
    assert len(walks) == 3458
    digest = hashlib.sha256("\n".join(walks).encode()).hexdigest()
    assert digest == _DOUBLE_COVERS_DIGEST


def test_single_edge_walk():
    net = build_network(2, [(0, 1, 1.0)])
    walk = construct_double_cover_walk(net, 0)
    assert serialize_walk(walk) == "0 0:0 0:1"


def test_star_walk_length():
    net = star(4)
    walk = construct_double_cover_walk(net, 0)
    assert len(walk.arcs) == 8


def test_constructions_differ():
    net = triangle()
    a = construct_double_cover_walk(net, 0, "ascending")
    b = construct_double_cover_walk(net, 0, "descending")
    assert a.arcs != b.arcs


def test_walk_serialization_round_trip():
    walk = construct_double_cover_walk(random_net(3), 0)
    assert parse_walk(serialize_walk(walk)) == walk


def test_single_edge_epochs_forced():
    net = build_network(2, [(0, 1, 1.0)])
    walk = construct_double_cover_walk(net, 0)
    for mode, orient in (("arc", None), ("directed", Orientation((0,)))):
        rec = epoch_times(net, walk, mode, TimingModel.L_SQUARED, trial_rng(1, 0), orient)
        assert rec.final_time == 2.0
        assert rec.covered_ok


def test_epoch_record_structure():
    net = triangle()
    walk = construct_double_cover_walk(net, 0)
    orient = Orientation((0, 0, 0))
    for i in range(200):
        rec = epoch_times(
            net, walk, "directed", TimingModel.L_SQUARED, trial_rng(9, i), orient
        )
        assert list(rec.taus) == sorted(rec.taus)
        assert len(rec.taus) == 6
        total = math.fsum(a + b for a, b in rec.intervals.values())
        assert total == pytest.approx(rec.final_time, rel=1e-12)
        assert rec.covered_ok


def test_directed_epoch_identity_exact_oracle():
    # The expected final epoch time is exactly 2 m^2 for any walk, any
    # orientation, loops and parallel edges included: checked with the
    # piecewise linear-solve oracle, no sampling noise.
    for seed in (2, 5, 9):
        net = random_net(seed, max_n=6)
        m = net.total_length
        for order in ("ascending", "descending"):
            walk = construct_double_cover_walk(net, 0, order)
            for k in range(2):
                orient = random_orientation(net, trial_rng(seed, k))
                val = oracles.epoch_final_time_oracle(
                    net, walk, "directed", orient.directions
                )
                assert val == pytest.approx(2 * m * m, rel=1e-9)


def test_directed_epoch_mc_matches_identity():
    net = triangle()
    m = net.total_length
    walk = construct_double_cover_walk(net, 0)
    orient = Orientation((0, 1, 0))
    tables = build_tables(net, TimingModel.L_SQUARED)
    total = sq = 0.0
    n = 8000
    for i in range(n):
        rec = epoch_times(
            net, walk, "directed", TimingModel.L_SQUARED, trial_rng(33, i),
            orient, tables=tables,
        )
        total += rec.final_time
        sq += rec.final_time**2
    mean = total / n
    se = math.sqrt((sq / n - mean * mean) / n)
    assert abs(mean - 2 * m * m) <= 3 * se


def test_arc_epoch_mc_matches_piecewise_oracle():
    # The simulator agrees with the exact piecewise solve for the arc-mode
    # epoch process (whose mean is NOT the refined-commute sum formula).
    net = triangle()
    walk = construct_double_cover_walk(net, 0)
    want = oracles.epoch_final_time_oracle(net, walk, "arc")
    assert want == pytest.approx(24.0, abs=1e-9)
    tables = build_tables(net, TimingModel.L_SQUARED)
    total = sq = 0.0
    n = 8000
    for i in range(n):
        rec = epoch_times(
            net, walk, "arc", TimingModel.L_SQUARED, trial_rng(35, i), tables=tables
        )
        total += rec.final_time
        sq += rec.final_time**2
        assert rec.covered_ok
    mean = total / n
    se = math.sqrt((sq / n - mean * mean) / n)
    assert abs(mean - want) <= 3 * se


@pytest.mark.parametrize(
    "spec, want",
    [("triangle", 24), ("loop:1", 4), ("parallel_pair", 28), ("path:1,2", 18),
     ("star:3", 18), ("tree:2", 1.125)],
)
def test_arc_epochs_equal_closed_form(spec, want):
    # The exact arc-mode epoch mean is sum_e (4 m l_e - 2 m R_e) from every
    # root, for both walk orders and both timing models; with unit lengths,
    # Foster's theorem turns it into 4 m^2 - 2 m (n - 1).
    net = from_spec(spec)
    m, n = net.total_length, net.vertex_count
    form = oracles.arc_epoch_closed_form(net)
    assert form == pytest.approx(want, rel=1e-12)
    if all(e.length == 1.0 for e in net.edges):
        assert form == pytest.approx(4 * m * m - 2 * m * (n - 1), rel=1e-12)
    for root in range(n):
        for order in ("ascending", "descending"):
            rule = EpochSequence(construct_double_cover_walk(net, root, order), "arc")
            for model in TimingModel:
                assert exact_stop_time(net, root, rule, model) == pytest.approx(form, rel=1e-12)


def test_equal_rules_share_one_plan():
    net = triangle()
    copy, _ = parse_network_text(serialize_network(net))
    walk = construct_double_cover_walk(net, 0)
    rule, twin = EpochSequence(walk, "arc"), EpochSequence(walk, "arc")
    assert rule._plan(net) is twin._plan(net) is twin._plan(copy)
    estimate(net, 0, rule, TimingModel.L_SQUARED, 50, 3)
    assert set(vars(rule)) == {"walk", "mode", "orientation"}


def test_per_edge_interval_means():
    net = parallel_pair()
    m = net.total_length
    walk = construct_double_cover_walk(net, 0)
    orient = Orientation((0, 0))
    tables = build_tables(net, TimingModel.L_SQUARED)
    recs = []
    for i in range(6000):
        recs.append(
            epoch_times(
                net, walk, "directed", TimingModel.L_SQUARED, trial_rng(41, i),
                orient, tables=tables,
            )
        )
    means = per_edge_interval_means(recs)
    for e in net.edges:
        assert means[e.id] == pytest.approx(2 * m * e.length, rel=0.05)
    with pytest.raises(EmptyInput):
        per_edge_interval_means([])


def test_per_edge_interval_single_edge_is_exact():
    net = build_network(2, [(0, 1, 1.0)])
    walk = construct_double_cover_walk(net, 0)
    recs = [
        epoch_times(net, walk, "arc", TimingModel.L_SQUARED, trial_rng(47, i))
        for i in range(20)
    ]
    assert per_edge_interval_means(recs) == {0: 2.0}


def test_epoch_rule_rejects_bad_configuration():
    net = triangle()
    walk = construct_double_cover_walk(net, 0)
    with pytest.raises(ValueError):
        run(net, 0, EpochSequence(walk, "directed"), TimingModel.L_SQUARED, trial_rng(0, 0))
    with pytest.raises(ValueError):
        run(net, 0, EpochSequence(walk, "sideways"), TimingModel.L_SQUARED, trial_rng(0, 0))
    other = parallel_pair()
    with pytest.raises(ValueError):
        run(other, 0, EpochSequence(walk, "arc"), TimingModel.L_SQUARED, trial_rng(0, 0))

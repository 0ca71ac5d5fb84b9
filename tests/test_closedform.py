import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkcover.closedform import (
    brownian_traversal_mean,
    commute_time,
    cover_bounds,
    half_excursion_mean,
    mean_predeparture_time,
    mean_step_time,
    refined_commutes,
    weighted_cost_commute,
)
from walkcover.errors import (
    EdgeNotIncident,
    MissingArcCost,
    NonPositiveLength,
    SameVertex,
)
from walkcover.generators import parallel_pair, path, triangle, loop, star
from walkcover.netmodel import Arc, build_network, transition_distribution
from walkcover.resistance import SplitSpec, effective_resistance, split_resistances

from support import random_net, random_split_spec


def test_commute_time_examples():
    assert commute_time(path([1.0] * 4), 0, 4) == pytest.approx(32.0, abs=1e-12)
    assert commute_time(build_network(2, [(0, 1, 2.0)]), 0, 1) == pytest.approx(8.0, abs=1e-12)
    assert commute_time(parallel_pair(), 0, 1) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(SameVertex):
        commute_time(triangle(), 1, 1)


def test_weighted_cost_commute_squared_length_reduces_to_commute():
    for seed in (3, 14, 27):
        net = random_net(seed, max_n=6)
        cost = {a: net.edges[a.edge].length ** 2 for a in net.arcs()}
        x, y = 0, net.vertex_count - 1
        if x == y:
            continue
        assert weighted_cost_commute(net, cost, x, y) == pytest.approx(
            commute_time(net, x, y), rel=1e-12
        )


def test_weighted_cost_commute_zero_and_step_count():
    net = triangle()
    zero = {a: 0.0 for a in net.arcs()}
    assert weighted_cost_commute(net, zero, 0, 1) == 0.0
    steps = {a: net.edges[a.edge].length for a in net.arcs()}
    want = 2 * len(net.edges) * effective_resistance(net, 0, 1)
    assert weighted_cost_commute(net, steps, 0, 1) == pytest.approx(want, rel=1e-12)


def test_weighted_cost_commute_errors():
    net = triangle()
    with pytest.raises(MissingArcCost):
        weighted_cost_commute(net, {Arc(0, 0): 1.0}, 0, 1)
    bad = {a: -1.0 for a in net.arcs()}
    with pytest.raises(MissingArcCost):
        weighted_cost_commute(net, bad, 0, 1)
    with pytest.raises(SameVertex):
        weighted_cost_commute(net, {a: 1.0 for a in net.arcs()}, 2, 2)


def test_refined_commutes_triangle():
    vals = refined_commutes(SplitSpec(triangle(), frozenset({0}), 0, 1))
    assert vals.t_forward == pytest.approx(6.0, abs=1e-12)
    assert vals.t_backward == pytest.approx(6.0, abs=1e-12)
    assert vals.t_either == pytest.approx(4.5, abs=1e-12)
    assert vals.t_both == pytest.approx(7.5, abs=1e-12)
    assert vals.p_a == pytest.approx(2 / 3, abs=1e-12)
    assert vals.q == pytest.approx(0.5, abs=1e-12)
    assert vals.y_iii == pytest.approx(15 / 8, abs=1e-12)
    # Wald consistency: time = 2 m R * count, and the both-variant cross-check.
    assert vals.t_both == pytest.approx(4.0 * vals.y_iii, abs=1e-12)


def test_refined_commutes_large_b_side_limit():
    # With R_B huge, all three coefficient ratios approach 1.
    net = build_network(3, [(0, 1, 1.0), (0, 2, 500.0), (2, 1, 500.0)])
    vals = refined_commutes(SplitSpec(net, frozenset({0}), 0, 1))
    assert vals.t_either == pytest.approx(vals.t_forward, rel=2e-3)
    assert vals.t_both == pytest.approx(vals.t_forward, rel=2e-3)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_refined_commute_invariants(seed):
    spec = random_split_spec(seed)
    vals = refined_commutes(spec)
    assert vals.t_forward == vals.t_backward
    assert vals.t_either <= vals.t_forward + 1e-12
    assert vals.t_forward <= vals.t_both + 1e-12
    m = spec.network.total_length
    r = effective_resistance(spec.network, spec.x, spec.y)
    for t, y in (
        (vals.t_either, vals.y_i),
        (vals.t_forward, vals.y_ii),
        (vals.t_both, vals.y_iii),
    ):
        assert abs(t - 2.0 * m * r * y) <= 1e-9 * max(1.0, t)
    r_a, _ = split_resistances(spec)
    assert vals.t_both <= 3.0 * m * r_a + 1e-9


def test_cover_bounds_examples():
    net = build_network(2, [(0, 1, 3.0)])
    assert cover_bounds(net) == (18.0, 27.0)
    assert cover_bounds(loop(1.0)) == (2.0, 3.0)
    assert cover_bounds(path([1.0] * 6)) == (72.0, 108.0)


def test_cover_bounds_scale_quadratically():
    net = random_net(11, max_n=6)
    doubled = build_network(
        net.vertex_count, [(e.u, e.v, 2 * e.length) for e in net.edges]
    )
    e1, a1 = cover_bounds(net)
    e2, a2 = cover_bounds(doubled)
    assert e2 == pytest.approx(4 * e1, rel=1e-12)
    assert a2 == pytest.approx(4 * a1, rel=1e-12)


def test_mean_step_time_examples():
    assert mean_step_time(star(5), 0) == pytest.approx(1.0, abs=1e-12)
    assert mean_step_time(parallel_pair(), 0) == pytest.approx(2.0, abs=1e-12)
    # Lone loop of length m: step time m^2.
    assert mean_step_time(loop(3.0), 0) == pytest.approx(9.0, abs=1e-12)


def test_mean_predeparture_examples():
    assert mean_predeparture_time(parallel_pair(), 0) == pytest.approx(4 / 3, abs=1e-12)
    assert mean_predeparture_time(star(4), 0) == pytest.approx(2 / 3, abs=1e-12)
    assert mean_predeparture_time(loop(1.0), 0) == pytest.approx(2 / 3, abs=1e-12)


def test_brownian_traversal_mean_examples():
    net = parallel_pair()
    assert brownian_traversal_mean(net, 0, 0) == pytest.approx(5 / 3, abs=1e-12)
    assert brownian_traversal_mean(net, 1, 1) == pytest.approx(8 / 3, abs=1e-12)
    assert brownian_traversal_mean(star(3), 0, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EdgeNotIncident):
        brownian_traversal_mean(path([1.0, 1.0]), 0, 1)
    with pytest.raises(EdgeNotIncident):
        brownian_traversal_mean(path([1.0, 1.0]), 0, 9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_brownian_average_equals_step_time(seed):
    net = random_net(seed, max_n=6)
    for v in range(net.vertex_count):
        dist = transition_distribution(net, v)
        avg = math.fsum(
            p * brownian_traversal_mean(net, v, arc.edge) for arc, p in dist.items()
        )
        assert abs(avg - mean_step_time(net, v)) <= 1e-12 * max(1.0, avg)


def test_half_excursion_mean():
    assert half_excursion_mean(1.0) == 1.0 / 3.0
    assert half_excursion_mean(2.0) == pytest.approx(4 / 3, abs=1e-15)
    assert half_excursion_mean(3.0) == pytest.approx(3.0, abs=1e-15)
    with pytest.raises(NonPositiveLength):
        half_excursion_mean(0.0)
    with pytest.raises(NonPositiveLength):
        half_excursion_mean(-2.0)

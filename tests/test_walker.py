import dataclasses
import gc
import math
import pickle
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkcover import walker as walker_module
from walkcover.closedform import commute_time
from walkcover.errors import ChargeOverflow, StepBudgetExceeded, UnsamplableArc, VertexOutOfRange
from walkcover.estimate import estimate, trial_rng
from walkcover.exact import exact_stop_time
from walkcover.generators import loop, parallel_pair, path, random_network, triangle
from walkcover.netmodel import Orientation, build_network
from walkcover.resistance import SplitSpec, via_probability
from walkcover.walker import (
    REFINED_KINDS,
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    FirstPassage,
    RefinedCommute,
    TimingModel,
    VertexCover,
    build_tables,
    commute_trips,
    coverage_bits,
    run,
    step,
)

import oracles
from support import PresetRng, unsamplable_networks


def mc_mean(net, start, rule, model, trials, seed, tables=None):
    if tables is None:
        tables = build_tables(net, model)
    total = 0.0
    sq = 0.0
    for i in range(trials):
        out = run(net, start, rule, model, trial_rng(seed, i), tables=tables)
        total += out.stop_time
        sq += out.stop_time**2
    mean = total / trials
    se = math.sqrt(max(sq / trials - mean * mean, 0.0) / trials)
    return mean, se


def test_step_charges_and_frequencies():
    net = parallel_pair()
    rng = trial_rng(42, 0)
    tables = build_tables(net, TimingModel.L_SQUARED)
    hits = 0
    n = 3000
    for _ in range(n):
        arc, nxt, charge = step(net, 0, TimingModel.L_SQUARED, rng, tables=tables)
        assert nxt == 1
        assert charge == (1.0 if arc.edge == 0 else 4.0)
        hits += arc.edge == 0
    se = math.sqrt((2 / 3) * (1 / 3) / n)
    assert abs(hits / n - 2 / 3) <= 3 * se


def test_step_brownian_charges():
    net = parallel_pair()
    tables = build_tables(net, TimingModel.BROWNIAN_MEAN)
    rng = trial_rng(42, 1)
    for _ in range(50):
        arc, _, charge = step(net, 0, TimingModel.BROWNIAN_MEAN, rng, tables=tables)
        want = 5 / 3 if arc.edge == 0 else 8 / 3
        assert charge == pytest.approx(want, abs=1e-12)


def test_fixed_seed_replays_identically():
    net = triangle()
    a = run(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trial_rng(7, 3), record=True)
    b = run(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trial_rng(7, 3), record=True)
    assert a == b
    assert a.events is not None and len(a.events) == a.step_count


def test_single_edge_commute_is_always_two():
    net = build_network(2, [(0, 1, 1.0)])
    for i in range(20):
        out = run(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trial_rng(1, i))
        assert out.stop_time == 2.0
        assert out.step_count == 2


def test_stop_time_replays_from_event_charges():
    net = parallel_pair()
    out = run(
        net, 0, FirstPassage(1), TimingModel.L_SQUARED, trial_rng(5, 0), record=True
    )
    replay = math.fsum(net.edges[e.arc.edge].length ** 2 for e in out.events)
    assert out.stop_time == replay
    assert [e.elapsed for e in out.events] == sorted(e.elapsed for e in out.events)


def test_forced_tour_charges():
    # From vertex 0 take edge 0, then from vertex 1 take edge 1.  The squared
    # lengths force 1 + 4 exactly; the Brownian means force 5/3 + 8/3.
    net = parallel_pair()
    out = run(net, 0, EdgeCoverReturn(0), TimingModel.L_SQUARED, PresetRng([0.0, 0.9]))
    assert out.step_count == 2
    assert out.stop_time == 1.0**2 + 2.0**2
    out = run(net, 0, EdgeCoverReturn(0), TimingModel.BROWNIAN_MEAN, PresetRng([0.0, 0.9]))
    assert out.step_count == 2
    assert abs(out.stop_time - 13 / 3) <= 1e-12


def test_loop_arc_cover_mean_three_steps():
    net = loop(1.0)
    mean, se = mc_mean(net, 0, ArcCoverReturn(0), TimingModel.L_SQUARED, 20000, 11)
    assert abs(mean - 3.0) <= 3 * se


def test_refined_both_matches_closed_form():
    spec = SplitSpec(triangle(), frozenset({0}), 0, 1)
    mean, se = mc_mean(
        triangle(), 0, RefinedCommute("both", spec), TimingModel.L_SQUARED, 20000, 13
    )
    assert abs(mean - 7.5) <= 3 * se


def test_refined_forward_equals_backward():
    spec = SplitSpec(triangle(), frozenset({0}), 0, 1)
    f, se_f = mc_mean(
        triangle(), 0, RefinedCommute("forward", spec), TimingModel.L_SQUARED, 20000, 17
    )
    b, se_b = mc_mean(
        triangle(), 0, RefinedCommute("backward", spec), TimingModel.L_SQUARED, 20000, 19
    )
    assert abs(f - b) <= 3 * math.hypot(se_f, se_b)


def test_commute_trips_frequency_matches_via_probability():
    spec = SplitSpec(triangle(), frozenset({0}), 0, 1)
    net = triangle()
    tables = build_tables(net, TimingModel.L_SQUARED)
    outs = [
        run(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trial_rng(23, i), tables=tables)
        for i in range(20000)
    ]
    flags = commute_trips(outs, spec.a_edges)
    assert len(flags) == 20000
    p = via_probability(spec)
    freq_f = sum(f for f, _ in flags) / len(flags)
    freq_b = sum(b for _, b in flags) / len(flags)
    se = math.sqrt(p * (1 - p) / len(flags))
    assert abs(freq_f - p) <= 3 * se
    assert abs(freq_b - p) <= 3 * se
    want = oracles.first_arrival_via_probability(net, 0, 1, spec.a_edges)
    assert p == pytest.approx(want, abs=1e-12)


def test_symmetric_split_flags_are_even():
    net = build_network(4, [(0, 2, 1.0), (2, 1, 1.0), (0, 3, 1.0), (3, 1, 1.0)])
    spec = SplitSpec(net, frozenset({0, 1}), 0, 1)
    tables = build_tables(net, TimingModel.L_SQUARED)
    outs = [
        run(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trial_rng(29, i), tables=tables)
        for i in range(20000)
    ]
    flags = commute_trips(outs, spec.a_edges)
    freq = sum(f for f, _ in flags) / len(flags)
    se = math.sqrt(0.25 / len(flags))
    assert abs(freq - 0.5) <= 3 * se


def test_model_equivalence_on_commute():
    net = parallel_pair()
    l2, se1 = mc_mean(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 20000, 31)
    br, se2 = mc_mean(net, 0, Commute(0, 1), TimingModel.BROWNIAN_MEAN, 20000, 37)
    assert abs(l2 - br) <= 3 * math.hypot(se1, se2)
    assert abs(l2 - commute_time(net, 0, 1)) <= 3 * se1


def test_model_equivalence_across_rule_types():
    # The two timing models share the jump chain and vertex-wise expected
    # step times, so any stopping rule has the same expected stop time.
    from walkcover.tours import EpochSequence, construct_double_cover_walk

    tri = triangle()
    spec = SplitSpec(tri, frozenset({0}), 0, 1)
    walk = construct_double_cover_walk(tri, 0)
    rules = [
        FirstPassage(2),
        VertexCover(0, with_return=True),
        RefinedCommute("either", spec),
        EpochSequence(walk, "arc"),
    ]
    for i, rule in enumerate(rules):
        l2, se1 = mc_mean(tri, 0, rule, TimingModel.L_SQUARED, 8000, 400 + 2 * i)
        br, se2 = mc_mean(tri, 0, rule, TimingModel.BROWNIAN_MEAN, 8000, 401 + 2 * i)
        assert abs(l2 - br) <= 3 * math.hypot(se1, se2), rule.label()


def test_vertex_cover_rules():
    one = build_network(1, [])
    out = run(one, 0, VertexCover(0), TimingModel.L_SQUARED, trial_rng(1, 1))
    assert out.stop_time == 0.0 and out.step_count == 0
    edge = build_network(2, [(0, 1, 1.0)])
    out = run(edge, 0, VertexCover(0), TimingModel.L_SQUARED, trial_rng(1, 2))
    assert out.stop_time == 1.0 and out.step_count == 1
    out = run(edge, 0, VertexCover(0, with_return=True), TimingModel.L_SQUARED, trial_rng(1, 3))
    assert out.stop_time == 2.0 and out.step_count == 2


def test_directed_cover_requires_oriented_traversal():
    net = build_network(2, [(0, 1, 1.0)])
    # Orientation 1 -> 0: the first step covers nothing, walk needs 2 steps.
    rule = DirectedCoverReturn(0, Orientation((1,)))
    out = run(net, 0, rule, TimingModel.L_SQUARED, trial_rng(2, 0))
    assert out.step_count == 2 and out.stop_time == 2.0


def test_mask_rules_keep_their_public_surface():
    """The four mask rules share one body but keep their fields, labels,
    equality, hashes and pickles (forked workers pickle rules)."""
    orient = Orientation((0, 1, 0))
    rules = {
        "cover(edge;root=0)": (EdgeCoverReturn(0), ["root"]),
        "cover(arc;root=0)": (ArcCoverReturn(0), ["root"]),
        "cover(directed;root=0)": (DirectedCoverReturn(0, orient), ["root", "orientation"]),
        "vcover(root=0;return=false)": (VertexCover(0), ["root", "with_return"]),
        "vcover(root=0;return=true)": (VertexCover(0, True), ["root", "with_return"]),
    }
    for label, (rule, names) in rules.items():
        assert rule.label() == label
        assert [f.name for f in dataclasses.fields(rule)] == names
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule and hash(copy) == hash(rule) and copy.label() == label
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.root = 1
    assert EdgeCoverReturn(0) != ArcCoverReturn(0)
    assert VertexCover(0) != VertexCover(0, True)
    assert len({EdgeCoverReturn(0), EdgeCoverReturn(0), ArcCoverReturn(0)}) == 2
    short = DirectedCoverReturn(0, Orientation((0, 1)))
    for make in (short.make_lanes, short.make_tracker):
        with pytest.raises(ValueError, match="orientation does not match"):
            make(triangle())


def test_commute_rules_keep_their_public_surface():
    """The two commute rules keep their labels, equality, hashes, pickles,
    errors and the auxiliary payloads of their runs."""
    net = triangle()
    spec = SplitSpec(net, frozenset({0}), 0, 1)
    assert Commute(0, 2).label() == "commute(x=0;y=2)"
    assert Commute(0, 1) != Commute(1, 0)
    rules = [Commute(0, 1)] + [RefinedCommute(kind, spec) for kind in REFINED_KINDS]
    for rule in rules:
        copy = pickle.loads(pickle.dumps(rule))
        assert copy == rule and hash(copy) == hash(rule) and copy.label() == rule.label()
    assert [rule.label() for rule in rules[1:]] == [
        f"refined({kind};x=0;y=1)" for kind in ("either", "forward", "backward", "both")
    ]
    with pytest.raises(VertexOutOfRange, match="commute endpoints must differ"):
        run(net, 2, Commute(2, 2))
    with pytest.raises(ValueError, match="unknown refined-commute kind 'commute'"):
        run(net, 0, RefinedCommute("commute", spec))
    with pytest.raises(ValueError, match="split spec belongs to a different network"):
        run(path([1.0, 1.0]), 0, RefinedCommute("either", spec))

    # One seeded trial of each rule, pinned: its stop time, commutes and
    # commute_trips over A = {0}.  y_b is the arc into y outside A, y_a the
    # one through A; x_b and x_a likewise into x.
    y_b, y_a, x_b, x_a = (1, 1), (0, 0), (2, 0), (0, 1)
    two = [(y_b, x_b), (y_b, x_a)]
    three = [*two, (y_a, x_b)]
    expected = [
        (10.0, [(y_b, x_b)], [(False, False)]),
        (13.0, two, [(False, False), (False, True)]),
        (18.0, three, [(False, False), (False, True), (True, False)]),
        (13.0, two, [(False, False), (False, True)]),
        (18.0, three, [(False, False), (False, True), (True, False)]),
    ]
    for rule, (stop_time, commutes, trips) in zip(rules, expected):
        outcome = run(net, 0, rule, TimingModel.L_SQUARED, trial_rng(4, 0))
        assert outcome.stop_time == stop_time
        assert outcome.auxiliary == {"commutes": commutes, "commute_count": len(commutes)}
        assert commute_trips([outcome], {0}) == trips


def test_commute_lanes_hold_only_reachable_states():
    """Commute lanes keep the states that steps which do not stop reach from
    state 0, and a stopping step stays in its state."""
    net = triangle()
    spec = SplitSpec(net, frozenset({0}), 0, 1)
    rules = [Commute(0, 1)] + [RefinedCommute(kind, spec) for kind in REFINED_KINDS]
    for rule, count in zip(rules, [2, 3, 6, 6, 9]):
        lanes = rule.make_lanes(net)
        nxt, stop = lanes.next, lanes.stop
        assert len(nxt) == count, rule.label()
        assert (nxt[stop] == stop.nonzero()[0]).all()
        reached, frontier = {0}, [0]
        while frontier:
            s = frontier.pop()
            for t in set(nxt[s][~stop[s]].tolist()) - reached:
                reached.add(t)
                frontier.append(t)
        assert reached == set(range(count)), rule.label()


def test_coverage_bits_are_numbered_per_arc():
    # Triangle edges 0-1, 1-2, 2-0; arc 2 * edge + direction, direction 0
    # from u to v.
    net = triangle()
    assert coverage_bits(net, "edge") == ([1, 1, 2, 2, 4, 4], 7)
    assert coverage_bits(net, "arc") == ([1, 2, 4, 8, 16, 32], 63)
    assert coverage_bits(net, "directed", Orientation((0, 1, 0))) == ([1, 0, 0, 2, 4, 0], 7)
    assert coverage_bits(net, "vertex") == ([2, 1, 4, 2, 1, 4], 7)


def test_anchor_mismatch_rejected():
    with pytest.raises(ValueError):
        run(triangle(), 1, Commute(0, 1), TimingModel.L_SQUARED, trial_rng(0, 0))


@pytest.mark.parametrize("rule", [FirstPassage(9), Commute(0, 9), FirstPassage(-1)])
def test_rule_vertices_checked(rule):
    # An unreachable target would otherwise walk to the step budget.
    with pytest.raises(VertexOutOfRange):
        run(triangle(), 0, rule, TimingModel.L_SQUARED, trial_rng(0, 0), step_budget=10**9)


def test_step_budget_exceeded():
    net = triangle()
    with pytest.raises(StepBudgetExceeded):
        run(
            net, 0, FirstPassage(2), TimingModel.L_SQUARED,
            PresetRng([], pad=0.0),  # forever bounce 0 <-> 1 on the lowest arc
            step_budget=50,
        )


# Uniform blocks a walk of exactly ``budget`` steps asks for: the refill
# schedule 64, 128, 256, ... capped at the steps left in the budget.
_BOUNDARY_SIZES = {1: [1], 64: [64], 65: [64, 1], 320: [64, 128, 128]}


@pytest.mark.parametrize("budget", sorted(_BOUNDARY_SIZES))
def test_step_budget_boundaries(budget):
    # Bounce 0 <-> 1 on the lowest arc, then take the last arc to 2.
    def walk(steps, record=False):
        rng = PresetRng([0.0] * (steps - 1) + [0.99], pad=0.0)
        out = run(
            triangle(), 0, FirstPassage(2), TimingModel.L_SQUARED, rng,
            step_budget=budget, record=record,
        )
        assert rng.sizes == _BOUNDARY_SIZES[budget]
        return out

    out = walk(budget)
    assert (out.stop_time, out.step_count, out.events) == (float(budget), budget, None)
    recorded = walk(budget, record=True)
    assert (recorded.stop_time, recorded.step_count, recorded.auxiliary) == (
        out.stop_time, out.step_count, out.auxiliary
    )
    assert [ev.step_index for ev in recorded.events] == list(range(budget))
    assert recorded.events[-1].arrival_vertex == 2
    message = f"no stop within {budget} steps for first_passage(target=2)"
    with pytest.raises(StepBudgetExceeded) as exc:
        walk(budget + 1)
    assert str(exc.value) == message


def test_refill_schedule():
    # Blocks double from 64 to the cap of 1024 and stay there: six full
    # blocks (3008 steps), then a block capped at the 7 steps left.
    rng = PresetRng([], pad=0.0)
    with pytest.raises(StepBudgetExceeded):
        run(triangle(), 0, FirstPassage(2), TimingModel.L_SQUARED, rng, step_budget=3015)
    assert rng.sizes == [64, 128, 256, 512, 1024, 1024, 7]


@pytest.mark.parametrize("budget", [0, -5])
def test_step_budget_below_one_rejected(budget):
    net = parallel_pair()
    with pytest.raises(ValueError, match="step budget must be at least 1"):
        run(net, 0, FirstPassage(1), TimingModel.L_SQUARED, trial_rng(0, 0), step_budget=budget)
    with pytest.raises(ValueError, match="step budget must be at least 1"):
        estimate(net, 0, FirstPassage(1), TimingModel.L_SQUARED, 10, 0, step_budget=budget)


def test_first_passage_at_start_is_zero():
    out = run(triangle(), 0, FirstPassage(0), TimingModel.L_SQUARED, trial_rng(3, 0))
    assert out.stop_time == 0.0 and out.step_count == 0


def _rank_slot_cases():
    """Sampling tables for the rank rows: random networks with lengths in
    0.8-1.25, and a hand-built table with one row that is not sorted."""
    tables = [build_tables(random_network(n, m, (0.8, 1.25), seed=seed), TimingModel.L_SQUARED)
              for n, m, seed in ((6, 9, 1), (12, 20, 2), (20, 34, 3))]
    meta = [(0, 0, 1, 1.0), (1, 0, 1, 1.0), (2, 0, 1, 1.0)]
    tables.append([([0.25, 0.75, 1.0], meta), ([0.6, 0.3, 1.0], meta), None, ([1.0], meta[:1])])
    return tables


@pytest.mark.parametrize("case", range(len(_rank_slot_cases())))
def test_rank_rows_pick_the_bisect_slot(case, monkeypatch):
    """Every draw of rank r finds, in every row, the slot ``bisect_right``
    finds: checked at each rank's ends (0.0 for the first) and just above
    its lowest breakpoint."""
    monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", 10**6)
    tables = _rank_slot_cases()[case]
    breaks, at = walker_module._rank_rows(tables)
    slots = walker_module._slot_columns(tables)[0]
    ends = [0.0, *breaks.tolist(), 1.0]
    assert at.shape == (len(tables), len(ends) - 1)
    for r in range(len(ends) - 1):
        lo, hi = ends[r], ends[r + 1]
        for u in (lo, math.nextafter(lo, 1), math.nextafter(hi, 0)):
            assert np.searchsorted(breaks, u, "right") == r
            for v, row in enumerate(tables):
                if row is not None:
                    assert at[v, r] - slots[v][1] == bisect_right(row[0], u), (v, r, u)
    if case == len(_rank_slot_cases()) - 1:
        # From 0.3 on, bisect on the row that is not sorted lands on its
        # last slot, where counting its entries below u would not.
        assert breaks.tolist() == [0.25, 0.3, 0.6, 0.75]
        assert (at[1] - 3).tolist() == [0, 0, 2, 2, 2]


def _grid_rank_cases():
    """Rank-row tables whose breakpoints the grid ranks: those of
    :func:`_rank_slot_cases`; a centre whose two lower breakpoints are
    6.7e-7 apart, closer than any one-row grid within ``GRID_ENTRIES_MAX``
    parts; a single edge, with no breakpoints; and 300 parallel edges of
    distinct lengths, with 300 ranks."""
    close = build_network(4, [(0, 1, 1e-6), (0, 2, 1.0), (0, 3, 2e-6)])
    parallel = build_network(2, [(0, 1, 1.0 + k / 1000) for k in range(300)])
    return _rank_slot_cases() + [build_tables(net, TimingModel.L_SQUARED)
                                 for net in (close, path([1.0]), parallel)]


@pytest.mark.parametrize("case", range(len(_grid_rank_cases())))
def test_grid_ranks_equal_searchsorted(case, monkeypatch):
    """Both rankers of a rank-row walker, ``searchsorted`` for a trial's
    first refill block and the one-row grid for the rest, give every draw
    the rank ``np.searchsorted(breaks, u, "right")`` gives: at 0, at each
    breakpoint and the doubles on either side of it, and on 10^5 seeded
    draws.  The grid gives bytes while there are at most 256 ranks."""
    monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", 10**6)
    breaks = walker_module._rank_rows(_grid_rank_cases()[case])[0]
    near = [math.nextafter(c, to) for c in breaks.tolist() for to in (0, 1)]
    draws = np.concatenate([[0.0], breaks, near, np.random.default_rng(case).random(10**5)])
    first, later = walker_module._rankers(breaks, walker_module._row_grid(breaks))
    expected = np.searchsorted(breaks, draws, "right").tolist()
    ranks = later(draws)
    assert isinstance(ranks, bytes) == (len(breaks) < 256)
    assert list(ranks) == first(draws) == expected
    g, _, thr = walker_module._grid([([*breaks.tolist(), 1.0], 0, len(breaks) + 1)])
    if case == len(_grid_rank_cases()) - 3:
        assert 1 << g == walker_module.GRID_ENTRIES_MAX and len(thr) >= 2
    if case == len(_grid_rank_cases()) - 2:
        assert len(breaks) == 0 and set(ranks) == {0}
    if case == len(_grid_rank_cases()) - 1:
        assert len(breaks) == 299 and isinstance(ranks, list)


def test_rank_rows_gate(monkeypatch):
    """The gate counts one entry per row and rank, for every state's copy
    of the rows."""
    tables = build_tables(random_network(12, 20, (0.8, 1.25), seed=2), TimingModel.L_SQUARED)
    entries = len(tables) * (len(walker_module._rank_rows(tables)[0]) + 1)
    monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", entries)
    assert walker_module._rank_rows(tables) is not None
    assert walker_module._rank_rows(tables, states=2) is None
    monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", 2 * entries)
    assert walker_module._rank_rows(tables, states=2) is not None
    monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", entries - 1)
    assert walker_module._rank_rows(tables) is None


@pytest.mark.parametrize("rule", [Commute(0, 5), EdgeCoverReturn(0)])
def test_rank_rows_are_freed_with_their_walk(rule, monkeypatch):
    """Rank rows, and slot rows above the gate, link to each other; freeing
    the walk empties them, so they leave no reference cycle for the
    collector."""
    net = random_network(6, 9, (0.8, 1.25), seed=1)
    tables = build_tables(net, TimingModel.L_SQUARED)
    lanes = rule.make_lanes(net)
    for gate in (walker_module.RANK_ENTRIES_MAX, 0):
        monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", gate)
        gc.collect()
        gc.disable()
        try:
            walk = lanes.walkers(tables, 0, rule.label())[0]
            walk(trial_rng(1, 0), 10**6)
            del walk
            assert gc.collect() == 0, gate
        finally:
            gc.enable()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12), st.integers(0, 12),
    st.sampled_from([(0.8, 1.25), (0.2, 3.0), (1e-3, 1e3)]), st.integers(0, 2**32 - 1),
)
def test_sampling_rows_rise_strictly_to_one(n, extra, lengths, seed):
    """Every row of ``build_tables`` rises strictly from above 0 and ends at
    exactly 1.0, so each arc owns a slot some uniform in [0, 1) reaches."""
    net = random_network(n, n - 1 + extra, lengths, allow_loops=True, allow_parallel=True,
                         seed=seed)
    for model in TimingModel:
        for row in build_tables(net, model):
            if row is None:  # a lone vertex without loops
                continue
            cum, meta = row
            assert len(cum) == len(meta) and cum[-1] == 1.0
            assert all(lo < hi for lo, hi in zip([0.0, *cum], cum)), cum


@pytest.mark.parametrize("name", sorted(unsamplable_networks()))
@pytest.mark.parametrize("model", list(TimingModel))
def test_unsamplable_arcs_fail_loudly(name, model):
    """A row that some arc's slot cannot be drawn from raises the same error
    from the tables, ``run``, the fused and lockstep estimates and the exact
    solve, naming the lost arc's edge."""
    net, edge = unsamplable_networks()[name]
    message = f"{edge} out of vertex 0"
    rule = Commute(0, 2)
    with pytest.raises(UnsamplableArc, match=message):
        build_tables(net, model)
    with pytest.raises(UnsamplableArc, match=message):
        run(net, 0, rule, model, trial_rng(1, 0))
    for trials in (100, 600):
        with pytest.raises(UnsamplableArc, match=message):
            estimate(net, 0, rule, model, trials, 1)
    with pytest.raises(UnsamplableArc, match=message):
        exact_stop_time(net, 0, rule, model)


@pytest.mark.parametrize("model", list(TimingModel))
def test_overflowing_charges_fail_loudly(model):
    """A length whose charge overflows to infinity raises the same error,
    naming its edge, from the tables, ``run``, the fused and lockstep
    estimates and the exact solve, rather than an infinite mean."""
    net, rule = build_network(2, [(0, 1, 1e200)]), Commute(0, 1)
    message = "edge 0 out of vertex 0"
    with pytest.raises(ChargeOverflow, match=message):
        build_tables(net, model)
    with pytest.raises(ChargeOverflow, match=message):
        run(net, 0, rule, model, trial_rng(1, 0))
    for trials in (100, 600):
        with pytest.raises(ChargeOverflow, match=message):
            estimate(net, 0, rule, model, trials, 1)
    with pytest.raises(ChargeOverflow, match=message):
        exact_stop_time(net, 0, rule, model)


@pytest.mark.parametrize("model", ["brownian", "l2", "nonsense", None])
def test_timing_model_must_be_a_timing_model(model):
    """A model is read where the tables are built, so a string or any other
    value fails there rather than being charged as ``L_SQUARED``."""
    net, rule = path([1.0, 2.0]), Commute(0, 2)
    for call in (
        lambda: build_tables(net, model),
        lambda: run(net, 0, rule, model, trial_rng(1, 0)),
        lambda: estimate(net, 0, rule, model, 2000, 1),
        lambda: exact_stop_time(net, 0, rule, model),
        lambda: exact_stop_time(net, 0, FirstPassage(0), model),
    ):
        with pytest.raises(TypeError, match="must be a TimingModel"):
            call()

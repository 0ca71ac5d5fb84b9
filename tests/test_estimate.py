import collections
import importlib
import importlib.util
import math
import operator
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkcover import cli, tours
from walkcover.closedform import commute_time, refined_commutes
from walkcover.errors import StepBudgetExceeded
from walkcover.estimate import (
    CSV_HEADER,
    EstimateReport,
    estimate,
    estimate_refined,
    estimate_vertex_cover,
    format_number,
    render_csv,
    render_text,
    trial_rng,
    verify,
)
from walkcover.generators import from_spec, parallel_pair, path, random_network, star, triangle
from walkcover.netmodel import Orientation, build_network
from walkcover.resistance import SplitSpec
from walkcover.walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    FirstPassage,
    REFINED_KINDS,
    RefinedCommute,
    TimingModel,
    VertexCover,
    build_tables,
    run,
)


def test_same_seed_is_bit_identical():
    net = parallel_pair()
    a = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 500, 99)
    b = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 500, 99)
    assert a == b


def test_worker_partitioning_does_not_change_the_report(monkeypatch):
    # Forced to fork on a host taken to have 8 CPUs, 2 and 5 workers split
    # the trials after the pilot into 2 and 5 blocks.  Star:40 arc cover
    # needs 80 mask bits, so it walks fused blocks, which may fork.
    net = star(40)
    monkeypatch.setattr(estimate_module, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 8)
    pools = _count_pools(monkeypatch)
    reports = [
        estimate(net, 0, ArcCoverReturn(0), TimingModel.L_SQUARED, 600, 7, workers=w)
        for w in (1, 2, 5)
    ]
    assert reports[0] == reports[1] == reports[2]
    assert pools == [1, 4]


def test_report_fields():
    net = parallel_pair()
    rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 4000, 3)
    assert rep.trials == 4000 and rep.seed == 3
    assert rep.ci95 == (rep.mean - 1.96 * rep.stderr, rep.mean + 1.96 * rep.stderr)
    assert abs(rep.mean - commute_time(net, 0, 1)) <= 3 * rep.stderr
    assert rep.aux_means["steps"] == 2.0  # both edges join the same two vertices
    with pytest.raises(ValueError):
        estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 1, 3)


def test_stderr_shrinks_with_sqrt_trials():
    net = parallel_pair()
    small = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 4000, 5)
    big = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 16000, 5)
    assert big.stderr == pytest.approx(small.stderr / 2, rel=0.15)


def test_estimate_refined_hits_target():
    spec = SplitSpec(triangle(), frozenset({0}), 0, 1)
    rep = estimate_refined(spec, "forward", TimingModel.L_SQUARED, 20000, 21)
    target = refined_commutes(spec).t_forward
    assert abs(rep.mean - target) <= 3 * rep.stderr
    assert "commutes" in rep.aux_means


def test_estimate_vertex_cover_trivial_and_path():
    single = build_network(1, [])
    rep = estimate_vertex_cover(single, 0, False, TimingModel.L_SQUARED, 10, 1)
    assert rep.mean == 0.0 and rep.stderr == 0.0
    p2 = build_network(2, [(0, 1, 1.0)])
    rep = estimate_vertex_cover(p2, 0, False, TimingModel.L_SQUARED, 50, 1)
    assert rep.mean == 1.0 and rep.stderr == 0.0


def test_step_count_matches_length_cost_commute():
    # Charging each arc its length makes the commute cost count steps, so the
    # sampled mean step count must match that closed form.
    net = triangle()
    from walkcover.closedform import weighted_cost_commute

    cost = {a: net.edges[a.edge].length for a in net.arcs()}
    want = weighted_cost_commute(net, cost, 0, 1)
    rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 20000, 43)
    se = rep.stderr  # unit lengths: step count and stop time coincide
    assert abs(rep.aux_means["steps"] - want) <= 3 * se


def test_verify_equality_logic():
    net = build_network(2, [(0, 1, 1.0)])
    rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 100, 1)
    assert rep.mean == 2.0 and rep.stderr == 0.0
    assert verify(rep, 2.0, "equality").passed
    assert not verify(rep, 2.0001, "equality").passed
    assert verify(rep, 2.5, "upper_bound").passed
    assert not verify(rep, 1.5, "upper_bound").passed
    with pytest.raises(ValueError):
        verify(rep, 2.0, "sideways")


def test_verify_rejects_meaningless_slack():
    rep = EstimateReport("r", TimingModel.L_SQUARED, 10, 1, 2.0, 0.5, (1.02, 2.98))
    for slack in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        for kind in ("equality", "upper_bound"):
            with pytest.raises(ValueError, match="slack must be a finite number of at least 0"):
                verify(rep, 2.0, kind, slack)
    assert verify(rep, 2.0, "equality", 0.0).passed
    assert not verify(rep, 2.1, "equality", 0.0).passed


def test_verify_allows_rounding_only():
    # A zero-variance estimate one ulp from its exact target differs by
    # rounding alone and must pass; one off by 1e-6 must still fail.
    target = 24.0

    def report(mean):
        return EstimateReport("r", TimingModel.L_SQUARED, 10, 1, mean, 0.0, (mean, mean))

    for kind in ("equality", "upper_bound"):
        assert verify(report(math.nextafter(target, math.inf)), target, kind).passed
        assert not verify(report(target + 1e-6), target, kind).passed
    assert verify(report(math.nextafter(target, -math.inf)), target, "equality").passed
    assert not verify(report(target - 1e-6), target, "equality").passed
    assert verify(report(math.nextafter(0.0, 1.0)), 0.0, "equality").passed


def test_verify_slack_scaling():
    net = parallel_pair()
    rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 2000, 17)
    target = commute_time(net, 0, 1)
    assert verify(rep, target, "equality", slack_sigmas=3.0).passed
    off = target + 10 * rep.stderr
    assert not verify(rep, off, "equality", slack_sigmas=3.0).passed
    assert verify(rep, off, "upper_bound", slack_sigmas=3.0).passed


def test_budget_failure_names_the_trial(monkeypatch):
    net = path([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(StepBudgetExceeded) as exc:
        estimate(
            net, 0, FirstPassage(4), TimingModel.L_SQUARED, 10, 2, step_budget=3
        )
    assert "trial 0" in str(exc.value)
    # Above the lockstep gate, lanes that reach the budget go on to it on the
    # fused loop, in trial order, and the lowest of them raises.  The messages
    # were captured from the scalar walker.  These estimates walk in
    # lockstep, so at 2 workers too they walk in one process, as one block.
    net, rules = _table_rules()
    for budget, first in ((60, 0), (80, 13)):
        for workers in (1, 2):
            with pytest.raises(StepBudgetExceeded) as exc:
                estimate(net, 1, rules["cover(arc)"], TimingModel.L_SQUARED, 2000, 1789,
                         workers=workers, step_budget=budget)
            assert str(exc.value) == (
                f"trial {first}: no stop within {budget} steps for cover(arc;root=1)"
            )
    # Budgets one below, at and one past the edges of the first and eighth
    # draw groups of a block that draws in groups of 8 from its first step;
    # at the first group's edges nearly every lane is still live.
    trials, seed = 600, 11
    assert estimate_module._group_size(trials) == 8
    tables = build_tables(net, TimingModel.L_SQUARED)
    for name in ("cover(arc)", "refined(both)"):
        rule = rules[name]
        steps = [_expected_sample(net, 1, rule, TimingModel.L_SQUARED, tables,
                                  trial_rng(seed, i))[1] for i in range(trials)]
        for budget in (7, 8, 9, 63, 64, 65):
            failing = [i for i, n in enumerate(steps) if n > budget]
            assert failing, (name, budget)
            with pytest.raises(StepBudgetExceeded) as expected:
                run(net, 1, rule, TimingModel.L_SQUARED, trial_rng(seed, failing[0]),
                    step_budget=budget, tables=tables)
            with pytest.raises(StepBudgetExceeded) as exc:
                estimate(net, 1, rule, TimingModel.L_SQUARED, trials, seed, step_budget=budget)
            assert str(exc.value) == f"trial {failing[0]}: {expected.value}", (name, budget)
        assert sum(n > 8 for n in steps) > estimate_module.LOCKSTEP_MIN_LIVE
    # Above the fork threshold the lowest failing trial may fall in the pilot,
    # in the block the parent walks or in the forked one.  Both estimates
    # walk fused blocks: star:40 arc cover needs 80 mask bits, and the
    # tree:4 edge cover has fewer trials than the lockstep gate.
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    pools = _count_pools(monkeypatch)
    cases = (
        (star(40), ArcCoverReturn(0), 2000,
         ((500, 23, "pilot"), (600, 130, "parent"), (816, 1587, "child"))),
        (from_spec("tree:4"), EdgeCoverReturn(0), 200,
         ((9000, 10, "pilot"), (12000, 26, "parent"), (16000, 127, "child"))),
    )
    for net, rule, trials, failures in cases:
        pilot = min(estimate_module.FORK_PILOT, trials // 16)
        half = pilot + (trials - pilot) // 2
        for budget, first, where in failures:
            assert where == ("pilot" if first < pilot else "parent" if first < half else "child")
            for workers in (1, 2):
                pools.clear()
                with pytest.raises(StepBudgetExceeded) as exc:
                    estimate(net, 0, rule, TimingModel.L_SQUARED, trials, 3,
                             workers=workers, step_budget=budget)
                assert str(exc.value) == (
                    f"trial {first}: no stop within {budget} steps for {rule.label()}"
                )
                assert pools == ([1] if workers == 2 and where != "pilot" else [])


def test_workers_below_one_rejected():
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            estimate(triangle(), 0, Commute(0, 1), TimingModel.L_SQUARED, 10, 1, workers=workers)


def test_render_csv_shape():
    net = parallel_pair()
    rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 200, 15)
    ver = verify(rep, commute_time(net, 0, 1))
    text = render_csv([(rep, ver), (rep, None)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "commute(x=0;y=1)"
    assert first[1] == "l2"
    assert first[2] == "200" and first[3] == "15"
    assert first[9] == "equality" and first[10] in ("true", "false")
    bare = lines[2].split(",")
    assert bare[8] == "" and bare[9] == "" and bare[10] == ""


def test_render_text_shape():
    net = parallel_pair()
    rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 200, 15)
    block = render_text([(rep, verify(rep, 4.0))])
    assert "rule:    commute(x=0;y=1)" in block
    assert "target:  4 (equality)" in block


def test_format_number_six_significant_digits():
    assert format_number(2 / 3) == "0.666667"
    assert format_number(128.0) == "128"
    assert format_number(0.000123456789) == "0.000123457"


def test_trial_rng_streams_are_stable_and_distinct():
    a = trial_rng(5, 0).random(4).tolist()
    b = trial_rng(5, 0).random(4).tolist()
    c = trial_rng(5, 1).random(4).tolist()
    assert a == b
    assert a != c


# The module itself: the package re-exports the ``estimate`` function under
# the same name.
estimate_module = importlib.import_module("walkcover.estimate")
walker_module = importlib.import_module("walkcover.walker")

# Seeds of one to seven 32-bit words; the last two give SeedSequence more
# entropy words than its pool of four.
STREAM_SEEDS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**70 + 9, 2**100 + 3, 2**200 + 5)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_bulk_states_equal_trial_rng(seed):
    # The last block crosses into two-word indices.
    for lo, hi in ((0, 120), (977, 1097), (2**32 - 120, 2**32), (2**32 - 60, 2**32 + 60)):
        words = [a.tolist() for a in estimate_module._trial_states(seed, lo, hi)]
        assert [len(w) for w in words] == [hi - lo] * 4
        for i, s_hi, s_lo, i_hi, i_lo in zip(range(lo, hi), *words):
            expected = trial_rng(seed, i).bit_generator.state["state"]
            state, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
            assert (state, inc) == (expected["state"], expected["inc"]), (seed, i)


# Every draw-group size the lockstep walker can pick.
GROUP_SIZES = sorted({estimate_module._group_size(n) for n in range(1, 5000)})


@pytest.mark.parametrize("seed", STREAM_SEEDS[1::3])
@pytest.mark.parametrize("size", GROUP_SIZES)
def test_draw_groups_equal_pcg64_advance(seed, size):
    """A lockstep draw group holds PCG64's own states ``advance(k)`` ahead of
    each trial's seeded state and ``trial_rng``'s uniforms: the first group
    jumped from the seeded states, and the next one advanced from it, on a
    block that straddles 2**32."""
    lo, hi = 2**32 - 60, 2**32 + 60
    streams = estimate_module._trial_states(seed, lo, hi)
    first, jump = estimate_module._group_states(*streams, size)
    second = estimate_module._next_group(*first, jump)
    state_hi, state_lo = (np.concatenate(words) for words in zip(first, second))
    draws = estimate_module._uniforms(state_hi, state_lo).T.tolist()
    states = zip(state_hi.T.tolist(), state_lo.T.tolist())
    for i, (s_hi, s_lo), row in zip(range(lo, hi), states, draws):
        seeded = trial_rng(seed, i).bit_generator.state
        for k in range(2 * size):
            ahead = np.random.PCG64()
            ahead.state = seeded
            ahead.advance(k + 1)
            assert s_hi[k] << 64 | s_lo[k] == ahead.state["state"]["state"], (seed, i, k)
        assert row == trial_rng(seed, i).random(2 * size).tolist(), (seed, i)


@st.composite
def _sampling_rows(draw):
    """A random network's sampling rows, with edge lengths from 1e-6 to 1,
    so that some rows hold breakpoints too close for any grid within
    ``GRID_ENTRIES_MAX``, and with rows of vertices without arcs (None) put
    in among them."""
    n = draw(st.integers(2, 7))
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    exponents = draw(st.lists(st.floats(-6, 0), min_size=len(pairs), max_size=len(pairs)))
    net = build_network(n, [(u, v, 10.0**x) for (u, v), x in zip(pairs, exponents)])
    tables = build_tables(net, draw(st.sampled_from(TimingModel)))
    for at in draw(st.lists(st.integers(0, n), max_size=2)):
        tables.insert(at, None)
    return tables


# A centre whose two lower breakpoints are 6.7e-7 apart, inside one bin of
# the finest grid within ``GRID_ENTRIES_MAX`` for 4 vertices.
_CLOSE_ROW = build_network(4, [(0, 1, 1e-6), (0, 2, 1.0), (0, 3, 2e-6)])


@settings(max_examples=40, deadline=None)
@given(tables=_sampling_rows(), picks=st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
@example(tables=build_tables(_CLOSE_ROW, TimingModel.L_SQUARED) + [None], picks=[])
def test_grid_lookup_equals_bisect_right(tables, picks):
    """The lockstep walker's slot lookup on its grid of the draw finds the
    slot ``bisect_right`` finds in each sampling row: on every breakpoint
    and just below it, on bin edges (those around every breakpoint and
    every few bins besides), at 0 and at ``1 - 2**-53``, for single-slot
    rows and vertices without arcs, and where breakpoints share a bin."""
    slots = walker_module._slot_columns(tables)[0]
    g, lo, thr = walker_module._grid(slots)
    scale = 2.0**g
    for v, (cum, a, _) in enumerate(slots):
        row = cum or []
        breaks = row[:-1]
        edges = {int(c * scale) + d for c in breaks for d in (0, 1)}
        edges |= set(range(0, 2**g, 2**g // 64 or 1))
        draws = [*breaks, *(math.nextafter(c, 0) for c in breaks), 0.0, 1 - 2**-53, *picks]
        draws += [j / scale for j in sorted(edges) if j < 2**g]
        u = np.array(draws)
        at = (v << g) + (u * scale).astype(np.intp)
        slot = walker_module._grid_slots(lo, thr, at, u)
        assert slot.tolist() == [a + bisect_right(row, x) for x in draws], (v, g)
    # g is the smallest that parts every row's neighbouring entries, unless
    # a finer grid would pass ``GRID_ENTRIES_MAX``.
    entries = [(v, c) for v, (cum, _, _) in enumerate(slots) for c in (cum or [])[:-1]]

    def parted(h):
        return all(int(a * 2**h) != int(b * 2**h)
                   for (v, a), (w, b) in zip(entries, entries[1:]) if v == w)

    finest = len(slots) << g + 1 > walker_module.GRID_ENTRIES_MAX
    assert (parted(g) or finest) and (g == 0 or not parted(g - 1)), g


@pytest.mark.parametrize("seed", range(12))
def test_row_grid_equals_the_general_grid(seed):
    """The one-row grid built directly from sorted breakpoints is the
    general grid of the row they and 1.0 make: the same g, ``lo`` (values
    and type) and threshold columns.  Sets of 0 to 40 breakpoints, some on
    a coarse lattice, and from seed 4 on with two breakpoints closer than
    2**-16, which no grid within ``GRID_ENTRIES_MAX`` parts."""
    rng = np.random.default_rng(seed)
    for size in (0, 1, 2, 5, 17, 40):
        breaks = rng.random(size)
        if seed % 4 == 1:
            breaks = np.round(breaks * 64) / 64
        if seed >= 4 and size:
            breaks = np.append(breaks, breaks[0] + rng.random() * 2.0**-(17 + seed))
        breaks = np.unique(breaks[(breaks > 0) & (breaks < 1)])
        g, lo, thr = walker_module._breaks_grid(breaks)
        expected = walker_module._grid([([*breaks.tolist(), 1.0], 0, len(breaks) + 1)])
        assert g == expected[0] and lo.dtype == expected[1].dtype, (seed, size)
        assert lo.tolist() == expected[1].tolist() and thr.tolist() == expected[2].tolist()
        if seed >= 4 and size > 1:
            assert g == 16 and len(thr) > 1, (seed, size)


def test_grid_keeps_columns_past_its_bound():
    """Where no grid within ``GRID_ENTRIES_MAX`` parts two breakpoints of a
    row, the grid is the finest within it and a bin keeps two thresholds;
    on a narrow network it is the coarsest that parts every row's
    breakpoints, with one threshold a bin."""
    tables = build_tables(_CLOSE_ROW, TimingModel.L_SQUARED)
    g, lo, thr = walker_module._grid(walker_module._slot_columns(tables)[0])
    assert 4 << g <= walker_module.GRID_ENTRIES_MAX < 4 << g + 1
    assert len(thr) == 2 and len(lo) == 4 << g
    tables = build_tables(star(5), TimingModel.L_SQUARED)
    g, lo, thr = walker_module._grid(walker_module._slot_columns(tables)[0])
    assert (g, len(thr)) == (2, 1)


def test_negative_seed_fails_before_any_trial(monkeypatch):
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        estimate_module._trial_states(-1, 0, 5)

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(estimate_module, "run", no_trials)
    for lanes in (walker_module._TableLanes, walker_module._MaskLanes):
        monkeypatch.setattr(lanes, "walkers", no_trials)
    with pytest.raises(ValueError):
        estimate(triangle(), 0, Commute(0, 1), TimingModel.L_SQUARED, 10, -1)


def _rules():
    tri = triangle()
    walk = tours.construct_double_cover_walk(tri, 0)
    orient = Orientation((0, 1, 0))
    return [
        (tri, 0, Commute(0, 2)),
        (tri, 0, RefinedCommute("both", SplitSpec(tri, frozenset({0}), 0, 1))),
        (path([0.7, 1.3, 2.1]), 0, FirstPassage(3)),
        (parallel_pair(), 0, EdgeCoverReturn(0)),
        (tri, 1, ArcCoverReturn(1)),
        (tri, 0, DirectedCoverReturn(0, orient)),
        (from_spec("random:n=6,m=8,seed=3"), 2, VertexCover(2, True)),
        (tri, 0, tours.EpochSequence(walk, "directed", orient)),
    ]


@pytest.mark.parametrize("case", range(len(_rules())))
@pytest.mark.parametrize("model", list(TimingModel))
def test_estimate_equals_the_serial_rebuild(case, model):
    """Every rule's report mean is the trial-ordered sum over ``trial_rng``."""
    net, start, rule = _rules()[case]
    trials, seed = 60, 2**40 + case
    tables = build_tables(net, model)
    serial = math.fsum(
        run(net, start, rule, model, trial_rng(seed, i), tables=tables).stop_time
        for i in range(trials)
    ) / trials
    for workers in (1, 2):
        rep = estimate(net, start, rule, model, trials, seed, workers=workers)
        assert rep.mean == serial, workers


# (mean, stderr) of 200 trials at seed 77 from vertex 1 of the network in
# ``_pin_rules()``, per rule and timing model (L_SQUARED, BROWNIAN_MEAN).
_PINNED = {
    "cover(edge)": ((27.5233, 0.8514042055074539), (27.061671530758225, 0.8787907168738418)),
    "cover(arc)": (
        (52.892199999999995, 1.541455181372752), (52.315821505418924, 1.6391828831079498)
    ),
    "cover(directed)": (
        (43.842699999999994, 1.2464154487587682), (43.14998562733267, 1.2894852120002007)
    ),
    "vcover": ((11.64005, 0.6071505301974918), (11.522478469241774, 0.6349360428230834)),
    "vcover(return)": ((16.4926, 0.6923399012728302), (16.342682904148784, 0.7087570208367828)),
    "epochs(arc)": (
        (130.74530000000004, 3.561104341380786), (130.88298722925208, 3.7083283172746544)
    ),
    "epochs(directed)": (
        (89.51819999999998, 2.401984921186652), (88.97619784827032, 2.498525539162095)
    ),
}


def _pin_rules():
    # Parallel edges, a loop and a cycle; lengths make every charge distinct.
    net = build_network(
        4, [(0, 1, 0.7), (1, 2, 1.3), (1, 2, 0.9), (2, 3, 2.1), (3, 0, 1.1), (2, 2, 0.6)]
    )
    walk = tours.construct_double_cover_walk(net, 1)
    mixed = Orientation((0, 1, 1, 0, 1, 0))
    return net, {
        "cover(edge)": EdgeCoverReturn(1),
        "cover(arc)": ArcCoverReturn(1),
        "cover(directed)": DirectedCoverReturn(1, mixed),
        "vcover": VertexCover(1),
        "vcover(return)": VertexCover(1, True),
        "epochs(arc)": tours.EpochSequence(walk, "arc"),
        "epochs(directed)": tours.EpochSequence(walk, "directed", mixed),
    }


def _table_rules():
    """Every rule with a table form, from vertex 1 of ``_pin_rules()``'s network."""
    net, rules = _pin_rules()
    spec = SplitSpec(net, frozenset({1}), 1, 2)
    table = {"commute": Commute(1, 3), "first_passage": FirstPassage(3)}
    table.update((f"refined({kind})", RefinedCommute(kind, spec)) for kind in REFINED_KINDS)
    table.update(rules)
    return net, table


# (mean, stderr, aux_means) of 2000 trials at seed 1789 from vertex 1 of
# ``_table_rules()``'s network, per rule and timing model (L_SQUARED,
# BROWNIAN_MEAN), captured from the scalar walker.  At ``workers=1`` and
# ``workers=2`` these estimates are above the lockstep gate.
_PINNED_LOCKSTEP = {
    "commute": (
        (14.28933, 0.18755717534277722, {"steps": 13.4925, "commutes": 1.0}),
        (14.2359548541406, 0.1916860390698937, {"steps": 13.4925, "commutes": 1.0}),
    ),
    "refined(either)": (
        (10.72861, 0.21805703719367744, {"steps": 10.249, "commutes": 1.723}),
        (10.758609856700927, 0.21590335065203095, {"steps": 10.249, "commutes": 1.723}),
    ),
    "refined(forward)": (
        (18.21596, 0.37639759591993555, {"steps": 17.307, "commutes": 2.898}),
        (18.22321841565969, 0.3750881186492146, {"steps": 17.307, "commutes": 2.898}),
    ),
    "refined(backward)": (
        (16.614489999999996, 0.3429004918246645, {"steps": 15.778, "commutes": 2.6765}),
        (16.59568044095677, 0.34100196263728244, {"steps": 15.778, "commutes": 2.6765}),
    ),
    "refined(both)": (
        (24.10184, 0.40940852039923115, {"steps": 22.836, "commutes": 3.8515}),
        (24.06028899991554, 0.4083698504875173, {"steps": 22.836, "commutes": 3.8515}),
    ),
    "first_passage": (
        (8.992569999999999, 0.1590999342931858, {"steps": 9.851}),
        (8.93665697860412, 0.17430474306135793, {"steps": 9.851}),
    ),
    "cover(edge)": (
        (27.014829999999996, 0.29036368000988766, {"steps": 25.6825}),
        (27.022195800484617, 0.3111148682185677, {"steps": 25.6825}),
    ),
    "cover(arc)": (
        (51.94784999999999, 0.48211577271221767, {"steps": 49.2025}),
        (51.84203740155943, 0.5165427281149051, {"steps": 49.2025}),
    ),
    "cover(directed)": (
        (43.174009999999996, 0.4448179079641158, {"steps": 41.0195}),
        (43.14863674643271, 0.4720367777389854, {"steps": 41.0195}),
    ),
    "vcover": (
        (11.08456, 0.15374788017572555, {"steps": 11.335}),
        (11.036194822334489, 0.163100078763352, {"steps": 11.335}),
    ),
    "vcover(return)": (
        (15.41156, 0.18382799337634725, {"steps": 14.5995}),
        (15.376103148514746, 0.1859626947765948, {"steps": 14.5995}),
    ),
    "epochs(arc)": (
        (132.77890000000002, 1.0873094497495939, {"steps": 125.8865}),
        (132.68336846713012, 1.0982302682806702, {"steps": 125.8865}),
    ),
    "epochs(directed)": (
        (89.08515999999997, 0.7968019110983389, {"steps": 84.684}),
        (89.10372781554038, 0.8084012839396804, {"steps": 84.684}),
    ),
}


def test_fixed_seed_means_are_pinned():
    # Values captured from earlier releases: per-trial ``trial_rng`` seeding
    # (which bulk seeding must reproduce) and the per-step tracker updates
    # (which the table-driven trackers must reproduce).
    net = path([0.7, 1.3, 2.1])
    rep = estimate(net, 0, Commute(0, 3), TimingModel.BROWNIAN_MEAN, 500, 2026)
    assert (rep.mean, rep.stderr) == (33.75750666666667, 0.8338054250284405)
    rep = estimate(net, 0, EdgeCoverReturn(0), TimingModel.L_SQUARED, 300, 2**70 + 9, workers=2)
    assert (rep.mean, rep.stderr) == (32.648333333333326, 0.9726376759517321)
    # Walks of 144 to 2268 steps, across several refills of the uniform buffer.
    tree = from_spec("tree:3")
    rep = estimate(tree, 0, ArcCoverReturn(0), TimingModel.BROWNIAN_MEAN, 40, 5, workers=2)
    assert (rep.mean, rep.stderr) == (0.8730821397569499, 0.08423405227095564)
    net, rules = _pin_rules()
    for name, rule in rules.items():
        models = (TimingModel.L_SQUARED, TimingModel.BROWNIAN_MEAN)
        for model, pinned in zip(models, _PINNED[name]):
            rep = estimate(net, 1, rule, model, 200, 77)
            assert (rep.mean, rep.stderr) == pinned, (name, model)
    net, rules = _table_rules()
    assert set(rules) == set(_PINNED_LOCKSTEP)
    for name, rule in rules.items():
        for model, pinned in zip(TimingModel, _PINNED_LOCKSTEP[name]):
            for workers in (1, 2):
                rep = estimate(net, 1, rule, model, 2000, 1789, workers=workers)
                assert (rep.mean, rep.stderr, rep.aux_means) == pinned, (name, model, workers)


def _lockstep_cases():
    """(network, start, rule) for every table-form rule, on ``_table_rules()``'s
    network (parallel edges, a loop) and on small networks."""
    net, rules = _table_rules()
    cases = [(net, 1, rule) for rule in rules.values()]
    tri, pair = triangle(), parallel_pair()
    cases += [
        (tri, 2, Commute(2, 0)),
        (pair, 0, RefinedCommute("both", SplitSpec(pair, frozenset({0}), 0, 1))),
        (path([0.7, 1.3, 2.1]), 3, FirstPassage(0)),
        (pair, 1, EdgeCoverReturn(1)),
        (tri, 0, DirectedCoverReturn(0, Orientation((1, 0, 1)))),
        (from_spec("random:n=6,m=8,seed=3"), 4, VertexCover(4, True)),
        (tri, 0, tours.EpochSequence(tours.construct_double_cover_walk(tri, 0), "arc")),
    ]
    # A loop at the root walked against its orientation first: a weak epoch
    # that fires before the first step.
    looped = build_network(3, [(0, 0, 0.6), (0, 1, 1.0), (1, 2, 1.3), (2, 0, 0.9)])
    walk = tours.construct_double_cover_walk(looped, 0)
    rule = tours.EpochSequence(walk, "directed", Orientation((1, 0, 0, 1)))
    assert rule._plan(looped).first > 0
    cases.append((looped, 0, rule))
    # Rows above ``walker.RANK_ENTRIES_MAX``, so the lanes handed off go on
    # on slot rows: a commute on table lanes, and a vertex cover with a
    # return on mask lanes whose masks fit in 64 bits.
    wide = random_network(85, 170, (0.8, 1.25), seed=4)
    assert walker_module._rank_rows(build_tables(wide, TimingModel.L_SQUARED)) is None
    cases.append((wide, 0, Commute(0, 84)))
    wide = random_network(64, 170, (0.8, 1.25), seed=4)
    assert walker_module._rank_rows(build_tables(wide, TimingModel.L_SQUARED)) is None
    assert VertexCover(0, True).make_lanes(wide).dtype is not None
    cases.append((wide, 0, VertexCover(0, True)))
    return cases


class _CountedDraws:
    """A refill block's draws that counts each one read in ``drawn``."""

    def __init__(self, draws, drawn):
        self.draws = draws
        self.drawn = drawn

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self.draws)
        self.drawn[0] += 1
        return value

    def __length_hint__(self):
        return operator.length_hint(self.draws)


@pytest.fixture
def walks(monkeypatch):
    """Trials the estimator walks, per walker: ``run``, and ``fused`` for the
    fused loop on the rule's lane tables; ``grid``, the refill blocks the
    fused loop ranked on the grid; and ``vertex_grid``, the per-vertex grids
    the lockstep walker built, which it steps on only above the rank gate.
    ``walks.lockstep`` counts the lockstep walker's steps, as the rows that
    the settles of the moves the estimator builds for it (``_lane_table``)
    take, on rank rows or on the grid, and ``walks.handed`` holds, per fused walk,
    the arguments after ``(rng, budget)``, its result and the steps it
    walked, counted as the draws it read, those of a lockstep tail's
    numpy-drawn block among them."""
    counts = collections.Counter()
    counts.lockstep, counts.handed, drawn = [0], [], [0]

    def counted_run(*args, **kwargs):
        counts["run"] += 1
        return run(*args, **kwargs)

    def counted_refills(*args, **kwargs):
        for end, draws in refills(*args, **kwargs):
            yield end, _CountedDraws(draws, drawn)

    def counted_rankers(*args):
        first, later = rankers(*args)

        def counted(u):
            counts["grid"] += 1
            return later(u)

        return first, counted

    def counted_grid(*args):
        counts["vertex_grid"] += 1
        return grid(*args)

    def counted_lane_table(*args):
        table = lane_table(*args)

        def counted(*arrays):
            settled = table.settle(*arrays)
            counts.lockstep[0] += len(settled[0])
            return settled

        return table._replace(settle=counted)

    refills, rankers = walker_module._refills, walker_module._rankers
    grid, lane_table = estimate_module._grid, estimate_module._lane_table
    monkeypatch.setattr(estimate_module, "run", counted_run)
    monkeypatch.setattr(walker_module, "_refills", counted_refills)
    monkeypatch.setattr(walker_module, "_rankers", counted_rankers)
    monkeypatch.setattr(estimate_module, "_grid", counted_grid)
    monkeypatch.setattr(estimate_module, "_lane_table", counted_lane_table)
    for lanes in (walker_module._TableLanes, walker_module._MaskLanes):

        def counted_walkers(self, *args, make=lanes.walkers):
            walk, ranked = make(self, *args)

            def counted(*trial):
                counts["fused"] += 1
                drawn[0] = 0
                result = walk(*trial)
                counts.handed.append((trial[2:], result, drawn[0]))
                return result

            return counted, ranked

        monkeypatch.setattr(lanes, "walkers", counted_walkers)
    return counts


def _expected_sample(net, start, rule, model, tables, rng, budget=10**9):
    res = run(net, start, rule, model, rng, step_budget=budget, tables=tables)
    return res.stop_time, res.step_count, (res.auxiliary or {}).get("commute_count", -1)


def _block_against_runs(walks, net, start, rule, model, seed, lo, hi):
    """``_trial_block``'s samples against one ``run`` per trial on
    ``trial_rng``, gated for lockstep on the block's size; returns how many
    trials the block walked on the fused loop and how many on ``run``.

    Each step is walked once: a trial the lockstep walker hands off goes on
    from the step count it reached, which is every lockstep step, and the
    fused loop walks only the rest of its steps."""
    walks.clear()
    walks.lockstep[0] = 0
    walks.handed.clear()
    lockstep = hi - lo >= estimate_module.LOCKSTEP_MIN_LANES
    job = (net, start, rule, model, seed, lo, hi, 10**9)
    _, samples = estimate_module._trial_block(job)
    block = list(zip(*(column.tolist() for column in samples)))
    fused, scalar = walks["fused"], walks["run"]
    assert len(walks.handed) == fused
    for at, (_, steps, _), walked in walks.handed:
        done = at[3] if at else 0
        assert done == walks.lockstep[0] and done + walked == steps, (rule, model, at)
        assert (done > 0) == bool(lockstep and at)
    tables = build_tables(net, model)
    assert len(block) == hi - lo
    for i, sample in zip(range(lo, hi), block):
        expected = _expected_sample(net, start, rule, model, tables, trial_rng(seed, i))
        assert sample == expected, (rule, model, i)
    return fused, scalar


@pytest.mark.parametrize("case", range(len(_lockstep_cases())))
@pytest.mark.parametrize("model", list(TimingModel))
def test_lockstep_block_equals_per_trial_runs(walks, case, model):
    """Below the gate every trial walks on the fused loop; at and above it
    the lockstep walker takes all but a tail of fewer than
    ``LOCKSTEP_MIN_LIVE`` trials, which the fused loop walks.  No trial runs
    on ``run``, and each trial's (stop time, steps, commutes) is
    bit-identical to it.  Each block straddles 2**32, where trial indices
    gain a second word."""
    net, start, rule = _lockstep_cases()[case]
    gate = estimate_module.LOCKSTEP_MIN_LANES
    for count in (gate - 1, gate, 2 * gate + 37):
        lo = 2**32 - count // 2
        fused, scalar = _block_against_runs(walks, net, start, rule, model, 41 + case,
                                            lo, lo + count)
        assert scalar == 0
        if count < gate:
            assert fused == count
        else:
            assert fused < estimate_module.LOCKSTEP_MIN_LIVE


@pytest.mark.parametrize("case", range(len(_lockstep_cases())))
def test_lockstep_leaves_lanes_unchanged(case):
    """The lockstep walker keeps every lane's progress and commute count
    itself: walking a block changes no attribute of the rule's lanes, so a
    rule may hand out one lanes object for every block, as the epoch
    sequences do."""
    net, start, rule = _lockstep_cases()[case]
    lanes = rule.make_lanes(net)

    def snapshot():
        return {name: (value.dtype, value.tolist()) if isinstance(value, np.ndarray) else value
                for name, value in vars(lanes).items()}

    before = snapshot()
    tables = build_tables(net, TimingModel.L_SQUARED)
    samples = np.empty(500), np.empty(500, np.int64), np.empty(500, np.int64)
    ranked = lanes.walkers(tables, start, rule.label())[1]
    # On the rank rows where the rows fit under the gate, and on the grid.
    for moves in {ranked, None}:
        table = estimate_module._lane_table(tables, lanes, start, moves)
        estimate_module._lockstep(table, estimate_module._trial_states(3, 0, 500), 10**9, samples)
    assert snapshot() == before
    if isinstance(rule, tours.EpochSequence):
        assert rule.make_lanes(net) is lanes


def _rank_gated(net, rule):
    """Whether the fused walker's rows for ``rule`` on ``net`` are rank rows:
    table lanes hold a copy of the rows per state."""
    states = len(getattr(rule.make_lanes(net), "next", [0]))
    return walker_module._rank_rows(build_tables(net, TimingModel.L_SQUARED), states) is not None


@pytest.mark.parametrize("case", range(len(_lockstep_cases())))
def test_lockstep_steps_on_rank_rows_below_the_gate(walks, monkeypatch, case):
    """The lockstep walker steps on the fused walker's rank rows while they
    fit under ``walker.RANK_ENTRIES_MAX``, and builds no per-vertex grid;
    only the two ``wide`` cases, above the gate, step on that grid.  On rank
    rows the estimate builds one one-row grid, which ranks the lockstep
    walker's draw groups and its tails' later refill blocks alike."""
    net, start, rule = _lockstep_cases()[case]
    wide = case >= len(_lockstep_cases()) - 2
    assert _rank_gated(net, rule) != wide
    one_row = [0]

    def counted_grid(breaks):
        one_row[0] += 1
        return grid(breaks)

    grid = walker_module._breaks_grid
    monkeypatch.setattr(walker_module, "_breaks_grid", counted_grid)
    walks.lockstep[0] = 0
    estimate_module._trial_block((net, start, rule, TimingModel.L_SQUARED, 5, 0, 400, 10**9))
    assert walks.lockstep[0] > 0 and walks["vertex_grid"] == wide
    assert one_row[0] == (not wide), walks["grid"]


# Budgets around the second draw group of ``rows`` rows: one draw into it,
# ``rows - 1`` draws, on its last row and one past.
def _group_budgets(rows):
    return sorted({rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1} - {rows})


@pytest.mark.parametrize("case", range(len(_lockstep_cases())))
@pytest.mark.parametrize("model", list(TimingModel))
def test_group_settle_equals_per_trial_runs(monkeypatch, case, model):
    """Draw groups of 1, 2, 8 and 64 rows at every width settle every trial
    as ``run`` walks it: a block of ``LOCKSTEP_MIN_LANES`` trials equals
    ``run`` trial by trial, and at budgets that end one draw into the second
    group, ``rows - 1`` draws into it, on its last row and one past, it
    still does, or ``StepBudgetExceeded`` names the trial ``run`` fails
    first, with ``run``'s text, at 1 and 2 workers."""
    net, start, rule = _lockstep_cases()[case]
    trials, seed = estimate_module.LOCKSTEP_MIN_LANES, 61 + case
    tables = build_tables(net, model)
    expected = [_expected_sample(net, start, rule, model, tables, trial_rng(seed, i))
                for i in range(trials)]
    failed = 0
    for rows in (1, 2, 8, 64):
        monkeypatch.setattr(estimate_module, "LOCKSTEP_GROUPS", ((trials, rows),))
        for budget in (10**9, *_group_budgets(rows)):
            failing = [i for i, (_, n, _) in enumerate(expected) if n > budget]
            if not failing:
                job = (net, start, rule, model, seed, 0, trials, budget)
                samples = estimate_module._trial_block(job)[1]
                assert list(zip(*(c.tolist() for c in samples))) == expected, (rows, budget)
                continue
            failed += 1
            with pytest.raises(StepBudgetExceeded) as exc:
                run(net, start, rule, model, trial_rng(seed, failing[0]), step_budget=budget,
                    tables=tables)
            text = f"trial {failing[0]}: {exc.value}"
            for workers in (1, 2):
                with pytest.raises(StepBudgetExceeded) as exc:
                    estimate(net, start, rule, model, trials, seed, workers=workers,
                             step_budget=budget)
                assert str(exc.value) == text, (rows, budget, workers)
    assert failed, "no budget failed"


def _tail_cases():
    """(network, start, rule) whose lockstep tails the tail-block test walks:
    table rules, mask rules and refined commutes on ``_table_rules()``'s
    network, and a commute and a vertex cover on slot rows, above the rank
    gate, whose tails read uniforms rather than ranks."""
    net, rules = _table_rules()
    cases = [(net, 1, rules[name]) for name in (
        "commute", "first_passage", "epochs(directed)", "cover(arc)", "vcover(return)",
        "refined(either)", "refined(both)")]
    return cases + _lockstep_cases()[-2:]


@pytest.mark.parametrize("case", range(len(_tail_cases())))
def test_tails_stop_inside_at_the_end_of_and_past_their_numpy_block(walks, monkeypatch, case):
    """Each tail the lockstep walker hands off reads its numpy-drawn block
    of the next ``TAIL_BLOCK`` draws first, and sets a generator state only
    if it walks past that block.  At the default size, and at a size that
    one tail's stop falls on the block's last draw, tails stop inside the
    block, on its last draw and past it, and every trial equals ``run``.
    Budgets that end inside the smaller of the two blocks, on its last draw
    and past it fail on the trial ``run`` fails first, with ``run``'s text,
    at 1 and 2 workers."""
    net, start, rule = _tail_cases()[case]
    model, trials, seed = TimingModel.L_SQUARED, 400, 17 + case
    tables = build_tables(net, model)
    steps = [_expected_sample(net, start, rule, model, tables, trial_rng(seed, i))[1]
             for i in range(trials)]
    seeks = [0]

    def counted_random(self, n):
        seeks[0] += self.words is not None
        return random(self, n)

    random = estimate_module._Deferred.random
    monkeypatch.setattr(estimate_module._Deferred, "random", counted_random)
    where = collections.Counter()
    default = estimate_module.TAIL_BLOCK
    sizes = [default]
    for size in sizes:
        monkeypatch.setattr(estimate_module, "TAIL_BLOCK", size)
        seeks[0] = 0
        _block_against_runs(walks, net, start, rule, model, seed, 0, trials)
        handed = [(at[3], len(at[5]), result[1]) for at, result, _ in walks.handed]
        assert handed and all(block == size for _, block, _ in handed)
        past = [n - done for done, _, n in handed if n - done > size]
        assert seeks[0] == len(past)
        where.update("inside" if n - done < size else "last" if n - done == size else "past"
                     for done, _, n in handed)
        if size == default:
            # A size at which one tail stops on the block's last draw, with
            # tails on either side of it.
            sizes.append(sorted(n - done for done, _, n in handed)[len(handed) // 2])
    assert where["inside"] and where["last"] and where["past"], where
    # The budgets end around the smaller block, so that some tail walks past
    # the last of them: short tails handed off at a group's end may all stop
    # within the default block.
    size = min(sizes)
    monkeypatch.setattr(estimate_module, "TAIL_BLOCK", size)
    handoff = handed[0][0]
    for budget in (handoff + 1, handoff + size - 1, handoff + size, handoff + size + 1):
        failing = [i for i, n in enumerate(steps) if n > budget]
        assert failing, budget
        with pytest.raises(StepBudgetExceeded) as expected:
            run(net, start, rule, model, trial_rng(seed, failing[0]), step_budget=budget,
                tables=tables)
        for workers in (1, 2):
            with pytest.raises(StepBudgetExceeded) as exc:
                estimate(net, start, rule, model, trials, seed, workers=workers,
                         step_budget=budget)
            assert str(exc.value) == f"trial {failing[0]}: {expected.value}", (budget, workers)


def _fused_cases():
    """(network, start, rule) for the fused loop: every rule of ``_rules()``
    and ``_lockstep_cases()``, vertex cover without a return, masks wider
    than 64 bits, and a commute and an edge cover on a random network on
    each side of ``walker.RANK_ENTRIES_MAX``, walked on rank rows and by
    bisection."""
    lolli = from_spec("lollipop:7")
    cases = _rules() + _lockstep_cases() + [
        (lolli, 6, VertexCover(6)),
        (star(33), 0, ArcCoverReturn(0)),
        (star(70), 3, VertexCover(3, True)),
    ]
    for n, m, ranked in ((12, 20, True), (85, 170, False)):
        net = random_network(n, m, (0.8, 1.25), seed=4)
        tables = build_tables(net, TimingModel.L_SQUARED)
        assert (walker_module._rank_rows(tables) is not None) == ranked
        cases += [(net, 0, Commute(0, n - 1)), (net, 0, EdgeCoverReturn(0))]
    return cases


@pytest.mark.parametrize("case", range(len(_fused_cases())))
@pytest.mark.parametrize("model", list(TimingModel))
def test_fused_block_equals_per_trial_runs(walks, case, model):
    """A block of 37 trials, below the gate and straddling 2**32, walks every
    trial on the fused loop, bit-identical to ``run``."""
    net, start, rule = _fused_cases()[case]
    lo = 2**32 - 18
    assert _block_against_runs(walks, net, start, rule, model, 7 + case, lo, lo + 37) == (37, 0)


def test_fused_budget_failures_match_run(walks):
    """At budgets of one draw, one refill block of 64, one draw into the
    second block and five into the third (64 + 128 + 5), the fused loop, on
    rank rows and by bisection, names the lowest failing trial and raises
    the message ``run`` raises.  Rank rows rank every block past a trial's
    first on the grid, so some trial fails at the end of a grid-ranked block
    of five."""
    net, rules = _table_rules()
    trials, seed = 60, 5
    cases = [(net, 1, rule) for rule in rules.values()]
    cases += [(star(33), 0, ArcCoverReturn(0)), (triangle(), 0, VertexCover(0))]
    # Above the rank gate, so walked by bisection.
    wide = random_network(85, 170, (0.8, 1.25), seed=4)
    cases += [(wide, 0, Commute(0, 84)), (wide, 0, EdgeCoverReturn(0))]
    # Blocks ranked on the grid, by budget and whether the estimate fails.
    failed, grid_blocks = collections.Counter(), collections.Counter()
    for net, start, rule in cases:
        for model in TimingModel:
            tables = build_tables(net, model)
            for budget in (1, 64, 65, 197):
                expected = None
                for i in range(trials):
                    try:
                        rng = trial_rng(seed, i)
                        _expected_sample(net, start, rule, model, tables, rng, budget)
                    except StepBudgetExceeded as exc:
                        expected = f"trial {i}: {exc}"
                        failed[budget] += 1
                        break
                walks.clear()
                if expected is None:
                    estimate(net, start, rule, model, trials, seed, step_budget=budget)
                else:
                    with pytest.raises(StepBudgetExceeded) as exc:
                        estimate(net, start, rule, model, trials, seed, step_budget=budget)
                    assert str(exc.value) == expected, (rule, model, budget)
                assert walks["run"] == 0 and walks["fused"] > 0
                grid_blocks[budget, expected is not None] += walks["grid"]
    assert failed[1] == 2 * len(cases) and failed[64] and failed[65] and failed[197], failed
    assert grid_blocks[65, True] and grid_blocks[197, True], grid_blocks
    assert not any(grid_blocks[budget, fails] for budget in (1, 64) for fails in (True, False))


def _schedule_outcomes(cases, budget):
    """Per case, the trials of ``run``, of a fused block and of a lockstep
    block: each trial's (stop time, steps, commutes) in order, and the
    text of the ``StepBudgetExceeded`` that ends them, if one does."""
    results = []
    for net, start, rule in cases:
        model = TimingModel.L_SQUARED
        tables = build_tables(net, model)
        samples = []
        try:
            for i in range(40):
                samples.append(_expected_sample(net, start, rule, model, tables,
                                                trial_rng(5, i), budget))
        except StepBudgetExceeded as exc:
            samples.append(f"trial {i}: {exc}")
        results.append(samples)
        for trials in (40, estimate_module.LOCKSTEP_MIN_LANES):
            job = (net, start, rule, model, 5, 0, trials, budget)
            try:
                results.append([column.tolist() for column in estimate_module._trial_block(job)[1]])
            except StepBudgetExceeded as exc:
                results.append(str(exc))
    return results


def test_refill_schedule_changes_no_value(walks, monkeypatch):
    """Refill blocks of 1 and of 3 uniforms give every trial the values the
    default schedule gives, on ``run``, on fused rank and slot rows and on a
    lockstep block whose tail the fused loop walks on, and the same budget
    failures; and the default schedule draws fewer than ``REFILL_MAX``
    uniforms past the steps a walk reads, and at most 64 for walks of at
    most 64 steps.  On rank rows the default schedule ranks blocks past a
    trial's first on the grid, and on slot rows none."""
    cases = [(from_spec("tree:3"), 0, ArcCoverReturn(0)),
             (path([0.7, 1.3, 2.1, 0.9, 1.1]), 0, Commute(0, 5))]
    first_block, cap = walker_module.REFILL_FIRST, walker_module.REFILL_MAX
    assert first_block == 64
    # Per fused walk: (steps before it, uniforms drawn, steps walked), on
    # the default schedule in ``default``; and the blocks that rank-row
    # walks drew past their first.
    draws, default, later_blocks = [], [], [0]

    def measured(rand, budget, done=0, *ranks, ahead=()):
        # A lockstep tail's numpy-drawn block, when it has one, is block -1.
        first, end, block = done, done, iter(())
        try:
            blocks = refills(rand, budget, done, *ranks, ahead=ahead)
            for k, (end, block) in enumerate(blocks, -bool(ahead)):
                later_blocks[0] += bool(ranks) and k > 0
                yield end, block
        finally:
            draws.append((first, end - first, end - first - operator.length_hint(block)))

    refills = walker_module._refills
    monkeypatch.setattr(walker_module, "_refills", measured)
    rank_tables = build_tables(cases[0][0], TimingModel.L_SQUARED)
    for rank_max in (walker_module.RANK_ENTRIES_MAX, 0):
        monkeypatch.setattr(walker_module, "RANK_ENTRIES_MAX", rank_max)
        assert (walker_module._rank_rows(rank_tables) is None) == (rank_max == 0)
        for budget in (10**9, 1200):
            monkeypatch.setattr(walker_module, "REFILL_FIRST", first_block)
            monkeypatch.setattr(walker_module, "REFILL_MAX", cap)
            draws.clear()
            walks.clear()
            later_blocks[0] = 0
            expected = _schedule_outcomes(cases, budget)
            default += draws
            assert walks["grid"] == later_blocks[0] and bool(later_blocks[0]) == bool(rank_max)
            if budget < 10**9:
                # Tree arc covers pass the budget on every walker.
                assert all(isinstance(result, str) for result in (
                    expected[0][-1], expected[1], expected[2]))
            for block in (1, 3):
                monkeypatch.setattr(walker_module, "REFILL_FIRST", block)
                monkeypatch.setattr(walker_module, "REFILL_MAX", block)
                assert _schedule_outcomes(cases, budget) == expected, (rank_max, budget, block)
    assert all(drawn < walked + cap for _, drawn, walked in default)
    assert all(drawn <= first_block for _, drawn, walked in default if walked <= first_block)
    # Short walks, long ones and lockstep tails that go on past their first
    # block are all among them.
    assert any(walked < first_block for _, _, walked in default)
    assert any(walked > 2 * cap for _, _, walked in default)
    assert any(first and walked > first_block for first, _, walked in default)


def test_lockstep_masks_fit_in_64_bits(walks):
    # Arc cover of 32 edges needs 64 mask bits and runs in lockstep; 33 edges
    # need 66 and walk every trial on the fused loop, so only the 64-bit mask
    # limit tells the two stars apart.  The 1024 trials are a size that an
    # earlier gate on the widest row's columns let both stars walk in
    # lockstep; lockstep no longer reads the row widths.
    trials = 32**2
    for arms, lockstep in ((32, True), (33, False)):
        fused, scalar = _block_against_runs(walks, star(arms), 0, ArcCoverReturn(0),
                                            TimingModel.BROWNIAN_MEAN, 8, 0, trials)
        assert scalar == 0
        assert (fused < estimate_module.LOCKSTEP_MIN_LIVE) if lockstep else fused == trials


@pytest.mark.parametrize("net, start, rule", [
    pytest.param("star:200", 1, Commute(1, 2), id="commute-star:200"),
    pytest.param("star:80", 1, Commute(1, 2), id="commute-star:80"),
    pytest.param("star:28", 0, EdgeCoverReturn(0), id="edge-cover-star:28"),
])
@pytest.mark.parametrize("trials", [400, 2000])
@pytest.mark.parametrize("model", list(TimingModel))
def test_lockstep_walks_hubs(walks, net, start, rule, trials, model):
    """A lockstep step looks a lane's slot up on a grid of its draw, at a
    cost that does not grow with the row's width, so blocks on a hub walk in
    lockstep at the gate and above, and each trial equals ``run``."""
    fused, scalar = _block_against_runs(walks, from_spec(net), start, rule, model, 9, 0, trials)
    assert scalar == 0 and fused < estimate_module.LOCKSTEP_MIN_LIVE


class _TrackerOnly:
    """A commute with no table form, so the estimator walks it on ``run``."""

    def __init__(self, x, y):
        self.rule = Commute(x, y)

    def anchor(self):
        return self.rule.anchor()

    def label(self):
        return self.rule.label()

    def make_tracker(self, net):
        return self.rule.make_tracker(net)


def test_lockstep_path_is_taken(walks, monkeypatch):
    net = triangle()
    estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 2000, 3)
    assert walks["run"] == 0 and 0 < walks["fused"] < estimate_module.LOCKSTEP_MIN_LIVE
    walks.clear()
    estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 100, 3)
    assert walks == {"fused": 100}
    # Rules without lane tables, and walks that stop before their first
    # step, run every trial on ``run``.
    walks.clear()
    rep = estimate(net, 0, _TrackerOnly(0, 1), TimingModel.L_SQUARED, 2000, 3)
    assert walks == {"run": 2000}
    assert rep == estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 2000, 3)
    for net in (build_network(1, []), build_network(1, [(0, 0, 1.0)])):
        walks.clear()
        rep = estimate(net, 0, VertexCover(0, True), TimingModel.L_SQUARED, 600, 3)
        assert walks == {"run": 600} and rep.aux_means == {"steps": 0.0}
    # Epoch sequences have a lockstep form too.
    net, rules = _pin_rules()
    walks.clear()
    estimate(net, 1, rules["epochs(directed)"], TimingModel.L_SQUARED, 2000, 3)
    assert walks["run"] == 0 and 0 < walks["fused"] < estimate_module.LOCKSTEP_MIN_LIVE
    # An estimate at the gate walks in lockstep at 2 workers too, as one
    # block with no pilot: only its tail walks on the fused loop.
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    gate = estimate_module.LOCKSTEP_MIN_LANES
    walks.clear()
    estimate(triangle(), 0, Commute(0, 1), TimingModel.L_SQUARED, gate, 3, workers=2)
    assert walks["run"] == 0 and 0 < walks["fused"] < estimate_module.LOCKSTEP_MIN_LIVE


def test_traced_names_resolve():
    """The benchmark's tracer patches these estimator names by name; each must
    still be there, or a traced run fails with an ``AttributeError``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(mod, attr) for mod, attr, _ in spans.COUNTER_TARGETS]
    targets.append(("walkcover.estimate", "_trial_block"))
    for mod, attr in targets:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)


def _count_pools(monkeypatch):
    """One entry per pool the estimator starts: its process count."""
    pools = []
    get_context = estimate_module.get_context

    class Context:
        def __init__(self, method):
            self.context = get_context(method)

        def Pool(self, processes):
            pools.append(processes)
            return self.context.Pool(processes)

    monkeypatch.setattr(estimate_module, "get_context", Context)
    return pools


def test_small_estimates_start_no_pool(monkeypatch):
    def no_pool(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(estimate_module, "get_context", no_pool)
    net = triangle()
    for trials in (2, 40, 600, 3000):
        for workers in (2, 8):
            rep = estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trials, 7,
                           workers=workers)
            assert rep == estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, trials, 7)


def test_in_process_estimates_derive_streams_once(monkeypatch):
    """An estimate that stays in one process derives every trial's stream
    in one bulk call, its pilot's included, and matches one worker."""
    calls = []
    derive = estimate_module._trial_states
    monkeypatch.setattr(estimate_module, "_trial_states",
                        lambda seed, lo, hi: calls.append((lo, hi)) or derive(seed, lo, hi))
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    for trials in (40, 600):
        for rule in (Commute(0, 1), EdgeCoverReturn(0)):
            one = estimate(triangle(), 0, rule, TimingModel.L_SQUARED, trials, 7)
            calls.clear()
            assert estimate(triangle(), 0, rule, TimingModel.L_SQUARED, trials, 7,
                            workers=2) == one
            assert calls == [(0, trials)]


def test_lockstep_estimates_walk_in_one_process(walks, monkeypatch, capsys):
    """An estimate that walks in lockstep walks every trial in one process,
    as one block with no pilot, at any ``workers``, even where every
    prediction would fork: it starts no pool, derives its streams in one
    call, walks only a tail of fewer than ``LOCKSTEP_MIN_LIVE`` trials on
    the fused loop, and matches one worker.  So does a ``verify`` check."""
    calls = []
    derive = estimate_module._trial_states
    monkeypatch.setattr(estimate_module, "_trial_states",
                        lambda seed, lo, hi: calls.append((lo, hi)) or derive(seed, lo, hi))
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(estimate_module, "FORK_MIN_STEPS", 0)
    pools = _count_pools(monkeypatch)
    net = from_spec("random:n=8,m=10,seed=1")
    for rule in (Commute(0, 5), EdgeCoverReturn(0)):
        for trials in (estimate_module.LOCKSTEP_MIN_LANES, 600, 3000):
            one = estimate(net, 0, rule, TimingModel.L_SQUARED, trials, 7)
            for workers in (2, 8):
                calls.clear()
                walks.clear()
                rep = estimate(net, 0, rule, TimingModel.L_SQUARED, trials, 7, workers=workers)
                assert rep == one
                assert calls == [(0, trials)] and pools == []
                assert walks["run"] == 0
                assert 0 < walks["fused"] < estimate_module.LOCKSTEP_MIN_LIVE, (rule, trials)
    argv = ["verify", "--gen", "random:n=8,m=10,seed=1", "--check", "cre-bound",
            "--trials", "600", "--seed", "5"]
    outputs = []
    for workers in ("1", "2"):
        calls.clear()
        walks.clear()
        assert cli.main([*argv, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
        assert calls == [(0, 600)] and pools == []
        assert walks["run"] == 0 and 0 < walks["fused"] < estimate_module.LOCKSTEP_MIN_LIVE
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


def test_large_estimates_fork_and_match_one_worker(monkeypatch):
    # Both predict more than ``FORK_MIN_STEPS`` steps after the pilot and
    # walk fused blocks: arc cover on star:40 needs 80 mask bits, and the
    # tree:4 edge cover has fewer trials than the lockstep gate.  At most as
    # many processes as CPUs run: the parent and, at any ``workers`` above
    # 1, one child.
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    pools = _count_pools(monkeypatch)
    cases = ((star(40), ArcCoverReturn(0), 2000),
             (from_spec("tree:4"), EdgeCoverReturn(0), 200))
    for net, rule, trials in cases:
        for model in TimingModel:
            one = estimate(net, 0, rule, model, trials, 7)
            for workers in (2, 8):
                pools.clear()
                assert estimate(net, 0, rule, model, trials, 7, workers=workers) == one
                assert pools == [1], (rule, model, workers)


def test_worker_count_is_capped_by_usable_cpus(monkeypatch):
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(estimate_module, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(estimate_module, "get_context", None)  # any pool would fail
    rep = estimate(triangle(), 0, Commute(0, 1), TimingModel.L_SQUARED, 100, 7, workers=4)
    assert rep == estimate(triangle(), 0, Commute(0, 1), TimingModel.L_SQUARED, 100, 7)

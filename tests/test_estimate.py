import collections
import importlib
import importlib.util
import math
import operator
from pathlib import Path

import numpy as np
import pytest

from walkcover import tours
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
    # the trials after the pilot into 2 and 5 blocks.
    net = triangle()
    monkeypatch.setattr(estimate_module, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 8)
    reports = [
        estimate(net, 0, Commute(0, 1), TimingModel.L_SQUARED, 600, 7, workers=w)
        for w in (1, 2, 5)
    ]
    assert reports[0] == reports[1] == reports[2]


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
    # were captured from the scalar walker.  These estimates predict too few
    # steps to fork, so at 2 workers the parent walks the pilot and then the
    # rest in lockstep.
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
    # in the block the parent walks or in the forked one.  Star:40 arc cover
    # needs 80 mask bits and walks scalar blocks; the path commute's forked
    # blocks of 2984 trials walk in lockstep.
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    pools = _count_pools(monkeypatch)
    cases = (
        (star(40), ArcCoverReturn(0), 2000,
         ((500, 23, "pilot"), (600, 130, "parent"), (816, 1587, "child"))),
        (path([1.0] * 8), Commute(0, 8), 6000,
         ((280, 1, "pilot"), (460, 1125, "parent"), (550, 3833, "child"))),
    )
    pilot = estimate_module.FORK_PILOT
    for net, rule, trials, failures in cases:
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


def test_negative_seed_fails_before_any_trial(monkeypatch):
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        estimate_module._trial_states(-1, 0, 5)

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(estimate_module, "run", no_trials)
    for lanes in (walker_module._TableLanes, walker_module._MaskLanes):
        monkeypatch.setattr(lanes, "walker", no_trials)
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
    fused loop on the rule's lane tables.  ``walks.lockstep`` counts the
    lockstep walker's steps, and ``walks.handed`` holds, per fused walk, the
    arguments after ``(rng, budget)``, its result and the steps it walked,
    counted as the draws it read."""
    counts = collections.Counter()
    counts.lockstep, counts.handed, drawn = [0], [], [0]

    def counted_run(*args, **kwargs):
        counts["run"] += 1
        return run(*args, **kwargs)

    def counted_refills(*args):
        for end, draws in refills(*args):
            yield end, _CountedDraws(draws, drawn)

    refills = walker_module._refills
    monkeypatch.setattr(estimate_module, "run", counted_run)
    monkeypatch.setattr(walker_module, "_refills", counted_refills)
    for lanes in (walker_module._TableLanes, walker_module._MaskLanes):

        def counted_walker(self, *args, make=lanes.walker):
            walk = make(self, *args)

            def counted(*trial):
                counts["fused"] += 1
                drawn[0] = 0
                result = walk(*trial)
                counts.handed.append((trial[2:], result, drawn[0]))
                return result

            return counted

        def counted_advance(self, *args, advance=lanes.advance):
            counts.lockstep[0] += 1
            return advance(self, *args)

        monkeypatch.setattr(lanes, "walker", counted_walker)
        monkeypatch.setattr(lanes, "advance", counted_advance)
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
    job = (net, start, rule, model, seed, lo, hi, 10**9, lockstep)
    _, block = estimate_module._trial_block(job)
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
    estimate_module._lockstep(lanes, estimate_module._lane_table(tables), start,
                              estimate_module._trial_states(3, 0, 500), 10**9, [None] * 500)
    assert snapshot() == before
    if isinstance(rule, tours.EpochSequence):
        assert rule.make_lanes(net) is lanes


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
    """At budgets of one draw, one refill block of 64 and one draw into the
    second block, the fused loop, on rank rows and by bisection, names the
    lowest failing trial and raises the message ``run`` raises."""
    net, rules = _table_rules()
    trials, seed = 60, 5
    cases = [(net, 1, rule) for rule in rules.values()]
    cases += [(star(33), 0, ArcCoverReturn(0)), (triangle(), 0, VertexCover(0))]
    # Above the rank gate, so walked by bisection.
    wide = random_network(85, 170, (0.8, 1.25), seed=4)
    cases += [(wide, 0, Commute(0, 84)), (wide, 0, EdgeCoverReturn(0))]
    failed = collections.Counter()
    for net, start, rule in cases:
        for model in TimingModel:
            tables = build_tables(net, model)
            for budget in (1, 64, 65):
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
    assert failed[1] == 2 * len(cases) and failed[64] and failed[65], failed


def test_lockstep_masks_fit_in_64_bits(walks):
    # Arc cover of 32 edges needs 64 mask bits and runs in lockstep; 33 edges
    # need 66 and walk every trial on the fused loop.  The block passes the
    # width gate for both stars (the wider centre has 33 slots: 32 columns,
    # squared, 1024 trials), so only the 64-bit mask limit tells them apart.
    trials = 32**2
    for arms, lockstep in ((32, True), (33, False)):
        fused, scalar = _block_against_runs(walks, star(arms), 0, ArcCoverReturn(0),
                                            TimingModel.BROWNIAN_MEAN, 8, 0, trials)
        assert scalar == 0
        assert (fused < estimate_module.LOCKSTEP_MIN_LIVE) if lockstep else fused == trials


@pytest.mark.parametrize("arms, trials, lockstep", [
    (200, 400, False),
    (21, 400, True),
    (22, 440, False),
    (22, 441, True),
])
def test_lockstep_gate_reads_the_widest_row(walks, arms, trials, lockstep):
    """A lockstep step scans every column of the widest row, so a block walks
    in lockstep only while those columns (the centre's slots less one),
    squared, are at most its trials; otherwise every trial walks on the
    fused loop.  Either way each trial equals ``run``."""
    fused, scalar = _block_against_runs(walks, star(arms), 1, Commute(1, 2),
                                        TimingModel.L_SQUARED, 9, 0, trials)
    assert scalar == 0
    assert (fused < estimate_module.LOCKSTEP_MIN_LIVE) if lockstep else fused == trials


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
    # An estimate at the gate stays in one process at 2 workers: it walks
    # its pilot on the fused loop, and the rest in lockstep as one block,
    # although the rest alone is below the gate.
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    gate = estimate_module.LOCKSTEP_MIN_LANES
    walks.clear()
    estimate(triangle(), 0, Commute(0, 1), TimingModel.L_SQUARED, gate, 3, workers=2)
    pilot = gate // 16
    assert walks["run"] == 0
    assert pilot <= walks["fused"] < pilot + estimate_module.LOCKSTEP_MIN_LIVE


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


def test_large_estimates_fork_and_match_one_worker(monkeypatch):
    # Both predict more than ``FORK_MIN_STEPS`` steps after the pilot: arc
    # cover on star:40 walks scalar blocks, and the path commute's forked
    # blocks of 2984 trials walk in lockstep.  At most as many processes as
    # CPUs run: the parent and, at any ``workers`` above 1, one child.
    monkeypatch.setattr(estimate_module, "_usable_cpus", lambda: 2)
    pools = _count_pools(monkeypatch)
    cases = ((star(40), ArcCoverReturn(0), 2000), (path([1.0] * 8), Commute(0, 8), 6000))
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

import importlib
import math

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
from walkcover.generators import from_spec, parallel_pair, path, triangle
from walkcover.netmodel import Orientation, build_network
from walkcover.resistance import SplitSpec
from walkcover.walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    FirstPassage,
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


def test_worker_partitioning_does_not_change_the_report():
    net = triangle()
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


def test_budget_failure_names_the_trial():
    net = path([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(StepBudgetExceeded) as exc:
        estimate(
            net, 0, FirstPassage(4), TimingModel.L_SQUARED, 10, 2, step_budget=3
        )
    assert "trial 0" in str(exc.value)


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

# Seeds of one to seven 32-bit words; the last two give SeedSequence more
# entropy words than its pool of four.
STREAM_SEEDS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**70 + 9, 2**100 + 3, 2**200 + 5)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_bulk_states_equal_trial_rng(seed):
    # The last block crosses into two-word indices.
    for lo, hi in ((0, 120), (977, 1097), (2**32 - 120, 2**32), (2**32 - 60, 2**32 + 60)):
        states, incs = estimate_module._trial_states(seed, lo, hi)
        assert len(states) == len(incs) == hi - lo
        for i, state, inc in zip(range(lo, hi), states, incs):
            expected = trial_rng(seed, i).bit_generator.state["state"]
            assert (state, inc) == (expected["state"], expected["inc"]), (seed, i)


def test_negative_seed_fails_before_any_trial(monkeypatch):
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        estimate_module._trial_states(-1, 0, 5)

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(estimate_module, "run", no_trials)
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

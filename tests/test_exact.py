import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from walkcover import cli, exact, tours, walker
from walkcover.closedform import commute_time, cover_bounds
from walkcover.errors import ExactSolveFailed, StateSpaceTooLarge, VertexOutOfRange
from walkcover.exact import exact_stop_time
from walkcover.generators import binary_tree, from_spec, loop, parallel_pair, path, triangle
from walkcover.netmodel import Orientation, build_network
from walkcover.resistance import SplitSpec
from walkcover.tours import EpochSequence, construct_double_cover_walk
from walkcover.walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    FirstPassage,
    RefinedCommute,
    TimingModel,
    VertexCover,
    run,
)

import oracles
from support import random_net


def test_commute_matches_closed_form():
    for seed in (1, 6, 12, 40):
        net = random_net(seed, max_n=5)
        x, y = 0, net.vertex_count - 1
        if x == y:
            continue
        got = exact_stop_time(net, x, Commute(x, y))
        assert got == pytest.approx(commute_time(net, x, y), rel=1e-9)


def test_parallel_pair_edge_cover_both_models():
    net = parallel_pair()
    for model in TimingModel:
        got = exact_stop_time(net, 0, EdgeCoverReturn(0), model)
        assert got == pytest.approx(7.7, abs=1e-9)


def test_known_cover_values():
    assert exact_stop_time(loop(1.0), 0, ArcCoverReturn(0)) == pytest.approx(3.0, abs=1e-12)
    assert exact_stop_time(
        loop(1.0), 0, DirectedCoverReturn(0, Orientation((0,)))
    ) == pytest.approx(2.0, abs=1e-12)
    p6 = path([1.0] * 6)
    assert exact_stop_time(p6, 0, EdgeCoverReturn(0)) == pytest.approx(72.0, rel=1e-9)
    assert exact_stop_time(p6, 3, VertexCover(3)) == pytest.approx(45.0, rel=1e-9)
    assert exact_stop_time(p6, 0, VertexCover(0)) == pytest.approx(36.0, rel=1e-9)


def test_first_passage_and_trivial_cases():
    net = triangle()
    assert exact_stop_time(net, 0, FirstPassage(1)) == pytest.approx(2.0, abs=1e-12)
    assert exact_stop_time(net, 0, FirstPassage(0)) == 0.0
    assert exact_stop_time(build_network(1, []), 0, VertexCover(0)) == 0.0


@pytest.mark.parametrize("model", list(TimingModel))
def test_agrees_with_independent_oracle(model):
    key = "l2" if model is TimingModel.L_SQUARED else "brownian"
    for seed in (4, 19, 33):
        net = random_net(seed, max_n=4, lengths=(0.4, 2.0))
        if len(net.edges) > 8:
            continue
        far = net.vertex_count - 1
        dirs = tuple((e + seed) % 2 for e in range(len(net.edges)))
        pairs = [
            (EdgeCoverReturn(0), oracles.edge_cover_return_oracle(net, 0, key)),
            (ArcCoverReturn(0), oracles.arc_cover_return_oracle(net, 0, key)),
            (VertexCover(0, True), oracles.vertex_cover_oracle(net, 0, True, key)),
            (
                DirectedCoverReturn(0, Orientation(dirs)),
                oracles.directed_cover_return_oracle(net, 0, dirs, key),
            ),
            (FirstPassage(far), oracles.hitting_time(net, 0, far, key)),
        ]
        for rule, want in pairs:
            assert exact_stop_time(net, 0, rule, model) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("model", list(TimingModel))
@pytest.mark.parametrize(
    "spec, rule, factor",
    [
        ("random:n=12,m=14,seed=1", EdgeCoverReturn(0), 2),
        ("random:n=14,m=16,seed=1", EdgeCoverReturn(0), 2),
        # The nets above have more than 2**20 arc-cover states; these stay under.
        ("random:n=7,m=8,seed=1", ArcCoverReturn(0), 3),
        ("random:n=8,m=9,seed=1", ArcCoverReturn(0), 3),
    ],
)
def test_cover_bounds_beyond_4000_states(spec, rule, factor, model):
    net = from_spec(spec)
    with pytest.raises(StateSpaceTooLarge):
        exact_stop_time(net, 0, rule, model, max_states=4000)
    m = net.total_length
    assert 0.0 < exact_stop_time(net, 0, rule, model) <= factor * m * m


def test_state_space_guard():
    big = binary_tree(5)  # 62 edges: arc masks are astronomically large
    with pytest.raises(StateSpaceTooLarge):
        exact_stop_time(big, 0, ArcCoverReturn(0))


def test_anchor_checked():
    with pytest.raises(ValueError):
        exact_stop_time(triangle(), 1, EdgeCoverReturn(0))


def test_rules_validated_as_run_validates_them():
    with pytest.raises(VertexOutOfRange):
        exact_stop_time(triangle(), 1, Commute(1, 1))
    with pytest.raises(ValueError):
        exact_stop_time(triangle(), 0, DirectedCoverReturn(0, Orientation((0,))))
    lone = build_network(1, [])
    for solve in (exact_stop_time, run):
        with pytest.raises(VertexOutOfRange, match="not in 0..0"):
            solve(lone, 0, FirstPassage(1))


@pytest.mark.parametrize("rule", [FirstPassage(9), Commute(0, 9)])
def test_rule_vertices_checked(rule):
    """A target outside the network fails at once instead of as a singular
    block (it was never reachable)."""
    for net in (triangle(), from_spec("random:n=6,m=8,seed=3")):
        with pytest.raises(VertexOutOfRange, match="vertex 9 not in"):
            exact_stop_time(net, 0, rule)


def test_non_monotone_progress_fails_loudly():
    # A refined commute's lane state falls back to 0 after each commute.
    net = triangle()
    rule = RefinedCommute("either", SplitSpec(net, frozenset({0}), 0, 1))
    with pytest.raises(AssertionError, match="progress 0x1 -> 0x0 is not monotone"):
        exact_stop_time(net, 0, rule)

    @dataclass(frozen=True)
    class NoLanes:
        rule: Commute

        def anchor(self):
            return self.rule.anchor()

        def label(self):
            return self.rule.label()

        def make_tracker(self, net):
            return self.rule.make_tracker(net)

    with pytest.raises(TypeError, match="no exact solver"):
        exact_stop_time(net, 0, NoLanes(Commute(0, 1)))


class _WalkerLanes:
    """A rule's lanes showing only what the estimator's walkers read."""

    def __init__(self, lanes):
        self.walkers, self.lockstep = lanes.walkers, lanes.lockstep
        self.dtype, self.initial, self.rank = lanes.dtype, lanes.initial, lanes.rank


@dataclass(frozen=True)
class _WalkerLanesRule:
    rule: object

    def anchor(self):
        return self.rule.anchor()

    def label(self):
        return self.rule.label()

    def make_tracker(self, net):
        return self.rule.make_tracker(net)

    def make_lanes(self, net):
        return _WalkerLanes(self.rule.make_lanes(net))


def test_exact_steps_on_the_lockstep_step():
    """The solver needs no lanes but the walkers' own: a commute, whose step
    counts commutes, directed epochs, an edge cover and a 70-bit vertex cover
    with a return (object masks) solve bit for bit as on the full lanes."""
    rnd = from_spec("random:n=8,m=10,seed=1")
    alternate = Orientation(tuple(e % 2 for e in range(len(rnd.edges))))
    epochs = EpochSequence(construct_double_cover_walk(rnd, 0), "directed", alternate)
    cases = [
        (rnd, Commute(0, 7)),
        (rnd, epochs),
        (rnd, EdgeCoverReturn(0)),
        (path([1.0] * 69), VertexCover(0, True)),
    ]
    for net, rule in cases:
        for model in TimingModel:
            want = exact_stop_time(net, 0, rule, model)
            assert exact_stop_time(net, 0, _WalkerLanesRule(rule), model).hex() == want.hex()


EPOCH_SPECS = ["triangle", "parallel_pair", "star:3", "lollipop:5", "tree:3",
               "random:n=8,m=10,seed=1", "random:n=12,m=14,seed=1"]


@pytest.mark.parametrize("model", list(TimingModel))
@pytest.mark.parametrize("spec", EPOCH_SPECS)
def test_directed_epochs_end_at_the_edge_bound(spec, model):
    """The directed epoch process ends, in expectation, at exactly 2m^2."""
    net = from_spec(spec)
    walk = construct_double_cover_walk(net, 0)
    dirs = Orientation(tuple(e % 2 for e in range(len(net.edges))))
    got = exact_stop_time(net, 0, EpochSequence(walk, "directed", dirs), model)
    assert got == pytest.approx(cover_bounds(net)[0], rel=1e-12)


@pytest.mark.parametrize(
    "spec, want",
    [("triangle", 24), ("parallel_pair", 28), ("lollipop:5", 140),
     ("random:n=8,m=10,seed=1", 260)],
)
def test_arc_epochs_match_the_oracle(spec, want):
    net = from_spec(spec)
    walk = construct_double_cover_walk(net, 0)
    got = exact_stop_time(net, 0, EpochSequence(walk, "arc"))
    assert got == pytest.approx(oracles.epoch_final_time_oracle(net, walk, "arc"), abs=1e-9)
    assert got == pytest.approx(want, abs=1e-9)


def test_residual_check_fails_loudly(monkeypatch, capsys):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(ExactSolveFailed, match="residual"):
        exact_stop_time(parallel_pair(), 0, EdgeCoverReturn(0))
    argv = ["verify", "--gen", "parallel_pair", "--check", "cre",
            "--trials", "10", "--seed", "1", "--workers", "1"]
    assert cli.main(argv) == 2
    assert "residual" in capsys.readouterr().err


def test_exact_imports_no_stopping_rule():
    """Rules reach the solver only through their lane tables, so no rule's
    meaning can be written again inside it."""
    rule_modules = {"walker": walker, "tours": tours}
    tree = ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] in rule_modules for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = rule_modules.get((node.module or "").split(".")[-1])
            for alias in node.names:
                assert alias.name not in rule_modules
                if source is not None:
                    assert alias.name != "*"
                    assert not hasattr(getattr(source, alias.name), "make_tracker"), alias.name


def test_oracles_share_no_code_with_the_library():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert modules and not any(m.startswith("walkcover") for m in modules)


# Exact solves pinned bit for bit, as ``float.hex()`` under (L_SQUARED,
# BROWNIAN_MEAN): on the network of ``_pin_rules()`` in test_estimate.py
# from vertex 1, and on ``random:n=8,m=10,seed=1``, with unit lengths and
# with lengths in 0.5-2, from vertex 0.
_EXACT_PINS = {
    "pin first_passage": ("0x1.1eefc6069dda9p+3", "0x1.1eefc6069dda9p+3"),
    "pin commute": ("0x1.ca5aaddc04a9ep+3", "0x1.ca5aaddc04a9ep+3"),
    "pin cover(edge)": ("0x1.ae02c15ea81fap+4", "0x1.ae02c15ea81fap+4"),
    "pin cover(arc)": ("0x1.a3d2f2f83e9c8p+5", "0x1.a3d2f2f83e9c7p+5"),
    "pin cover(directed)": ("0x1.5c82bd827dd91p+5", "0x1.5c82bd827dd90p+5"),
    "pin vcover": ("0x1.663a2114edbecp+3", "0x1.663a2114edbeap+3"),
    "pin vcover(return)": ("0x1.f2a6bc2a13d83p+3", "0x1.f2a6bc2a13d80p+3"),
    "pin epochs(directed)": ("0x1.671eb851eb84fp+6", "0x1.671eb851eb84fp+6"),
    "random first_passage": ("0x1.2000000000006p+5", "0x1.2000000000006p+5"),
    "random commute": ("0x1.4000000000006p+5", "0x1.4000000000006p+5"),
    "random cover(edge)": ("0x1.bdea4c9072c8ap+5", "0x1.bdea4c9072c8ap+5"),
    "random cover(directed)": ("0x1.123c2e7fed53ep+6", "0x1.123c2e7fed53ep+6"),
    "random vcover": ("0x1.5da20355bd6b9p+5", "0x1.5da20355bd6b9p+5"),
    "random vcover(return)": ("0x1.7ab3f6e9de60bp+5", "0x1.7ab3f6e9de60bp+5"),
    "random epochs(directed)": ("0x1.8ffffffffffffp+7", "0x1.8ffffffffffffp+7"),
    "lengths commute": ("0x1.ff14745170bb5p+5", "0x1.ff14745170bb5p+5"),
    "lengths cover(edge)": ("0x1.460d838c22df4p+6", "0x1.460d838c22df4p+6"),
    "lengths vcover(return)": ("0x1.1aedd91e2a610p+6", "0x1.1aedd91e2a610p+6"),
}


def _exact_pin_cases():
    pin = build_network(
        4, [(0, 1, 0.7), (1, 2, 1.3), (1, 2, 0.9), (2, 3, 2.1), (3, 0, 1.1), (2, 2, 0.6)]
    )
    mixed = Orientation((0, 1, 1, 0, 1, 0))
    rnd = from_spec("random:n=8,m=10,seed=1")
    alternate = Orientation(tuple(e % 2 for e in range(len(rnd.edges))))
    lengths = from_spec("random:n=8,m=10,seed=1,lmin=0.5,lmax=2")
    return {
        "pin first_passage": (pin, 1, FirstPassage(3)),
        "pin commute": (pin, 1, Commute(1, 3)),
        "pin cover(edge)": (pin, 1, EdgeCoverReturn(1)),
        "pin cover(arc)": (pin, 1, ArcCoverReturn(1)),
        "pin cover(directed)": (pin, 1, DirectedCoverReturn(1, mixed)),
        "pin vcover": (pin, 1, VertexCover(1)),
        "pin vcover(return)": (pin, 1, VertexCover(1, True)),
        "pin epochs(directed)": (
            pin, 1, EpochSequence(construct_double_cover_walk(pin, 1), "directed", mixed)
        ),
        "random first_passage": (rnd, 0, FirstPassage(7)),
        "random commute": (rnd, 0, Commute(0, 7)),
        "random cover(edge)": (rnd, 0, EdgeCoverReturn(0)),
        "random cover(directed)": (rnd, 0, DirectedCoverReturn(0, alternate)),
        "random vcover": (rnd, 0, VertexCover(0)),
        "random vcover(return)": (rnd, 0, VertexCover(0, True)),
        "random epochs(directed)": (
            rnd, 0, EpochSequence(construct_double_cover_walk(rnd, 0), "directed", alternate)
        ),
        "lengths commute": (lengths, 0, Commute(0, 7)),
        "lengths cover(edge)": (lengths, 0, EdgeCoverReturn(0)),
        "lengths vcover(return)": (lengths, 0, VertexCover(0, True)),
    }


def test_exact_values_are_pinned():
    cases = _exact_pin_cases()
    assert cases.keys() == _EXACT_PINS.keys()
    for name, (net, start, rule) in cases.items():
        got = tuple(exact_stop_time(net, start, rule, model).hex() for model in TimingModel)
        assert got == _EXACT_PINS[name], name


# Exact solves in the benchmark's band of 3150-3400 states, pinned bit for
# bit as ``float.hex()`` under (L_SQUARED, BROWNIAN_MEAN): edge covers on
# random 8-vertex, 10-edge networks and arc covers on random 5-vertex,
# 6-edge networks, lengths in 0.8-1.25, from vertex 0.
_BAND_PINS = {
    ("random:n=8,m=10,seed=4,lmin=0.8,lmax=1.25", "edge", 3286):
        ("0x1.0f59fab306060p+6", "0x1.0f59fab306060p+6"),
    ("random:n=8,m=10,seed=13,lmin=0.8,lmax=1.25", "edge", 3377):
        ("0x1.c7f4b4eeaf4b5p+5", "0x1.c7f4b4eeaf4b5p+5"),
    ("random:n=5,m=6,seed=2,lmin=0.8,lmax=1.25", "arc", 3186):
        ("0x1.19319029addadp+5", "0x1.19319029addadp+5"),
    ("random:n=5,m=6,seed=5,lmin=0.8,lmax=1.25", "arc", 3194):
        ("0x1.5efa2df58f537p+5", "0x1.5efa2df58f535p+5"),
}


@pytest.mark.parametrize("spec, mode, states", list(_BAND_PINS))
def test_band_solves_are_pinned(spec, mode, states):
    net = from_spec(spec)
    rule = EdgeCoverReturn(0) if mode == "edge" else ArcCoverReturn(0)
    got = tuple(exact_stop_time(net, 0, rule, model).hex() for model in TimingModel)
    assert got == _BAND_PINS[spec, mode, states]


@pytest.mark.parametrize("chunk", [1, 100])
def test_chunks_keep_band_solves_pinned(monkeypatch, chunk):
    """Stepping and assembling a few states at a time, so that the search
    splits its levels and the solve builds its matrices over many chunks,
    gives the same bits."""
    monkeypatch.setattr(exact, "_CHUNK", chunk)
    for spec, mode, states in _BAND_PINS:
        if mode == "edge":
            net = from_spec(spec)
            got = tuple(exact_stop_time(net, 0, EdgeCoverReturn(0), m).hex() for m in TimingModel)
            assert got == _BAND_PINS[spec, mode, states]


@pytest.mark.parametrize(
    "net, rule, want",
    [
        # 62 edge bits: a progress value times the vertex count overflows 64 bits.
        (path([1.0] * 62), EdgeCoverReturn(0), 2 * 62**2),
        # 70 vertex bits: wider than any numpy integer type.
        (path([1.0] * 69), VertexCover(0, True), 2 * 69**2),
    ],
)
def test_wide_progress_solves(net, rule, want):
    """Covering a path from one end and returning takes 2m^2, its commute time."""
    assert exact_stop_time(net, 0, rule) == pytest.approx(want, rel=1e-9)


# Edge cover-and-return from vertex 0 of ``path([1.0] * m)``, pinned bit
# for bit as ``float.hex()`` under (L_SQUARED, BROWNIAN_MEAN).  A state's
# search key is its m-bit mask shifted past the 6 bits of a vertex number:
# 63, 64, 65 and 68 bits wide, across the 64 bits that a key built in numpy
# holds.
_WIDE_KEY_PINS = {
    57: ("0x1.961ffffffff4cp+12", "0x1.961ffffffff4cp+12"),
    58: ("0x1.a47ffffffff3cp+12", "0x1.a47ffffffff3cp+12"),
    59: ("0x1.b31ffffffff2ep+12", "0x1.b31ffffffff2ep+12"),
    62: ("0x1.e07ffffffff0ep+12", "0x1.e07ffffffff0ep+12"),
}


@pytest.mark.parametrize("m", list(_WIDE_KEY_PINS))
def test_search_keys_past_64_bits_are_pinned(m):
    net = path([1.0] * m)
    got = tuple(exact_stop_time(net, 0, EdgeCoverReturn(0), model).hex() for model in TimingModel)
    assert got == _WIDE_KEY_PINS[m]


@pytest.mark.parametrize(
    "net, rule, states",
    [
        (triangle(), ArcCoverReturn(0), 70),
        (from_spec("random:n=8,m=10,seed=4,lmin=0.8,lmax=1.25"), EdgeCoverReturn(0), 3286),
        (path([1.0]), FirstPassage(1), 1),
    ],
)
def test_state_cap_is_inclusive(net, rule, states):
    """A cap equal to the reachable state count solves; one less raises."""
    want = exact_stop_time(net, 0, rule)
    assert exact_stop_time(net, 0, rule, max_states=states) == want
    with pytest.raises(StateSpaceTooLarge, match=f"more than {states - 1} reachable"):
        exact_stop_time(net, 0, rule, max_states=states - 1)

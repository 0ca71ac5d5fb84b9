"""The benchmark's workloads: inputs from a seed, the timed checks, output checks.

A *check* is one estimate plus its target plus its verdict (``ApiCheck``), or
one in-process ``walkcover.cli.main(["verify", ...])`` invocation
(``CliCheck``).  Every input -- networks, rule parameters, per-check trial
seeds and check order -- comes from ``random.Random(f"{workload}:{seed}")``;
the program only ever sees the generated networks, rules and command lines.

Layer functions are looked up on their modules at call time (``closedform.
commute_time``, ``cli.main``, ...), so the traced run's wrappers see every
call the checks make.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
import random
import statistics
import time
from bisect import bisect_right
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from walkcover import cli, closedform, exact, generators, netmodel, tours, walker
from walkcover.errors import WalkcoverError
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
)

# ``walkcover.estimate`` is the re-exported function; the module holds the
# names the estimator itself looks up.
est = importlib.import_module("walkcover.estimate")

WORKLOADS = ("short_trials", "long_walks", "verify_exact")

# Each run makes a few hundred verdicts and the benchmark is run thousands of
# times, so a 3-sigma slack would flag a true target about once every few
# runs.  At 5 sigma a false alarm is below one in a million per verdict.
SLACK_SIGMAS = 5.0
VERIFY_WORKERS = 2
MODELS = (TimingModel.L_SQUARED, TimingModel.BROWNIAN_MEAN)
# Reachable state counts of verify_exact's edge- and arc-cover instances,
# under the exact layer's cap today.
HEAVY_BAND = (3150, 3400)
assert HEAVY_BAND[1] < exact.MAX_STATES


@dataclass
class Outcome:
    """What one check produced: its report text, its verdict, its estimates."""

    text: str
    passed: bool
    estimates: list = field(default_factory=list)  # [(estimate args, report)]


@contextmanager
def _capture_estimates(module, attr: str):
    """Record ``(args, report)`` of every call to ``module.attr`` in the block."""
    calls: list = []
    inner = getattr(module, attr)

    def capture(*args, **kwargs):
        report = inner(*args, **kwargs)
        calls.append((args[:6], report))
        return report

    setattr(module, attr, capture)
    try:
        yield calls
    finally:
        setattr(module, attr, inner)


def _refined_target(spec: SplitSpec, kind: str) -> float:
    return getattr(closedform.refined_commutes(spec), f"t_{kind}")


def _cover_bound(net, which: int) -> float:
    return closedform.cover_bounds(net)[which]


def _epoch_rule(net, root: int, orientation):
    walk = tours.construct_double_cover_walk(net, root)
    return tours.EpochSequence(walk, "directed", orientation)


@dataclass(frozen=True)
class ApiCheck:
    """Estimate through the public API, compute the target, compare."""

    label: str
    net: netmodel.Network
    start: int
    rule: Callable  # zero-argument builder, so rule construction is timed
    model: TimingModel
    trials: int
    seed: int
    target: Callable[[], float]
    kind: str  # "equality" or "upper_bound"

    def execute(self) -> Outcome:
        with _capture_estimates(est, "estimate") as calls:
            report = est.estimate(
                self.net, self.start, self.rule(), self.model, self.trials, self.seed
            )
        verdict = est.verify(report, self.target(), self.kind, SLACK_SIGMAS)
        return Outcome(est.render_csv([(report, verdict)]), verdict.passed, calls)


@dataclass(frozen=True)
class CliCheck:
    """One in-process ``walkcover verify`` invocation on a network file."""

    label: str
    argv: tuple[str, ...]

    def execute(self, extra: tuple[str, ...] = ()) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with _capture_estimates(cli, "run_estimate") as calls:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([*self.argv, *extra])
        if code == 2:
            return Outcome(err.getvalue(), False, calls)
        return Outcome(out.getvalue(), code == 0, calls)


def attempt(check) -> Outcome:
    """Run one check; a walkcover error is a failed check, not a crash."""
    try:
        return check.execute()
    except WalkcoverError as exc:
        return Outcome(f"error: {type(exc).__name__}: {exc}\n", False)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


# Range of seeded edge lengths.  A walk's step count depends on the lengths
# through its transition probabilities; a range of 1:1.56 rather than 1:4
# keeps the steps per pass within a few percent from seed to seed.
LENGTHS = (0.8, 1.25)


def _lengths(rng: random.Random, k: int) -> list[float]:
    return [rng.uniform(*LENGTHS) for _ in range(k)]


def _random_net(rng: random.Random, n: int, m: int):
    return generators.random_network(n, m, LENGTHS, seed=rng.randrange(2**31))


# Hop counts of the disjoint terminal-to-terminal paths of the split networks.
# The shapes are fixed and only the lengths come from the seed: the shape sets
# how many commutes a refined rule needs, and with it the steps per check.
THETA_SHAPES = ((1, 2), (2, 1), (1, 1, 2), (2, 1, 1))


def _theta(rng: random.Random, shape: tuple[int, ...]):
    """Terminals 0 and 1 joined by disjoint paths of ``shape`` hops; side A is the first."""
    edges: list[tuple[int, int, float]] = []
    n = 2
    a_edges: frozenset[int] = frozenset()
    for p, hops in enumerate(shape):
        prev = 0
        for j in range(hops):
            if j == hops - 1:
                nxt = 1
            else:
                nxt, n = n, n + 1
            edges.append((prev, nxt, rng.uniform(*LENGTHS)))
            prev = nxt
        if p == 0:
            a_edges = frozenset(range(len(edges)))
    return netmodel.build_network(n, edges), a_edges


def _orientation(rng: random.Random, net):
    return netmodel.random_orientation(net, np.random.default_rng(rng.randrange(2**31)))


def reachable_states(net, root: int, progress: str) -> int:
    """Reachable non-absorbing (position, progress) states of a cover rule.

    Used only while choosing instances, so verify_exact's exact solves all
    sit in a narrow band under the solver's cap and the work per run does not
    swing with the seed.
    """
    if progress == "edge":
        full, start = (1 << len(net.edges)) - 1, 0
        bit = lambda e, d, h: 1 << e  # noqa: E731
    elif progress == "arc":
        full, start = (1 << (2 * len(net.edges))) - 1, 0
        bit = lambda e, d, h: 1 << (2 * e + d)  # noqa: E731
    else:
        full, start = (1 << net.vertex_count) - 1, 1 << root
        bit = lambda e, d, h: 1 << h  # noqa: E731
    seen = {(root, start)}
    frontier = [(root, start)]
    adjacency = net.adjacency
    while frontier:
        nxt = []
        for v, p in frontier:
            for e, d, h in adjacency[v]:
                p2 = p | bit(e, d, h)
                if p2 == full and h == root:
                    continue
                if (h, p2) not in seen:
                    seen.add((h, p2))
                    nxt.append((h, p2))
        frontier = nxt
    return len(seen)


def _far_pairs(net) -> list[tuple[int, int]]:
    """Ordered vertex pairs at least two hops apart (the triangle has none)."""
    near = {(u, v) for u, row in enumerate(net.adjacency) for _, _, v in row}
    n = net.vertex_count
    return [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in near]


def _nets_spread_over_band(rng, count, n, m, root, progress, lo, hi):
    """``count`` nets whose state counts sit near evenly spaced points of [lo, hi].

    Dense solve time grows with the cube of the state count, so drawing
    counts freely from the band would let one seed's run do much more exact
    work than another's.  Matching a fixed ladder keeps the total steady.
    """
    pool: list[tuple[int, object]] = []
    while len(pool) < 2 * count:
        net = _random_net(rng, n, m)
        states = reachable_states(net, root, progress)
        if lo <= states <= hi:
            pool.append((states, net))
    chosen = []
    for k in range(count):
        goal = lo + (k + 0.5) * (hi - lo) / count
        best = min(range(len(pool)), key=lambda j: abs(pool[j][0] - goal))
        chosen.append(pool.pop(best)[1])
    return chosen


def _cycled(options, i: int, nets: int):
    """The option for check ``i`` of a kind that rotates over ``nets`` networks:
    each visit to a network takes the next option, from a fixed stride."""
    return options[(i // nets * 5 + i % nets) % len(options)]


def _short_trials(rng: random.Random, smoke: bool) -> list:
    """Thousands of 2-20 step trials per check: per-trial fixed cost dominates.

    Pairs and roots cycle through fixed lists rather than being drawn, so the
    mix of instances, and with it the steps per pass, does not swing with the
    seed; lengths, random networks, trial seeds and order come from the seed.
    """
    per, trials = (1, 400) if smoke else (32, 2000)
    pp, tri = generators.parallel_pair(), generators.triangle()
    paths = [generators.path(_lengths(rng, k)) for k in (2, 3, 4)]
    stars = [generators.star(k) for k in (3, 4, 5)]
    rands = [_random_net(rng, n, n + 1) for n in (4, 5, 5)]
    loops = [generators.loop(rng.uniform(*LENGTHS)) for _ in range(2)]
    splits = [SplitSpec(pp, frozenset({0}), 0, 1), SplitSpec(tri, frozenset({0}), 0, 1)]
    for shape in THETA_SHAPES:
        net, a_edges = _theta(rng, shape)
        splits.append(SplitSpec(net, a_edges, 0, 1))

    def seed():
        return rng.randrange(2**31)

    checks = []
    for i in range(per):
        model = MODELS[i % 2]
        net = [pp, tri, *paths, *stars, *rands][i % 11]
        x, y = _cycled(list(combinations(range(net.vertex_count), 2)), i, 11)
        checks.append(ApiCheck(
            f"commute#{i}", net, x, lambda r=Commute(x, y): r, model, trials, seed(),
            lambda net=net, x=x, y=y: closedform.commute_time(net, x, y),
            "equality",
        ))

        spec = splits[i % len(splits)]
        kind = walker.REFINED_KINDS[(i // 2) % 4]
        checks.append(ApiCheck(
            f"refined-{kind}#{i}", spec.network, spec.x,
            lambda r=RefinedCommute(kind, spec): r, model, trials, seed(),
            lambda spec=spec, kind=kind: _refined_target(spec, kind), "equality",
        ))

        # Two hops or more apart, so no trial is one forced step.
        net = [*paths, *stars, *rands][i % 9]
        start, goal = _cycled(_far_pairs(net), i, 9)
        rule = FirstPassage(goal)
        checks.append(ApiCheck(
            f"first-passage#{i}", net, start, lambda r=rule: r, model, trials, seed(),
            lambda net=net, s=start, r=rule, m=model: exact.exact_stop_time(net, s, r, m),
            "equality",
        ))

        net = [pp, tri, paths[0], *loops][i % 5]
        root = _cycled(range(net.vertex_count), i, 5)
        rule = ArcCoverReturn(root)
        checks.append(ApiCheck(
            f"arc-cover#{i}", net, root, lambda r=rule: r, model, trials, seed(),
            lambda net=net, s=root, r=rule, m=model: exact.exact_stop_time(net, s, r, m),
            "equality",
        ))
    return checks


def _long_walks(rng: random.Random, smoke: bool) -> list:
    """Tens of trials of thousands of steps: the scalar step loop dominates.

    One cover-and-return trial on ``tree:4`` takes about 4800 steps, with a
    standard deviation about half of that.  The work of a pass is a sum over
    all its trials, so it holds still from seed to seed only if there are many
    of them; hence 24 trials per cover check on ``tree:4`` rather than a few
    on ``tree:5``.  Shapes (path hop counts, lollipop sizes) cycle through
    fixed lists and only lengths, orientations, roots and trial seeds come
    from the seed.  The groups are sized so that the median check falls
    inside the medium group (epochs and path commutes) and the p90 check
    inside the heavy one (tree covers), not on the edge between two groups.
    """
    def count(k):
        return 1 if smoke else k

    tree3, tree4 = generators.binary_tree(3), generators.binary_tree(4)
    cover_trials = 4 if smoke else 24
    lollipops = {n: generators.lollipop(n) for n in range(12, 17)}

    checks = []

    def seed():
        return rng.randrange(2**31)

    def add(label, net, start, rule, model, trials, target, kind):
        checks.append(ApiCheck(label, net, start, rule, model, trials, seed(), target, kind))

    for i in range(count(14)):
        for label, rule, which in (
            ("edge-cover", EdgeCoverReturn(0), 0),
            ("arc-cover", ArcCoverReturn(0), 1),
        ):
            add(f"{label}#{i}", tree4, 0, lambda r=rule: r, MODELS[i % 2], cover_trials,
                lambda w=which: _cover_bound(tree4, w), "upper_bound")
    for i in range(count(12)):
        rule = DirectedCoverReturn(0, _orientation(rng, tree4))
        add(f"directed-cover#{i}", tree4, 0, lambda r=rule: r, MODELS[i % 2], cover_trials,
            lambda: _cover_bound(tree4, 0), "upper_bound")
    for i in range(count(16)):
        net = lollipops[12 + i % 5]
        root = rng.randrange(net.vertex_count)
        rule = VertexCover(root, True)
        # Visiting every vertex and returning is implied by covering every
        # edge and returning, so the edge bound 2 m^2 also bounds it.
        add(f"vertex-cover#{i}", net, root, lambda r=rule: r, MODELS[i % 2], 6,
            lambda net=net: _cover_bound(net, 0), "upper_bound")
    # Directed epochs end, in expectation, at exactly the edge bound 2 m^2.
    for i in range(count(24)):
        orientation = _orientation(rng, tree3)
        add(f"epochs-directed#{i}", tree3, 0,
            lambda o=orientation: _epoch_rule(tree3, 0, o), TimingModel.L_SQUARED, 100,
            lambda: _cover_bound(tree3, 0), "equality")
    for i in range(count(24)):
        net = generators.path(_lengths(rng, 12 + i % 7))
        far = net.vertex_count - 1
        add(f"path-commute#{i}", net, 0, lambda r=Commute(0, far): r, MODELS[i % 2], 100,
            lambda net=net, far=far: closedform.commute_time(net, 0, far),
            "equality")
    return checks


def _verify_exact(rng: random.Random, smoke: bool, workdir: Path) -> list:
    """`walkcover verify` on seeded random network files; exact solves dominate."""
    trials = 400 if smoke else 600

    def count(k):
        return 1 if smoke else k

    checks = []
    counter = iter(range(10**6))

    def invocation(label, net, check, model, *extra):
        k = next(counter)
        path = workdir / f"net{k}.net"
        path.write_text(netmodel.serialize_network(net), encoding="utf-8")
        argv = (
            "verify", "--network", str(path), "--check", check,
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)),
            "--model", model.value, "--slack", str(SLACK_SIGMAS),
            "--workers", str(VERIFY_WORKERS), *extra,
        )
        checks.append(CliCheck(f"{check}#{k}", argv))

    # The 20 heaviest checks hold the exact edge- and arc-cover solves, all
    # on a ladder of state counts in one narrow band, so the p90 check falls
    # in the middle of this group and its cost does not swing with the seed.
    for i, net in enumerate(_nets_spread_over_band(rng, count(14), 8, 10, 0, "edge",
                                                    HEAVY_BAND[0], HEAVY_BAND[1])):
        check = "cre,cre-bound" if i % 3 == 2 else "cre"
        invocation(check, net, check, MODELS[i % 2])
    for i, net in enumerate(_nets_spread_over_band(rng, count(6), 5, 6, 0, "arc",
                                                    HEAVY_BAND[0], HEAVY_BAND[1])):
        invocation("cra", net, "cra", MODELS[i % 2])
    for i, net in enumerate(_nets_spread_over_band(rng, count(8), 10, 12, 0, "vertex",
                                                    600, 1200)):
        invocation("vcover", net, "vcover", MODELS[i % 2], "--return")
    for i in range(count(12)):
        net = _random_net(rng, 8, 10)
        x, y = rng.sample(range(8), 2)
        invocation("commute", net, "commute", MODELS[i % 2], "--pair", str(x), str(y))
    for i in range(count(12)):
        net, a_edges = _theta(rng, THETA_SHAPES[i % len(THETA_SHAPES)])
        kind = walker.REFINED_KINDS[(i + i // 4) % 4]
        ids = ",".join(str(e) for e in sorted(a_edges))
        invocation("refined", net, "refined", MODELS[i % 2],
                   "--pair", "0", "1", "--a-edges", ids, "--kind", kind)
    for i in range(count(8)):
        invocation("bounds", _random_net(rng, 8, 10), "cre-bound,cra-bound", MODELS[i % 2])
    for i in range(count(8)):
        invocation("dcover-bound", _random_net(rng, 8, 10), "dcover-bound", MODELS[i % 2],
                   "--orientation", "random")
    # Thirty-two checks of nearly equal cost, so the median check falls inside
    # this group rather than on the edge between two groups of other costs.
    for i in range(count(32)):
        invocation("epochs-directed", _random_net(rng, 6, 7), "epochs-directed",
                   TimingModel.L_SQUARED, "--orientation", "random")
    return checks


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list:
    """The workload's fixed, seed-derived list of checks, in seed-derived order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "short_trials":
        checks = _short_trials(rng, smoke)
    elif workload == "long_walks":
        checks = _long_walks(rng, smoke)
    elif workload == "verify_exact":
        checks = _verify_exact(rng, smoke, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(checks)
    return checks


def warm_up(workdir: Path) -> None:
    """Pay first-call costs (lazy imports, BLAS start-up, argparse, fork) once."""
    tri = generators.triangle()
    for model in MODELS:
        est.estimate(tri, 0, Commute(0, 1), model, 2, 0)
        exact.exact_stop_time(tri, 0, ArcCoverReturn(0), model)
    closedform.refined_commutes(SplitSpec(tri, frozenset({0}), 0, 1))
    path = workdir / "warm.net"
    path.write_text(netmodel.serialize_network(tri), encoding="utf-8")
    CliCheck("warm", (
        "verify", "--network", str(path), "--check", "cre,epochs-directed",
        "--trials", "4", "--seed", "0", "--workers", str(VERIFY_WORKERS),
    )).execute()


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


# The reference kernel: a frozen, self-contained miniature of a batch of Monte
# Carlo trials -- per trial, a PCG64 stream seeded through SeedSequence and a
# short bisect-driven walk on a 4-vertex table -- the same kinds of work as
# ``estimate.trial_rng`` and ``walker.run``.  It calls no walkcover code, so
# no change to walkcover can make it faster or slower.  Timed right after every
# check, it tracks the host's speed, which on a shared machine drifts by tens
# of percent over seconds to minutes.
REF_TRIALS = 100
REF_STEPS = 30
REF_CUM = ((0.5, 1.0), (0.3, 0.6, 1.0), (0.4, 0.7, 1.0), (0.5, 1.0))
REF_META = (  # per vertex, per arc: (edge, head, charge)
    ((0, 1, 0.5), (1, 2, 0.7)),
    ((0, 0, 0.5), (2, 2, 1.1), (3, 3, 0.9)),
    ((1, 0, 0.7), (2, 1, 1.1), (4, 3, 1.3)),
    ((3, 1, 0.9), (4, 2, 1.3)),
)
# The kernel's time on a 2-vCPU shared x86-64 host under Python 3.11 and
# numpy 2.4 when the host is not loaded.  It only sets the unit of the
# normalised times: they read as seconds on a machine where the kernel takes
# this long.
REF_NOMINAL_S = 0.0016
# Kernel timings per local speed estimate: one sample is noisy, and the host's
# speed changes over seconds, so a median over a few neighbours.
REF_WINDOW = 15


def reference_kernel() -> float:
    total = 0.0
    for i in range(REF_TRIALS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, i))))
        v, t, seen = 0, 0.0, set()
        for u in rng.random(REF_STEPS).tolist():
            e, v, charge = REF_META[v][bisect_right(REF_CUM[v], u)]
            t += charge
            seen.add(e)
        total += t + len(seen)
    return total


def time_kernel() -> float:
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


@dataclass
class Pass:
    wall_s: float
    latencies_s: list[float]
    refs_s: list[float]  # reference kernel time right after each check
    outcomes: list[Outcome]
    norm_latencies_s: list[float] = field(default_factory=list)  # set by normalise()

    @property
    def text(self) -> str:
        return "".join(o.text for o in self.outcomes)

    @property
    def checks_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def norm_s(self) -> float:
        return sum(self.norm_latencies_s)

    @property
    def trials(self) -> int:
        return sum(r.trials for o in self.outcomes for _, r in o.estimates)

    @property
    def steps(self) -> int:
        return sum(
            round(r.aux_means["steps"] * r.trials)
            for o in self.outcomes for _, r in o.estimates
        )


def run_pass(checks, tracer=None) -> Pass:
    """Run every check back to back (closed loop, one client), timing the
    reference kernel after each one, outside the check's latency."""
    outcomes, latencies, refs = [], [], []
    clock = time.perf_counter
    t0 = clock()
    for check in checks:
        s = clock()
        with tracer.span("check") if tracer is not None else nullcontext():
            outcomes.append(attempt(check))
        latencies.append(clock() - s)
        refs.append(time_kernel())
    return Pass(clock() - t0, latencies, refs, outcomes)


def normalise(passes: list[Pass]) -> None:
    """Rescale every check latency to the reference kernel's nominal speed.

    Each latency is multiplied by ``REF_NOMINAL_S`` over the median kernel
    time of the ``REF_WINDOW`` checks around it, in run order across passes.
    A slower host slows the check and the kernel alike, so the ratio holds
    still where the raw time does not.
    """
    refs = [r for p in passes for r in p.refs_s]
    window = min(REF_WINDOW, len(refs))
    k = 0
    for p in passes:
        p.norm_latencies_s = []
        for latency in p.latencies_s:
            lo = min(max(0, k - window // 2), len(refs) - window)
            local = statistics.median(refs[lo:lo + window])
            p.norm_latencies_s.append(latency * REF_NOMINAL_S / local)
            k += 1


def run_passes(checks, budget_s: float, tracer=None, on_pass=None) -> list[Pass]:
    """At least one pass; another only while it should end within ``budget_s``."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(checks, tracer))
        if on_pass is not None:
            on_pass()
        if time.perf_counter() - t0 + passes[-1].wall_s > budget_s:
            return passes


# ---------------------------------------------------------------------------
# Output checks (outside the timed section)
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serial_mean(net, start, rule, model, trials, seed) -> float:
    """The report mean rebuilt from one ``walker.run`` per trial, in trial order."""
    tables = walker.build_tables(net, model)
    return math.fsum(
        walker.run(net, start, rule, model, est.trial_rng(seed, i), tables=tables).stop_time
        for i in range(trials)
    ) / trials


def sample_indices(count: int, samples: int = 5) -> list[int]:
    """A fixed, evenly spaced sample of check positions."""
    return sorted({k * count // samples for k in range(min(samples, count))})


def check_means(checks, outcomes, indices) -> list[str]:
    """Mismatches between sampled report means and their serial rebuild."""
    problems = []
    for i in indices:
        for args, report in outcomes[i].estimates:
            if serial_mean(*args) != report.mean:
                problems.append(f"{checks[i].label}: mean {report.mean!r} is not the serial mean")
    return problems


def check_worker_parity(checks, outcomes, indices) -> list[str]:
    """verify_exact rows must be byte-identical with one worker and with two."""
    problems = []
    for i in indices:
        single = checks[i].execute(("--workers", "1"))
        if single.text != outcomes[i].text:
            problems.append(f"{checks[i].label}: --workers 1 output differs from --workers 2")
    return problems

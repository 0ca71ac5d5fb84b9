"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all;
failures always show theirs).  Stochastic checks use fixed seeds and a
3-standard-error slack unless the criterion states otherwise, so the suite
is deterministic.

Two sub-checks encode values that are internally inconsistent with the rest
of the contract and are expected to fail; each one's docstring derives the
value the walk does give.  They are asserted literally as stated, not
adjusted to pass.
"""

import math

import pytest

from walkcover.closedform import (
    brownian_traversal_mean,
    half_excursion_mean,
    mean_step_time,
    refined_commutes,
)
from walkcover.estimate import estimate, estimate_refined, estimate_vertex_cover, trial_rng
from walkcover.exact import exact_stop_time
from walkcover.generators import binary_tree, loop, parallel_pair, path, triangle
from walkcover.netmodel import (
    build_network,
    random_orientation,
    transition_distribution,
)
from walkcover.resistance import (
    SplitSpec,
    effective_resistance,
    split_resistances,
    via_probability,
)
from walkcover.tours import construct_double_cover_walk, epoch_times
from walkcover.walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    RefinedCommute,
    TimingModel,
    build_tables,
    commute_trips,
    run,
)
from walkcover import cli

import oracles
from support import PresetRng, random_net, random_split_spec

L2 = TimingModel.L_SQUARED
BROWNIAN = TimingModel.BROWNIAN_MEAN
WORKERS = 4


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def within(report_, target, sigmas=3.0):
    return abs(report_.mean - target) <= sigmas * report_.stderr


def below(report_, bound, sigmas=3.0):
    return report_.mean <= bound + sigmas * report_.stderr


def test_c01_commute_identity():
    p8 = path([1.0] * 8)
    rep_path = estimate(p8, 0, Commute(0, 8), L2, 100_000, 1101, workers=WORKERS)
    pp = parallel_pair()
    rep_pp = estimate(pp, 0, Commute(0, 1), L2, 100_000, 1102, workers=WORKERS)
    ok = within(rep_path, 128.0) and within(rep_pp, 4.0)
    assert report(
        "criterion 1 (commute identity)",
        ok,
        f"path m=8 mean {rep_path.mean:.3f} vs 128; "
        f"parallel_pair mean {rep_pp.mean:.4f} vs 4",
    )


def test_c02_refined_commutes():
    tri = triangle()
    spec = SplitSpec(tri, frozenset({0}), 0, 1)
    vals = refined_commutes(spec)
    reps = {
        kind: estimate_refined(spec, kind, L2, 100_000, 1201 + i, workers=WORKERS)
        for i, kind in enumerate(("forward", "backward", "either", "both"))
    }
    ok = (
        within(reps["forward"], 6.0)
        and within(reps["backward"], 6.0)
        and within(reps["either"], 4.5)
        and within(reps["both"], 7.5)
        and abs(reps["forward"].mean - reps["backward"].mean)
        <= 3 * math.hypot(reps["forward"].stderr, reps["backward"].stderr)
        and vals.t_forward == pytest.approx(6.0)
    )
    assert report(
        "criterion 2 (refined commutes, triangle)",
        ok,
        "forward {forward.mean:.3f}/6 either {either.mean:.3f}/4.5 "
        "both {both.mean:.3f}/7.5".format(**reps),
    )

    worst = 0.0
    all_ok = True
    for s in range(10):
        spec = random_split_spec(s)
        vals = refined_commutes(spec)
        for j, kind in enumerate(("either", "forward", "both")):
            rep = estimate_refined(
                spec, kind, L2, 20_000, 1230 + 10 * s + j, workers=WORKERS
            )
            target = getattr(vals, f"t_{kind}")
            sig = abs(rep.mean - target) / rep.stderr if rep.stderr else 0.0
            worst = max(worst, sig)
            all_ok = all_ok and sig <= 3.0
    assert report(
        "criterion 2 (refined commutes, 10 random splits)",
        all_ok,
        f"max deviation {worst:.2f} sigma over 30 checks",
    )


def test_c03_proof_quantities_and_wald():
    tri = triangle()
    spec = SplitSpec(tri, frozenset({0}), 0, 1)
    vals = refined_commutes(spec)
    tables = build_tables(tri, L2)
    n = 100_000
    outs = [
        run(tri, 0, Commute(0, 1), L2, trial_rng(1301, i), tables=tables)
        for i in range(n)
    ]
    flags = commute_trips(outs, spec.a_edges)
    p_hat = sum(f for f, _ in flags) / n
    either_hat = sum((f or b) for f, b in flags) / n
    flagged = [(f, b) for f, b in flags if f or b]
    q_hat = sum((f != b) for f, b in flagged) / len(flagged)

    p = via_probability(spec)
    ok_p = abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / n)
    pe = p * (2 - p)
    ok_e = abs(either_hat - pe) <= 3 * math.sqrt(pe * (1 - pe) / n)
    ok_q = abs(q_hat - vals.q) <= 3 * math.sqrt(vals.q * (1 - vals.q) / len(flagged))

    # Wald: mean stop time of the both-variant equals the exact per-commute
    # mean times the mean commute count, trial by trial.
    m = tri.total_length
    r = effective_resistance(tri, 0, 1)
    diffs = []
    for i in range(30_000):
        out = run(tri, 0, RefinedCommute("both", spec), L2, trial_rng(1302, i), tables=tables)
        diffs.append(out.stop_time - 2 * m * r * out.auxiliary["commute_count"])
    mean_d = math.fsum(diffs) / len(diffs)
    sd = math.sqrt(math.fsum((d - mean_d) ** 2 for d in diffs) / (len(diffs) - 1))
    ok_w = abs(mean_d) <= 3 * sd / math.sqrt(len(diffs))

    ok = ok_p and ok_e and ok_q and ok_w
    assert report(
        "criterion 3 (proof quantities + Wald)",
        ok,
        f"p_A {p_hat:.4f}/{p:.4f} either {either_hat:.4f}/{pe:.4f} "
        f"q {q_hat:.4f}/{vals.q:.4f} wald-gap {mean_d:+.4f}",
    )


def test_c04_tightness_instances():
    p6 = path([1.0] * 6)
    rep_path = estimate(p6, 0, EdgeCoverReturn(0), L2, 20_000, 1401, workers=WORKERS)
    unit_loop = loop(1.0)
    rep_loop = estimate(unit_loop, 0, ArcCoverReturn(0), L2, 20_000, 1402, workers=WORKERS)
    ok = within(rep_path, 72.0) and within(rep_loop, 3.0)
    assert report(
        "criterion 4 (tight instances)",
        ok,
        f"path m=6 edge-cover-return {rep_path.mean:.3f} vs 72; "
        f"loop arc-cover-return {rep_loop.mean:.4f} vs 3",
    )


def test_c05_cover_bounds_random_sweep():
    trials = 600
    failures = []
    for s in range(50):
        net = random_net(s, max_n=8, lengths=(0.2, 3.0), loops=True, parallel=True)
        m = net.total_length
        rep = estimate(net, 0, EdgeCoverReturn(0), L2, trials, 1500 + s)
        if not below(rep, 2 * m * m):
            failures.append((s, "edge", rep.mean, 2 * m * m))
        rep = estimate(net, 0, ArcCoverReturn(0), L2, trials, 1600 + s)
        if not below(rep, 3 * m * m):
            failures.append((s, "arc", rep.mean, 3 * m * m))
        for k in range(3):
            orient = random_orientation(net, trial_rng(1700 + s, k))
            rep = estimate(
                net, 0, DirectedCoverReturn(0, orient), L2, trials, 1800 + 10 * s + k
            )
            if not below(rep, 2 * m * m):
                failures.append((s, f"directed{k}", rep.mean, 2 * m * m))
    assert report(
        "criterion 5 (cover bounds, 50 random networks)",
        not failures,
        f"250 bound checks, violations: {failures or 'none'}",
    )


def _epoch_mc(net, walk, mode, orient, trials, seed):
    tables = build_tables(net, L2)
    finals = []
    recs = []
    for i in range(trials):
        rec = epoch_times(net, walk, mode, L2, trial_rng(seed, i), orient, tables=tables)
        finals.append(rec.final_time)
        recs.append(rec)
    mean = math.fsum(finals) / trials
    var = math.fsum((x - mean) ** 2 for x in finals) / (trials - 1)
    return mean, math.sqrt(var / trials), recs


def test_c06_epoch_identity_directed():
    tri = triangle()
    m = tri.total_length
    walk = construct_double_cover_walk(tri, 0)
    orient = random_orientation(tri, trial_rng(1660, 0))
    mean, se, recs = _epoch_mc(tri, walk, "directed", orient, 20_000, 1601)
    ok = abs(mean - 2 * m * m) <= 3 * se

    # Per-edge interval means against twice total length times edge length.
    per_edge_ok = True
    for e in tri.edges:
        vals = [rec.intervals[e.id][0] + rec.intervals[e.id][1] for rec in recs]
        emean = math.fsum(vals) / len(vals)
        evar = math.fsum((x - emean) ** 2 for x in vals) / (len(vals) - 1)
        ese = math.sqrt(evar / len(vals))
        per_edge_ok = per_edge_ok and abs(emean - 2 * m * e.length) <= 3 * ese

    # A random network (loops and parallel edges allowed), both walk
    # constructions, fresh orientations.
    rnet = random_net(106, max_n=6, lengths=(0.5, 2.0), loops=True, parallel=True)
    rm = rnet.total_length
    rand_ok = True
    details = []
    for j, order in enumerate(("ascending", "descending")):
        rwalk = construct_double_cover_walk(rnet, 0, order)
        rorient = random_orientation(rnet, trial_rng(1661, j))
        rmean, rse, _ = _epoch_mc(rnet, rwalk, "directed", rorient, 10_000, 1610 + j)
        rand_ok = rand_ok and abs(rmean - 2 * rm * rm) <= 3 * rse
        details.append(f"{order} {rmean:.2f}")
    ok = ok and per_edge_ok and rand_ok
    assert report(
        "criterion 6 (directed epoch identity)",
        ok,
        f"triangle final {mean:.3f} vs {2 * m * m}; per-edge ok={per_edge_ok}; "
        f"random net vs {2 * rm * rm:.2f}: {', '.join(details)}",
    )


def arc_mode_formula_target(net):
    """Per-edge refined-commute sum the criterion states as the arc-mode mean."""
    m = net.total_length
    total = 0.0
    for e in net.edges:
        rest = [(x.u, x.v, x.length) for x in net.edges if x.id != e.id]
        if e.is_loop:
            r_b = 0.0
        else:
            try:
                sub = build_network(net.vertex_count, rest)
                r_b = effective_resistance(sub, e.u, e.v)
            except Exception:
                total += 2 * m * e.length  # severed side: ratio tends to 1
                continue
        total += 2 * m * e.length * (3 * e.length + r_b) / (2 * e.length + r_b)
    return total


def test_c06_epoch_arc_mode_as_stated():
    """Stated check: the arc-mode epoch mean equals the per-edge sum of
    :func:`arc_mode_formula_target` and stays under 3 m^2.  Asserted
    literally and expected red: the equality half does not hold for the
    epoch process as defined, whose exact solve agrees with the sampler.

    Derivation.  In arc mode every epoch is strong, and epoch i starts
    where epoch i - 1 left the walker, at the tail u of the walk's i-th arc
    a = (u -> v), so its mean is T_a, the mean time from u until the walk
    steps along a.  Steps choose arcs out of a vertex in proportion to
    1 / length and an arc of length l is charged l^2, so by Kac's lemma on
    the chain of arcs (with renewal-reward for the charges) the mean time
    between two steps along a is 2 m l, m the total length.  A walk from v
    must reach u before it can step along a, so 2 m l = H(v, u) + T_a, with
    H the mean hitting time.  An edge's two arcs then sum to 4 m l less the
    commute time 2 m R(u, v), R the effective resistance with the lengths
    as resistances (0 for a loop), and the epoch mean is
    sum_e (4 m l_e - 2 m R_e).

    On ``triangle`` (m = 3) each R_e is 2/3 and each epoch is 6 - 2 = 4,
    so the mean is 6 x 4 = 24.000, which the exact solve gives.  The
    stated per-edge term is 2 m l (3 l + r) / (2 l + r), with r = 2 the
    resistance of the rest of the network between the edge's ends: 7.5 per
    edge and 22.5 in all.  The exact term is 2 m l (2 l + r) / (l + r) (8
    per edge), which is the stated one with r + l in place of r.  The bound
    half holds here (24 <= 27), but not on every network: a unit loop reads
    4 > 3 and ``parallel_pair`` 28 > 27.
    """
    tri = triangle()
    m = tri.total_length
    walk = construct_double_cover_walk(tri, 0)
    mean, se, recs = _epoch_mc(tri, walk, "arc", None, 20_000, 1605)
    target = arc_mode_formula_target(tri)
    exact_mean = oracles.epoch_final_time_oracle(tri, walk, "arc")
    bound_ok = mean <= 3 * m * m + 3 * se
    equality_ok = abs(mean - target) <= 3 * se
    cover_ok = all(rec.covered_ok for rec in recs)
    report(
        "criterion 6 (arc epoch vs formula, as stated)",
        bound_ok and equality_ok and cover_ok,
        f"mean {mean:.3f} (exact {exact_mean:.3f}) vs formula {target:.3f}, "
        f"bound 3m^2={3 * m * m}",
    )
    assert bound_ok and cover_ok
    assert equality_ok, (
        f"arc-mode epoch mean {mean:.3f} (exact {exact_mean:.3f}) is not the "
        f"stated formula value {target:.3f}"
    )


def test_c07_edge_cover_example():
    pp = parallel_pair()
    rep_l2 = estimate(pp, 0, EdgeCoverReturn(0), L2, 50_000, 1701, workers=WORKERS)
    rep_br = estimate(pp, 0, EdgeCoverReturn(0), BROWNIAN, 50_000, 1702, workers=WORKERS)
    lib_l2 = exact_stop_time(pp, 0, EdgeCoverReturn(0), L2)
    lib_br = exact_stop_time(pp, 0, EdgeCoverReturn(0), BROWNIAN)
    orc_val = oracles.edge_cover_return_oracle(pp, 0)
    forced_br = run(pp, 0, EdgeCoverReturn(0), BROWNIAN, PresetRng([0.0, 0.9]))
    ok = (
        within(rep_l2, 7.7)
        and within(rep_br, 7.7)
        and abs(rep_l2.mean - rep_br.mean)
        <= 3 * math.hypot(rep_l2.stderr, rep_br.stderr)
        and abs(lib_l2 - 7.7) <= 1e-9
        and abs(lib_br - 7.7) <= 1e-9
        and abs(orc_val - 7.7) <= 1e-9
        and abs(forced_br.stop_time - 13 / 3) <= 1e-12
    )
    assert report(
        "criterion 7 (edge-cover example)",
        ok,
        f"MC {rep_l2.mean:.4f}/{rep_br.mean:.4f} vs 7.7 (both models); "
        f"exact solves {lib_l2:.6f}, {orc_val:.6f}; forced Brownian tour "
        f"{forced_br.stop_time:.6f} vs 13/3",
    )


def test_c07_forced_tour_l2_as_stated():
    """Stated check: the forced two-traversal tour charges exactly 9 under
    the squared-length model.  Asserted literally and expected red.

    Derivation.  ``parallel_pair`` joins vertices 0 and 1 by an edge e of
    length 1 and an edge f of length 2.  The draw 0.0 takes e out of 0
    (probability 2/3) and 0.9 takes f back from 1 (probability 1/3), so the
    walk has covered both edges and is home after two steps.  ``l2``
    charges each traversal its own length squared: 1^2 + 2^2 = 5.  The
    stated 9 is (1 + 2)^2, the square of the tour's whole length 3, the
    charge one edge of length 3 would get; the square of a sum is not the
    sum of the squares, so a tour over two edges is not charged like one
    edge of their total length.
    """
    pp = parallel_pair()
    out = run(pp, 0, EdgeCoverReturn(0), L2, PresetRng([0.0, 0.9]))
    ok = out.stop_time == 9.0
    report(
        "criterion 7 (forced tour charge, as stated)",
        ok,
        f"stated 9, squared-length charge sum is {out.stop_time}",
    )
    assert out.step_count == 2
    assert ok, f"forced (e,f) tour charges {out.stop_time}, stated value is 9"


def test_c08_brownian_formulas():
    pp = parallel_pair()
    ok = (
        abs(brownian_traversal_mean(pp, 0, 0) - 5 / 3) <= 1e-12
        and abs(brownian_traversal_mean(pp, 1, 1) - 8 / 3) <= 1e-12
    )
    for net in (pp, triangle(), random_net(77, max_n=6)):
        for v in range(net.vertex_count):
            dist = transition_distribution(net, v)
            avg = math.fsum(
                p * brownian_traversal_mean(net, v, a.edge) for a, p in dist.items()
            )
            ok = ok and abs(avg - mean_step_time(net, v)) <= 1e-12 * max(1.0, avg)
    ok = ok and half_excursion_mean(1.0) == 1.0**2 / 3.0
    ok = ok and half_excursion_mean(2.0) == 2.0**2 / 3.0
    ok = ok and half_excursion_mean(3.0) == 3.0**2 / 3.0
    assert report(
        "criterion 8 (Brownian step formulas)",
        ok,
        "5/3 and 8/3 reproduced; averages match step times to 1e-12",
    )


def test_c09_vertex_cover_path():
    p6 = path([1.0] * 6)
    assert abs(oracles.vertex_cover_oracle(p6, 3) - 45.0) <= 1e-9
    assert abs(oracles.vertex_cover_oracle(p6, 0) - 36.0) <= 1e-9
    rep_mid = estimate_vertex_cover(p6, 3, False, L2, 20_000, 1901, workers=WORKERS)
    rep_end = estimate_vertex_cover(p6, 0, False, L2, 20_000, 1902, workers=WORKERS)
    ok = within(rep_mid, 45.0) and within(rep_end, 36.0)
    assert report(
        "criterion 9 (vertex cover on the path)",
        ok,
        f"middle {rep_mid.mean:.3f} vs 45; endpoint {rep_end.mean:.3f} vs 36",
    )


def test_c10_resistance_engine():
    tri = triangle()
    sp = oracles.series_parallel_resistance(
        [(e.u, e.v, e.length) for e in tri.edges], 0, 1
    )
    ok = abs(effective_resistance(tri, 0, 1) - sp) <= 1e-12 and abs(sp - 2 / 3) <= 1e-12

    worst_sym = worst_series = worst_parallel = 0.0
    for s in range(100):
        net = random_net(s + 500, max_n=7)
        x, y = 0, net.vertex_count - 1
        if x != y:
            d = abs(effective_resistance(net, x, y) - effective_resistance(net, y, x))
            worst_sym = max(worst_sym, d)

        left = random_net(s + 700, max_n=5, lengths=(0.5, 2.0))
        right = random_net(s + 800, max_n=5, lengths=(0.5, 2.0))
        shift = left.vertex_count - 1
        edges = [(e.u, e.v, e.length) for e in left.edges]
        edges += [
            (e.u + shift if e.u else shift, e.v + shift if e.v else shift, e.length)
            for e in right.edges
        ]
        glued = build_network(left.vertex_count + right.vertex_count - 1, edges)
        gx, gz, gy = 0, shift, glued.vertex_count - 1
        if len({gx, gz, gy}) == 3:
            d = abs(
                effective_resistance(glued, gx, gy)
                - effective_resistance(glued, gx, gz)
                - effective_resistance(glued, gz, gy)
            )
            worst_series = max(worst_series, d)

        spec = random_split_spec(s + 900)
        r_a, r_b = split_resistances(spec)
        r = effective_resistance(spec.network, spec.x, spec.y)
        worst_parallel = max(worst_parallel, abs(1 / r - (1 / r_a + 1 / r_b)))

    ok = ok and worst_sym <= 1e-10 and worst_series <= 1e-9 and worst_parallel <= 1e-9
    assert report(
        "criterion 10 (resistance engine)",
        ok,
        f"triangle 2/3 exact; worst deviations: symmetry {worst_sym:.2e}, "
        f"series {worst_series:.2e}, parallel {worst_parallel:.2e}",
    )


def test_c11_model_equivalence():
    trials = 6000
    worst = 0.0
    all_ok = True
    for s in range(10):
        net = random_net(s + 300, max_n=5, lengths=(0.5, 2.0), loops=True, parallel=True)
        y = net.vertex_count - 1
        rules = [EdgeCoverReturn(0), ArcCoverReturn(0)]
        if y != 0:
            rules.append(Commute(0, y))
        for j, rule in enumerate(rules):
            a = estimate(net, 0, rule, L2, trials, 2000 + 20 * s + 2 * j)
            b = estimate(net, 0, rule, BROWNIAN, trials, 2001 + 20 * s + 2 * j)
            gap = abs(a.mean - b.mean)
            limit = 3 * math.hypot(a.stderr, b.stderr)
            worst = max(worst, gap / limit if limit else 0.0)
            all_ok = all_ok and gap <= limit
    assert report(
        "criterion 11 (timing-model equivalence)",
        all_ok,
        f"worst gap {worst:.2f} of the 3-sigma allowance over 10 networks",
    )


def test_c12_binary_tree_bound():
    net = binary_tree(6)
    assert net.total_length == 0.984375
    m = net.total_length
    rep = estimate(net, 0, EdgeCoverReturn(0), L2, 48, 2101, workers=WORKERS)
    bound = 2 * m * m
    ok = below(rep, bound)
    assert report(
        "criterion 12 (binary tree, depth 6)",
        ok,
        f"edge-cover-return mean {rep.mean:.3f} <= {bound:.4f} (+3 SE {3 * rep.stderr:.3f})",
    )


def test_c13_determinism(capsys):
    argv_base = [
        "verify", "--gen", "parallel_pair", "--check", "commute,cre",
        "--pair", "0", "1", "--trials", "3000", "--seed", "1313",
    ]
    outputs = []
    for workers in ("1", "2", "8"):
        code = cli.main(argv_base + ["--workers", workers])
        outputs.append(capsys.readouterr().out.encode())
        assert code == 0
    code = cli.main(argv_base + ["--workers", "8"])
    outputs.append(capsys.readouterr().out.encode())
    assert code == 0
    ok = len(set(outputs)) == 1
    assert report(
        "criterion 13 (byte-identical reports)",
        ok,
        f"4 runs over worker counts 1/2/8 produced {len(set(outputs))} distinct output(s)",
    )

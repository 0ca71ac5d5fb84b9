"""Command-line front end.

Commands load or generate a network, run exact computations or seeded Monte
Carlo experiments, and emit CSV (default) or a text block.  Every stochastic
row echoes its rule, model, trials, and seed, so any number in a report can
be reproduced from the row alone.  Identical command lines produce
byte-identical output for any worker count.

Exit codes: 0 on success (for ``verify``: all verdicts passing), 1 when a
``verify`` verdict fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import closedform, exact, generators, tours, walker
from .errors import WalkcoverError
from .estimate import (
    CSV_HEADER,
    estimate as run_estimate,
    format_number,
    render_csv,
    render_text,
    trial_rng,
    verify,
)
from .netmodel import (
    Network,
    Orientation,
    parse_network_text,
    random_orientation,
    serialize_network,
)
from .resistance import SplitSpec, effective_resistance
from .walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    RefinedCommute,
    TimingModel,
    VertexCover,
)

def _add_common(sub: argparse.ArgumentParser, stochastic: bool) -> None:
    src = sub.add_argument_group("network source (exactly one)")
    src.add_argument("--network", metavar="FILE", help="network text file")
    src.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. path:1,1,1")
    sub.add_argument("--format", choices=("csv", "text"), default="csv")
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    if stochastic:
        sub.add_argument("--trials", type=int, required=True)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument(
            "--model", choices=("l2", "brownian"), default="l2",
            help="timing model charged per traversal",
        )
        sub.add_argument("--slack", type=float, default=3.0, metavar="SIGMAS")
        sub.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        sub.add_argument(
            "--budget", type=int, default=walker.DEFAULT_STEP_BUDGET,
            help="hard per-trial step cap",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it makes
    about a hundred ``add_argument`` calls, many times the cost of a parse.
    Parsing leaves it unchanged, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="walkcover",
        description="Exact and Monte Carlo commute/cover-time computations "
        "on weighted multigraph networks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("resist", help="exact effective resistance between two vertices")
    _add_common(p, stochastic=False)
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("X", "Y"))

    p = subs.add_parser("commute", help="Monte Carlo commute time against its exact value")
    _add_common(p, stochastic=True)
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("X", "Y"))

    p = subs.add_parser("refined", help="refined commute time against its closed form")
    _add_common(p, stochastic=True)
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("X", "Y"))
    p.add_argument(
        "--a-edges", required=True, metavar="IDS",
        help="comma-separated edge ids forming side A",
    )
    p.add_argument("--kind", choices=walker.REFINED_KINDS, required=True)

    p = subs.add_parser("cover", help="cover-and-return time against its upper bound")
    _add_common(p, stochastic=True)
    p.add_argument("--mode", choices=("edge", "arc", "directed"), required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument(
        "--orientation", choices=("fwd", "random"), default="fwd",
        help="edge directions for directed mode when the file declares none",
    )

    p = subs.add_parser("epochs", help="epoch pacing along a double-cover walk")
    _add_common(p, stochastic=True)
    p.add_argument("--mode", choices=("directed", "arc"), required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--orientation", choices=("fwd", "random"), default="fwd")
    p.add_argument("--order", choices=("ascending", "descending"), default="ascending")

    p = subs.add_parser("vcover", help="vertex cover time")
    _add_common(p, stochastic=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--return", dest="with_return", action="store_true")

    p = subs.add_parser("verify", help="run named checks; exit 1 on any failing verdict")
    _add_common(p, stochastic=True)
    p.add_argument(
        "--check", required=True, metavar="NAME[,NAME...]",
        help="checks: " + ", ".join(VERIFY_CHECKS),
    )
    p.add_argument("--pair", nargs=2, type=int, metavar=("X", "Y"))
    p.add_argument("--a-edges", metavar="IDS")
    p.add_argument("--kind", choices=walker.REFINED_KINDS, default="forward")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--return", dest="with_return", action="store_true")
    p.add_argument("--orientation", choices=("fwd", "random"), default="fwd")

    p = subs.add_parser("gen", help="emit a generated network in the text format")
    _add_common(p, stochastic=False)

    return parser


def _load_network(args) -> tuple[Network, Orientation | None]:
    if bool(args.network) == bool(args.gen):
        raise WalkcoverError("give exactly one of --network or --gen")
    if args.network:
        with open(args.network, "r", encoding="utf-8") as fh:
            return parse_network_text(fh.read())
    return generators.from_spec(args.gen), None


def _resolve_orientation(args, net, file_orient) -> Orientation:
    if file_orient is not None:
        return file_orient
    if getattr(args, "orientation", "fwd") == "random":
        return random_orientation(net, trial_rng(args.seed, 2**32))
    return Orientation((0,) * len(net.edges))


def _estimate(args, net, start, rule):
    return run_estimate(
        net, start, rule, TimingModel(args.model), args.trials, args.seed,
        workers=args.workers, step_budget=args.budget,
    )


def _parse_edge_ids(text: str) -> frozenset[int]:
    try:
        return frozenset(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise WalkcoverError(f"bad edge id list {text!r}") from None


# Checks.  Each builds ``(start, rule, target, kind)`` from the parsed
# arguments, the network and the file's orientation: ``target`` is a thunk
# for the value the estimate is held to, or None for no verdict, and
# ``kind`` is the verdict's ``equality`` or ``upper_bound``.


def _commute(args, net, file_orient):
    if args.pair is None:
        raise WalkcoverError("check 'commute' needs --pair")
    x, y = args.pair
    return x, Commute(x, y), lambda: closedform.commute_time(net, x, y), "equality"


def _refined(args, net, file_orient):
    if args.pair is None or args.a_edges is None:
        raise WalkcoverError("check 'refined' needs --pair and --a-edges")
    x, y = args.pair
    spec = SplitSpec(net, _parse_edge_ids(args.a_edges), x, y)
    target = lambda: getattr(closedform.refined_commutes(spec), f"t_{args.kind}")  # noqa: E731
    return x, RefinedCommute(args.kind, spec), target, "equality"


def _exact(make_rule):
    """A check of ``make_rule(args, net, file_orient)`` from the root, held
    to its exact solve."""

    def check(args, net, file_orient):
        rule, model = make_rule(args, net, file_orient), TimingModel(args.model)
        target = lambda: exact.exact_stop_time(net, args.root, rule, model)  # noqa: E731
        return args.root, rule, target, "equality"

    return check


def _bound(make_rule, which):
    """A check of ``make_rule(args, net, file_orient)`` from the root, held
    below ``closedform.cover_bounds(net)[which]``."""

    def check(args, net, file_orient):
        rule = make_rule(args, net, file_orient)
        return args.root, rule, lambda: closedform.cover_bounds(net)[which], "upper_bound"

    return check


def _epochs(mode):
    """Epochs along the root's double-cover walk; directed ones end, in
    expectation, at exactly the edge bound 2m^2, and arc ones have no target."""

    def check(args, net, file_orient):
        order = getattr(args, "order", "ascending")
        walk = tours.construct_double_cover_walk(net, args.root, order)
        if mode == "arc":
            return args.root, tours.EpochSequence(walk, "arc"), None, None
        rule = tours.EpochSequence(walk, "directed", _resolve_orientation(args, net, file_orient))
        return args.root, rule, lambda: closedform.cover_bounds(net)[0], "equality"

    return check


def _edge(args, net, file_orient):
    return EdgeCoverReturn(args.root)


def _arc(args, net, file_orient):
    return ArcCoverReturn(args.root)


def _directed(args, net, file_orient):
    return DirectedCoverReturn(args.root, _resolve_orientation(args, net, file_orient))


def _vertex(args, net, file_orient):
    return VertexCover(args.root, args.with_return)


CHECKS = {
    "commute": _commute,
    "refined": _refined,
    "cre": _exact(_edge),
    "cra": _exact(_arc),
    "vcover": _exact(_vertex),
    "cre-bound": _bound(_edge, 0),
    "cra-bound": _bound(_arc, 1),
    "dcover-bound": _bound(_directed, 0),
    "epochs-directed": _epochs("directed"),
}
VERIFY_CHECKS = tuple(CHECKS)


def _command_check(args, net, file_orient):
    """The check a measuring command reports: its ``verify`` check, or, for
    ``vcover`` and ``epochs --mode arc``, a check with no target."""
    if args.command == "vcover":
        start, rule, _, _ = CHECKS["vcover"](args, net, file_orient)
        return start, rule, None, None
    if args.command == "cover":
        name = {"edge": "cre-bound", "arc": "cra-bound", "directed": "dcover-bound"}[args.mode]
        return CHECKS[name](args, net, file_orient)
    if args.command == "epochs":
        return _epochs(args.mode)(args, net, file_orient)
    return CHECKS[args.command](args, net, file_orient)


def _run_checks(args, net, checks):
    """Per check ``(start, rule, target, kind)``, in order: its estimate,
    then its target and verdict.  Checks of equal start and rule share the
    first one's estimate, which is the same report."""
    reports: list = []
    items = []
    for start, rule, target, kind in checks:
        report = next((r for key, r in reports if key == (start, rule)), None)
        if report is None:
            report = _estimate(args, net, start, rule)
            reports.append(((start, rule), report))
        verdict = None if target is None else verify(report, target(), kind, args.slack)
        items.append((report, verdict))
    return items


def _write(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_items(args, items) -> None:
    renderer = render_csv if args.format == "csv" else render_text
    _write(args, renderer(items))


def _cmd_resist(args) -> int:
    net, _ = _load_network(args)
    x, y = args.pair
    value = effective_resistance(net, x, y)
    if args.format == "text":
        _write(args, format_number(value) + "\n")
    else:
        row = [f"resist(x={x};y={y})", "", "0", "", format_number(value),
               "0", format_number(value), format_number(value), "", "", ""]
        _write(args, CSV_HEADER + "\n" + ",".join(row) + "\n")
    return 0


def _cmd_gen(args) -> int:
    if not args.gen:
        raise WalkcoverError("gen needs --gen SPEC")
    net = generators.from_spec(args.gen)
    _write(args, serialize_network(net))
    return 0


def _dispatch(args) -> int:
    if args.command == "resist":
        return _cmd_resist(args)
    if args.command == "gen":
        return _cmd_gen(args)

    net, file_orient = _load_network(args)
    if args.seed < 0:
        raise WalkcoverError("--seed must be nonnegative")
    if args.trials < 2:
        raise WalkcoverError("--trials must be at least 2")
    if args.budget < 1:
        raise WalkcoverError("--budget must be at least 1")
    if args.workers < 1:
        raise WalkcoverError("--workers must be at least 1")
    if not (math.isfinite(args.slack) and args.slack >= 0):
        raise WalkcoverError("--slack must be a finite number of at least 0")

    if args.command == "verify":
        names = [n.strip() for n in args.check.split(",") if n.strip()]
        if not names:
            raise WalkcoverError("--check got an empty list")
        for name in names:
            if name not in CHECKS:
                raise WalkcoverError(
                    f"unknown check {name!r} (known: {', '.join(VERIFY_CHECKS)})"
                )
        items = _run_checks(args, net, (CHECKS[name](args, net, file_orient) for name in names))
        _emit_items(args, items)
        return 0 if all(v.passed for _, v in items) else 1

    _emit_items(args, _run_checks(args, net, [_command_check(args, net, file_orient)]))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (WalkcoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

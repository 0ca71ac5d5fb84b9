"""Count and time the uniforms named estimates draw, each in a fresh process.

Each estimate runs in a child Python process of its own.  The child first
runs it once with the fused walkers' refill schedule (``walker._refills``)
and rank-row rankers (``walker._rankers``) wrapped to count what they
draw and rank, untimed, then ``repeat`` more times as it is, and prints
the median wall and process CPU time of the timed runs.  One line per
estimate:

    name  steps  fused  drawn  ahead  blocks  grid  median_ms  cpu_median_ms

``steps`` is every trial's steps, ``fused`` those the fused loop walked on
the schedule's uniforms (a lockstep block draws one uniform a step itself,
so its tails are the rest), ``drawn`` the uniforms the schedule drew from
generators, ``ahead`` those the lockstep block drew in numpy for its tails
(each tail's first ``estimate.TAIL_BLOCK`` draws past the step it was
handed off at, within the budget), ``blocks`` the refill blocks the
schedule drew from generators and ``grid`` those of the blocks ranked on
the one-row grid (every block past a trial's first, on rank rows).

    python tools/draw_costs.py [NAME ...]

Names (all of them by default), at seed 1 under ``l2``:

    tree_cover    edge cover-and-return on tree:4 from its root, 24 trials
    tree_epochs   directed epochs on tree:3, 100 trials
    path_commute  commute along a 15-hop unit path, end to end, 100 trials
    lollipop      vertex cover with a return on lollipop:14 from 0, 6 trials
    tails         commute on triangle from 0 to 1, 600 trials: walked in
                  lockstep, with its last trials handed to the fused loop

The package is imported from this checkout's ``src`` unless
``PYTHONPATH`` names another.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from operator import length_hint
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

# name: (network spec, rule, rule arguments, trials, timed repeats after
# the counted run); "epochs" is the directed epoch sequence from vertex 0,
# with edges oriented alternately.
ESTIMATES = {
    "tree_cover": ("tree:4", "EdgeCoverReturn", (0,), 24, 10),
    "tree_epochs": ("tree:3", "epochs", (), 100, 10),
    "path_commute": ("path:" + ",".join(["1"] * 15), "Commute", (0, 15), 100, 20),
    "lollipop": ("lollipop:14", "VertexCover", (0, True), 6, 20),
    "tails": ("triangle", "Commute", (0, 1), 600, 20),
}


def _rule(net, name: str, args: tuple):
    from walkcover import tours, walker
    from walkcover.netmodel import Orientation

    if name != "epochs":
        return getattr(walker, name)(*args)
    orientation = Orientation(tuple(e % 2 for e in range(len(net.edges))))
    return tours.EpochSequence(tours.construct_double_cover_walk(net, 0), "directed", orientation)


def measure(name: str) -> dict:
    """Run ``name`` in this process and return its counts and timings."""
    from walkcover import walker
    from walkcover.estimate import estimate
    from walkcover.generators import from_spec

    spec, rule_name, args, trials, repeat = ESTIMATES[name]
    net = from_spec(spec)
    rule = _rule(net, rule_name, args)
    counts = {"fused": 0, "drawn": 0, "ahead": 0, "blocks": 0, "grid": 0}
    refills, rankers = walker._refills, walker._rankers

    def counted(rand, budget, done=0, *ranks, ahead=()):
        # A tail's numpy-drawn block, when it has one, is block -1.
        first, end, draws = done, done, iter(())
        counts["ahead"] += len(ahead)
        try:
            for k, (end, draws) in enumerate(refills(rand, budget, done, *ranks, ahead=ahead),
                                             -bool(ahead)):
                counts["blocks"] += k >= 0
                yield end, draws
        finally:
            counts["drawn"] += end - first - len(ahead)
            counts["fused"] += end - first - length_hint(draws)

    def counted_rankers(*args):
        first, later = rankers(*args)

        def on_grid(u):
            counts["grid"] += 1
            return later(u)

        return first, on_grid

    def once():
        return estimate(net, 0, rule, walker.TimingModel.L_SQUARED, trials, 1)

    walker._refills, walker._rankers = counted, counted_rankers
    try:
        report = once()
    finally:
        walker._refills, walker._rankers = refills, rankers
    walls, cpus = [], []
    for _ in range(repeat):
        wall, cpu = time.perf_counter(), time.process_time()
        once()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return {
        "name": name,
        "steps": round(report.aux_means["steps"] * trials),
        **counts,
        "median_ms": 1e3 * statistics.median(walls),
        "cpu_median_ms": 1e3 * statistics.median(cpus),
    }


def run(name: str) -> dict:
    """:func:`measure` ``name`` in a fresh child process."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(_SRC))
    out = subprocess.run([sys.executable, __file__, "--child", name], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(measure(argv[1])))
        return 0
    names = argv or list(ESTIMATES)
    unknown = [n for n in names if n not in ESTIMATES]
    if unknown:
        print(f"unknown estimate {unknown[0]!r}; names: {', '.join(ESTIMATES)}", file=sys.stderr)
        return 2
    for name in names:
        row = run(name)
        print(f"{name:12} {row['steps']:9} {row['fused']:9} {row['drawn']:9} {row['ahead']:7} "
              f"{row['blocks']:7} {row['grid']:7} {row['median_ms']:10.3f} "
              f"{row['cpu_median_ms']:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

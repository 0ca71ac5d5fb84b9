"""Time named exact solves, each in a fresh process, with its peak memory.

Each solve runs in a child Python process of its own, so that its peak
resident set (``ru_maxrss``) is its own.  A child solves once untimed,
then ``repeat`` more times, and prints the median and the fastest of the
timed solves (wall and process CPU time) and the process's peak RSS.  A
solve that passes the state cap is timed up to the moment it raises
``StateSpaceTooLarge``.  One line per solve:

    name  result  median_ms  min_ms  cpu_median_ms  peak_mb

    python tools/exact_costs.py [NAME ...]

Names (all of them by default):

    first_passage  first passage along a 4-edge path: 4 states
    band           edge cover-and-return on random:n=8,m=10,seed=4,
                   lmin=0.8,lmax=1.25: 3,286 states
    large          arc cover-and-return on random:n=9,m=11,seed=3:
                   about 600k states
    cap            arc cover-and-return on tree:5, which passes the
                   2**20-state cap
    hub            directed epochs on star:200, forward orientation: a
                   table rule of 401 states at a hub of 200 edges, 40,200
                   states

The package is imported from this checkout's ``src`` unless
``PYTHONPATH`` names another.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

# name: (network spec, rule, rule argument, timed repeats after the untimed one)
SOLVES = {
    "first_passage": ("path:1,1,1,1", "FirstPassage", 4, 400),
    "band": ("random:n=8,m=10,seed=4,lmin=0.8,lmax=1.25", "EdgeCoverReturn", 0, 20),
    "large": ("random:n=9,m=11,seed=3", "ArcCoverReturn", 0, 0),
    "cap": ("tree:5", "ArcCoverReturn", 0, 0),
    "hub": ("star:200", "DirectedEpochs", 0, 0),
}


def _rule(net, name: str, arg: int):
    """``name(arg)`` from :mod:`walkcover.walker`, or, for ``DirectedEpochs``,
    the epochs of the double-cover walk from ``arg`` in the forward
    orientation, as ``walkcover epochs --mode directed`` builds them."""
    from walkcover import tours, walker
    from walkcover.netmodel import Orientation

    if name == "DirectedEpochs":
        walk = tours.construct_double_cover_walk(net, arg)
        return tours.EpochSequence(walk, "directed", Orientation((0,) * len(net.edges)))
    return getattr(walker, name)(arg)


def measure(name: str) -> dict:
    """Solve ``name`` in this process and return its timings and peak RSS."""
    from walkcover.errors import StateSpaceTooLarge
    from walkcover.exact import exact_stop_time
    from walkcover.generators import from_spec

    spec, rule_name, arg, repeat = SOLVES[name]
    net = from_spec(spec)
    rule = _rule(net, rule_name, arg)
    walls, cpus = [], []
    result = ""
    for _ in range(repeat + 1):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            result = exact_stop_time(net, 0, rule).hex()
        except StateSpaceTooLarge:
            result = "too_large"
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    timed = slice(1, None) if repeat else slice(None)
    return {
        "name": name,
        "result": result,
        "median_ms": 1e3 * statistics.median(walls[timed]),
        "min_ms": 1e3 * min(walls[timed]),
        "cpu_median_ms": 1e3 * statistics.median(cpus[timed]),
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
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
    names = argv or list(SOLVES)
    unknown = [n for n in names if n not in SOLVES]
    if unknown:
        print(f"unknown solve {unknown[0]!r}; names: {', '.join(SOLVES)}", file=sys.stderr)
        return 2
    for name in names:
        row = run(name)
        print(f"{name:14} {row['result']:24} {row['median_ms']:10.3f} {row['min_ms']:10.3f} "
              f"{row['cpu_median_ms']:10.3f} {row['peak_mb']:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np

from walkcover.generators import random_network
from walkcover.netmodel import Network, build_network
from walkcover.resistance import SplitSpec


def random_net(seed, max_n=8, lengths=(0.2, 3.0), loops=True, parallel=True) -> Network:
    """Seeded random connected network with modest size."""
    rng = np.random.default_rng((seed, 9090))
    n = int(rng.integers(2, max_n + 1))
    extra = int(rng.integers(0, n))
    return random_network(
        n, n - 1 + extra, lengths,
        allow_loops=loops, allow_parallel=parallel, seed=1000 * seed + 17,
    )


def _gadget(rng, x, y, next_vertex, lengths):
    lo, hi = lengths
    draw = lambda: float(rng.uniform(lo, hi))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        edges = [(x, y, draw()) for _ in range(int(rng.integers(1, 3)))]
    elif kind == 1:
        a = next_vertex
        next_vertex += 1
        edges = [(x, a, draw()), (a, y, draw())]
    else:
        a, b = next_vertex, next_vertex + 1
        next_vertex += 2
        edges = [(x, a, draw()), (a, b, draw()), (b, y, draw())]
    return edges, next_vertex


def random_split_spec(seed, lengths=(0.5, 2.0)) -> SplitSpec:
    """Valid two-terminal split: independent gadgets joined only at 0 and 1."""
    rng = np.random.default_rng((seed, 4242))
    nv = 2
    a_part, nv = _gadget(rng, 0, 1, nv, lengths)
    b_part, nv = _gadget(rng, 0, 1, nv, lengths)
    net = build_network(nv, a_part + b_part)
    return SplitSpec(net, frozenset(range(len(a_part))), 0, 1)


class PresetRng:
    """Feeds a fixed uniform prefix, then a constant; forces chosen arcs.

    ``sizes`` records the size of every block of uniforms asked for.
    """

    def __init__(self, values, pad=0.5):
        self.values = list(values)
        self.pad = pad
        self.sizes = []

    def random(self, n=None):
        if n is None:
            return self.values.pop(0) if self.values else self.pad
        self.sizes.append(n)
        out = []
        for _ in range(n):
            out.append(self.values.pop(0) if self.values else self.pad)
        return np.asarray(out)


def unsamplable_networks() -> dict[str, tuple[Network, str]]:
    """Networks whose lengths lose an arc's step probability at vertex 0 to
    rounding, each with the edge its error names: a row whose partial sums
    reach 1.0 before the last slot, one whose first entry rounds to 0 (and
    whose vertex 2 sums to NaN), and one that rises past 1.0 before its
    last slot is set to 1.0."""
    return {
        "huge": (build_network(3, [(0, 1, 1.0), (0, 2, 1e17), (1, 2, 1.0)]), "edge 1"),
        "tiny": (build_network(3, [(0, 1, 1.0), (0, 2, 1e-320), (1, 2, 1.0)]), "edge 0"),
        "star": (
            build_network(5, [(0, 1, 0.5447527137062477), (0, 2, 0.3), (0, 3, 7.0),
                              (0, 4, 1e17), (1, 2, 1.0)]),
            "edge 3",
        ),
    }

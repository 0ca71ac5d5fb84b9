"""Layer tracing for the benchmark's traced run.

A :class:`Tracer` replaces walkcover's public layer functions *where their
callers bind them* (``walkcover.cli.run_estimate``, the module attribute
``walkcover.exact.exact_stop_time`` that ``cli`` looks up at call time, and so
on) with thin wrappers, and puts every original back when its ``with`` block
ends.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* span wrappers record ``[name, start, end, parent, error]`` for layer calls
  (estimate, exact, closedform, resistance, tours, parsing, rendering, cli);
* counter wrappers at per-trial boundaries (``trial_rng``, ``run``,
  ``build_tables``) only add to call counts and busy time, because a span per
  trial would cost more than the trial.

Forked estimator workers inherit the wrappers, so they count their own
trials.  Their counts travel back to the parent inside the pickled sample
list that ``_trial_block`` returns (see :class:`_Shipped`); their spans are
not shipped.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer tag of each span-wrapped name, keyed by (module, attribute).
SPAN_TARGETS = (
    ("walkcover.estimate", "estimate", "estimate"),
    ("walkcover.estimate", "render_csv", "render"),
    ("walkcover.cli", "run_estimate", "estimate"),
    ("walkcover.cli", "render_csv", "render"),
    ("walkcover.cli", "render_text", "render"),
    ("walkcover.cli", "parse_network_text", "netmodel"),
    ("walkcover.cli", "main", "cli"),
    ("walkcover.exact", "exact_stop_time", "exact"),
    ("walkcover.closedform", "commute_time", "closedform"),
    ("walkcover.closedform", "refined_commutes", "closedform"),
    ("walkcover.closedform", "cover_bounds", "closedform"),
    ("walkcover.closedform", "effective_resistance", "resistance"),
    ("walkcover.closedform", "split_resistances", "resistance"),
    ("walkcover.tours", "construct_double_cover_walk", "tours"),
    ("walkcover.generators", "from_spec", "generators"),
    ("walkcover.generators", "random_network", "generators"),
    ("walkcover.generators", "binary_tree", "generators"),
    ("walkcover.generators", "lollipop", "generators"),
    ("walkcover.generators", "path", "generators"),
    ("walkcover.generators", "star", "generators"),
    ("walkcover.generators", "loop", "generators"),
    ("walkcover.generators", "triangle", "generators"),
    ("walkcover.generators", "parallel_pair", "generators"),
    ("walkcover.netmodel", "build_network", "generators"),
)

# Per-trial boundaries: counted, not spanned.
COUNTER_TARGETS = (
    ("walkcover.estimate", "trial_rng", "rng"),
    ("walkcover.estimate", "run", "run"),
    ("walkcover.estimate", "build_tables", "tables"),
    ("walkcover.exact", "build_tables", "tables_exact"),
    ("walkcover.estimate", "get_context", "pool"),
)

# The tracer whose wrappers are installed.  Module level because a worker's
# counts are merged while the parent unpickles a result, where no caller can
# pass the tracer in.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Installs the wrappers for one ``with`` block and keeps what they record."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.child_counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is already installed")
        try:
            for mod_name, attr, layer in SPAN_TARGETS:
                self._patch(mod_name, attr, self._span_wrapper(layer))
            for mod_name, attr, key in COUNTER_TARGETS:
                self._patch(mod_name, attr, self._counter_wrapper(key))
            self._patch("walkcover.estimate", "_trial_block", lambda fn: _traced_trial_block)
        except BaseException:
            self._restore()
            raise
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None
        self._restore()

    def _patch(self, mod_name: str, attr: str, make) -> None:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def _restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def original(self, mod_name: str, attr: str):
        """The unwrapped function behind an installed wrapper."""
        mod = importlib.import_module(mod_name)
        for m, a, fn in self._saved:
            if m is mod and a == attr:
                return fn
        return getattr(mod, attr)

    # -- wrappers ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span around the block, under the innermost open span."""
        idx = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        except BaseException as exc:
            record[4] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _span_wrapper(self, layer: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(layer):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def _counter_wrapper(self, key: str):
        counts = self.counts
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                counts[key + ".s"] += clock() - t0
                counts[key + ".calls"] += 1
                if key == "run":
                    counts["run.steps"] += out.step_count
                return out
            return wrapper
        return make

    # -- reading ----------------------------------------------------------

    def layer_time(self, layer: str) -> float:
        """Seconds inside ``layer``, counting nested spans of the same layer once."""
        spans = self.spans
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if name != layer:
                continue
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                total += t1 - t0
        return total

    def layer_spans(self, layer: str) -> list[list]:
        return [s for s in self.spans if s[0] == layer]

    def self_time(self, layer: str) -> float:
        """Seconds inside ``layer`` spans not covered by their direct children."""
        child_time = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        return sum(
            (t1 - t0) - child_time[i]
            for i, (name, t0, t1, _, _) in enumerate(self.spans)
            if name == layer
        )

    def total(self, key: str) -> float:
        """A per-trial counter summed over this process and merged workers."""
        return self.counts.get(key, 0.0) + self.child_counts.get(key, 0.0)


def _traced_trial_block(args):
    """Stand-in for ``estimate._trial_block``; returns the worker's counts too."""
    tracer = _ACTIVE
    before = dict(tracer.counts)
    lo, block = tracer.original("walkcover.estimate", "_trial_block")(args)
    delta = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
    return lo, _Shipped(block, delta)


class _Shipped(list):
    """A worker's sample list; unpickling it in the parent merges its counts.

    In-process (``workers == 1``) it is never pickled, so counts the parent
    already holds are not added twice.
    """

    def __init__(self, samples, counts):
        super().__init__(samples)
        self.counts = counts

    def __reduce__(self):
        return (_receive, (list(self), self.counts))


def _receive(samples, counts):
    if _ACTIVE is not None:
        for key, value in counts.items():
            _ACTIVE.child_counts[key] += value
    return samples

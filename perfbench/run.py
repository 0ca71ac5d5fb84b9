"""walkcover benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload short_trials --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it untraced and then traced (see ``spans.py``) and prints
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check and
every output check passed.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
# Set-ups per untraced run: this process's own and then, one after another,
# fresh child processes that set up and exit, so import time is sampled too.
SETUP_SAMPLES = 5
# Reference kernel timings after each set-up phase (see _set_up).
KERNELS_PER_PHASE = 3
# Import time follows the host's speed less than the kernel does: it is
# normalised instead by a reference import, timed in a fresh process, of
# standard-library modules that neither walkcover nor the benchmark uses.
REF_IMPORT = "import xml.dom.minidom, email.mime.multipart, http.server, wave, tarfile, difflib"
# Its time on the unloaded host of REF_NOMINAL_S; sets the unit only.
REF_IMPORT_NOMINAL_S = 0.035


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("short_trials", "long_walks", "verify_exact"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true",
                   help="one check per kind and few trials, for the self-test")
    return p.parse_args(argv)


def blas_threads() -> str:
    """OpenBLAS thread count of numpy's bundled BLAS, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes, setup_s) -> dict:
    """Timings from the normalised latencies (see ``workloads.normalise``)."""
    first = passes[0]
    wall = statistics.median(p.norm_s for p in passes)
    latencies = [s for p in passes for s in p.norm_latencies_s]
    return {
        "setup_s": (setup_s, "s"),
        "norm_wall_s": (wall, "s"),
        "norm_trials_per_s": (first.trials / wall, "1/s"),
        "norm_msteps_per_s": (first.steps / 1e6 / wall, "Msteps/s"),
        "norm_check_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "norm_check_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, setup_tracer, traced, untraced, child_cpu_s, workers) -> dict:
    n = len(traced)
    traced_wall = sum(p.checks_s for p in traced)
    rng_s, rng_calls = tracer.total("rng.s"), tracer.total("rng.calls")
    run_s, trials = tracer.total("run.s"), tracer.total("run.calls")
    steps = tracer.total("run.steps")
    tables_calls = tracer.total("tables.calls") + tracer.total("tables_exact.calls")
    tables_s = tracer.total("tables.s") + tracer.total("tables_exact.s")
    estimate_s = tracer.layer_time("estimate")
    local = tracer.counts
    exact_spans = tracer.layer_spans("exact")
    cli_calls = len(tracer.layer_spans("cli"))

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "estimate.rng_calls": (round(rng_calls / n), "count"),
        "estimate.rng_us_per_trial": (ratio(rng_s, rng_calls) * 1e6, "us"),
        "estimate.rng_share": (rng_s / traced_wall, "ratio"),
        "estimate.self_s": ((estimate_s - local["rng.s"] - local["run.s"]
                             - local["tables.s"]) / n, "s"),
        "estimate.pool_starts": (round(tracer.total("pool.calls") / n), "count"),
        "estimate.fanout_efficiency": (ratio(child_cpu_s, workers * estimate_s), "ratio"),
        "estimate.render_ms": (tracer.layer_time("render") / n * 1e3, "ms"),
        "walker.trials": (round(trials / n), "count"),
        "walker.steps": (round(steps / n), "count"),
        "walker.run_s": (run_s / n, "s"),
        "walker.msteps_per_s": (ratio(steps, run_s) / 1e6, "Msteps/s"),
        "walker.run_us_per_trial": (ratio(run_s, trials) * 1e6, "us"),
        "walker.tables_calls": (round(tables_calls / n), "count"),
        "walker.tables_ms": (tables_s / n * 1e3, "ms"),
        "exact.solves": (round(len(exact_spans) / n), "count"),
        "exact.solve_s": (tracer.layer_time("exact") / n, "s"),
        "exact.max_solve_ms": (max((s[2] - s[1] for s in exact_spans), default=0.0) * 1e3,
                               "ms"),
        "exact.too_large": (round(sum(s[4] == "StateSpaceTooLarge" for s in exact_spans) / n),
                            "count"),
        "resistance.calls": (round(len(tracer.layer_spans("resistance")) / n), "count"),
        "resistance.ms": (tracer.layer_time("resistance") / n * 1e3, "ms"),
        "closedform.calls": (round(len(tracer.layer_spans("closedform")) / n), "count"),
        "closedform.ms": (tracer.layer_time("closedform") / n * 1e3, "ms"),
        "tours.construct_ms": (tracer.layer_time("tours") / n * 1e3, "ms"),
        "netmodel.parse_ms": (tracer.layer_time("netmodel") / n * 1e3, "ms"),
        "generators.build_ms": (setup_tracer.layer_time("generators") * 1e3,
                                "ms"),
        "cli.calls": (round(cli_calls / n), "count"),
        "cli.self_ms_per_call": (ratio(tracer.self_time("cli"), cli_calls) * 1e3, "ms"),
        "trace.overhead_frac": (
            statistics.median(p.norm_s for p in traced)
            / statistics.median(p.norm_s for p in untraced) - 1, "ratio"),
    }


# Per-pass counts that must repeat exactly, from one pass to the next and
# from one run to the next at a fixed seed.
COUNT_KEYS = ("run.calls", "run.steps", "rng.calls", "tables.calls", "tables_exact.calls")


def count_snapshot(tracer) -> dict:
    snap = {k: tracer.total(k) for k in COUNT_KEYS}
    snap["exact.solves"] = len(tracer.layer_spans("exact"))
    return snap


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "walkcover" / "__init__.py").is_file():
        print(f"error: no walkcover sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import spans
    import workloads as wl

    import_s = time.perf_counter() - _T_START
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, spans, numpy, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, spans, numpy, import_s, workdir) -> int:
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={blas_threads()}")
    checks, setup_tracer, setup = _set_up(args, wl, spans, import_s, workdir)
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if not args.trace:
        samples = [setup] + [_child_set_up(args) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(s["norm_s"] for s in samples)
        print("setup s, raw (normalised): " + " ".join(
            f"{s['raw_s']:.3f} ({s['norm_s']:.3f})" for s in samples))

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = wl.run_passes(checks, budget)
    traced, tracer, child_cpu_s = [], None, 0.0
    if args.trace:
        tracer = spans.Tracer()
        snapshots = []
        cpu0 = _children_cpu()
        with tracer:
            traced = wl.run_passes(checks, budget, tracer,
                                   on_pass=lambda: snapshots.append(count_snapshot(tracer)))
        child_cpu_s = _children_cpu() - cpu0
    wl.normalise(untraced)
    wl.normalise(traced)

    # Output checks, outside the timed section.
    problems = []
    reference = untraced[0]
    for p in untraced[1:] + traced:
        if p.text != reference.text:
            problems.append("a later pass produced different report rows")
    rows_sha = wl.digest(reference.text)
    if args.seed == DEFAULT_SEED and not args.smoke:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload)
        if rows_sha != expected:
            problems.append(f"report rows sha256 {rows_sha} != expected {expected}")
    sample = wl.sample_indices(len(checks))
    problems += wl.check_means(checks, reference.outcomes, sample)
    if args.workload == "verify_exact":
        problems += wl.check_worker_parity(checks, reference.outcomes, sample[:3])
    if args.trace:
        deltas = [{k: v - before.get(k, 0) for k, v in after.items()}
                  for before, after in zip([{}] + snapshots, snapshots)]
        if any(d != deltas[0] for d in deltas):
            problems.append(f"per-pass counts differ between traced passes: {deltas}")

    verdicts = [o.passed for p in untraced for o in p.outcomes]
    for check, outcome in zip(checks, reference.outcomes):
        if not outcome.passed:
            print(f"FAILED {check.label}: {outcome.text.strip()}")
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}")
    attempted = len(verdicts) + len(problems)
    failed = verdicts.count(False) + len(problems)
    correct = failed == 0

    latencies = [s for p in untraced for s in p.latencies_s]
    refs = [r for p in untraced for r in p.refs_s]
    print(f"workload {args.workload} seed {args.seed}: {len(checks)} checks, "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(latencies)} latency samples, rows sha256 {rows_sha}")
    print("pass s, raw (normalised): untraced " + " ".join(
        f"{p.checks_s:.3f} ({p.norm_s:.3f})" for p in untraced)
          + (" traced " + " ".join(f"{p.checks_s:.3f} ({p.norm_s:.3f})" for p in traced)
             if traced else ""))
    print(f"raw: wall_s {statistics.median(p.checks_s for p in untraced)} "
          f"check_p50_ms {statistics.median(latencies) * 1e3} "
          f"check_p90_ms {percentile(latencies, 90) * 1e3}")
    print(f"reference kernel ms: median {statistics.median(refs) * 1e3:.4f}, "
          f"min {min(refs) * 1e3:.4f}, max {max(refs) * 1e3:.4f} "
          f"(nominal {wl.REF_NOMINAL_S * 1e3})")
    print(f"failed_frac {failed / attempted} ratio ({failed} of {attempted})")
    if args.trace:
        out = HERE / "out" / f"spans_{args.workload}_{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "error"],
            "setup": setup_tracer.spans, "traced_passes": tracer.spans,
        }), encoding="utf-8")
        print(f"spans written to {out.relative_to(ROOT)}")
        metrics = per_layer(tracer, setup_tracer, traced, untraced, child_cpu_s,
                            wl.VERIFY_WORKERS if args.workload == "verify_exact" else 1)
    else:
        metrics = end_to_end(untraced, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _set_up(args, wl, spans, import_s, workdir):
    """Warm up and build the checks.

    Returns the checks, the tracer of the build, and the raw and normalised
    set-up times.  Warm-up and build are normalised like the checks, by the
    kernel timed a few times after each phase, outside its time; import time
    by the reference import.
    """
    refs = [wl.time_kernel() for _ in range(KERNELS_PER_PHASE)]
    t = time.perf_counter()
    wl.warm_up(workdir)
    warm_s = time.perf_counter() - t
    refs += [wl.time_kernel() for _ in range(KERNELS_PER_PHASE)]
    tracer = spans.Tracer()
    t = time.perf_counter()
    with tracer if args.trace else nullcontext():
        checks = wl.build(args.workload, args.seed, workdir, args.smoke)
    build_s = time.perf_counter() - t
    refs += [wl.time_kernel() for _ in range(KERNELS_PER_PHASE)]
    kernel_s, ref_import_s = statistics.median(refs), _reference_import_s()
    raw_s = import_s + warm_s + build_s
    norm_s = (import_s * REF_IMPORT_NOMINAL_S / ref_import_s
              + (warm_s + build_s) * wl.REF_NOMINAL_S / kernel_s)
    print(f"setup: import {import_s:.3f} s, warm-up {warm_s:.3f} s, build {build_s:.3f} s, "
          f"total {raw_s:.3f} s, kernel median {kernel_s * 1e3:.4f} ms, "
          f"reference import {ref_import_s:.4f} s")
    return checks, tracer, {"raw_s": raw_s, "norm_s": norm_s}


def _reference_import_s() -> float:
    code = f"import time; t = time.perf_counter(); {REF_IMPORT}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout)


def _child_set_up(args) -> dict:
    """The set-up of one fresh process, which exits without running checks."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


if __name__ == "__main__":
    sys.exit(main())

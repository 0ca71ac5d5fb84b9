"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

It runs the benchmark at smoke size (one check per kind, few trials), so it
checks the benchmark's plumbing, not the timings.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
SEED = 5


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def results():
    """Each workload untraced once and traced twice, at one seed."""
    out = {}
    for workload in wl.WORKLOADS:
        for key, trace in (("e2e", 0), ("layer", 1), ("layer2", 1)):
            code, stdout = _bench(workload, trace)
            assert code == 0, stdout
            out[workload, key] = json.loads(stdout.splitlines()[-1])
    return out


def test_declared_metrics_match_metrics_json():
    described = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))["per_layer"]
    assert list(described) == PER_LAYER
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(wl.WORKLOADS)
    for info in described.values():
        assert set(info["moves"]) <= set(END_TO_END)
        assert {info["most_work"], info["little_work"]} <= names


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_emits_every_metric(results, workload):
    e2e, layer = results[workload, "e2e"], results[workload, "layer"]
    assert list(e2e["metrics"]) == END_TO_END
    assert list(layer["metrics"]) == PER_LAYER
    for result in (e2e, layer):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in e2e["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_count_metrics_repeat_exactly(results, workload):
    first = results[workload, "layer"]["metrics"]
    second = results[workload, "layer2"]["metrics"]
    for name in ("walker.trials", "walker.steps", "estimate.rng_calls", "exact.solves",
                 "walker.tables_calls"):
        assert first[name]["value"] == second[name]["value"], name
    # Forked workers report their trials too.
    assert first["walker.trials"]["value"] > 0


def test_perturbed_mean_is_caught(tmp_path):
    checks = wl.build("short_trials", SEED, tmp_path, smoke=True)
    outcomes = wl.run_pass(checks).outcomes
    assert wl.check_means(checks, outcomes, [0]) == []
    args, report = outcomes[0].estimates[0]
    bumped = dataclasses.replace(report, mean=math.nextafter(report.mean, math.inf))
    outcomes[0].estimates[0] = (args, bumped)
    assert len(wl.check_means(checks, outcomes, [0])) == 1


def test_normalise_divides_by_the_local_kernel_time():
    """A host twice as slow for the second half of a run doubles both the
    latencies and the kernel times there; the normalised latencies hold."""
    nominal, window = wl.REF_NOMINAL_S, wl.REF_WINDOW
    n = 4 * window
    slow = [1.0] * (n // 2) + [2.0] * (n // 2)
    passes = [wl.Pass(0.0, [0.01 * f for f in slow[k:k + window]],
                      [nominal * f for f in slow[k:k + window]], [])
              for k in range(0, n, window)]
    wl.normalise(passes)
    latencies = [x for p in passes for x in p.norm_latencies_s]
    # Only checks whose window straddles the change of speed move.
    steady = [x for i, x in enumerate(latencies) if abs(i - n // 2) > window // 2]
    assert steady == pytest.approx([0.01] * len(steady))


def _bound_names():
    targets = spans.SPAN_TARGETS + spans.COUNTER_TARGETS + (
        ("walkcover.estimate", "_trial_block", None),)
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in targets}


def test_tracer_restores_every_name(tmp_path):
    before = _bound_names()
    checks = wl.build("verify_exact", SEED, tmp_path, smoke=True)
    cli_check = next(c for c in checks if "commute" in c.label)
    with spans.Tracer() as tracer:
        wl.run_pass([cli_check], tracer)
    assert tracer.total("run.calls") > 0
    assert _bound_names() == before
    with pytest.raises(KeyError):
        with spans.Tracer():
            raise KeyError("inside the traced block")
    assert _bound_names() == before
    assert spans._ACTIVE is None


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "perfbench")
    code, stdout = _bench("short_trials", 0, cwd=tmp_path)
    assert code != 0
    assert stdout == ""

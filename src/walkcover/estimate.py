"""Monte Carlo experiment harness: seeded trials, aggregation, verdicts.

Reproducibility contract: trial ``i`` of an experiment with master seed ``s``
always runs on its own generator derived from the seed pair ``(s, i)``, so a
report depends only on (seed, trials, rule, model) and never on how trials
were scheduled across workers.  Aggregation reduces the per-trial values in
trial order with compensated summation, which makes reports byte-identical
for any worker count.

:func:`trial_rng` is the definition of trial ``i``'s stream.  The estimator
does not call it per trial: it derives the same PCG64 states for a whole
block of trials in one numpy pass and loads each into one reused generator,
which a test pins to :func:`trial_rng` state by state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Iterable

import numpy as np

from .errors import StepBudgetExceeded
from .netmodel import Network
from .resistance import SplitSpec
from .walker import (
    DEFAULT_STEP_BUDGET,
    RefinedCommute,
    TimingModel,
    VertexCover,
    build_tables,
    run,
)

__all__ = [
    "EstimateReport",
    "ComparisonVerdict",
    "trial_rng",
    "estimate",
    "estimate_refined",
    "estimate_vertex_cover",
    "verify",
    "CSV_HEADER",
    "format_number",
    "render_csv",
    "render_text",
]

Z_95 = 1.96

# Relative allowance added to every verdict's slack, as a multiple of
# max(1, |target|): a zero-variance estimate and an exact target that differ
# only by floating-point rounding must still agree.
ROUNDING_ALLOWANCE = 1e-12


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one trial.

    The 64-bit PCG64 generator is seeded through numpy's SeedSequence hash of
    the ``(seed, index)`` pair; both algorithms are documented and stable.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


# ---------------------------------------------------------------------------
# Bulk stream setup.  ``_trial_states`` derives, for a whole block of trial
# indices at once, the PCG64 (state, inc) that ``trial_rng`` would build, by
# replaying numpy's SeedSequence hash (pool of four 32-bit words) and
# PCG64's seeding step on uint32/uint64 arrays.  Pool words are plain ints
# while they depend on the seed alone and arrays once an index word is mixed
# in; the helpers below accept either.
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645

# Running hash constants: entry k is the constant before the k-th hash call.
# SeedSequence makes 16 ``hashmix`` calls for an entropy of up to four words
# (four more per extra word) and 8 output hashes for ``generate_state(4,
# uint64)``.
_HASH_A = [_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK32 for k in range(17)]
_HASH_B = [_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32 for k in range(9)]


def _hash_a(k: int) -> int:
    return _HASH_A[k] if k < len(_HASH_A) else _INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK32


def _hashmix(value, k: int):
    """SeedSequence's ``hashmix`` as its ``k``-th call."""
    value = (value ^ _hash_a(k)) * _hash_a(k + 1) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    # Each product is masked first so that an int operand stays in uint32
    # range when the other operand is an array.
    result =((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, low word first, as SeedSequence
    splits each entropy entry (``0`` is one zero word)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_pool(entropy: list) -> list:
    """SeedSequence's ``mix_entropy`` into a pool of four words."""
    pool = []
    for i in range(_POOL_SIZE):
        pool.append(_hashmix(entropy[i] if i < len(entropy) else 0, i))
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], calls))
                calls += 1
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, calls))
            calls += 1
    return pool


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (uint64 array by int)."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_seed(pool: list) -> tuple[list[int], list[int]]:
    """``generate_state(4, uint64)`` from a pool, then ``pcg64_set_seed``."""
    out = []
    for k in range(8):
        value = (pool[k % _POOL_SIZE] ^ _HASH_B[k]) * _HASH_B[k + 1] & _MASK32
        out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    # state = 0; step (state = inc); state += initstate; step again.
    s_lo = inc_lo + init_lo
    s_hi = inc_hi + init_hi + (s_lo < inc_lo)
    t_lo = s_lo * _PCG_MULT_LO
    t_hi = _mulhi64(s_lo, _PCG_MULT_LO) + s_lo * _PCG_MULT_HI + s_hi * _PCG_MULT_LO
    state_lo = t_lo + inc_lo
    state_hi = t_hi + inc_hi + (state_lo < t_lo)
    return (
        [hi << 64 | lo for hi, lo in zip(state_hi.tolist(), state_lo.tolist())],
        [hi << 64 | lo for hi, lo in zip(inc_hi.tolist(), inc_lo.tolist())],
    )


def _trial_states(seed: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """PCG64 ``(state, inc)`` of ``trial_rng(seed, i)`` for each ``i`` in
    ``[lo, hi)``, as two lists of 128-bit ints.

    The entropy of ``SeedSequence((seed, i))`` is the words of ``seed`` then
    the words of ``i``.  Indices are taken in runs that share their words
    above the lowest, so that word is the only array.
    """
    seed_words = _uint32_words(seed)
    states: list[int] = []
    incs: list[int] = []
    a = lo
    while a < hi:
        b = min(hi, (a | _MASK32) + 1)
        low = np.arange(a & _MASK32, (b - 1 & _MASK32) + 1, dtype=np.uint32)
        upper = _uint32_words(a >> 32) if a > _MASK32 else []
        run_states, run_incs = _pcg64_seed(_seed_pool(seed_words + [low] + upper))
        states += run_states
        incs += run_incs
        a = b
    return states, incs


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated Monte Carlo result for one rule under one timing model."""

    rule: str
    model: TimingModel
    trials: int
    seed: int
    mean: float
    stderr: float
    ci95: tuple[float, float]
    aux_means: dict = field(default_factory=dict)

    @property
    def ci_lo(self) -> float:
        return self.ci95[0]

    @property
    def ci_hi(self) -> float:
        return self.ci95[1]


@dataclass(frozen=True)
class ComparisonVerdict:
    """An estimate held against an exact target at a sigma-scaled slack."""

    estimate: EstimateReport
    target: float
    kind: str  # "equality" or "upper_bound"
    slack_sigmas: float
    passed: bool


def _trial_block(args) -> tuple[int, list[tuple[float, int, int]]]:
    net, start, rule, model, seed, lo, hi, budget = args
    tables = build_tables(net, model)
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    out: list[tuple[float, int, int]] = []
    for i, state, inc in zip(range(lo, hi), *_trial_states(seed, lo, hi)):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        try:
            res = run(net, start, rule, model, rng, step_budget=budget, tables=tables)
        except StepBudgetExceeded as exc:
            raise StepBudgetExceeded(f"trial {i}: {exc}") from None
        aux = res.auxiliary or {}
        out.append((res.stop_time, res.step_count, aux.get("commute_count", -1)))
    return lo, out


def _collect(net, start, rule, model, trials, seed, budget, workers):
    workers = max(1, min(int(workers), trials))
    if workers == 1:
        _, block = _trial_block((net, start, rule, model, seed, 0, trials, budget))
        return block
    bounds = [round(trials * k / workers) for k in range(workers + 1)]
    jobs = [
        (net, start, rule, model, seed, bounds[k], bounds[k + 1], budget)
        for k in range(workers)
        if bounds[k] < bounds[k + 1]
    ]
    with get_context("fork").Pool(workers) as pool:
        parts = pool.map(_trial_block, jobs)
    ordered: list[tuple[float, int, int]] = []
    for _, block in sorted(parts, key=lambda p: p[0]):
        ordered.extend(block)
    return ordered


def _aggregate(rule_label, model, trials, seed, samples) -> EstimateReport:
    times = [s[0] for s in samples]
    mean = math.fsum(times) / trials
    var = math.fsum((x - mean) ** 2 for x in times) / (trials - 1)
    stderr = math.sqrt(var / trials)
    aux = {"steps": math.fsum(s[1] for s in samples) / trials}
    if samples and samples[0][2] >= 0:
        aux["commutes"] = math.fsum(s[2] for s in samples) / trials
    return EstimateReport(
        rule=rule_label,
        model=model,
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        ci95=(mean - Z_95 * stderr, mean + Z_95 * stderr),
        aux_means=aux,
    )


def estimate(
    net: Network,
    start: int,
    rule,
    model: TimingModel,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EstimateReport:
    """Run ``trials`` independent walks and aggregate their stop times.

    Args:
        net: network to walk on (shared read-only across workers).
        start: start vertex; must match the rule's anchor when it has one.
        rule: any stopping rule.
        model: timing model charged per traversal.
        trials: number of independent trials, at least 2.
        seed: master seed; trial ``i`` uses the ``(seed, i)`` stream.
        workers: process fan-out; the report is identical for any value.
        step_budget: per-trial hard cap, propagated with the trial index on
            failure.

    Returns:
        An :class:`EstimateReport` with mean, standard error, and 95% CI.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if step_budget < 1:
        raise ValueError(f"step budget must be at least 1, got {step_budget}")
    samples = _collect(net, start, rule, model, trials, seed, step_budget, workers)
    return _aggregate(rule.label(), model, trials, seed, samples)


def estimate_refined(
    spec: SplitSpec,
    kind: str,
    model: TimingModel,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EstimateReport:
    """Monte Carlo mean of one refined-commute time on a validated split."""
    rule = RefinedCommute(kind, spec)
    return estimate(
        spec.network, spec.x, rule, model, trials, seed,
        workers=workers, step_budget=step_budget,
    )


def estimate_vertex_cover(
    net: Network,
    root: int,
    with_return: bool,
    model: TimingModel,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> EstimateReport:
    """Monte Carlo mean time to visit every vertex (and return when asked)."""
    rule = VertexCover(root, with_return)
    return estimate(
        net, root, rule, model, trials, seed,
        workers=workers, step_budget=step_budget,
    )


def verify(
    report: EstimateReport,
    target: float,
    kind: str = "equality",
    slack_sigmas: float = 3.0,
) -> ComparisonVerdict:
    """Compare an estimate against an exact target.

    ``equality`` passes when the mean sits within ``slack_sigmas`` standard
    errors of the target; ``upper_bound`` passes when the mean does not
    exceed the target by more than the slack.  Both kinds widen the slack by
    ``ROUNDING_ALLOWANCE * max(1, |target|)`` for rounding.  Targets are
    expected to come from the exact layer, never from constants baked into
    callers.
    """
    if kind not in ("equality", "upper_bound"):
        raise ValueError(f"unknown comparison kind {kind!r}")
    slack = slack_sigmas * report.stderr + ROUNDING_ALLOWANCE * max(1.0, abs(target))
    if kind == "equality":
        passed = abs(report.mean - target) <= slack
    else:
        passed = report.mean <= target + slack
    return ComparisonVerdict(report, float(target), kind, slack_sigmas, passed)


# ---------------------------------------------------------------------------
# Report rendering.  One row per (report, optional verdict); all floats go
# through the same 6-significant-digit format so identical runs are
# byte-identical.
# ---------------------------------------------------------------------------

CSV_HEADER = "rule,model,trials,seed,mean,stderr,ci_lo,ci_hi,target,kind,pass"


def format_number(x: float) -> str:
    return f"{x:.6g}"


def _row_fields(item) -> list[str]:
    report, verdict = item
    fields = [
        report.rule,
        report.model.value if isinstance(report.model, TimingModel) else str(report.model),
        str(report.trials),
        str(report.seed),
        format_number(report.mean),
        format_number(report.stderr),
        format_number(report.ci_lo),
        format_number(report.ci_hi),
    ]
    if verdict is None:
        fields += ["", "", ""]
    else:
        fields += [
            format_number(verdict.target),
            verdict.kind,
            "true" if verdict.passed else "false",
        ]
    return fields


def render_csv(items: Iterable[tuple[EstimateReport, ComparisonVerdict | None]]) -> str:
    lines = [CSV_HEADER]
    lines += [",".join(_row_fields(item)) for item in items]
    return "\n".join(lines) + "\n"


def render_text(items: Iterable[tuple[EstimateReport, ComparisonVerdict | None]]) -> str:
    blocks = []
    for report, verdict in items:
        lines = [
            f"rule:    {report.rule}",
            f"model:   {report.model.value}",
            f"trials:  {report.trials}",
            f"seed:    {report.seed}",
            f"mean:    {format_number(report.mean)}",
            f"stderr:  {format_number(report.stderr)}",
            f"ci95:    [{format_number(report.ci_lo)}, {format_number(report.ci_hi)}]",
        ]
        if verdict is not None:
            lines += [
                f"target:  {format_number(verdict.target)} ({verdict.kind})",
                f"slack:   {format_number(verdict.slack_sigmas)} sigma",
                f"pass:    {'true' if verdict.passed else 'false'}",
            ]
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks)) + "\n"

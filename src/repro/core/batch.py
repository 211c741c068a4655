"""Batched Monte-Carlo runs: seed derivation, early stopping, aggregation.

One simulated run is weak evidence; the experiments (and the benchmarks
behind Figures 1 and 2) always aggregate many runs.  This module provides the
shared machinery:

* :func:`derive_seed` — deterministic per-run seeds from a base seed, via
  SHA-256, so run ``i`` of a batch is reproducible in isolation and batches
  with different base seeds are statistically independent;
* :class:`BatchResult` — verdict distribution, step percentiles and the
  consensus verdict of a batch (the same agree/disagree semantics as
  ``SimulationEngine.majority_vote``);
* early stopping on a *consensus quorum*: once some decided verdict has been
  observed in at least ``quorum`` of the planned runs, the remaining runs are
  skipped.  This is a speed/coverage trade-off: the skipped runs could not
  have flipped the batch to the *opposite* decided verdict, but one of them
  could have disagreed and surfaced ``INCONSISTENT`` (the signal that the
  automaton violates consistency or the stabilisation heuristic fired
  early) — quorum batches give up some of that detection power.

The entry points are ``SimulationEngine.run_many`` (graph instances) and
``PopulationProtocol.run_many`` (clique populations); both return a
:class:`BatchResult`.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass

from repro.core.results import RunResult, Verdict
from repro.obs.metrics import get_metrics

_DECIDED = (Verdict.ACCEPT, Verdict.REJECT)


def derive_seed(base_seed: int, index: int) -> int:
    """A deterministic 63-bit seed for run ``index`` of a batch.

    Hash-based (SHA-256) rather than ``base_seed + index`` so that
    overlapping arithmetic ranges of base seeds do not produce correlated
    batches.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class BatchResult:
    """Aggregate outcome of a batch of Monte-Carlo runs.

    ``verdicts``/``steps`` are parallel lists with one entry per executed
    run; ``results`` retains the full :class:`RunResult` objects when the
    caller asked for them (they are dropped by default — a million-run batch
    should not hold a million final configurations alive).
    """

    verdicts: list[Verdict]
    steps: list[int]
    planned_runs: int
    base_seed: int
    stopped_early: bool = False
    results: list[RunResult] | None = None

    # -- verdict aggregation -------------------------------------------- #
    @property
    def runs_executed(self) -> int:
        """Runs actually executed (< ``planned_runs`` after a quorum stop)."""
        return len(self.verdicts)

    @property
    def verdict_counts(self) -> dict[Verdict, int]:
        """Histogram of the executed runs' verdicts."""
        return dict(Counter(self.verdicts))

    @property
    def decided_runs(self) -> int:
        """Executed runs that reached a decided (accept/reject) verdict."""
        return sum(1 for v in self.verdicts if v in _DECIDED)

    @property
    def consensus(self) -> Verdict:
        """The batch verdict: agreement of the decided runs.

        ``UNDECIDED`` if no run decided, the common verdict if all decided
        runs agree, and ``INCONSISTENT`` otherwise (evidence that either the
        automaton violates the consistency condition or the stabilisation
        heuristic fired too early).
        """
        decided = [v for v in self.verdicts if v in _DECIDED]
        if not decided:
            return Verdict.UNDECIDED
        if all(v is decided[0] for v in decided):
            return decided[0]
        return Verdict.INCONSISTENT

    def acceptance_rate(self) -> float:
        """Fraction of executed runs that accepted."""
        if not self.verdicts:
            return 0.0
        return sum(1 for v in self.verdicts if v is Verdict.ACCEPT) / len(self.verdicts)

    # -- step statistics ------------------------------------------------- #
    def step_percentile(self, percentile: float) -> float:
        """Linear-interpolated percentile of the per-run step counts."""
        if not self.steps:
            raise ValueError("no runs executed")
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self.steps)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = percentile / 100 * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def mean_steps(self) -> float:
        """Arithmetic mean of the per-run step counts."""
        if not self.steps:
            raise ValueError("no runs executed")
        return sum(self.steps) / len(self.steps)

    def summary(self) -> str:
        """One-line human-readable digest, used by benchmarks and examples."""
        counts = ", ".join(
            f"{verdict.value}={count}"
            for verdict, count in sorted(
                self.verdict_counts.items(), key=lambda item: item[0].value
            )
        )
        tail = " (stopped early on quorum)" if self.stopped_early else ""
        return (
            f"{self.runs_executed}/{self.planned_runs} runs [{counts}] "
            f"consensus={self.consensus.value} "
            f"steps p50={self.step_percentile(50):.0f} "
            f"p90={self.step_percentile(90):.0f} max={max(self.steps)}{tail}"
        )


def quorum_target(runs: int, quorum: float | None) -> int | None:
    """Number of agreeing decided runs after which a batch may stop early."""
    if quorum is None:
        return None
    if not 0 < quorum <= 1:
        raise ValueError("quorum must be a fraction in (0, 1]")
    return max(1, math.ceil(runs * quorum))


def collect_batch(
    outcomes,
    runs: int,
    base_seed: int,
    quorum: float | None = None,
    min_runs: int = 1,
    keep_results: bool = False,
) -> BatchResult:
    """Drain ``outcomes`` — an iterable of (verdict, steps, result) — into a batch.

    Stops consuming once some decided verdict has reached the quorum target
    (and at least ``min_runs`` runs have executed).  The iterable is expected
    to be lazy so skipped runs are never simulated.
    """
    target = quorum_target(runs, quorum)
    verdicts: list[Verdict] = []
    steps: list[int] = []
    results: list[RunResult] | None = [] if keep_results else None
    counts: dict[Verdict, int] = {}
    stopped_early = False
    for verdict, step_count, result in outcomes:
        verdicts.append(verdict)
        steps.append(step_count)
        counts[verdict] = counts.get(verdict, 0) + 1
        if results is not None and result is not None:
            results.append(result)
        if (
            target is not None
            and len(verdicts) >= min_runs
            and len(verdicts) < runs
            and any(counts.get(v, 0) >= target for v in _DECIDED)
        ):
            stopped_early = True
            break
    if stopped_early:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("batch.quorum_stops").inc()
            metrics.counter("batch.runs_skipped_by_quorum").inc(runs - len(verdicts))
    return BatchResult(
        verdicts=verdicts,
        steps=steps,
        planned_runs=runs,
        base_seed=base_seed,
        stopped_early=stopped_early,
        results=results,
    )

"""Simulation-backend scaling: count-based vs per-node on large cliques.

The acceptance series for the backend architecture:

* a 10,000-agent clique *majority* instance (local-majority dynamics, the
  clique counterpart of the paper's majority workloads) simulated by the
  count-based backend at least 20× faster than the per-node reference —
  in practice the gap is 2–3 orders of magnitude, because a per-node step
  on an ``n``-clique costs O(n) while a count-based step costs O(|Q|);
* an exact end-to-end comparison at a size the per-node backend can still
  finish, asserting the two backends reach the same verdict;
* the batched Monte-Carlo runner with quorum early-stopping on a population
  two orders of magnitude beyond the seed's experiments;
* the count-vector population-protocol engine at 10⁴ agents;
* the **pernode section** (``@pytest.mark.slow``): the compiled per-node
  engine (:mod:`repro.core.compile`) against the reference loop on a
  2,000-node *cycle* — a family the count backend cannot take — asserting a
  ≥ 10× speedup over the *identical* trajectory, plus per-step cost
  measurements at two sizes showing the compiled engine's cost is O(deg)
  while the reference's grows with n;
* the **batch section** (``@pytest.mark.batch``): the count-level lockstep
  batch engine (:mod:`repro.core.vector_batch`) against the sequential
  per-run loop at B ∈ {1, 2, 4, 8, 16, 32, 256, 2048}, asserting ≥ 5×
  runs/sec at B=2048 on a count-eligible clique scenario and byte-identical
  batches throughout;
  plus the non-clique series: the lockstep per-node engine
  (:mod:`repro.core.vector_pernode`) on the 2,000-node cycle majority
  instance, asserting ≥ 3× runs/sec at B=512.

The measurement code is shared with ``python -m repro bench``
(:mod:`repro.experiments.backends_bench`), and every stat collected here is
written to ``BENCH_backends.json`` at the end of the session
(:mod:`repro.experiments.benchjson`), so the perf trajectory is machine
readable instead of vanishing into the console.

Populations this size need :class:`repro.core.graphs.ImplicitCliqueGraph`;
an explicit 10⁴-node clique would materialise ~5·10⁷ edge objects.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core import SimulationEngine, Verdict, implicit_clique_graph
from repro.core.labels import LabelCount
from repro.constructions import exists_label_machine
from repro.experiments.backends_bench import (
    batch_throughput,
    compare_backends,
    compare_pernode_backends,
    end_to_end_comparison,
    pernode_batch_throughput,
    pernode_step_cost_scaling,
)
from repro.experiments.benchjson import write_bench_json
from repro.population import threshold_protocol

#: Stats accumulated by the tests in this module; written out at session end.
_BENCH_ENTRIES: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write ``BENCH_backends.json`` (repo root) after the module's tests ran."""
    yield
    if _BENCH_ENTRIES:
        write_bench_json(
            Path(__file__).resolve().parent.parent / "BENCH_backends.json",
            "backends",
            _BENCH_ENTRIES,
            meta={"source": "benchmarks/bench_backends_scaling.py"},
        )


def test_count_backend_10k_clique_majority_speedup(benchmark, ab):
    """Acceptance criterion: ≥ 20× on a 10,000-agent clique majority instance."""
    stats = benchmark.pedantic(
        compare_backends,
        args=(ab, 10_000, 5_500, 800, 400_000),
        rounds=1,
        iterations=1,
    )
    _BENCH_ENTRIES.append({"name": "count-vs-per-node-estimated", **stats})
    assert stats["verdict"] is Verdict.ACCEPT
    assert stats["speedup"] >= 20, f"only {stats['speedup']:.1f}x"
    print(
        f"\n[backends] n=10,000 clique majority: count backend finished "
        f"{stats['count_steps']} steps in {stats['count_time']:.3f}s; per-node needs "
        f"{stats['per_node_time']:.3f}s for just {stats['per_node_budget']} steps "
        f"→ ≈{stats['speedup']:.0f}× faster end-to-end"
    )


def test_backends_agree_end_to_end(benchmark, ab):
    """At a per-node-feasible size both backends stabilise to the same verdict."""
    stats = benchmark.pedantic(
        end_to_end_comparison, args=(ab, 600, 330), rounds=1, iterations=1
    )
    _BENCH_ENTRIES.append({"name": "count-vs-per-node-end-to-end", "n": 600, **stats})
    assert stats["verdicts"]["count"] is Verdict.ACCEPT
    assert stats["verdicts"]["per-node"] is Verdict.ACCEPT
    assert stats["speedup"] >= 20, f"only {stats['speedup']:.1f}x"
    print(
        f"\n[backends] n=600 end-to-end: per-node {stats['timings']['per-node']:.3f}s, "
        f"count {stats['timings']['count']:.3f}s (≈{stats['speedup']:.0f}×), same verdict"
    )


def test_batched_runner_with_quorum(benchmark, ab):
    """run_many on a 5,000-node implicit clique: quorum early-stop + stats."""
    machine = exists_label_machine(ab, "a")
    graph = implicit_clique_graph(ab, ["a"] * 5 + ["b"] * 4_995)
    engine = SimulationEngine(max_steps=500_000, stability_window=200, backend="auto")

    def run():
        start = time.perf_counter()
        batch = engine.run_many(machine, graph, runs=20, base_seed=0, quorum=0.5)
        return batch, time.perf_counter() - start

    batch, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    _BENCH_ENTRIES.append(
        {
            "name": "batched-runner-quorum",
            "n": 5_000,
            "runs_executed": batch.runs_executed,
            "planned_runs": batch.planned_runs,
            "consensus": batch.consensus,
            "stopped_early": batch.stopped_early,
            "wall_time": elapsed,
        }
    )
    assert batch.consensus is Verdict.ACCEPT
    assert batch.stopped_early
    print(f"\n[backends] batch on n=5,000 clique: {batch.summary()}")


@pytest.mark.slow
def test_compiled_pernode_cycle_speedup(benchmark, ab):
    """Acceptance criterion: ≥ 10× compiled-vs-reference on a 2,000-node cycle.

    Both engines run the *same* 20,000-step trajectory (they consume the
    same schedule stream), so the wall-time ratio is a clean per-step
    speedup and the equal outcomes double as a differential check.
    """
    stats = benchmark.pedantic(
        compare_pernode_backends, args=(ab, 2_000, 1_100, 20_000), rounds=1, iterations=1
    )
    _BENCH_ENTRIES.append({"name": "pernode-cycle-compiled-vs-reference", **stats})
    assert stats["identical_runs"], "compiled and reference runs diverged"
    assert stats["speedup"] >= 10, f"only {stats['speedup']:.1f}x"
    print(
        f"\n[backends] n=2,000 cycle majority, 20,000 identical steps: reference "
        f"{stats['timings']['per-node']:.3f}s, compiled "
        f"{stats['timings']['compiled']:.3f}s → ≈{stats['speedup']:.0f}× faster "
        f"({stats['reference_us_per_step']:.1f} vs "
        f"{stats['compiled_us_per_step']:.1f} µs/step)"
    )


@pytest.mark.slow
def test_compiled_pernode_step_cost_is_degree_bound(benchmark, ab):
    """Per-step cost on a cycle: reference grows ~linearly in n, compiled stays flat."""
    stats = benchmark.pedantic(
        pernode_step_cost_scaling,
        args=(ab, 2_000, 8_000, 20_000, 4_000),
        rounds=1,
        iterations=1,
    )
    _BENCH_ENTRIES.append({"name": "pernode-cycle-step-cost-scaling", **stats})
    # 4× the nodes: the reference per-step cost must grow strictly faster
    # than the compiled engine's (O(n) vs O(deg) with deg constant).
    assert stats["compiled_cost_ratio"] < stats["reference_cost_ratio"], stats
    print(
        f"\n[backends] cycle per-step cost n=2,000→8,000: reference "
        f"{stats['reference_us_per_step'][0]:.1f}→{stats['reference_us_per_step'][1]:.1f} µs "
        f"(×{stats['reference_cost_ratio']:.1f}), compiled "
        f"{stats['compiled_us_per_step'][0]:.1f}→{stats['compiled_us_per_step'][1]:.1f} µs "
        f"(×{stats['compiled_cost_ratio']:.1f})"
    )


@pytest.mark.batch
def test_vectorized_batch_throughput(benchmark, ab):
    """Acceptance criterion: ≥ 5× runs/sec at B=2048 on a count-eligible clique.

    The count-level lockstep engine runs all B seeds of a ``run_many`` batch
    side by side (shared successor-graph memoisation, one scalar streak
    driver per row); the sequential per-run loop is the oracle it must beat
    *and* byte-identically reproduce — the ``identical_batches`` flag
    asserts both on every entry.
    """
    stats = benchmark.pedantic(
        batch_throughput,
        args=(
            "clique-majority",
            {"a": 3_000, "b": 600},
            {"max_steps": 200_000, "stability_window": 200},
        ),
        rounds=1,
        iterations=1,
    )
    _BENCH_ENTRIES.extend(stats)
    for entry in stats:
        assert entry["identical_batches"], f"batch diverged at B={entry['runs']}"
    largest = stats[-1]
    assert largest["runs"] == 2048
    assert largest["speedup"] >= 5, f"only {largest['speedup']:.1f}x at B=2048"
    for entry in stats:
        print(
            f"\n[batch] clique-majority n=3,600 B={entry['runs']}: sequential "
            f"{entry['sequential_runs_per_sec']:.0f} runs/s, vectorized "
            f"{entry['vectorized_runs_per_sec']:.0f} runs/s "
            f"(≈{entry['speedup']:.1f}×, identical batches)"
        )


@pytest.mark.batch
def test_vectorized_batch_population_throughput(benchmark, ab):
    """The population series of the batch section — recorded, not gated.

    Per-interaction work is tiny on population protocols, so the lockstep
    win is the shared pair tables and node analysis amortising over B (no
    ≥ 5× floor here; byte-identity is still asserted on every entry).  This
    keeps the committed full-scale artifact's ``batch`` section the same
    shape as ``python -m repro bench``'s (both series, every batch size).
    """
    stats = benchmark.pedantic(
        batch_throughput,
        args=(
            "population-threshold",
            {"a": 60, "b": 40, "k": 3},
            {"max_steps": 200_000},
        ),
        rounds=1,
        iterations=1,
    )
    _BENCH_ENTRIES.extend(stats)
    for entry in stats:
        assert entry["identical_batches"], f"batch diverged at B={entry['runs']}"
        print(
            f"\n[batch] population-threshold n=100 B={entry['runs']}: sequential "
            f"{entry['sequential_runs_per_sec']:.0f} runs/s, vectorized "
            f"{entry['vectorized_runs_per_sec']:.0f} runs/s "
            f"(≈{entry['speedup']:.1f}×, identical batches)"
        )


@pytest.mark.batch
def test_lockstep_pernode_batch_throughput(benchmark, ab):
    """Acceptance criterion: ≥ 3× runs/sec at B=512 on the n=2,000 cycle majority.

    The non-clique counterpart of the count-level batch benchmark: all B
    seeds of the compiled per-node engine run in lockstep (shared memoised
    view table, per-row O(deg) configuration updates, per-row streak
    deadlines), against the sequential per-run loop it must beat *and*
    byte-identically reproduce (``identical_batches`` asserts both on every
    entry).
    """
    stats = benchmark.pedantic(
        pernode_batch_throughput,
        args=(ab, 2_000, 1_100, 8_000),
        rounds=1,
        iterations=1,
    )
    _BENCH_ENTRIES.extend(stats)
    for entry in stats:
        assert entry["identical_batches"], f"batch diverged at B={entry['runs']}"
    largest = stats[-1]
    assert largest["runs"] == 512
    assert largest["speedup"] >= 3, f"only {largest['speedup']:.1f}x at B=512"
    for entry in stats:
        print(
            f"\n[batch] cycle-majority n=2,000 B={entry['runs']}: sequential "
            f"{entry['sequential_runs_per_sec']:.0f} runs/s, lockstep "
            f"{entry['vectorized_runs_per_sec']:.0f} runs/s "
            f"(≈{entry['speedup']:.1f}×, identical batches)"
        )


def test_population_count_engine_10k_agents(benchmark, ab):
    """The population-protocol count engine at 10⁴ agents (threshold a ≥ 3)."""
    protocol = threshold_protocol(ab, "a", 3)
    count = LabelCount.from_mapping(ab, {"a": 5_000, "b": 5_000})

    def run():
        start = time.perf_counter()
        verdict, steps = protocol.simulate(
            count, max_steps=20_000_000, seed=3, method="counts"
        )
        return verdict, steps, time.perf_counter() - start

    verdict, steps, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    _BENCH_ENTRIES.append(
        {
            "name": "population-count-engine",
            "agents": 10_000,
            "verdict": verdict,
            "steps": steps,
            "wall_time": elapsed,
        }
    )
    assert verdict is Verdict.ACCEPT
    print(
        f"\n[backends] population threshold(a≥3), 10,000 agents: {verdict.value} "
        f"after {steps} interactions in {elapsed:.3f}s (count engine)"
    )

"""Tests for the batched Monte-Carlo runner (run_many / BatchResult)."""

from __future__ import annotations

import pytest

from repro.core import (
    Alphabet,
    BatchResult,
    SimulationEngine,
    Verdict,
    automaton,
    clique_graph,
    cycle_graph,
    derive_seed,
    implicit_clique_graph,
)
from repro.core.labels import LabelCount
from repro.constructions import exists_label_machine
from repro.population import four_state_majority


@pytest.fixture
def ab():
    return Alphabet.of("a", "b")


@pytest.fixture
def flood_auto(ab):
    return automaton(exists_label_machine(ab, "a"), "dAF")


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(17, 3) == derive_seed(17, 3)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(base, index) for base in range(4) for index in range(16)}
        assert len(seeds) == 64

    def test_nonnegative_63_bit(self):
        for index in range(32):
            seed = derive_seed(123, index)
            assert 0 <= seed < 2**63


class TestRunMany:
    def test_batch_is_deterministic(self, flood_auto, ab):
        engine = SimulationEngine(max_steps=2_000, stability_window=50)
        graph = cycle_graph(ab, ["a", "b", "b", "b"])
        one = engine.run_many(flood_auto, graph, runs=6, base_seed=3)
        two = engine.run_many(flood_auto, graph, runs=6, base_seed=3)
        assert one.verdicts == two.verdicts
        assert one.steps == two.steps

    def test_run_i_independent_of_batch_size(self, flood_auto, ab):
        """Derived seeds make run ``i`` reproducible regardless of the batch."""
        engine = SimulationEngine(max_steps=2_000, stability_window=50)
        graph = cycle_graph(ab, ["a", "b", "b", "b"])
        small = engine.run_many(flood_auto, graph, runs=3, base_seed=9)
        large = engine.run_many(flood_auto, graph, runs=6, base_seed=9)
        assert small.verdicts == large.verdicts[:3]
        assert small.steps == large.steps[:3]

    def test_consensus_and_statistics(self, flood_auto, ab):
        engine = SimulationEngine(max_steps=2_000, stability_window=50)
        graph = cycle_graph(ab, ["a", "b", "b", "b"])
        batch = engine.run_many(flood_auto, graph, runs=8, base_seed=0)
        assert batch.consensus is Verdict.ACCEPT
        assert batch.runs_executed == 8
        assert batch.verdict_counts[Verdict.ACCEPT] == 8
        assert batch.acceptance_rate() == 1.0
        p50 = batch.step_percentile(50)
        p90 = batch.step_percentile(90)
        assert min(batch.steps) <= p50 <= p90 <= max(batch.steps)
        assert str(int(p50)) in batch.summary() or "p50" in batch.summary()

    def test_quorum_early_stop(self, flood_auto, ab):
        engine = SimulationEngine(max_steps=2_000, stability_window=50)
        graph = cycle_graph(ab, ["a", "b", "b", "b"])
        batch = engine.run_many(flood_auto, graph, runs=10, base_seed=0, quorum=0.3)
        assert batch.stopped_early
        assert batch.runs_executed < batch.planned_runs
        assert batch.consensus is Verdict.ACCEPT

    def test_keep_results_retains_run_objects(self, flood_auto, ab):
        engine = SimulationEngine(max_steps=2_000, stability_window=50)
        graph = cycle_graph(ab, ["a", "b", "b", "b"])
        batch = engine.run_many(flood_auto, graph, runs=3, base_seed=0, keep_results=True)
        assert batch.results is not None and len(batch.results) == 3
        assert all(r.verdict is Verdict.ACCEPT for r in batch.results)
        light = engine.run_many(flood_auto, graph, runs=3, base_seed=0)
        assert light.results is None

    def test_accepts_bare_machine(self, ab):
        engine = SimulationEngine(max_steps=2_000, stability_window=50)
        graph = clique_graph(ab, ["a", "b", "b"])
        batch = engine.run_many(exists_label_machine(ab, "a"), graph, runs=3)
        assert batch.consensus is Verdict.ACCEPT

    def test_count_backend_batch_on_implicit_clique(self, ab):
        """The batched runner rides the count backend on large populations."""
        engine = SimulationEngine(max_steps=200_000, stability_window=100, backend="auto")
        graph = implicit_clique_graph(ab, ["a"] + ["b"] * 1999)
        batch = engine.run_many(
            exists_label_machine(ab, "a"), graph, runs=5, base_seed=2, quorum=0.6
        )
        assert batch.consensus is Verdict.ACCEPT
        assert batch.stopped_early

    def test_rejects_empty_batch(self, flood_auto, ab):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.run_many(flood_auto, cycle_graph(ab, ["a", "b", "b"]), runs=0)


class TestBatchResultSemantics:
    def _batch(self, verdicts, steps=None):
        return BatchResult(
            verdicts=list(verdicts),
            steps=list(steps or range(1, len(list(verdicts)) + 1)),
            planned_runs=len(list(verdicts)),
            base_seed=0,
        )

    def test_consensus_undecided_when_nothing_decided(self):
        batch = self._batch([Verdict.UNDECIDED, Verdict.UNDECIDED])
        assert batch.consensus is Verdict.UNDECIDED

    def test_consensus_inconsistent_on_disagreement(self):
        batch = self._batch([Verdict.ACCEPT, Verdict.REJECT, Verdict.ACCEPT])
        assert batch.consensus is Verdict.INCONSISTENT

    def test_consensus_ignores_undecided_minority(self):
        batch = self._batch([Verdict.REJECT, Verdict.UNDECIDED, Verdict.REJECT])
        assert batch.consensus is Verdict.REJECT
        assert batch.decided_runs == 2

    def test_percentile_bounds_checked(self):
        batch = self._batch([Verdict.ACCEPT])
        with pytest.raises(ValueError):
            batch.step_percentile(101)


class TestPopulationRunMany:
    def test_population_batch(self, ab):
        protocol = four_state_majority(ab)
        count = LabelCount.from_mapping(ab, {"a": 6, "b": 4})
        batch = protocol.run_many(count, runs=5, base_seed=1)
        assert batch.consensus is Verdict.ACCEPT
        assert batch.runs_executed == 5

    def test_population_batch_deterministic(self, ab):
        protocol = four_state_majority(ab)
        count = LabelCount.from_mapping(ab, {"a": 2, "b": 5})
        one = protocol.run_many(count, runs=4, base_seed=7)
        two = protocol.run_many(count, runs=4, base_seed=7)
        assert one.verdicts == two.verdicts and one.steps == two.steps
        assert one.consensus is Verdict.REJECT


class TestStepPercentile:
    """``step_percentile`` is linear interpolation between closest ranks
    (numpy's default method), on odd and even sample sizes."""

    SAMPLES = (
        [7],
        [9, 3],
        [23, 4, 15, 8, 16],
        [40, 10, 30, 20],
        [5, 5, 5, 5, 5, 5],
        [1, 100, 2, 99, 3, 98, 4],
    )
    PERCENTILES = (0, 10, 25, 50, 66.6, 75, 90, 100)

    def _batch_for(self, steps):
        return BatchResult(
            verdicts=[Verdict.ACCEPT] * len(steps),
            steps=list(steps),
            planned_runs=len(steps),
            base_seed=0,
        )

    def test_hand_computed_values(self):
        batch = self._batch_for([40, 10, 30, 20])
        assert batch.step_percentile(0) == 10.0
        assert batch.step_percentile(50) == pytest.approx(25.0)
        assert batch.step_percentile(75) == pytest.approx(32.5)
        assert batch.step_percentile(100) == 40.0

    def test_matches_numpy_oracle(self):
        numpy = pytest.importorskip("numpy")
        for steps in self.SAMPLES:
            batch = self._batch_for(steps)
            for pct in self.PERCENTILES:
                assert batch.step_percentile(pct) == pytest.approx(
                    float(numpy.percentile(numpy.asarray(steps), pct))
                ), f"steps={steps} percentile={pct}"

    def test_single_sample_and_bounds(self):
        batch = self._batch_for([42])
        assert batch.step_percentile(0) == 42.0
        assert batch.step_percentile(50) == 42.0
        assert batch.step_percentile(100) == 42.0
        with pytest.raises(ValueError):
            batch.step_percentile(-1)
        with pytest.raises(ValueError):
            BatchResult(verdicts=[], steps=[], planned_runs=0, base_seed=0).step_percentile(50)

"""Differential matrix for the vectorized multi-seed batch engine.

Every test here enforces the engine's core contract: for every eligible
workload and every ``run_many`` argument combination, the vectorized lockstep
path produces a :class:`~repro.core.batch.BatchResult` **byte-identical** to
the sequential per-run loop (``Workload.run_many_sequential``, the
differential oracle) — same verdicts, same step counts, same full
:class:`~repro.core.results.RunResult` objects when kept, same quorum
truncation and ``stopped_early`` flag.

Marked ``batch`` (see ``pytest.ini``): the matrix runs in tier-1 and is also
exercised explicitly by the CI backends job.
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import derive_seed
from repro.core.labels import Alphabet, LabelCount
from repro.core.results import Verdict
from repro.core.streaks import ConsensusStreakDriver, StreakDeadlines
from repro.core.vector_batch import VECTOR_BATCH, resolve_batch_backend
from repro.population import PopulationProtocol
from repro.workloads import (
    EngineOptions,
    InstanceSpec,
    PopulationWorkload,
    build_workload,
)

pytestmark = pytest.mark.batch

AB = Alphabet.of("a", "b")

#: The eligible differential matrix: every workload kind whose per-run engine
#: is count-level, with a spread of margins, verdict outcomes and step scales.
ELIGIBLE = [
    ("clique-majority", {"a": 6, "b": 3}, {}),
    ("clique-majority", {"a": 20, "b": 14}, {}),
    ("clique-majority", {"a": 3, "b": 9}, {}),
    ("clique-majority", {"a": 5, "b": 4}, {}),  # margin 1: race can flip
    ("exists-label", {"a": 1, "b": 4, "graph": "clique"}, {}),
    ("exists-label", {"a": 0, "b": 5, "graph": "clique"}, {}),
    ("threshold-broadcast", {"a": 2, "b": 2, "k": 2, "graph": "clique"}, {}),
    (
        "rendezvous-parity",
        {"a": 3, "b": 2, "graph": "clique"},
        {"stability_window": 2000, "max_steps": 60_000},
    ),
    ("population-majority", {"a": 6, "b": 3}, {"max_steps": 10_000}),
    ("population-threshold", {"a": 3, "b": 4, "k": 3}, {}),
    ("population-threshold", {"a": 4, "b": 3, "k": 3}, {}),
    ("population-parity", {"a": 3, "b": 2}, {}),
]


def _workload(name, params, engine):
    return build_workload(InstanceSpec(name, dict(params), EngineOptions(**engine)))


def ids(matrix):
    return [f"{name}[{params}]" for name, params, _ in matrix]


class TestEligibility:
    @pytest.mark.parametrize("name,params,engine", ELIGIBLE, ids=ids(ELIGIBLE))
    def test_eligible_resolves_to_vector_batch(self, name, params, engine):
        backend = resolve_batch_backend(_workload(name, params, engine))
        assert backend is VECTOR_BATCH

    @pytest.mark.parametrize(
        "name,params,engine",
        [
            # Trace recording and explicit per-run backends keep their path.
            ("clique-majority", {"a": 6, "b": 3}, {"backend": "per-node"}),
            ("exists-label", {"a": 1, "b": 4, "graph": "clique"}, {"record_trace": True}),
            ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {"record_trace": True}),
            # The agents method has per-agent (not count-level) dynamics.
            ("population-majority", {"a": 6, "b": 3}, {"backend": "agents"}),
            # Synchronous schedules take the deterministic-replication path.
            ("clique-majority", {"a": 6, "b": 3}, {"schedule": "synchronous"}),
        ],
    )
    def test_ineligible_falls_back(self, name, params, engine):
        assert resolve_batch_backend(_workload(name, params, engine)) is None

    @pytest.mark.parametrize(
        "name,params,engine",
        [
            # Non-clique graphs land on the per-node lockstep rung, one rung
            # below the count engine (a 5-node cycle for absence-probe;
            # 3-node cycles are cliques and stay on the count engine).
            ("exists-label", {"a": 1, "b": 4, "graph": "cycle"}, {}),
            ("rendezvous-parity", {"a": 3, "b": 2}, {"stability_window": 2000}),
            ("absence-probe", {"a": 1, "b": 4}, {}),
        ],
    )
    def test_non_clique_resolves_to_pernode_rung(self, name, params, engine):
        from repro.core.vector_pernode import VECTOR_PERNODE

        backend = resolve_batch_backend(_workload(name, params, engine))
        assert backend is VECTOR_PERNODE

    def test_schedule_factory_and_backend_override_fall_back(self):
        from repro.core.backends import COUNT_BACKEND
        from repro.core.scheduler import RandomExclusiveSchedule

        workload = _workload("clique-majority", {"a": 6, "b": 3}, {})
        assert resolve_batch_backend(workload) is VECTOR_BATCH
        with_factory = workload.with_options()
        with_factory.schedule_factory = lambda seed: RandomExclusiveSchedule(seed=seed)
        assert resolve_batch_backend(with_factory) is None
        with_override = workload.with_options()
        with_override.backend_override = COUNT_BACKEND
        assert resolve_batch_backend(with_override) is None


class TestDifferentialMatrix:
    @pytest.mark.parametrize("name,params,engine", ELIGIBLE, ids=ids(ELIGIBLE))
    def test_run_many_bit_identical(self, name, params, engine):
        workload = _workload(name, params, engine)
        vectorized = workload.run_many(runs=7, base_seed=11, keep_results=True)
        sequential = workload.run_many_sequential(runs=7, base_seed=11, keep_results=True)
        assert vectorized == sequential

    @pytest.mark.parametrize("name,params,engine", ELIGIBLE[:4] + ELIGIBLE[-3:])
    def test_quorum_truncation_identical(self, name, params, engine):
        workload = _workload(name, params, engine)
        for quorum, min_runs in ((0.5, 1), (0.25, 3), (1.0, 1)):
            vectorized = workload.run_many(
                runs=9, base_seed=4, quorum=quorum, min_runs=min_runs
            )
            sequential = workload.run_many_sequential(
                runs=9, base_seed=4, quorum=quorum, min_runs=min_runs
            )
            assert vectorized == sequential

    def test_run_rows_matches_per_run_calls(self):
        workload = _workload("clique-majority", {"a": 8, "b": 5}, {})
        seeds = [derive_seed(3, j) for j in range(6)] + [123456789]
        assert VECTOR_BATCH.run_rows(workload, seeds) == [
            workload.run(seed) for seed in seeds
        ]

    def test_row_independent_of_batch_size(self):
        workload = _workload("population-parity", {"a": 3, "b": 2}, {})
        small = workload.run_many(runs=3, base_seed=9)
        large = workload.run_many(runs=8, base_seed=9)
        assert small.verdicts == large.verdicts[:3]
        assert small.steps == large.steps[:3]


class TestEdgeCases:
    def test_single_run_batch(self):
        workload = _workload("clique-majority", {"a": 6, "b": 3}, {})
        vectorized = workload.run_many(runs=1, base_seed=2, keep_results=True)
        sequential = workload.run_many_sequential(runs=1, base_seed=2, keep_results=True)
        assert vectorized == sequential
        assert vectorized.runs_executed == 1

    def test_all_rows_early_quorum(self):
        """A tiny quorum target stops both paths after the first decided run."""
        workload = _workload("clique-majority", {"a": 9, "b": 4}, {})
        vectorized = workload.run_many(runs=20, base_seed=0, quorum=0.05)
        sequential = workload.run_many_sequential(runs=20, base_seed=0, quorum=0.05)
        assert vectorized == sequential
        assert vectorized.stopped_early
        assert vectorized.runs_executed == 1

    def test_zero_successful_runs(self):
        """A budget far too small to absorb the minority decides nothing."""
        workload = _workload("clique-majority", {"a": 30, "b": 25}, {"max_steps": 20})
        vectorized = workload.run_many(runs=6, base_seed=1, quorum=0.5, keep_results=True)
        sequential = workload.run_many_sequential(
            runs=6, base_seed=1, quorum=0.5, keep_results=True
        )
        assert vectorized == sequential
        assert vectorized.decided_runs == 0
        assert vectorized.consensus is Verdict.UNDECIDED
        assert not vectorized.stopped_early

    def test_population_fixed_point_without_consensus(self):
        """The scalar engine reports (UNDECIDED, max_steps) here; so must we."""
        inert = PopulationProtocol(
            alphabet=AB,
            init=lambda label: label,
            delta=lambda p, q: (p, q),
            name="inert",
        )
        count = LabelCount.from_mapping(AB, {"a": 2, "b": 2})
        workload = PopulationWorkload(
            protocol=inert, count=count, options=EngineOptions(max_steps=500)
        )
        assert resolve_batch_backend(workload) is VECTOR_BATCH
        vectorized = workload.run_many(runs=4, base_seed=7, keep_results=True)
        sequential = workload.run_many_sequential(runs=4, base_seed=7, keep_results=True)
        assert vectorized == sequential
        assert vectorized.verdicts == [Verdict.UNDECIDED] * 4
        assert vectorized.steps == [500] * 4

    def test_population_fixed_point_with_consensus(self):
        inert = PopulationProtocol(
            alphabet=AB,
            init=lambda label: "done",
            delta=lambda p, q: (p, q),
            accepting={"done"},
            name="inert-accepting",
        )
        count = LabelCount.from_mapping(AB, {"a": 2, "b": 2})
        workload = PopulationWorkload(
            protocol=inert, count=count, options=EngineOptions(max_steps=500)
        )
        vectorized = workload.run_many(runs=4, base_seed=7, keep_results=True)
        sequential = workload.run_many_sequential(runs=4, base_seed=7, keep_results=True)
        assert vectorized == sequential
        assert vectorized.verdicts == [Verdict.ACCEPT] * 4

    def test_synchronous_replication_parity(self):
        """The deterministic shortcut stays in charge for synchronous specs,
        and its replicated batch equals actually running every seed."""
        workload = _workload(
            "clique-majority", {"a": 6, "b": 3}, {"schedule": "synchronous"}
        )
        assert workload.deterministic
        replicated = workload.run_many(runs=5, base_seed=3, keep_results=True)
        sequential = workload.run_many_sequential(runs=5, base_seed=3, keep_results=True)
        assert replicated == sequential
        assert not replicated.stopped_early

    def test_max_steps_exhaustion_identical(self):
        """Rows that run out of budget mid-flight retire identically."""
        workload = _workload(
            "clique-majority", {"a": 20, "b": 18}, {"max_steps": 40, "stability_window": 30}
        )
        vectorized = workload.run_many(runs=6, base_seed=5, keep_results=True)
        sequential = workload.run_many_sequential(runs=6, base_seed=5, keep_results=True)
        assert vectorized == sequential

    @pytest.mark.parametrize(
        "name,params",
        [("clique-majority", {"a": 8, "b": 5}), ("population-threshold", {"a": 3, "b": 4, "k": 3})],
    )
    def test_memo_cap_is_invisible_in_results(self, name, params):
        """A tiny cap re-analyses count vectors per visit but changes nothing."""
        capped = _workload(name, params, {"memo_cap": 1})
        assert resolve_batch_backend(capped) is VECTOR_BATCH
        vectorized = capped.run_many(runs=5, base_seed=3, keep_results=True)
        sequential = _workload(name, params, {}).run_many_sequential(
            runs=5, base_seed=3, keep_results=True
        )
        assert vectorized == sequential

    def test_memo_cap_bounds_the_batch_caches(self):
        workload = _workload("clique-majority", {"a": 7, "b": 4}, {"memo_cap": 4})
        engine = VECTOR_BATCH._plan(workload)(workload)
        engine.run([random.Random(derive_seed(0, j)) for j in range(5)])
        assert len(engine._nodes) <= 4
        assert len(engine._delta_cache) <= 4
        uncapped = _workload("clique-majority", {"a": 7, "b": 4}, {})
        reference = VECTOR_BATCH._plan(uncapped)(uncapped)
        reference.run([random.Random(derive_seed(0, j)) for j in range(5)])
        assert len(reference._nodes) > 4  # the cap genuinely bit

    def test_quorum_abandons_rows_past_the_stop_position(self):
        """With the quorum reached by the row prefix, later rows stop mid-flight.

        Needs a scenario whose rows finish at *different* lockstep iterations
        (population runs vary in active-interaction counts; clique-majority
        rows all exhaust the minority after the same few active steps) —
        otherwise there is nothing left alive to abandon.
        """
        workload = _workload("population-parity", {"a": 3, "b": 2}, {})
        engine = VECTOR_BATCH._plan(workload)(workload)
        seeds = [derive_seed(0, j) for j in range(32)]
        results = engine.run(
            [random.Random(seed) for seed in seeds], early_stop=(1, 1, 32)
        )
        assert results[0] is not None  # the stop position itself completed
        assert any(result is None for result in results[1:])  # work was saved
        # And the public surface folds the partial row list identically.
        vectorized = workload.run_many(runs=32, base_seed=0, quorum=1 / 32)
        sequential = workload.run_many_sequential(runs=32, base_seed=0, quorum=1 / 32)
        assert vectorized == sequential
        assert vectorized.stopped_early and vectorized.runs_executed == 1

    def test_unkept_results_skip_configuration_materialisation(self):
        """With keep_results=False all B results stay resident until folded,
        so the O(n) per-row state tuples are only built on request — and the
        folded BatchResult is identical either way."""
        workload = _workload("clique-majority", {"a": 7, "b": 4}, {})
        engine = VECTOR_BATCH._plan(workload)(workload)
        light = engine.run(
            [random.Random(derive_seed(0, j)) for j in range(4)],
            materialise_configurations=False,
        )
        assert all(result.final_configuration == () for result in light)
        assert workload.run_many(runs=4, base_seed=0) == workload.run_many_sequential(
            runs=4, base_seed=0
        )

    def test_delta_cache_gated_off_at_uncapped_view(self):
        """β ≥ n-1 views biject with count vectors (the node cache already
        dedupes them), so the δ cache is gated off exactly like _CountRun's."""
        full_view = _workload("clique-majority", {"a": 7, "b": 4}, {})
        engine = VECTOR_BATCH._plan(full_view)(full_view)
        assert engine.machine.beta >= engine.n - 1
        engine.run([random.Random(derive_seed(0, j)) for j in range(3)])
        assert engine._delta_cache == {}
        capped_view = _workload("exists-label", {"a": 1, "b": 4, "graph": "clique"}, {})
        engine = VECTOR_BATCH._plan(capped_view)(capped_view)
        assert engine.machine.beta < engine.n - 1
        engine.run([random.Random(derive_seed(0, j)) for j in range(3)])
        assert engine._delta_cache  # capped views genuinely share entries

    def test_final_configurations_match_sequential(self):
        """Rows keep no count storage of their own: a retired row's final
        configuration is materialised from its successor-graph node, and must
        equal the sequential engine's for every row."""
        for name, params in (
            ("clique-majority", {"a": 7, "b": 4}),
            ("exists-label", {"a": 1, "b": 4, "graph": "clique"}),
            ("threshold-broadcast", {"a": 2, "b": 2, "k": 2, "graph": "clique"}),
        ):
            workload = _workload(name, params, {})
            lockstep = workload.run_many(runs=6, base_seed=2, keep_results=True)
            sequential = workload.run_many_sequential(
                runs=6, base_seed=2, keep_results=True
            )
            got = [result.final_configuration for result in lockstep.results]
            assert got == [
                result.final_configuration for result in sequential.results
            ], name
            assert all(len(config) == workload.graph.num_nodes for config in got)


class TestStreakDeadlines:
    """The lockstep deadline rule replayed against scalar streak drivers.

    Every live lockstep row takes one step per iteration and every step
    counts as active, so a scalar driver is fed one ``record_active`` per
    step; the deadline rule only hears about steps that change the row's
    consensus value.  Both must report the same ``(steps, stabilised_at)``.
    """

    def test_random_flip_sequences_match_scalar(self):
        rng = random.Random(42)
        values = (None, False, True)
        for trial in range(200):
            window = rng.randint(1, 12)
            max_steps = rng.randint(1, 120)
            rows = rng.randint(1, 6)
            initial = rng.choice(values)
            flip_rate = rng.choice((0.05, 0.3, 0.9))
            scalars = [
                ConsensusStreakDriver(window, max_steps, initial) for _ in range(rows)
            ]
            expected: list = [None] * rows
            deadlines = StreakDeadlines(window, max_steps, rows, initial)
            current = [initial] * rows
            got: list = [None] * rows
            step = 0
            while any(outcome is None for outcome in got):
                step += 1
                for j in range(rows):
                    if got[j] is not None:
                        continue
                    value = current[j]
                    if rng.random() < flip_rate:  # a flip; silent otherwise
                        value = rng.choice(values)
                    if expected[j] is None:
                        driver = scalars[j]
                        if driver.record_active(value) or driver.exhausted:
                            expected[j] = (driver.step, driver.stabilised_at)
                    if value is not current[j]:
                        current[j] = value
                        deadlines.changed(j, value, step)
                for j in deadlines.due(step):
                    got[j] = (step, step)
                if step >= max_steps:
                    for j in range(rows):
                        if got[j] is None:
                            got[j] = (step, None)
            assert got == expected, (trial, window, max_steps, initial)

    def test_cancelled_rows_never_come_due(self):
        deadlines = StreakDeadlines(3, 10, 2, True)
        deadlines.cancel(1)
        assert deadlines.due(3) == [0]
        deadlines.changed(0, None, 4)
        deadlines.changed(1, False, 4)
        assert [deadlines.due(step) for step in range(4, 11)] == [
            [], [], [], [1], [], [], []
        ]

    def test_deadlines_past_the_budget_are_not_bucketed(self):
        deadlines = StreakDeadlines(5, 4, 3, False)
        assert deadlines.deadline == [5, 5, 5]
        assert all(deadlines.due(step) == [] for step in range(1, 6))

"""The four benchmark workloads: sweep, montecarlo, trajectory and exact.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up the benchmark times), runs one *pass* per :meth:`run_pass` call (the
timed region), and checks a pass's outputs in :meth:`check` (untimed).  Pass
``k`` draws its seeds from ``derive_seed(seed, k)``, so every pass is
reproducible on its own and the traced run can replay the untraced one.

A pass returns a :class:`PassResult`: the work done (``items``), the
operations attempted and failed, the verdicts checked against ground truth,
and ``rows`` — the pass's outputs minus timings, which the digest hashes and
the traced run compares against the untraced one.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.batch import derive_seed
from repro.core.labels import Alphabet, LabelCount

AB = Alphabet.of("a", "b")


@dataclass
class PassResult:
    items: int = 0
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    undecided: int = 0
    latencies: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def verdict(self, verdict: str, expected: bool | None, budget_used: bool) -> None:
        """Count one verdict against its ground truth (``None``: none declared)."""
        self.attempted += 1
        self.undecided += budget_used
        if expected is not None:
            # An undecided run gave no answer; an inconsistent one gave a wrong one.
            self.checked += 1
            self.wrong += verdict != "undecided" and verdict != ("accept" if expected else "reject")


def digest(rows: list) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pass_seed(seed: int, k: int) -> int:
    return derive_seed(seed, k) % 1_000_000_007


def _run_seed(seed: int, k: int, index: int) -> int:
    """The seed (or batch base seed) of instance ``index`` in pass ``k``."""
    return derive_seed(_pass_seed(seed, k), index)


def _build(instances, max_steps: int) -> tuple[list, list[str]]:
    """Workloads and labels of ``(scenario, params, stability window)`` triples."""
    from repro.workloads import build_workload

    built = [build_workload(scenario, params, max_steps=max_steps, stability_window=window)
             for scenario, params, window in instances]
    return built, [f"{scenario}{params}" for scenario, params, _ in instances]


# ---------------------------------------------------------------------- #
# sweep: the `python -m repro run` + `report` path
# ---------------------------------------------------------------------- #
class Sweep:
    """One ExperimentSpec over all nine catalog scenarios, run serially."""

    item = "tasks"
    rate = "tasks_per_s"
    warm_up = False

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        from repro.workloads.catalog import GRAPH_FAMILIES

        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.families = list(GRAPH_FAMILIES[:3] if small else GRAPH_FAMILIES)
        self.specs: dict[int, object] = {}

    def spec(self, k: int):
        """Pass ``k``'s spec: a fixed grid whose seeds all derive from the pass seed."""
        if k in self.specs:
            return self.specs[k]
        from repro.experiments.spec import ExperimentSpec

        pass_seed = _pass_seed(self.seed, k)
        sweeps = []

        def graph_sweep(scenario, sizes, **extra):
            window = extra.pop("stability_window", None)
            for index, (a, b) in enumerate(sizes[:1] if self.small else sizes):
                grid = {"a": [a], "b": [b], "graph": self.families,
                        "graph_seed": [derive_seed(pass_seed, len(sweeps)) % 1_000_000]}
                grid.update({key: [value] for key, value in extra.items()})
                sweep = {"scenario": scenario, "grid": grid}
                if window is not None:
                    sweep["stability_window"] = window
                sweeps.append(sweep)

        graph_sweep("exists-label", [(0, 5), (1, 11), (2, 22), (3, 21), (1, 3), (4, 8)])
        graph_sweep("threshold-broadcast", [(1, 5), (2, 6), (1, 12)], k=2, stability_window=2000)
        # The handshake runs have long, seed-dependent transients: one size
        # each keeps them from dominating the pass time and its spread.
        graph_sweep("rendezvous-parity", [(2, 1)], stability_window=2000)
        graph_sweep("rendezvous-majority", [(3, 1)], stability_window=2000)
        for a, b in [(1, 2), (1, 8), (3, 0)]:
            sweeps.append({"scenario": "absence-probe",
                           "grid": {"a": [a], "b": [b], "graph": ["cycle", "line"]}})
        # Margins >= 2 for population-majority: its accept side takes
        # exponentially long in close races (see the scenario notes).
        sweeps += [
            {"scenario": "clique-majority", "grid": {"a": [6, 3, 14], "b": [3, 12, 20]}},
            {"scenario": "population-majority", "grid": {"a": [6, 3, 7], "b": [3, 2]}},
            {"scenario": "population-threshold", "grid": {"a": [2, 3, 8], "b": [4, 12, 20], "k": [3]}},
            {"scenario": "population-parity", "grid": {"a": [3, 4, 11], "b": [2, 9, 15]}},
        ]
        spec = ExperimentSpec.from_dict({
            "name": f"perfbench-sweep-{k}", "sweeps": sweeps, "runs": 2,
            "base_seed": pass_seed, "max_steps": 40_000, "stability_window": 600,
        })
        self.specs[k] = spec
        return spec

    def run_pass(self, k: int, trace) -> PassResult:
        from repro.experiments import executor, report
        from repro.experiments.store import ResultStore

        spec = self.spec(k)
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        try:
            store = ResultStore(root)
            with trace.span("experiments.run_spec"):
                first = executor.run_spec(spec, store, workers=1)
            with trace.span("experiments.resume"):
                resumed = executor.run_spec(spec, store, workers=1)
            with trace.span("experiments.report"):
                records = store.load(spec)
                summaries = report.summarise(spec, records)
                report.agreement_reports(summaries)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        budgets = {point.index: point.max_steps for point in spec.points()}
        result = PassResult(items=len(records))
        for record in records:
            result.latencies.append(record["wall_time"])
            if record["status"] != "ok":
                result.attempted += 1
                result.failed += 1
                continue
            result.verdict(record["verdict"], record["expected"],
                           record["steps"] >= budgets[record["point_index"]])
        result.rows = sorted(
            ({key: value for key, value in record.items() if key != "wall_time"}
             for record in records),
            key=lambda record: record["task_id"],
        )
        self.last = {"executed": first.executed, "resumed": resumed.executed,
                     "points": len(summaries)}
        return result

    def check(self, k: int, result: PassResult) -> list[str]:
        from repro.workloads import build_workload

        spec = self.spec(k)
        tasks = spec.expand()
        problems = []
        if self.last["executed"] != len(tasks) or self.last["resumed"] != 0:
            problems.append(f"sweep pass {k}: executed {self.last['executed']}, "
                            f"resume executed {self.last['resumed']} of {len(tasks)} tasks")
        if [row["task_id"] for row in result.rows] != sorted(t.task_id for t in tasks):
            problems.append(f"sweep pass {k}: stored task ids differ from the spec's")
        if self.last["points"] != len(spec.points()):
            problems.append(f"sweep pass {k}: {self.last['points']} summaries "
                            f"for {len(spec.points())} points")
        rows = {row["task_id"]: row for row in result.rows}
        for task in tasks[:: 4 if self.small else 23]:
            row = rows.get(task.task_id)
            if row is None or row["status"] != "ok":
                continue
            workload = build_workload(task.instance_spec())
            again = workload.run(task.seed)
            if (again.verdict.value, again.steps, workload.expected) != (
                row["verdict"], row["steps"], row["expected"]
            ):
                problems.append(f"sweep pass {k}: task {task.task_id} stored "
                                f"{row['verdict']}/{row['steps']}, re-run gives "
                                f"{again.verdict.value}/{again.steps}")
        return problems


# ---------------------------------------------------------------------- #
# montecarlo: Workload.run_many at B=256 on fixed instances
# ---------------------------------------------------------------------- #
class MonteCarlo:
    """``run_many(256)`` on instances covering both lockstep rungs."""

    item = "runs"
    rate = "runs_per_s"
    warm_up = True

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.seed = seed
        self.runs = 16 if small else 256
        graph_seed = derive_seed(seed, 0) % 1_000_000
        instances = [
            ("clique-majority", {"a": 600, "b": 400}, 600),
            ("population-threshold", {"a": 30, "b": 30, "k": 10}, 200),
            ("exists-label", {"a": 1, "b": 63, "graph": "cycle"}, 600),
            ("exists-label", {"a": 1, "b": 63, "graph": "watts-strogatz",
                              "graph_seed": graph_seed}, 600),
            ("rendezvous-parity", {"a": 3, "b": 4}, 2000),
            ("threshold-broadcast", {"a": 1, "b": 5, "k": 2}, 2000),
        ]
        self.max_steps = 100_000
        self.workloads, self.labels = _build(instances, self.max_steps)
        # Rows re-run through Workload.run in check().
        self.sample = sorted({0, self.runs // 3, 2 * self.runs // 3, self.runs - 1})

    def run_pass(self, k: int, trace) -> PassResult:
        result = PassResult()
        for index, workload in enumerate(self.workloads):
            start = time.perf_counter()
            try:
                batch = workload.run_many(self.runs, base_seed=_run_seed(self.seed, k, index))
            except Exception as exc:  # noqa: BLE001 - counted as failed operations
                traceback.print_exc()
                result.attempted += self.runs
                result.failed += self.runs
                result.rows.append([self.labels[index], f"{type(exc).__name__}: {exc}"])
                continue
            result.latencies.append(time.perf_counter() - start)
            verdicts = [verdict.value for verdict in batch.verdicts]
            for verdict, steps in zip(verdicts, batch.steps):
                result.verdict(verdict, workload.expected, steps >= self.max_steps)
            result.items += len(verdicts)
            result.rows.append([self.labels[index], verdicts, list(batch.steps)])
        return result

    def check(self, k: int, result: PassResult) -> list[str]:
        problems = []
        for index, (workload, row) in enumerate(zip(self.workloads, result.rows)):
            if len(row) != 3 or len(row[1]) != self.runs:
                problems.append(f"montecarlo pass {k}: {self.labels[index]} returned {row[1:]!r:.80}")
                continue
            for j in self.sample:
                again = workload.run(derive_seed(_run_seed(self.seed, k, index), j))
                if (again.verdict.value, again.steps) != (row[1][j], row[2][j]):
                    problems.append(
                        f"montecarlo pass {k}: {self.labels[index]} row {j} batched "
                        f"{row[1][j]}/{row[2][j]}, Workload.run gives "
                        f"{again.verdict.value}/{again.steps}")
        return problems


# ---------------------------------------------------------------------- #
# trajectory: long single runs through the per-run engines
# ---------------------------------------------------------------------- #
class Trajectory:
    """Long ``Workload.run(seed)`` runs on the count, compiled and population engines."""

    item = "steps"
    rate = "steps_per_s"
    warm_up = True

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.seed = seed
        scale = 20 if small else 1
        instances = [
            ("clique-majority", {"a": 60_000 // scale, "b": 40_000 // scale}, 600),
            ("exists-label", {"a": 1, "b": 499 // scale, "graph": "cycle"}, 600),
            ("rendezvous-parity", {"a": 5, "b": 20 // scale + 2}, 2000),
            ("absence-probe", {"a": 1, "b": 200 // scale}, 600),
            ("population-majority", {"a": 3000 // scale, "b": 7000 // scale}, 600),
        ]
        self.max_steps = 5_000_000
        self.workloads, self.labels = _build(instances, self.max_steps)
        # Re-run in check(): the cheap instances, exists-label and absence-probe.
        self.recheck = (1, 3)

    def run_pass(self, k: int, trace) -> PassResult:
        result = PassResult()
        for index, workload in enumerate(self.workloads):
            start = time.perf_counter()
            try:
                run = workload.run(_run_seed(self.seed, k, index))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                traceback.print_exc()
                result.attempted += 1
                result.failed += 1
                result.rows.append([self.labels[index], f"{type(exc).__name__}: {exc}"])
                continue
            result.latencies.append(time.perf_counter() - start)
            result.verdict(run.verdict.value, workload.expected, run.steps >= self.max_steps)
            result.items += run.steps
            result.rows.append([self.labels[index], run.verdict.value, run.steps])
        return result

    def check(self, k: int, result: PassResult) -> list[str]:
        problems = []
        for index in self.recheck:
            row = result.rows[index]
            again = self.workloads[index].run(_run_seed(self.seed, k, index))
            if row[1:] != [again.verdict.value, again.steps]:
                problems.append(f"trajectory pass {k}: {self.labels[index]} gave {row[1:]}, "
                                f"re-run gives {again.verdict.value}/{again.steps}")
        return problems


# ---------------------------------------------------------------------- #
# exact: verdicts without sampling
# ---------------------------------------------------------------------- #
class Exact:
    """Configuration-graph decisions and the Section 6.1 majority algorithm."""

    item = "decisions"
    rate = "decisions_per_s"
    warm_up = False
    PINNED = (14, 18, 200)  # a, b, graph seed: presumes ACCEPT after 400 rounds

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        from repro.constructions import (
            exists_label_automaton,
            majority_protocol_bounded,
            threshold_daf_automaton,
        )
        from repro.core.graphs import cycle_from_count, line_from_count, random_connected_graph
        from repro.extensions import majority_with_movement
        from repro.properties.threshold import (
            at_least_k_property,
            exists_label_property,
            majority_property,
        )

        self.seed = seed
        self.reference = None  # the first checked pass's rows; later passes must equal them
        self.exists = (exists_label_automaton(AB, "a"), exists_label_property(AB, "a"))
        self.max_per_label = 2 if small else 4
        self.threshold = threshold_daf_automaton(AB, "a", 2)
        threshold_property = at_least_k_property(AB, "a", 2)
        self.threshold_cases = [
            (cycle_from_count(count), threshold_property.evaluate(count))
            for count in _counts(range(3, 5 if small else 6))
        ]
        self.movement = majority_with_movement(AB)
        strict = majority_property(AB, strict=True)
        self.movement_cases = [
            (make(count), strict.evaluate(count))
            for count in _counts(range(3, 5 if small else 7))
            for make in (cycle_from_count, line_from_count)
        ]
        self.bounded = majority_protocol_bounded(AB, degree_bound=4)
        self.rounds_budget = 400
        weak = majority_property(AB, strict=False)
        shapes = []
        generated = 5 if small else 69
        for i in range(generated):
            n = 4 + (i * 53) // 68
            a = round(n * (0.25, 0.4, 0.6, 0.75)[i % 4])
            shapes.append((a, n - a, derive_seed(seed, i) % 1_000_000))
        shapes.append(self.PINNED)
        self.bounded_cases = []
        for a, b, graph_seed in shapes:
            graph = random_connected_graph(AB, ["a"] * a + ["b"] * b, max_degree=4, seed=graph_seed)
            self.bounded_cases.append((graph, weak.evaluate(graph.label_count())))

    def run_pass(self, k: int, trace) -> PassResult:
        from repro.analysis import harness
        from repro.core import verification

        result = PassResult()

        def timed(call, *args):
            start = time.perf_counter()
            try:
                out = call(*args)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                traceback.print_exc()
                result.attempted += 1
                result.failed += 1
                result.rows.append(f"{type(exc).__name__}: {exc}")
                return None
            result.latencies.append(time.perf_counter() - start)
            return out

        automaton, prop = self.exists
        report = timed(harness.check_decides_property, automaton, prop, None,
                       harness.standard_families, self.max_per_label)
        if report is not None:
            result.attempted += report.checked
            result.checked += report.checked
            result.wrong += report.checked - report.agreements
            result.rows.append(["exists", report.checked, report.agreements, report.inconsistent])
        for graph, expected in self.threshold_cases:
            decision = timed(verification.decide, self.threshold, graph)
            if decision is not None:
                result.verdict(decision.verdict.value, expected, False)
                result.rows.append(["threshold", graph.name, decision.verdict.value,
                                    decision.configuration_count])
        for graph, expected in self.movement_cases:
            verdict = timed(self.movement.decide_pseudo_stochastic, graph)
            if verdict is not None:
                result.verdict(verdict.value, expected, False)
                result.rows.append(["movement", graph.name, verdict.value])
        for graph, expected in self.bounded_cases:
            out = timed(self.bounded.decide, graph, self.rounds_budget)
            if out is not None:
                verdict, rounds = out
                result.verdict(verdict.value, expected, rounds >= self.rounds_budget)
                result.rows.append(["bounded", graph.num_nodes, verdict.value, rounds])
        result.items = result.attempted - result.failed
        return result

    def check(self, k: int, result: PassResult) -> list[str]:
        if self.reference is None:
            self.reference = result.rows
            return []
        if result.rows != self.reference:
            return [f"exact pass {k}: verdicts differ from the first pass's"]
        return []


def _counts(sizes) -> list[LabelCount]:
    return [LabelCount.from_mapping(AB, {"a": a, "b": n - a}) for n in sizes for a in range(n + 1)]


WORKLOADS = {"sweep": Sweep, "montecarlo": MonteCarlo, "trajectory": Trajectory, "exact": Exact}

"""Per-layer metrics folded from the spans and counters of the traced passes.

Every figure is a per-pass mean over the traced passes, so the ``self.*``
times add up to ``bench.traced_wall.s``.  Metrics of a layer a workload does
not reach read 0.
"""

from __future__ import annotations

from collections import defaultdict

#: Lockstep batch-size buckets: (metric suffix, smallest B, largest B).
BUCKETS = (("b1", 1, 1), ("b2-4", 2, 4), ("b5-16", 5, 16), ("b17-64", 17, 64),
           ("b65plus", 65, None))
RUNGS = ("core.vector_batch", "core.vector_pernode")
#: The layer a span belongs to is the first part of its name.
LAYERS = ("bench", "experiments", "workloads", "core", "population", "verification",
          "constructions")


def _bucket(rows: int) -> str:
    for suffix, low, high in BUCKETS:
        if rows >= low and (high is None or rows <= high):
            return suffix
    raise ValueError(rows)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def compile_totals(workload, built) -> dict[int, tuple[int, int, int]]:
    """``id -> (hits, misses, table entries)`` of every compiled machine in reach."""
    totals = {}
    for item in list(getattr(workload, "workloads", [])) + list(built):
        compiled = getattr(item, "compiled", None)
        if compiled is None:
            machine = getattr(item, "machine", None)
            compiled = getattr(machine, "_compiled_machine_cache", None)
        if compiled is not None:
            stats = compiled.stats()
            totals[id(compiled)] = (stats["hits"], stats["misses"], stats["table_entries"])
    return totals


def compile_delta(before: dict, after: dict) -> tuple[int, int, int]:
    """Lookups made between two :func:`compile_totals`, and the entries after."""
    hits = misses = entries = 0
    for key, (h, m, e) in after.items():
        h0, m0, _ = before.get(key, (0, 0, 0))
        hits += h - h0
        misses += m - m0
        entries += e
    return hits, misses, entries


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, passes: int, counters: list[dict], compile_stats: list) -> dict:
    """``name -> (value, unit)`` for every per-layer metric but the import time and overhead."""
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    for span in spans:
        name = span.name
        if name in RUNGS:
            name = f"{name}.{_bucket(span.attrs['rows'])}"
        if name == "population.simulate":
            name = f"population.{span.attrs['method']}"
        total[name] += span.duration
        self_total[name] += own[span.id]
        calls[name] += 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attrs[name][key] += value
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span.name.split(".")[0]] += own[span.id]

    def per_pass(value):
        return value / passes

    m: dict[str, tuple[float, str]] = {}
    m["bench.traced_wall.s"] = (per_pass(total["bench.pass"]), "s")
    for layer in LAYERS:
        m[f"self.{layer}.s"] = (per_pass(layer_self[layer]), "s")
    m["experiments.run_spec.s"] = (per_pass(total["experiments.run_spec"]), "s")
    m["experiments.self.s"] = (per_pass(self_total["experiments.run_spec"]), "s")
    m["experiments.resume.s"] = (per_pass(total["experiments.resume"]), "s")
    m["experiments.store.append.s"] = (per_pass(total["experiments.store.append"]), "s")
    m["experiments.store.append.records"] = (
        per_pass(attrs["experiments.store.append"]["records"]), "count")
    m["experiments.store.load.s"] = (per_pass(total["experiments.store.load"]), "s")
    m["experiments.report.s"] = (per_pass(total["experiments.report"]), "s")
    m["workloads.build.s"] = (per_pass(total["workloads.build"]), "s")
    m["workloads.build.calls"] = (per_pass(calls["workloads.build"]), "count")
    m["workloads.shippable.s"] = (per_pass(total["workloads.shippable"]), "s")
    m["workloads.run.s"] = (per_pass(total["workloads.run"]), "s")
    m["workloads.run.calls"] = (per_pass(calls["workloads.run"]), "count")
    for rung in RUNGS:
        for suffix, _, _ in BUCKETS:
            name = f"{rung}.{suffix}"
            rows = attrs[name]["rows"]
            m[f"{name}.s"] = (per_pass(total[name]), "s")
            m[f"{name}.calls"] = (per_pass(calls[name]), "count")
            m[f"{name}.rows"] = (per_pass(rows), "count")
            m[f"{name}.rows_per_s"] = (_ratio(rows, total[name]), "rows/s")

    merged = defaultdict(int)
    for snapshot in counters:
        for key, value in snapshot.items():
            merged[key] += value
    hits = merged["memo.hits{table=batch-node}"]
    lookups = hits + merged["memo.misses{table=batch-node}"]
    m["core.batch.node_hits"] = (per_pass(hits), "count")
    m["core.batch.node_lookups"] = (per_pass(lookups), "count")
    m["core.batch.node_hit_rate"] = (_ratio(hits, lookups), "ratio")
    m["core.batch.rows_retired"] = (per_pass(sum(
        value for key, value in merged.items() if key.startswith("batch.rows_retired{"))), "count")

    for name in ("core.count", "core.compiled", "population.counts"):
        steps = attrs[name]["steps"]
        m[f"{name}.steps"] = (per_pass(steps), "count")
        m[f"{name}.us_per_step"] = (_ratio(total[name] * 1e6, steps), "us/step")
    compile_hits = sum(h for h, _, _ in compile_stats)
    compile_lookups = compile_hits + sum(miss for _, miss, _ in compile_stats)
    m["core.compile.hit_rate"] = (_ratio(compile_hits, compile_lookups), "ratio")
    m["core.compile.lookups"] = (per_pass(compile_lookups), "count")
    m["core.compile.table_entries"] = (
        max((entries for _, _, entries in compile_stats), default=0), "count")

    configurations = attrs["verification.explore"]["configurations"]
    m["verification.explore.s"] = (per_pass(total["verification.explore"]), "s")
    m["verification.configurations"] = (per_pass(configurations), "count")
    m["verification.configs_per_s"] = (
        _ratio(configurations, total["verification.explore"]), "configs/s")
    m["verification.sccs.s"] = (per_pass(total["verification.sccs"]), "s")
    m["verification.decide.self.s"] = (per_pass(self_total["verification.decide"]), "s")
    rounds = attrs["constructions.bounded_majority"]["rounds"]
    m["constructions.bounded_majority.s"] = (
        per_pass(total["constructions.bounded_majority"]), "s")
    m["constructions.bounded_majority.rounds"] = (per_pass(rounds), "count")
    m["constructions.bounded_majority.us_per_round"] = (
        _ratio(total["constructions.bounded_majority"] * 1e6, rounds), "us/round")
    return m

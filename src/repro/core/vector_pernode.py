"""The lockstep batch backend over the compiled per-node kernel.

:mod:`repro.core.vector_batch` gives count-eligible batches (clique machine
instances, population protocols) the lockstep treatment; everything
*degree-structured* — the cycles, lines, stars, grids and rings of cliques
the paper distinguishes from cliques by their bounded-degree views — runs
its ``B`` Monte-Carlo runs through :class:`~repro.core.compile.PerNodeLockstep`
instead: one kernel with ``B`` rows, one exclusive step per row per
iteration.  The same kernel runs every seeded single run
(:func:`~repro.core.compile.run_compiled` gives it one row), so one engine
serves seeded exclusive runs and batches alike, and the generic selection
loop serves every other schedule.

**Bit-identity guarantee.**  Row ``j`` owns a private
``random.Random(derive_seed(base_seed, j))`` — the generator the sequential
loop's run ``j`` gets — and the kernel replays ``RandomExclusiveSchedule``
on it draw for draw, resolving transitions through the compiled δ table
shared per machine.  The differential suite asserts full
:class:`~repro.core.results.RunResult` equality against the per-node
reference backend across the graph-family × batch-size matrix.

**What is shared, what is per-row.**  Per row: the interned states, the
accept/reject node counters and the pending-move vector.  Shared across all
rows of one ``run_rows`` call: the compiled table and the kernel's
local-view dict; Monte-Carlo rows of one instance revisit the same local
views constantly, which is where the batch beats ``B`` independent runs.
``EngineOptions.memo_cap`` bounds the local-view dict exactly like it
bounds the compiled table, so the cap never affects results.

**Eligibility.**  This module is the backend only: eligibility plus
``run_rows``.  It slots into :func:`resolve_batch_backend`'s ladder *after*
the count-based engine: a machine workload qualifies when its per-run
backend resolution lands on the compiled per-node engine (the ``"auto"``
answer for every non-clique graph, or an explicit ``backend="compiled"``),
and a pre-compiled shipped workload
(:class:`~repro.workloads.machine.CompiledMachineWorkload`) always does.
Each ``run_rows`` call is one ``run`` span (``engine=vector-pernode``,
``rows``, ``iterations``, retirements by reason).
"""

from __future__ import annotations

import random

from repro.core.backends import COMPILED_BACKEND, resolve_backend
from repro.core.compile import PerNodeLockstep, compile_machine
from repro.core.results import RunResult
from repro.core.scheduler import RandomExclusiveSchedule
from repro.core.vector_batch import BatchBackend
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer

_PROBE_SCHEDULE = RandomExclusiveSchedule(seed=0)


class VectorizedPerNodeBatchBackend(BatchBackend):
    """The lockstep batch engine over compiled per-node runs (module docstring)."""

    name = "vector-pernode"

    def supports(self, workload) -> bool:
        """Whether the workload's per-run engine is the compiled per-node one."""
        return self._plan(workload)[0] is not None

    def _plan(self, workload):
        """``(kernel constructor, None)``, or ``(None, reason)`` if ineligible.

        Mirrors :meth:`VectorizedBatchBackend._plan`'s exact-type
        rule: a subclass overriding ``run`` keeps its custom per-run
        semantics via the sequential loop.  A :class:`MachineWorkload`
        qualifies when its declarative backend resolution — probed with the
        same arguments ``run_with_schedule`` would use — answers the
        compiled per-node backend; any resolution error means the sequential
        loop would raise it per run, so the workload is simply not claimed
        here (reason ``"resolution-error"``).  A
        :class:`CompiledMachineWorkload` always qualifies: its ``run`` is
        ``run_compiled`` under a seeded random-exclusive schedule by
        construction.
        """
        from repro.workloads.machine import CompiledMachineWorkload, MachineWorkload

        options = workload.options
        if type(workload) is MachineWorkload:
            if workload.schedule_factory is not None:
                return None, "schedule-factory"
            if workload.backend_override is not None:
                return None, "backend-override"
            if options.record_trace:
                return None, "record-trace"
            if options.schedule != "random-exclusive":
                return None, "schedule-kind"
            if workload.graph.num_nodes < 1:
                return None, "empty-graph"
            try:
                backend = resolve_backend(
                    options.backend,
                    workload.machine,
                    workload.graph,
                    _PROBE_SCHEDULE,
                    options.record_trace,
                )
            except Exception:  # noqa: BLE001 - the per-run path raises it itself
                return None, "resolution-error"
            if backend is not COMPILED_BACKEND:
                return None, "backend-not-compiled"
            return self._machine_lockstep, None
        if type(workload) is CompiledMachineWorkload:
            if workload.graph.num_nodes < 1:
                return None, "empty-graph"
            return self._compiled_lockstep, None
        return None, "workload-kind"

    def run_rows(
        self,
        workload,
        seeds: list[int],
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """Lockstep-run one row per seed; bit-identical to per-run ``run`` calls."""
        plan, _ = self._plan(workload)
        if plan is None:
            raise ValueError(
                f"workload {type(workload).__name__} is not batch-vectorizable "
                f"on the per-node engine; check resolve_batch_backend before "
                f"dispatching"
            )
        kernel = plan(workload)
        tracer = get_tracer()
        with tracer.span("run", engine=self.name, rows=len(seeds)) as run:
            results = kernel.run(
                [random.Random(seed) for seed in seeds],
                early_stop=early_stop,
                materialise_configurations=materialise_configurations,
            )
            if tracer.enabled:
                run.attrs["iterations"] = kernel.iterations
                run.attrs["retired"] = kernel.retired
        metrics = get_metrics()
        if metrics.enabled:
            retired = kernel.retired
            metrics.counter("engine.runs", engine=self.name).inc(
                len(seeds) - retired["quorum-abandoned"]
            )
            metrics.counter("engine.steps", engine=self.name).inc(kernel.total_steps)
            for reason, count in retired.items():
                if count:
                    metrics.counter("batch.rows_retired", reason=reason).inc(count)
        return results

    # ------------------------------------------------------------------ #
    def _machine_lockstep(self, workload) -> PerNodeLockstep:
        """The kernel of a live machine workload.

        Parity with ``MachineWorkload.run_with_schedule``: an explicit
        ``memo_cap`` is attached to the machine's shared compiled table
        before compiling, and the compilation itself is the cached
        per-machine one every sequential run shares.
        """
        options = workload.options
        if options.memo_cap is not None:
            compile_machine(workload.machine, memo_cap=options.memo_cap)
        return PerNodeLockstep(
            compile_machine(workload.machine),
            workload.graph,
            options.max_steps,
            options.stability_window,
        )

    def _compiled_lockstep(self, workload) -> PerNodeLockstep:
        """The kernel of a pre-compiled (shipped) workload."""
        options = workload.options
        return PerNodeLockstep(
            workload.compiled,
            workload.graph,
            options.max_steps,
            options.stability_window,
        )


VECTOR_PERNODE = VectorizedPerNodeBatchBackend()

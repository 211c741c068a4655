"""Lockstep multi-seed batching for the compiled per-node engine.

:mod:`repro.core.vector_batch` gives count-eligible batches (clique machine
instances, population protocols) the lockstep treatment; everything
*degree-structured* — the cycles, lines, stars, grids and rings of cliques
the paper distinguishes from cliques by their bounded-degree views — would
otherwise execute its ``B`` Monte-Carlo runs one at a time through
:func:`repro.core.compile.run_compiled`.  This module runs all ``B`` seeds of
a non-clique batch in lockstep instead: one exclusive step per row per
iteration, with the per-row work amortised against shared per-instance
analysis.  All per-row state is plain Python lists.

**Bit-identity guarantee.**  Row ``j`` replays sequential run ``j``
draw-for-draw: it owns a private ``random.Random(derive_seed(base_seed, j))``
and consumes it exactly like
``RandomExclusiveSchedule.selections`` does — one ``rng.choice(nodes)`` per
step, inlined as the rejection-sampled ``getrandbits`` loop that
``random.Random._randbelow`` performs on a dense ``range(n)`` node list, so
every intermediate draw is identical, not merely statistically equivalent.
Transitions resolve through the *same* compiled δ table
(:class:`~repro.core.compile.CompiledMachine`, shared per machine across all
rows and with the sequential engine), and consensus is tracked with the same
per-verdict node counters.  The differential suite asserts full
:class:`~repro.core.results.RunResult` equality against
:meth:`~repro.workloads.base.Workload.run_many_sequential` across the
graph-family × schedule × batch-size matrix.

**Stabilisation.**  Every live row has taken exactly ``step`` steps, and a
row's consensus value changes only when one of its nodes flips.  So the
scalar streak rule of ``run_compiled`` reduces to a deadline: a row
stabilises at ``since + window``, where ``since`` is the step at which its
current non-``None`` value began.  :class:`~repro.core.streaks.StreakDeadlines`
keeps that deadline per row, bucketed by due step, so a silent step costs a
row nothing beyond its node draw.  (The sequential engine also breaks on a
long *quiet* streak, but that branch is provably subsumed: during a quiet
stretch the configuration — hence the consensus value — is frozen, so the
consensus streak grows at least as fast and is checked first.)

**What is shared, what is per-row.**  Per row: the ``n`` interned state ids,
the accept/reject node counters, and a *pending-move* vector caching each
node's resolved next state (``-1`` = silent, ``-2`` = needs resolution, else
the successor id).  A flip invalidates the pending entries of the flipped
node and its neighbours — the same O(deg) locality ``run_compiled`` exploits
for its neighbour-count vectors.  Shared across all rows: the compiled memo
table itself, plus a raw-view cache keyed by ``(state id, neighbour ids in
adjacency order)`` that short-circuits the canonical sorted-view-key build;
Monte-Carlo rows of one instance revisit the same local views constantly,
which is where the batch beats ``B`` independent runs.
``EngineOptions.memo_cap`` bounds the raw-view cache exactly like it bounds
the compiled table (entries beyond the cap are recomputed, never stored), so
the cap keeps its "never affects results" contract.

**Retirement and quorum.**  Finished rows (stabilised or out of step
budget) leave the active set; quorum batches reuse
:func:`repro.core.vector_batch.quorum_abandon_bound` to abandon every row
the ``collect_batch`` fold provably cannot consume, as soon as that is
provable.  Eligibility slots into :func:`resolve_batch_backend`'s ladder
*after* the count-based engine: a machine workload qualifies when its
per-run backend resolution lands on the compiled per-node engine (the
``"auto"`` answer for every non-clique graph, or an explicit
``backend="compiled"``), and a pre-compiled shipped workload
(:class:`~repro.workloads.machine.CompiledMachineWorkload`) always does —
its ``run`` *is* ``run_compiled`` under a seeded random-exclusive schedule.
"""

from __future__ import annotations

import random

from repro.core.backends import COMPILED_BACKEND, resolve_backend
from repro.core.compile import canonical_view_key, compile_machine
from repro.core.results import RunResult
from repro.core.scheduler import RandomExclusiveSchedule
from repro.core.streaks import StreakDeadlines
from repro.core.vector_batch import (
    BatchBackend,
    consensus_verdict,
    quorum_abandon_bound,
)
from repro.obs.metrics import get_metrics

#: Pending-move sentinels (successor ids are >= 0, so negatives are free).
_SILENT = -1  # the node's next state equals its current state
_UNRESOLVED = -2  # a neighbour (or the node itself) flipped; re-resolve

_PROBE_SCHEDULE = RandomExclusiveSchedule(seed=0)


class _PerNodeLockstep:
    """All rows of one compiled-machine batch, advanced one step per iteration.

    One instance handles one ``run_rows`` call: the graph analysis (adjacency,
    degrees, initial interned configuration) and the shared raw-view cache are
    built once and reused by every row.  :meth:`run` owns the per-row state.
    """

    def __init__(self, compiled, graph, max_steps: int, stability_window: int):
        self.compiled = compiled
        self.max_steps = max_steps
        self.window = stability_window
        self.n = graph.num_nodes
        self.adj: list[tuple] = [graph.neighbors(v) for v in graph.nodes()]
        self.init_states: list[int] = [
            compiled.init_id(graph.label_of(v)) for v in graph.nodes()
        ]
        #: ``(state id, neighbour ids in adjacency order) -> successor id``.
        #: A raw key pins down the canonical view (the ordered tuple fixes
        #: both the neighbour multiset and the degree), so hitting it skips
        #: the O(deg log deg) sorted-view-key build *and* the table lookup.
        self._view_cache: dict = {}
        # Lookup statistics in the sequential engine's currency: a hit is a
        # transition answered from memo state (raw-view cache or table), a
        # miss is a δ evaluation through step_id.  Flushed once per batch.
        self.hits = 0
        self.misses = 0
        self.evictions = 0  # raw-view stores refused by the memo cap

    # ------------------------------------------------------------------ #
    def _next_state(self, row_states: list, v: int) -> int:
        """The successor id of node ``v`` under one row's configuration.

        Resolution ladder: shared raw-view cache, then the compiled table
        under the canonical view key, then δ via ``step_id`` (which interns
        newly discovered states and memoises under the machine's cap).  The
        raw-view cache respects the same ``memo_cap`` as the table.
        """
        compiled = self.compiled
        sid = row_states[v]
        neighbours = self.adj[v]
        raw_key = (sid, tuple([row_states[u] for u in neighbours]))
        cache = self._view_cache
        nxt = cache.get(raw_key)
        if nxt is not None:
            self.hits += 1
            return nxt
        counts: dict[int, int] = {}
        for u in neighbours:
            s = row_states[u]
            counts[s] = counts.get(s, 0) + 1
        key = canonical_view_key(len(neighbours), counts, compiled.beta)
        row = compiled._table.get(sid)
        nxt = row.get(key) if row is not None else None
        if nxt is None:
            self.misses += 1
            nxt = compiled.step_id(sid, key)
        else:
            self.hits += 1
        cap = compiled.memo_cap
        if cap is None or len(cache) < cap:
            cache[raw_key] = nxt
        else:
            self.evictions += 1
        return nxt

    def _initial_pending(self) -> list[int]:
        """The pending-move vector of the shared initial configuration.

        Every row starts from the same interned configuration, so the
        resolution work (one δ-table walk per node) is done once here and
        the vector is copied per row — which also pre-warms the raw-view
        cache with every initial local view.
        """
        init = self.init_states
        pending = []
        for v in range(self.n):
            nxt = self._next_state(init, v)
            pending.append(_SILENT if nxt == init[v] else nxt)
        return pending

    # ------------------------------------------------------------------ #
    def run(
        self,
        rngs: list,
        early_stop: tuple | None = None,
        materialise_configurations: bool = True,
    ) -> list[RunResult]:
        """Advance every row to completion; one ``RunResult`` per generator.

        The contract is :meth:`repro.core.vector_batch._LockstepRun.run`'s:
        ``early_stop`` is the ``(target, min_runs, runs)`` quorum contract
        and abandons (``None``-slot) every row past the provable
        ``collect_batch`` stop bound; ``materialise_configurations=False``
        retires rows with empty final configurations for callers about to
        drop them.  ``rngs`` must be plain ``random.Random`` instances —
        the inlined node draw replays ``Random.choice`` on a dense node
        list bit-for-bit, which is only the sequential stream for the
        stdlib generator (exactly what seeded schedules construct).
        """
        batch = len(rngs)
        n = self.n
        compiled = self.compiled
        adj = self.adj
        resolve = self._next_state
        # Live references: intern() grows these in place, so states first
        # discovered mid-batch are classified without re-fetching.
        acc = compiled._accepting
        rej = compiled._rejecting

        init = self.init_states
        init_acc = sum(1 for s in init if acc[s])
        init_rej = sum(1 for s in init if rej[s])
        # Accept-first tie-break, mirroring consensus_value / run_compiled.
        init_value = True if init_acc == n else False if init_rej == n else None
        pending0 = self._initial_pending()

        states = [list(init) for _ in range(batch)]
        pending = [list(pending0) for _ in range(batch)]
        num_acc = [init_acc] * batch
        num_rej = [init_rej] * batch
        values = [init_value] * batch
        max_steps = self.max_steps
        deadlines = StreakDeadlines(self.window, max_steps, batch, init_value)
        changed = deadlines.changed
        results: list[RunResult | None] = [None] * batch

        def retire(j: int, step: int, stabilised_at: int | None) -> RunResult:
            return RunResult(
                verdict=consensus_verdict(values[j]),
                steps=step,
                final_configuration=(
                    tuple(compiled.state_of(s) for s in states[j])
                    if materialise_configurations
                    else ()
                ),
                stabilised_at=stabilised_at,
                trace=None,
            )

        # The draw of RandomExclusiveSchedule.selections, inlined: choice()
        # on a dense node list is _randbelow(n), i.e. rejection sampling on
        # bit_length(n) random bits.  Bound methods are hoisted per row.
        bits = n.bit_length()
        # (row, bound getrandbits, pending vector) triples — the hot loop's
        # working set, rebuilt only when the active set changes.
        alive_rows = [(j, rngs[j].getrandbits, pending[j]) for j in range(batch)]
        step = 0
        # Per-row step totals and retirement-reason tally (flushed once).
        total_steps = stabilised_rows = exhausted_rows = 0
        while alive_rows:
            step += 1
            for j, g, pj in alive_rows:
                v = g(bits)
                while v >= n:
                    v = g(bits)
                move = pj[v]
                if move == _SILENT:
                    continue
                row_states = states[j]
                sid = row_states[v]
                if move == _UNRESOLVED:
                    move = resolve(row_states, v)
                    if move == sid:
                        pj[v] = _SILENT
                        continue
                    # No point storing the move: the flip below invalidates
                    # this node's pending entry anyway.
                row_states[v] = move
                na = num_acc[j] + acc[move] - acc[sid]
                nr = num_rej[j] + rej[move] - rej[sid]
                num_acc[j] = na
                num_rej[j] = nr
                pj[v] = _UNRESOLVED
                for u in adj[v]:
                    pj[u] = _UNRESOLVED
                value = True if na == n else False if nr == n else None
                if value is not values[j]:
                    values[j] = value
                    changed(j, value, step)
            retiring = deadlines.due(step)
            for j in retiring:
                results[j] = retire(j, step, step)
            stabilised_rows += len(retiring)
            if step >= max_steps:
                # Every live row has taken exactly `step` steps, so the
                # budget runs out for all of them at once.
                for j, _, _ in alive_rows:
                    if results[j] is None:
                        results[j] = retire(j, step, None)
                        retiring.append(j)
                        exhausted_rows += 1
            if retiring:
                total_steps += step * len(retiring)
                alive_rows = [row for row in alive_rows if results[row[0]] is None]
                if early_stop is not None and alive_rows:
                    bound = quorum_abandon_bound(results, early_stop)
                    if bound is not None:
                        for j, _, _ in alive_rows:
                            if j >= bound:
                                deadlines.cancel(j)
                                total_steps += step
                        alive_rows = [row for row in alive_rows if row[0] < bound]

        compiled.record_lookups(self.hits, self.misses)
        self.hits = 0
        self.misses = 0
        metrics = get_metrics()
        if metrics.enabled:
            abandoned = results.count(None)
            metrics.counter("engine.runs", engine="vector-pernode").inc(
                batch - abandoned
            )
            metrics.counter("engine.steps", engine="vector-pernode").inc(total_steps)
            for reason, count in (
                ("stabilised", stabilised_rows),
                ("exhausted", exhausted_rows),
                ("quorum-abandoned", abandoned),
            ):
                if count:
                    metrics.counter("batch.rows_retired", reason=reason).inc(count)
            if self.evictions:
                metrics.counter("memo.evictions", table="pernode-view").inc(
                    self.evictions
                )
                self.evictions = 0
        return results  # type: ignore[return-value]


class VectorizedPerNodeBatchBackend(BatchBackend):
    """The lockstep batch engine over compiled per-node runs (module docstring)."""

    name = "vector-pernode"

    def supports(self, workload) -> bool:
        """Whether the workload's per-run engine is the compiled per-node one."""
        return self._plan(workload) is not None

    def _plan(self, workload):
        """The lockstep constructor for a workload, or ``None`` if ineligible."""
        return self._plan_reason(workload)[0]

    def _plan_reason(self, workload):
        """``(lockstep constructor, None)``, or ``(None, reason)`` if ineligible.

        Mirrors :meth:`VectorizedBatchBackend._plan_reason`'s exact-type
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
        plan = self._plan(workload)
        if plan is None:
            raise ValueError(
                f"workload {type(workload).__name__} is not batch-vectorizable "
                f"on the per-node engine; check resolve_batch_backend before "
                f"dispatching"
            )
        return plan(workload).run(
            [random.Random(seed) for seed in seeds],
            early_stop=early_stop,
            materialise_configurations=materialise_configurations,
        )

    # ------------------------------------------------------------------ #
    def _machine_lockstep(self, workload) -> _PerNodeLockstep:
        """The lockstep engine of a live machine workload.

        Parity with ``MachineWorkload.run_with_schedule``: an explicit
        ``memo_cap`` is attached to the machine's shared compiled table
        before compiling, and the compilation itself is the cached
        per-machine one every sequential run shares.
        """
        options = workload.options
        if options.memo_cap is not None:
            compile_machine(workload.machine, memo_cap=options.memo_cap)
        return _PerNodeLockstep(
            compile_machine(workload.machine),
            workload.graph,
            options.max_steps,
            options.stability_window,
        )

    def _compiled_lockstep(self, workload) -> _PerNodeLockstep:
        """The lockstep engine of a pre-compiled (shipped) workload."""
        options = workload.options
        return _PerNodeLockstep(
            workload.compiled,
            workload.graph,
            options.max_steps,
            options.stability_window,
        )


VECTOR_PERNODE = VectorizedPerNodeBatchBackend()

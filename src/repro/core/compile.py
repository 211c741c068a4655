"""Compiled transition kernels: interned states and memoised δ lookup tables.

:class:`~repro.core.machine.DistributedMachine` keeps its transition function
``δ : Q × [β]^Q → Q`` as an arbitrary callable — usually a lambda closing over
construction state.  That representation is maximally flexible but pays twice
in the simulation hot loop: every step re-executes python closure code, and
the machine as a whole cannot cross a process boundary (lambdas do not
pickle), so the sweep executor has to rebuild instances inside every worker.

:class:`CompiledMachine` fixes both costs without giving up laziness:

* **Interning** — states are mapped to dense integer ids on first sight, and
  the accepting/rejecting predicates are evaluated once per state and cached
  as flag arrays.  Engines built on top manipulate plain ints.
* **Memoisation** — δ is materialised on demand into lookup tables keyed by
  ``(state id, view key)``, where a view key is the node degree plus the
  β-capped neighbour counts as a sorted tuple of ``(state id, count)`` pairs.
  The capped view is exactly what the model lets a transition observe
  (Section 2.1), so the table is a faithful, loss-free image of δ.
* **Pickling** — everything except the live δ reference is plain data.  A
  pickled :class:`CompiledMachine` carries its interned states, init table,
  flag arrays and the transition entries learned so far; on the other side of
  the boundary it keeps answering every memoised view, and re-binds δ through
  an optional picklable ``loader`` callable the first time it meets a view it
  has not seen (raising :class:`CompiledMachineUnbound` if it has no loader).

Three engines are built on top; the first two share one local-view memo.
The exact decider (:mod:`repro.core.verification`) and the §6.1
bounded-majority protocol (:mod:`repro.constructions.bounded_majority`)
evaluate whole configurations at a time: a :class:`GraphStepper` answers,
for a tuple of state ids, every node's move, memoising per local view —
keyed by ``itemgetter(v, *neighbours)`` of the configuration — for the
length of one exploration or one protocol run.  Neither calls
:func:`~repro.core.configuration.successor`, which stays the reference the
differential tests compare them against.  The table entries these long
explorations leave behind share their ``(state id, count)`` pairs through a
per-machine intern pool, so a large table costs one pair object per distinct
pair rather than one per key.

:class:`PerNodeLockstep` is the per-node kernel, and one kernel serves every
seeded random-exclusive run: a ``B``-row batch of
:mod:`repro.core.vector_pernode`, and a single run of :func:`run_compiled`
as one row.  Each row replays ``RandomExclusiveSchedule`` on its own
generator draw for draw, keeps a pending move per node, and resolves a
stale one through the stepper's local-view dict under the same flat key;
a silent step costs one draw and one list read.

:func:`run_compiled` keeps a generic loop for every other schedule
(synchronous, liberal, subclassed, or drawing from an injected generator):
the configuration is a mutable int array, every node caches its
neighbour-multiset count vector (updated in O(deg) when a neighbour flips),
and consensus is tracked through per-verdict node counters — so one
exclusive step costs O(deg(v)) instead of the reference loop's O(n)
full-configuration rebuild and rescan.  The loop consumes
``schedule.selections(graph)`` exactly like the reference
:class:`~repro.core.backends.PerNodeBackend`.  Either way the same schedule
reproduces the reference run bit for bit: same verdict, same step count,
same ``stabilised_at``, same final configuration.  The differential suites
assert this across graph families.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.core.batch import quorum_abandon_bound
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.core.results import RunResult, consensus_verdict
from repro.core.scheduler import RandomExclusiveSchedule
from repro.core.streaks import StreakDeadlines
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.configuration import Configuration
    from repro.core.graphs import LabeledGraph
    from repro.core.scheduler import ScheduleGenerator

#: A memo key for one neighbourhood view: ``(degree, ((state_id, capped), …))``
#: with the items sorted by state id.  The degree is part of the key because a
#: node legitimately knows ``|N|`` and transition functions may consult it.
ViewKey = tuple


def canonical_view_key(degree: int, counts: dict, beta: int) -> ViewKey:
    """The canonical :data:`ViewKey` of one neighbourhood.

    ``counts`` maps interned neighbour state ids to their *uncapped*
    multiplicities; the key caps each count at ``beta`` (the most a
    transition may observe, Section 2.1) and sorts the items by state id so
    that every engine building keys — the generic :func:`run_compiled`
    loop and the local-view resolver of :class:`GraphStepper` (which the
    per-node kernel shares) — lands on the same table entry for the same
    view.
    """
    return (
        degree,
        tuple(sorted((q, c if c < beta else beta) for q, c in counts.items())),
    )


class CompiledMachineUnbound(RuntimeError):
    """A compiled machine met an unmemoised view with no δ and no loader."""


class CompiledMachine:
    """The integer-interned, table-memoised form of a distributed machine.

    Build one through :func:`compile_machine` (which caches the compilation on
    the source machine so repeated runs share one table).  The instance is
    *bound* while it holds a live reference to the source machine; unpickling
    produces an unbound copy that serves every memoised view from its tables
    and calls ``loader`` (any picklable zero-argument callable returning the
    source :class:`~repro.core.machine.DistributedMachine`) to re-bind on the
    first miss.
    """

    def __init__(
        self,
        machine: DistributedMachine,
        loader: Callable[[], DistributedMachine] | None = None,
        memo_cap: int | None = None,
    ):
        self.name = machine.name
        self.beta = machine.beta
        self.loader = loader
        #: Upper bound on memoised ``(state, view) -> state`` entries; ``None``
        #: is unbounded.  The table grows with distinct views, which on
        #: high-degree graphs under schedule subclasses (the instances the
        #: count backend cannot take) is unbounded in the run length — the cap
        #: turns that into a bounded cache: views beyond it are evaluated
        #: through δ without being stored.
        self.memo_cap = memo_cap
        #: Lookup statistics, accumulated by the engines (see ``stats()``).
        self.hits = 0
        self.misses = 0
        self._entries = 0  # memoised entry count (tracked; table_size verifies)
        self._states: list[State] = []  # id -> state
        self._ids: dict[State, int] = {}  # state -> id
        self._accepting: list[bool] = []  # id -> machine.is_accepting(state)
        self._rejecting: list[bool] = []
        self._init_ids: dict = {}  # label -> id, eagerly filled (finite alphabet)
        self._table: dict[int, dict[ViewKey, int]] = {}  # state id -> view -> id
        self._pairs: dict[tuple[int, int], tuple[int, int]] = {}  # key-pair intern pool
        self._machine: DistributedMachine | None = machine
        for label in machine.alphabet.labels:
            self._init_ids[label] = self.intern(machine.initial_state(label))

    # ------------------------------------------------------------------ #
    # Pickling: drop the live machine, keep every learned table entry.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_machine"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def bound(self) -> bool:
        """Whether a live δ is attached (misses can be resolved directly)."""
        return self._machine is not None

    def bind(self, machine: DistributedMachine) -> None:
        """Re-attach a live source machine (after unpickling).

        The machine must agree with the compiled data; the check is
        necessarily partial (β and the init table), but catches binding a
        different construction outright.  Validation is read-only — the init
        states were interned eagerly at compile time, so a failed bind
        leaves the tables untouched and a later bind of the right machine
        starts clean.
        """
        if machine.beta != self.beta:
            raise ValueError(
                f"cannot bind {machine.name!r} (beta={machine.beta}) to compiled "
                f"{self.name!r} (beta={self.beta})"
            )
        for label, expected in self._init_ids.items():
            if self._ids.get(machine.initial_state(label)) != expected:
                raise ValueError(
                    f"cannot bind {machine.name!r}: init({label!r}) disagrees "
                    f"with the compiled init table of {self.name!r}"
                )
        self._machine = machine

    def _require_source(self) -> DistributedMachine:
        if self._machine is None:
            if self.loader is None:
                raise CompiledMachineUnbound(
                    f"compiled machine {self.name!r} is unbound (unpickled?) and "
                    f"has no loader; bind() a source machine to resolve new views"
                )
            self.bind(self.loader())
        return self._machine

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def intern(self, state: State) -> int:
        """The dense id of ``state``, classifying it on first sight."""
        sid = self._ids.get(state)
        if sid is None:
            machine = self._require_source()
            sid = len(self._states)
            self._states.append(state)
            self._ids[state] = sid
            self._accepting.append(machine.is_accepting(state))
            self._rejecting.append(machine.is_rejecting(state))
        return sid

    def state_of(self, sid: int) -> State:
        return self._states[sid]

    def init_id(self, label) -> int:
        try:
            return self._init_ids[label]
        except KeyError:
            raise ValueError(
                f"label {label!r} not in the alphabet of compiled {self.name!r}"
            ) from None

    def is_accepting_id(self, sid: int) -> bool:
        return self._accepting[sid]

    def is_rejecting_id(self, sid: int) -> bool:
        return self._rejecting[sid]

    # ------------------------------------------------------------------ #
    # Transition evaluation
    # ------------------------------------------------------------------ #
    def step_id(self, sid: int, view_key: ViewKey) -> int:
        """δ on interned ids, memoised; misses decode the view and call δ.

        A miss beyond ``memo_cap`` still answers (δ is evaluated directly)
        but is not stored, so the table never outgrows the cap.
        """
        row = self._table.get(sid)
        if row is None:
            row = self._table[sid] = {}
        nxt = row.get(view_key)
        if nxt is None:
            machine = self._require_source()
            degree, items = view_key
            counts = {self._states[q]: c for q, c in items}
            view = Neighborhood(counts, self.beta, total=degree)
            nxt = self.intern(machine.step(self._states[sid], view))
            if self.memo_cap is None or self._entries < self.memo_cap:
                # Stored keys share their (state id, count) pairs: there are
                # at most |Q|·β distinct ones, against one tuple per pair per
                # key otherwise.
                pairs = self._pairs
                row[(degree, tuple([pairs.setdefault(p, p) for p in items]))] = nxt
                self._entries += 1
            else:
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("memo.evictions", table="compiled").inc()
        return nxt

    # ------------------------------------------------------------------ #
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def table_size(self) -> int:
        """Number of memoised ``(state, view) -> state`` entries."""
        return sum(len(row) for row in self._table.values())

    def record_lookups(self, hits: int, misses: int) -> None:
        """Fold one run's lookup counts into the lifetime statistics.

        The engines keep per-run counters in locals (the hit path is inlined
        in their hot loops) and flush them here once per run.  The same
        counts are mirrored into the process-wide metrics registry
        (``memo.hits{table=compiled}`` / ``memo.misses{table=compiled}``)
        when observability is enabled, so per-machine ``stats()`` and the
        sweep-wide ``repro stats`` report agree by construction.
        """
        self.hits += hits
        self.misses += misses
        metrics = get_metrics()
        if metrics.enabled:
            if hits:
                metrics.counter("memo.hits", table="compiled").inc(hits)
            if misses:
                metrics.counter("memo.misses", table="compiled").inc(misses)

    def stats(self) -> dict:
        """Memo-table health: a thin snapshot view over the flushed counters.

        ``hit_rate`` is ``None`` (never a ``ZeroDivisionError``) before the
        first lookup is recorded.
        """
        lookups = self.hits + self.misses
        return {
            "table_entries": self.table_size,
            "memo_cap": self.memo_cap,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else None,
        }

    def __repr__(self) -> str:
        kind = "bound" if self.bound else "unbound"
        return (
            f"CompiledMachine(name={self.name!r}, beta={self.beta}, "
            f"states={self.num_states}, table={self.table_size}, {kind})"
        )


_CACHE_ATTR = "_compiled_machine_cache"


def compile_machine(
    machine: DistributedMachine,
    loader: Callable[[], DistributedMachine] | None = None,
    memo_cap: int | None = None,
) -> CompiledMachine:
    """The compiled form of ``machine``, cached on the machine itself.

    The cache makes every engine that compiles the same machine object —
    repeated ``run_machine`` calls, all runs of a ``run_many`` batch — share
    one growing transition table.  A ``loader`` passed on a later call is
    attached to the cached compilation if it has none yet; an explicit
    ``memo_cap`` (re)configures the shared table's bound.
    """
    compiled = getattr(machine, _CACHE_ATTR, None)
    if compiled is None:
        with span("compile", machine=machine.name):
            compiled = CompiledMachine(machine, loader=loader, memo_cap=memo_cap)
        machine.__dict__[_CACHE_ATTR] = compiled
    else:
        if loader is not None and compiled.loader is None:
            compiled.loader = loader
        if memo_cap is not None:
            compiled.memo_cap = memo_cap
    return compiled


# ---------------------------------------------------------------------- #
# Whole-configuration moves (the exact decider's kernel)
# ---------------------------------------------------------------------- #
class GraphStepper:
    """Every node's δ move on one graph, for configurations of interned ids.

    :meth:`moves` answers, for a configuration given as a tuple of state ids,
    the id each node would move to if selected.  The answers come from a
    local-view dict keyed by the node's own id followed by its neighbours'
    ids in adjacency order — a key that fixes the degree and the neighbour
    multiset, so any two nodes with equal keys have equal views.  A miss
    builds the :func:`canonical_view_key` and asks the machine's table
    (``step_id`` evaluates δ only when the table has no entry).

    A stepper lives for one exploration, one protocol run or one lockstep
    batch (:class:`PerNodeLockstep`); only the machine's own table outlives
    it.  Its local dict obeys the machine's ``memo_cap`` like the table
    does: views beyond the cap are answered but not stored, and each refusal
    counts as ``memo.evictions{table=pernode-view}``, so the cap never
    affects results.  :meth:`flush` folds its lookup counts into
    :meth:`CompiledMachine.record_lookups`: every per-node answer is a
    lookup, and a δ evaluation is a miss.
    """

    def __init__(self, compiled: CompiledMachine, graph: "LabeledGraph"):
        self.compiled = compiled
        self.adj: list[tuple] = [graph.neighbors(v) for v in graph.nodes()]
        # itemgetter(v, *neighbours) reads a node's key straight off the
        # configuration; an isolated node's key is its bare own id.
        self._views = [itemgetter(v, *adj) for v, adj in enumerate(self.adj)]
        self._local: dict = {}
        self._lookups = 0
        self._misses = 0
        self._evictions = 0  # local stores refused by the memo cap

    def moves(self, config: tuple[int, ...]) -> list[int]:
        """The id every node of ``config`` moves to when it is selected."""
        keys = [view(config) for view in self._views]
        self._lookups += len(keys)
        local = self._local
        try:
            return [local[key] for key in keys]
        except KeyError:
            return [local[key] if key in local else self._resolve(key) for key in keys]

    def _resolve(self, key) -> int:
        own, *neighbours = key if type(key) is tuple else (key,)
        counts: dict[int, int] = {}
        for q in neighbours:
            counts[q] = counts.get(q, 0) + 1
        compiled = self.compiled
        view_key = canonical_view_key(len(neighbours), counts, compiled.beta)
        row = compiled._table.get(own)
        nxt = row.get(view_key) if row is not None else None
        if nxt is None:
            self._misses += 1
            nxt = compiled.step_id(own, view_key)
        local = self._local
        cap = compiled.memo_cap
        if cap is None or len(local) < cap:
            local[key] = nxt
        else:
            self._evictions += 1
        return nxt

    def flush(self) -> None:
        """Record this stepper's lookups on the machine (and in metrics)."""
        self.compiled.record_lookups(self._lookups - self._misses, self._misses)
        if self._evictions:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("memo.evictions", table="pernode-view").inc(
                    self._evictions
                )
        self._lookups = self._misses = self._evictions = 0


# ---------------------------------------------------------------------- #
# The per-node kernel: lockstep rows under seeded exclusive schedules
# ---------------------------------------------------------------------- #
#: Pending-move sentinels (successor ids are >= 0, so negatives are free).
_SILENT = -1  # the node's next state equals its current state
_UNRESOLVED = -2  # a neighbour (or the node itself) flipped; re-resolve


class PerNodeLockstep(GraphStepper):
    """Rows of one compiled machine on one graph, advanced in lockstep.

    The compiled engine for seeded random-exclusive runs: a one-row run is
    :func:`run_compiled`'s single run, a ``B``-row run is the lockstep batch
    of :mod:`repro.core.vector_pernode`.  Row ``j`` replays
    ``RandomExclusiveSchedule.selections`` on its own ``random.Random``
    draw for draw — one ``rng.choice(nodes)`` per step, inlined as the
    rejection-sampled ``getrandbits`` loop ``Random._randbelow`` performs on
    a dense ``range(n)`` node list — so every row is bit-identical to the
    generic selection loop on the same generator.

    Per row: the interned states, the accept/reject node counters and a
    *pending-move* vector caching each node's resolved next state
    (:data:`_SILENT`, :data:`_UNRESOLVED`, or the successor id).  A flip
    invalidates the pending entries of the flipped node and its neighbours.
    Shared by all rows: the stepper's local-view dict, keyed by the flat
    ``itemgetter(v, *neighbours)`` key; only a miss calls the resolver.

    Every live row has taken exactly ``step`` steps, and a row's consensus
    value changes only when one of its nodes flips, so the streak rule of
    the generic loop reduces to a deadline per row
    (:class:`~repro.core.streaks.StreakDeadlines`).  The generic loop's
    quiet-streak rule is subsumed: while the configuration is frozen its
    consensus value is too, so the consensus streak reaches the window
    first.  The budgets must be at least one step (``EngineOptions``
    enforces this); ``start`` replaces the labelled initial configuration.
    """

    def __init__(
        self,
        compiled: CompiledMachine,
        graph: "LabeledGraph",
        max_steps: int,
        stability_window: int,
        start: "Configuration | None" = None,
    ):
        super().__init__(compiled, graph)
        self.max_steps = max_steps
        self.window = stability_window
        self.n = graph.num_nodes
        if start is None:
            self.init_states = [compiled.init_id(graph.label_of(v)) for v in graph.nodes()]
        else:
            self.init_states = [compiled.intern(s) for s in start]
        #: Set by :meth:`run`: lockstep iterations, summed row steps and
        #: row retirements by reason.
        self.iterations = 0
        self.total_steps = 0
        self.retired: dict[str, int] = {}

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
        list bit-for-bit, which is only the selection stream for the stdlib
        generator.
        """
        batch = len(rngs)
        n = self.n
        compiled = self.compiled
        adj = self.adj
        views = self._views
        lookup = self._local.get
        resolve = self._resolve
        # Live references: intern() grows these in place, so states first
        # discovered mid-run are classified without re-fetching.
        acc = compiled._accepting
        rej = compiled._rejecting

        init = self.init_states
        init_acc = sum(1 for s in init if acc[s])
        init_rej = sum(1 for s in init if rej[s])
        # Accept-first tie-break, mirroring consensus_value.
        init_value = True if init_acc == n else False if init_rej == n else None
        # Every row starts from the same configuration: resolve it once
        # (which also warms the local-view dict) and copy it per row.
        pending0 = [
            _SILENT if nxt == sid else nxt for nxt, sid in zip(self.moves(tuple(init)), init)
        ]

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

        bits = n.bit_length()
        # (row, bound getrandbits, pending vector) triples — the hot loop's
        # working set, rebuilt only when the active set changes.
        alive_rows = [(j, rngs[j].getrandbits, pending[j]) for j in range(batch)]
        step = 0
        # Local-view hits and resolver calls stay in locals; flushed once.
        hits = resolved = 0
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
                    key = views[v](row_states)
                    move = lookup(key)
                    if move is None:
                        resolved += 1
                        move = resolve(key)
                    else:
                        hits += 1
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

        self._lookups += hits + resolved
        self.flush()
        self.iterations = step
        self.total_steps = total_steps
        self.retired = {
            "stabilised": stabilised_rows,
            "exhausted": exhausted_rows,
            "quorum-abandoned": results.count(None),
        }
        return results  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Single runs: the kernel for seeded exclusive schedules, else the generic loop
# ---------------------------------------------------------------------- #
def run_compiled(
    compiled: CompiledMachine,
    graph: "LabeledGraph",
    schedule: "ScheduleGenerator",
    *,
    max_steps: int,
    stability_window: int,
    start: "Configuration | None" = None,
) -> RunResult:
    """Run a compiled machine on ``graph`` under ``schedule``; O(deg) per step.

    Bit-identical to :class:`~repro.core.backends.PerNodeBackend` for the
    same arguments (see the module docstring); the only observable it cannot
    produce is a per-step trace.  A seeded :class:`RandomExclusiveSchedule`
    (exact type, no injected generator) runs as one :class:`PerNodeLockstep`
    row on ``random.Random(schedule.seed)``; every other schedule —
    synchronous, liberal, subclassed, or drawing from an injected generator
    whose stream the caller can observe afterwards — runs through the
    generic loop over ``schedule.selections(graph)``.
    """
    if (
        type(schedule) is RandomExclusiveSchedule
        and schedule.rng is None
        and graph.num_nodes > 0
        and max_steps >= 1
        and stability_window >= 1
    ):
        kernel = PerNodeLockstep(compiled, graph, max_steps, stability_window, start)
        [result] = kernel.run([random.Random(schedule.seed)])
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.runs", engine="compiled").inc()
            metrics.counter("engine.steps", engine="compiled").inc(result.steps)
        return result
    n = graph.num_nodes
    adj = [graph.neighbors(v) for v in graph.nodes()]
    if start is not None:
        states = [compiled.intern(s) for s in start]
    else:
        states = [compiled.init_id(graph.label_of(v)) for v in graph.nodes()]

    # Per-node cached neighbour-multiset vectors (uncapped counts; zero
    # entries are deleted so dict size tracks the occupied support).
    nbr_counts: list[dict[int, int]] = []
    for v in range(n):
        counts: dict[int, int] = {}
        for u in adj[v]:
            s = states[u]
            counts[s] = counts.get(s, 0) + 1
        nbr_counts.append(counts)

    # The flag arrays are live references: intern() appends to them in place,
    # so states discovered mid-run are classified without re-fetching.
    acc = compiled._accepting
    rej = compiled._rejecting
    num_acc = sum(1 for s in states if acc[s])
    num_rej = sum(1 for s in states if rej[s])

    beta = compiled.beta
    degrees = [len(neighbours) for neighbours in adj]
    # Per-node memoised view keys, invalidated when a neighbour flips.  A
    # node's own flip does not touch its key: the view excludes the node.
    view_keys: list[ViewKey | None] = [None] * n
    step_id = compiled.step_id
    table = compiled._table  # hit path inlined below; misses go via step_id

    consensus_streak = 0
    quiet_streak = 0
    # Accept-first tie-break, mirroring consensus_value: a configuration in
    # which every state is both accepting and rejecting reads as accepting.
    last = True if num_acc == n else False if num_rej == n else None
    stabilised_at: int | None = None
    step = 0
    # Lookup statistics stay in locals on the hot path; flushed once at the
    # end via record_lookups (a miss that the memo cap keeps out of the table
    # still counts as a miss — repeated δ evaluations are what the counter
    # is there to surface).
    hits = 0
    misses = 0
    for selection in schedule.selections(graph):
        if step >= max_steps:
            break
        step += 1
        # Evaluate every selected node on the *old* configuration.
        flips: list[tuple[int, int, int]] | None = None
        for v in selection:
            sid = states[v]
            key = view_keys[v]
            if key is None:
                key = canonical_view_key(degrees[v], nbr_counts[v], beta)
                view_keys[v] = key
            row = table.get(sid)
            nxt = row.get(key) if row is not None else None
            if nxt is None:
                misses += 1
                nxt = step_id(sid, key)
            else:
                hits += 1
            if nxt != sid:
                if flips is None:
                    flips = []
                flips.append((v, sid, nxt))
        if flips is None:
            quiet_streak += 1
        else:
            quiet_streak = 0
            for v, old, new in flips:
                states[v] = new
                num_acc += acc[new] - acc[old]
                num_rej += rej[new] - rej[old]
                for u in adj[v]:
                    counts = nbr_counts[u]
                    c = counts[old]
                    if c == 1:
                        del counts[old]
                    else:
                        counts[old] = c - 1
                    counts[new] = counts.get(new, 0) + 1
                    view_keys[u] = None
        current = True if num_acc == n else False if num_rej == n else None
        if current is not None and current == last:
            consensus_streak += 1
        else:
            consensus_streak = 0
        last = current
        if consensus_streak >= stability_window:
            stabilised_at = step
            break
        if quiet_streak >= stability_window and current is not None:
            stabilised_at = step
            break

    compiled.record_lookups(hits, misses)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("engine.runs", engine="compiled").inc()
        metrics.counter("engine.steps", engine="compiled").inc(step)
    final_value = True if num_acc == n else False if num_rej == n else None
    configuration = tuple(compiled.state_of(s) for s in states)
    return RunResult(
        verdict=consensus_verdict(final_value),
        steps=step,
        final_configuration=configuration,
        stabilised_at=stabilised_at,
        trace=None,
    )

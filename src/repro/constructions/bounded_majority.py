"""Bounded-degree DAf majority / homogeneous thresholds (Section 6.1, Prop. 6.3).

The paper's most striking positive result: on graphs of degree at most ``k``
a DAf-automaton — counting, stable consensus, but only *adversarial*
fairness — decides every homogeneous threshold predicate
``a1·x1 + … + al·xl ≥ 0``, in particular majority.  The algorithm alternates
two classical phases:

* **Local cancellation** (``P_cancel``, Lemma 6.1): every agent holds an
  integer contribution in ``[-E, E]`` with ``E = max(|a_i|, 2k)``; agents with
  a large positive contribution push single units towards neighbours with
  small contributions (and symmetrically for very negative ones).  Under the
  synchronous scheduler the sum of contributions is preserved and the run
  converges to a configuration where either all contributions are negative
  (the sum is certainly negative → reject) or all lie in ``[-k, k]``.
* **Convergence detection and doubling**: leader agents use weak absence
  detection to find out which of the two outcomes happened; in the second
  case they broadcast ``⟨double⟩``, doubling every contribution (safe because
  all values are small), and cancellation resumes.  If the sum is negative,
  doubling terminates in the all-negative outcome after finitely many rounds;
  if the sum is non-negative, the protocol keeps doubling forever and never
  rejects — which is the correct stable-consensus behaviour for ``≥ 0``.
  Conflicting leaders and interrupted detections park agents in an error
  state ``⊥`` from which ``⟨reset⟩`` restarts the computation with strictly
  fewer leaders (Lemma 6.2).

This module implements ``P_cancel`` alone (:func:`cancellation_machine`, for
Lemma 6.1) and the full §6.1 protocol in the extended model the paper writes
it in (:class:`BoundedDegreeMajorityProtocol`: synchronous scheduling, weak
absence detection, weak broadcasts, resets).  Both step ``P_cancel`` on its
compiled tables through one :class:`~repro.core.compile.GraphStepper` per run.

A protocol run keeps per-node lists of interned contribution ids, role codes
and interned inputs: ⟨cancel⟩ feeds the ids straight to the stepper, facts
about a contribution are memoised per id, detection summarises the followers
once per round, and each broadcast reaction is looked up by (source role,
own role), so a super-step is O(n).  ``step`` converts :class:`AgentState`
lists at its boundary; the object-level super-step it replaced is the test
oracle in ``tests/test_exact_differential.py``, and ``BENCH_backends.json``
times whole runs as ``exact-bounded-majority-decide``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.compile import GraphStepper, compile_machine
from repro.core.configuration import Configuration
from repro.core.graphs import LabeledGraph
from repro.core.labels import Alphabet, Label
from repro.core.machine import DistributedMachine, Neighborhood, State
from repro.core.simulation import Verdict
from repro.obs.metrics import get_metrics
from repro.obs.tracing import get_tracer
from repro.properties.threshold import LinearThresholdProperty


# ---------------------------------------------------------------------- #
# P_cancel — local cancellation (Lemma 6.1)
# ---------------------------------------------------------------------- #
def contribution_bound(coefficients: dict[Label, int], degree_bound: int) -> int:
    """``E = max(|a_1|, …, |a_l|, 2k)`` — the largest contribution an agent stores."""
    magnitudes = [abs(c) for c in coefficients.values()] or [0]
    return max(max(magnitudes), 2 * degree_bound)


def cancellation_machine(
    alphabet: Alphabet, coefficients: dict[Label, int], degree_bound: int
) -> DistributedMachine:
    """``P_cancel``: the synchronous local-cancellation protocol ⟨cancel⟩.

    States are integers in ``[-E, E]``.  In one synchronous step an agent with
    contribution ``x``:

    * ``-k ≤ x ≤ k``   — receives one unit from every neighbour above ``k``
      and sends one unit to (i.e. is debited by) every neighbour below
      ``-k``: ``x ← x − N[-E,-k-1] + N[k+1,E]``;
    * ``x > k``        — sends one unit to every neighbour with contribution
      ``≤ k``: ``x ← x − N[-E,k]``;
    * ``x < -k``       — receives one unit from every neighbour with
      contribution ``≥ -k``: ``x ← x + N[-k,E]``.

    The neighbour counts must be exact, so the machine's counting bound is
    the degree bound ``k`` (legitimate for bounded-degree graphs).
    """
    bound = contribution_bound(coefficients, degree_bound)
    k = degree_bound

    def init(label: Label) -> State:
        return coefficients.get(label, 0)

    def in_range(state: State, low: int, high: int) -> bool:
        return isinstance(state, int) and low <= state <= high

    def delta(state: State, neighborhood: Neighborhood) -> State:
        x = state
        if -k <= x <= k:
            below = neighborhood.count_where(lambda s: in_range(s, -bound, -k - 1))
            above = neighborhood.count_where(lambda s: in_range(s, k + 1, bound))
            return max(-bound, min(bound, x - below + above))
        if x > k:
            small = neighborhood.count_where(lambda s: in_range(s, -bound, k))
            return max(-bound, x - small)
        big = neighborhood.count_where(lambda s: in_range(s, -k, bound))
        return min(bound, x + big)

    return DistributedMachine(
        alphabet=alphabet,
        beta=max(degree_bound, 2),
        init=init,
        delta=delta,
        accepting=None,
        rejecting=None,
        name=f"P_cancel(E={bound}, k={k})",
    )


def run_cancellation(
    machine: DistributedMachine,
    graph: LabeledGraph,
    max_steps: int = 2_000,
) -> tuple[list[Configuration], bool]:
    """Run ``P_cancel`` synchronously until it reaches a fixed point.

    Returns the trace and a flag telling whether a fixed point was reached
    within the step budget.  (On bounded-degree graphs Lemma 6.1 guarantees
    convergence to either all-negative or all-small states; the protocol then
    becomes silent only in the all-small case, so "fixed point" here means
    the configuration stopped changing.)
    """
    stepper = GraphStepper(compile_machine(machine), graph)
    state_of = stepper.compiled.state_of
    ids = tuple(stepper.compiled.init_id(graph.label_of(v)) for v in graph.nodes())
    trace = [tuple(state_of(q) for q in ids)]
    try:
        for _ in range(max_steps):
            # Every node is selected: the moves are the successor.
            nxt = tuple(stepper.moves(ids))
            if nxt == ids:
                trace.append(trace[-1])
                return trace, True
            trace.append(tuple(state_of(q) for q in nxt))
            ids = nxt
        return trace, False
    finally:
        stepper.flush()


def cancellation_converged(configuration: Configuration, degree_bound: int) -> str | None:
    """Classify a ``P_cancel`` configuration per Lemma 6.1.

    Returns ``"negative"`` if every contribution is ≤ -1, ``"small"`` if every
    contribution lies in ``[-k, k]``, and ``None`` otherwise.
    """
    if all(value <= -1 for value in configuration):
        return "negative"
    if all(-degree_bound <= value <= degree_bound for value in configuration):
        return "small"
    return None


# ---------------------------------------------------------------------- #
# The full §6.1 protocol in the extended model
# ---------------------------------------------------------------------- #
@dataclass
class AgentState:
    """The extended-model state of one agent.

    ``contribution`` is the current P_cancel value, ``role`` the leader-layer
    state (one of ``"0"``, ``"L"``, ``"Ldouble"``, ``"Lreject"``, ``"error"``,
    ``"reject"``), and ``initial`` the stored input contribution that
    ``⟨reset⟩`` restores (the ``q0`` component of the paper's states).
    """

    contribution: int
    role: str
    initial: int = 0

    def key(self) -> tuple[int, str, int]:
        return (self.contribution, self.role, self.initial)


#: The leader-layer roles; the protocol's lists hold their index.
_ROLES = ("0", "L", "Ldouble", "Lreject", "error", "reject")
_ZERO, _LEADER, _LDOUBLE, _LREJECT, _ERROR, _REJECT = range(len(_ROLES))
_CODE = {role: code for code, role in enumerate(_ROLES)}
#: What a broadcast does to a contribution.
_KEEP, _DOUBLE, _RESET = range(3)


def _response(source: int, own: int) -> tuple[int, int]:
    """``(role, rule)`` of a non-initiator in role ``own`` hit by ``source``'s broadcast."""
    if source == _ERROR:  # ⟨reset⟩: restart from the stored input
        return _ZERO, _RESET
    if own in (_LEADER, _LDOUBLE, _LREJECT):  # leaders disagreed: error, later ⟨reset⟩
        return _ERROR, _KEEP
    if own == _ZERO:
        return (_ZERO, _DOUBLE) if source == _LDOUBLE else (_REJECT, _KEEP)
    return own, _KEEP


#: Per initiating role: its own move, then every non-initiator's by role.
_INITIATE = {_LDOUBLE: (_LEADER, _DOUBLE), _LREJECT: (_REJECT, _KEEP), _ERROR: (_LEADER, _RESET)}
_RESPOND = {
    source: tuple(_response(source, own) for own in range(len(_ROLES))) for source in _INITIATE
}


class _Memo(dict):
    """``fn(key)``, computed on first lookup and kept."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Run:
    """One graph's super-steps on lists of contribution ids, role codes and input ids."""

    def __init__(self, protocol: "BoundedDegreeMajorityProtocol", graph: LabeledGraph):
        self.compiled = compiled = compile_machine(protocol._cancel)
        self.stepper = GraphStepper(compiled, graph)
        self.rng = protocol._rng
        self.partition = protocol.observation == "partition"
        k, bound, value = protocol.degree_bound, protocol.bound, compiled.state_of
        self.small = _Memo(lambda q: -k <= value(q) <= k)
        self.negative = _Memo(lambda q: value(q) <= -1)
        self.doubled = _Memo(lambda q: compiled.intern(max(-bound, min(bound, 2 * value(q)))))

    def super_step(self, contributions, roles, initial) -> tuple[list[int], list[int]]:
        """⟨cancel⟩, detection, broadcast; returns the new contribution ids and roles."""
        contributions = self.stepper.moves(contributions)  # ⟨cancel⟩
        leaders = [i for i, role in enumerate(roles) if role == _LEADER]
        if leaders:
            roles = self._detect(contributions, roles, leaders)
        initiators = [i for i, role in enumerate(roles) if role in _INITIATE]
        if initiators:
            roles = self._broadcast(contributions, roles, initial, initiators)
        return contributions, roles

    def _detect(self, contributions: list[int], roles: list[int], leaders: list[int]) -> list[int]:
        """Weak absence detection: each leader sees itself and its block of followers.

        Under ``"partition"`` with several leaders each non-leader joins the
        block ``rng.choice`` picks, in index order; otherwise every block.
        """
        small, negative = self.small, self.negative
        if self.partition and len(leaders) > 1:
            choice = self.rng.choice
            blocks = {leader: [set(), True, True] for leader in leaders}
            for q, role in zip(contributions, roles):
                if role != _LEADER:
                    block = blocks[choice(leaders)]
                    block[0].add(role)
                    block[1] = block[1] and small[q]
                    block[2] = block[2] and negative[q]
        else:
            followers = [q for q, role in zip(contributions, roles) if role != _LEADER]
            seen = set(roles) - {_LEADER}
            summary = (seen, all(small[q] for q in followers), all(negative[q] for q in followers))
            blocks = dict.fromkeys(leaders, summary)
        roles = roles[:]
        for leader, (seen_roles, all_small, all_negative) in blocks.items():
            q = contributions[leader]
            if _REJECT in seen_roles:
                roles[leader] = _ERROR
            elif _ERROR in seen_roles:
                roles[leader] = _ZERO
            elif all_small and small[q]:
                roles[leader] = _LDOUBLE
            elif all_negative and negative[q]:
                roles[leader] = _LREJECT
        return roles

    def _broadcast(self, contributions, roles, initial, initiators) -> list[int]:
        """Weak broadcasts; updates ``contributions`` in place, returns the roles.

        Each non-initiator reacts to one initiator: the first under
        ``"global"``, else one drawn by ``rng.choice`` in index order.
        """
        doubled, starters, updated = self.doubled, set(initiators), roles[:]
        choice = self.rng.choice if self.partition else None
        fixed = _RESPOND[roles[initiators[0]]]
        for i, own in enumerate(roles):
            if i in starters:
                role, rule = _INITIATE[own]
            elif choice is None:
                role, rule = fixed[own]
            else:
                role, rule = _RESPOND[roles[choice(initiators)]][own]
            updated[i] = role
            if rule == _DOUBLE:
                contributions[i] = doubled[contributions[i]]
            elif rule == _RESET:
                contributions[i] = initial[i]
        return updated


@dataclass
class BoundedDegreeMajorityProtocol:
    """The §6.1 algorithm at the DA$-with-absence-detection/broadcast level.

    It decides ``Σ coefficients[label] · x_label ≥ 0`` on graphs of degree at
    most ``degree_bound`` under synchronous (hence adversarial-fair)
    scheduling.  One :meth:`step` performs, in order,

    1. a synchronous ⟨cancel⟩ round on the contributions,
    2. weak absence detection by all leaders: a leader that observes only
       small contributions arms ⟨double⟩, only negative ones ⟨reject⟩; one
       that observes an error agent steps down, one that observes the reject
       verdict enters the error state,
    3. the weak broadcasts ⟨double⟩ / ⟨reject⟩ / ⟨reset⟩ of the armed agents
       (a non-initiator reacts to exactly one, chosen adversarially — here the
       lowest id, or at random under ``"partition"``).

    ``observation`` (``"global"`` or a random covering ``"partition"``) is
    what leaders see during absence detection, as in Definition 4.8.
    """

    alphabet: Alphabet
    coefficients: dict[Label, int]
    degree_bound: int
    observation: str = "global"
    seed: int = 0
    name: str = "bounded-degree-majority"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.degree_bound < 1:
            raise ValueError("degree bound must be positive")
        if self.observation not in ("global", "partition"):
            raise ValueError(
                f"observation must be 'global' or 'partition', not {self.observation!r}"
            )
        self.bound = contribution_bound(self.coefficients, self.degree_bound)
        self._cancel = cancellation_machine(self.alphabet, self.coefficients, self.degree_bound)
        self._rng = random.Random(self.seed)

    def initial_configuration(self, graph: LabeledGraph) -> list[AgentState]:
        inputs = (self.coefficients.get(graph.label_of(v), 0) for v in graph.nodes())
        return [AgentState(x, "L", x) for x in inputs]

    def step(self, graph: LabeledGraph, configuration: list[AgentState]) -> list[AgentState]:
        """One synchronous super-step: cancel, detect, broadcast."""
        run = _Run(self, graph)
        try:
            intern = run.compiled.intern
            contributions = [intern(agent.contribution) for agent in configuration]
            roles = [_CODE[agent.role] for agent in configuration]
            initial = [intern(agent.initial) for agent in configuration]
            contributions, roles = run.super_step(contributions, roles, initial)
        finally:
            run.stepper.flush()
        state_of = run.compiled.state_of
        return [
            AgentState(state_of(q), _ROLES[role], agent.initial)
            for q, role, agent in zip(contributions, roles, configuration)
        ]

    def decide(self, graph: LabeledGraph, max_steps: int = 400) -> tuple[Verdict, int]:
        """Run the protocol and report ``(verdict, rounds)``.

        The protocol rejects by flooding the ``reject`` role; it accepts by
        never rejecting, reported once every contribution is non-negative
        with no error pending, or when the budget runs out without a reject.
        """
        if not graph.is_degree_bounded(self.degree_bound):
            raise ValueError(
                f"graph has degree {graph.max_degree()} > bound {self.degree_bound}"
            )
        run = _Run(self, graph)
        initial = [run.compiled.init_id(graph.label_of(v)) for v in graph.nodes()]
        contributions, roles, negative = initial, [_LEADER] * len(initial), run.negative
        tracer = get_tracer()
        with tracer.span("run", engine="bounded-majority") as span:
            try:
                # No reject within the budget is presumed to accept: under
                # stable consensus the sum is then ≥ 0 and doubling goes on.
                verdict, rounds = Verdict.ACCEPT, max_steps
                for step in range(1, max_steps + 1):
                    contributions, roles = run.super_step(contributions, roles, initial)
                    if _ERROR in roles or _REJECT in roles:
                        if roles.count(_REJECT) == len(roles):
                            verdict, rounds = Verdict.REJECT, step
                            break
                    elif not any(negative[q] for q in contributions):
                        # No error pending: the sum is the (doubled) input sum,
                        # ≥ 0, and can never turn all-negative again.
                        verdict, rounds = Verdict.ACCEPT, step
                        break
            finally:
                run.stepper.flush()
            if tracer.enabled:
                span.attrs["rounds"] = rounds
                span.attrs["verdict"] = verdict.value
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.runs", engine="bounded-majority").inc()
            metrics.counter("engine.steps", engine="bounded-majority").inc(rounds)
        return verdict, rounds

    def property(self) -> LinearThresholdProperty:
        """The homogeneous threshold predicate this instance decides."""
        return LinearThresholdProperty(
            alphabet=self.alphabet,
            coefficients=dict(self.coefficients),
            constant=0,
            name=f"Σ {self.coefficients} ≥ 0",
        )


def majority_protocol_bounded(
    alphabet: Alphabet,
    first: Label = "a",
    second: Label = "b",
    degree_bound: int = 3,
    strict: bool = False,
    observation: str = "global",
    seed: int = 0,
) -> BoundedDegreeMajorityProtocol:
    """Majority ``x_first ≥ x_second`` as a §6.1 protocol instance.

    Proposition 6.3 covers homogeneous thresholds, so the faithful predicate
    is the non-strict ``x_first − x_second ≥ 0``.  Strict majority
    ``x_first > x_second`` is the complement of the homogeneous threshold
    ``x_second − x_first ≥ 0`` with the roles swapped; ``strict=True``
    therefore builds the swapped instance — callers obtain the strict verdict
    by negating its answer (the benchmarks do exactly this).
    """
    if strict:
        coefficients = {second: 1, first: -1}
    else:
        coefficients = {first: 1, second: -1}
    return BoundedDegreeMajorityProtocol(
        alphabet=alphabet,
        coefficients=coefficients,
        degree_bound=degree_bound,
        observation=observation,
        seed=seed,
    )

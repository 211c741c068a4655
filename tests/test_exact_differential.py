"""Differential suite for the exact layer: compiled exploration vs ``successor``.

The exact decider and the §6.1 protocol step through the compiled transition
tables (:class:`repro.core.compile.GraphStepper`).  This module keeps a plain
breadth-first search over :func:`repro.core.configuration.successor` — the
reference oracle — and asserts that the compiled route produces the same
configuration graph (order included) and the same decision reports under
both fairness classes.  For the bounded-majority protocol it keeps the
object-level ``AgentState`` super-step (:class:`ReferenceProtocol`) and
asserts equal verdicts, round counts, steps and random-generator states.
"""

from __future__ import annotations

import functools
import random
from collections import deque

import pytest

from repro.constructions.bounded_majority import (
    AgentState,
    BoundedDegreeMajorityProtocol,
    cancellation_machine,
    majority_protocol_bounded,
    run_cancellation,
)
from repro.core.configuration import (
    initial_configuration,
    is_accepting_configuration,
    is_rejecting_configuration,
    successor,
)
from repro.core.graphs import random_connected_graph
from repro.core.labels import Alphabet
from repro.core.scheduler import SelectionMode, permitted_selections
from repro.core.simulation import Verdict
from repro.core.verification import (
    ConfigurationGraph,
    DecisionReport,
    StateSpaceTooLarge,
    bottom_sccs,
    decide_adversarial,
    decide_pseudo_stochastic,
    explore,
    strongly_connected_components,
)
from repro.fuzz.descriptors import build_triple
from repro.fuzz.generators import sample_triple
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.tracing import Tracer, set_tracer

AB = Alphabet.of("a", "b")
#: Exploration budget per case; liberal selection is exponential in the node
#: count, so both sides give up together on the larger triples.
BUDGET = 600
SEEDS = range(24)
MODES = (SelectionMode.SYNCHRONOUS, SelectionMode.EXCLUSIVE, SelectionMode.LIBERAL)


# --------------------------------------------------------------------------- #
# The reference: a plain successor-based BFS and the deciders on top of it
# --------------------------------------------------------------------------- #
def reference_explore(machine, graph, mode, max_configurations=BUDGET):
    selections = permitted_selections(graph, mode)
    initial = initial_configuration(machine, graph)
    seen = {initial}
    order = [initial]
    successors = {}
    edge_selections = {}
    queue = deque([initial])
    while queue:
        configuration = queue.popleft()
        succ_map = {}
        for selection in selections:
            nxt = successor(machine, graph, configuration, selection)
            succ_map.setdefault(nxt, []).append(selection)
        successors[configuration] = tuple(succ_map)
        for nxt, sels in succ_map.items():
            edge_selections[(configuration, nxt)] = tuple(sels)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
                if len(seen) > max_configurations:
                    raise StateSpaceTooLarge(
                        f"more than {max_configurations} reachable configurations"
                    )
    return ConfigurationGraph(initial, order, successors, edge_selections)


def _verdict(all_accept, all_reject):
    if all_accept and not all_reject:
        return Verdict.ACCEPT
    if all_reject and not all_accept:
        return Verdict.REJECT
    return Verdict.INCONSISTENT


def reference_pseudo_stochastic(machine, config_graph):
    bottoms = bottom_sccs(config_graph)
    members = [c for component in bottoms for c in component]
    non_accepting = [c for c in members if not is_accepting_configuration(machine, c)]
    all_accept = not non_accepting
    all_reject = all(is_rejecting_configuration(machine, c) for c in members)
    return DecisionReport(
        verdict=_verdict(all_accept, all_reject),
        configuration_count=config_graph.size,
        bottom_scc_count=len(bottoms),
        witness=non_accepting[0] if non_accepting else None,
        detail="bottom-SCC analysis (pseudo-stochastic fairness)",
    )


def _fair_lasso(config_graph, graph, anchors):
    components = strongly_connected_components(config_graph)
    component_of = {c: idx for idx, comp in enumerate(components) for c in comp}
    all_nodes = frozenset(graph.nodes())
    for anchor in anchors:
        members = set(components[component_of[anchor]])
        if len(members) == 1 and anchor not in config_graph.successors[anchor]:
            continue
        seen = {(anchor, frozenset())}
        queue = deque(seen)
        while queue:
            configuration, covered = queue.popleft()
            for nxt in config_graph.successors[configuration]:
                if nxt not in members:
                    continue
                for selection in config_graph.edge_selections[(configuration, nxt)]:
                    state = (nxt, covered | selection)
                    if nxt == anchor and state[1] == all_nodes:
                        return anchor
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
    return None


def reference_adversarial(machine, graph, config_graph):
    configurations = config_graph.configurations
    breaks_accept = _fair_lasso(
        config_graph, graph,
        [c for c in configurations if not is_accepting_configuration(machine, c)],
    )
    breaks_reject = _fair_lasso(
        config_graph, graph,
        [c for c in configurations if not is_rejecting_configuration(machine, c)],
    )
    verdict = _verdict(breaks_accept is None, breaks_reject is None)
    witness = None
    if verdict is Verdict.INCONSISTENT:
        witness = breaks_accept if breaks_accept is not None else breaks_reject
    return DecisionReport(
        verdict=verdict,
        configuration_count=config_graph.size,
        witness=witness,
        detail="fair-lasso analysis (adversarial fairness)",
    )


def _outcome(call, *args, **kwargs):
    """``call``'s result, with StateSpaceTooLarge as a comparable value."""
    try:
        return call(*args, **kwargs)
    except StateSpaceTooLarge as exc:
        return ("too-large", str(exc))


@functools.lru_cache(maxsize=None)
def _case(seed, mode):
    """The triple of ``seed`` and its reference graph (built once per mode)."""
    machine, graph, _ = build_triple(sample_triple(seed))
    return machine, graph, _outcome(reference_explore, machine, graph, mode)


# --------------------------------------------------------------------------- #
# Exploration and decisions on fuzz-generated triples
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
@pytest.mark.parametrize("seed", SEEDS)
class TestFuzzTriples:
    def test_configuration_graph_matches_reference(self, seed, mode):
        machine, graph, expected = _case(seed, mode)
        actual = _outcome(explore, machine, graph, mode, max_configurations=BUDGET)
        if isinstance(expected, tuple):
            assert actual == expected
            return
        assert actual.initial == expected.initial
        assert actual.configurations == expected.configurations
        assert list(actual.successors.items()) == list(expected.successors.items())
        assert list(actual.edge_selections.items()) == list(
            expected.edge_selections.items()
        )

    def test_pseudo_stochastic_report_matches_reference(self, seed, mode):
        machine, graph, config_graph = _case(seed, mode)
        actual = _outcome(
            decide_pseudo_stochastic, machine, graph, mode, max_configurations=BUDGET
        )
        if isinstance(config_graph, tuple):
            assert actual == config_graph
        else:
            assert actual == reference_pseudo_stochastic(machine, config_graph)

    def test_adversarial_report_matches_reference(self, seed, mode):
        machine, graph, config_graph = _case(seed, mode)
        actual = _outcome(decide_adversarial, machine, graph, mode, max_configurations=BUDGET)
        if isinstance(config_graph, tuple):
            assert actual == config_graph
        else:
            assert actual == reference_adversarial(machine, graph, config_graph)


def test_fuzz_triples_cover_every_verdict():
    """The triples above are not all trivial: they reach every verdict."""
    verdicts = set()
    for seed in SEEDS:
        for mode in MODES:
            machine, _, config_graph = _case(seed, mode)
            if not isinstance(config_graph, tuple):
                verdicts.add(reference_pseudo_stochastic(machine, config_graph).verdict)
    assert verdicts == {Verdict.ACCEPT, Verdict.REJECT, Verdict.INCONSISTENT}


# --------------------------------------------------------------------------- #
# The §6.1 bounded-degree majority protocol
# --------------------------------------------------------------------------- #
class ReferenceProtocol(BoundedDegreeMajorityProtocol):
    """The §6.1 protocol as an object-level ``AgentState`` super-step.

    Every round rebuilds the agent list: ⟨cancel⟩ through ``successor``,
    leaders observing explicit supports, and each non-initiator picking its
    broadcast source in index order — the semantics the interned
    ``decide``/``step`` must reproduce draw for draw.  ``survivors`` counts
    partition detections with followers after which two or more leaders are
    still leaders.
    """

    survivors = 0

    def step(self, graph, configuration):
        configuration = self._cancel_round(graph, configuration)
        configuration = self._detect_round(configuration)
        return self._broadcast_round(configuration)

    def decide(self, graph, max_steps=400):
        configuration = self.initial_configuration(graph)
        for step in range(1, max_steps + 1):
            configuration = self.step(graph, configuration)
            if all(agent.role == "reject" for agent in configuration):
                return Verdict.REJECT, step
            roles = {agent.role for agent in configuration}
            clean = "error" not in roles and "reject" not in roles
            if clean and all(agent.contribution >= 0 for agent in configuration):
                return Verdict.ACCEPT, step
        return Verdict.ACCEPT, max_steps

    def _cancel_round(self, graph, configuration):
        contributions = tuple(agent.contribution for agent in configuration)
        updated = successor(self._cancel, graph, contributions, frozenset(graph.nodes()))
        return [
            AgentState(updated[v], agent.role, agent.initial)
            for v, agent in enumerate(configuration)
        ]

    def _observed_supports(self, configuration, leaders):
        followers = [i for i in range(len(configuration)) if i not in leaders]
        if self.observation == "global" or len(leaders) == 1:
            return {
                leader: [configuration[leader]] + [configuration[i] for i in followers]
                for leader in leaders
            }
        blocks = {leader: [leader] for leader in leaders}
        for index in followers:
            blocks[self._rng.choice(leaders)].append(index)
        return {leader: [configuration[i] for i in block] for leader, block in blocks.items()}

    def _detect_round(self, configuration):
        leaders = [i for i, agent in enumerate(configuration) if agent.role == "L"]
        if not leaders:
            return configuration
        observed = self._observed_supports(configuration, leaders)
        updated = [AgentState(a.contribution, a.role, a.initial) for a in configuration]
        k = self.degree_bound
        for leader in leaders:
            support = observed[leader]
            roles = {agent.role for agent in support}
            contributions = [agent.contribution for agent in support]
            if "reject" in roles:
                updated[leader].role = "error"
            elif "error" in roles:
                updated[leader].role = "0"
            elif all(-k <= value <= k for value in contributions):
                updated[leader].role = "Ldouble"
            elif all(value <= -1 for value in contributions):
                updated[leader].role = "Lreject"
        partitioned = self.observation == "partition" and len(leaders) < len(configuration)
        if partitioned and sum(updated[i].role == "L" for i in leaders) >= 2:
            self.survivors += 1
        return updated

    def _broadcast_round(self, configuration):
        initiators = [
            i
            for i, agent in enumerate(configuration)
            if agent.role in ("Ldouble", "Lreject", "error")
        ]
        if not initiators:
            return configuration
        updated = [AgentState(a.contribution, a.role, a.initial) for a in configuration]
        for index, agent in enumerate(configuration):
            if index in initiators:
                continue
            if self.observation == "global":
                source = configuration[initiators[0]]
            else:
                source = configuration[self._rng.choice(initiators)]
            updated[index] = self._apply_response(agent, source.role)
        for index in initiators:
            updated[index] = self._apply_initiator(configuration[index])
        return updated

    def _apply_response(self, agent, source_role):
        if source_role == "Ldouble":
            if agent.role in ("L", "Ldouble", "Lreject"):
                return AgentState(agent.contribution, "error", agent.initial)
            if agent.role == "0":
                doubled = max(-self.bound, min(self.bound, 2 * agent.contribution))
                return AgentState(doubled, "0", agent.initial)
            return agent
        if source_role == "Lreject":
            if agent.role in ("L", "Ldouble", "Lreject"):
                return AgentState(agent.contribution, "error", agent.initial)
            if agent.role == "0":
                return AgentState(agent.contribution, "reject", agent.initial)
            return agent
        # source_role == "error": ⟨reset⟩ — restart from the stored input.
        return AgentState(agent.initial, "0", agent.initial)

    def _apply_initiator(self, agent):
        if agent.role == "Ldouble":
            doubled = max(-self.bound, min(self.bound, 2 * agent.contribution))
            return AgentState(doubled, "L", agent.initial)
        if agent.role == "Lreject":
            return AgentState(agent.contribution, "reject", agent.initial)
        # error: restart the computation as a leader with the stored input.
        return AgentState(agent.initial, "L", agent.initial)


def _random_bounded_graphs(count, seed, largest=14):
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(3, largest)
        labels = [rng.choice("ab") for _ in range(n)]
        graphs.append(random_connected_graph(AB, labels, max_degree=4, seed=seed * 100 + i))
    return graphs


def _twins(observation, coefficients=None, seed=3):
    """The protocol under test and its reference, on equal parameters."""
    kwargs = dict(
        alphabet=AB,
        coefficients=coefficients or {"a": 1, "b": -1},
        degree_bound=4,
        observation=observation,
        seed=seed,
    )
    return BoundedDegreeMajorityProtocol(**kwargs), ReferenceProtocol(**kwargs)


@pytest.mark.parametrize("observation", ["global", "partition"])
def test_bounded_majority_decide_matches_reference(observation):
    graphs = _random_bounded_graphs(24, seed=5, largest=60)
    protocol, reference = _twins(observation)
    outcomes = []
    for graph in graphs:
        outcome = protocol.decide(graph, 150)
        assert outcome == reference.decide(graph, 150), graph.name
        assert protocol._rng.getstate() == reference._rng.getstate()
        outcomes.append(outcome)
    assert {verdict for verdict, _ in outcomes} == {Verdict.ACCEPT, Verdict.REJECT}
    assert max(graph.num_nodes for graph in graphs) >= 50
    if observation == "partition":
        # The per-follower block draws ran with several leaders left standing.
        assert reference.survivors > 0


@pytest.mark.parametrize("observation", ["global", "partition"])
def test_bounded_majority_step_matches_reference(observation):
    graph = _random_bounded_graphs(1, seed=9, largest=40)[0]
    protocol, reference = _twins(observation, coefficients={"a": 3, "b": -2})
    configuration = protocol.initial_configuration(graph)
    for _ in range(10):
        nxt = protocol.step(graph, configuration)
        assert nxt == reference.step(graph, configuration)
        assert protocol._rng.getstate() == reference._rng.getstate()
        configuration = nxt


@pytest.mark.parametrize("observation", ["global", "partition"])
def test_bounded_majority_step_matches_reference_on_every_role(observation):
    """Mixed configurations reach every (source role, own role) reaction."""
    rng = random.Random(11)
    protocol, reference = _twins(observation)
    roles = ["0", "L", "Ldouble", "Lreject", "error", "reject"]
    for graph in _random_bounded_graphs(30, seed=13, largest=20):
        configuration = [
            AgentState(rng.randint(-8, 8), rng.choice(roles), rng.randint(-1, 1))
            for _ in graph.nodes()
        ]
        assert protocol.step(graph, configuration) == reference.step(graph, configuration)
        assert protocol._rng.getstate() == reference._rng.getstate()


def test_run_cancellation_matches_successor_trace():
    for graph in _random_bounded_graphs(8, seed=7):
        machine = cancellation_machine(AB, {"a": 3, "b": -2}, 4)
        trace, fixed = run_cancellation(machine, graph, max_steps=60)
        expected = [initial_configuration(machine, graph)]
        everyone = frozenset(graph.nodes())
        for _ in range(60):
            expected.append(successor(machine, graph, expected[-1], everyone))
            if expected[-1] == expected[-2]:
                break
        assert trace == expected
        assert fixed == (expected[-1] == expected[-2])


# --------------------------------------------------------------------------- #
# Observability of exact decisions
# --------------------------------------------------------------------------- #
def test_exact_exploration_is_counted_and_traced():
    machine, graph, _ = build_triple(sample_triple(0))
    registry = enable_metrics(reset=True)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        report = decide_pseudo_stochastic(machine, graph, max_configurations=BUDGET)
        counters = registry.snapshot().counters
    finally:
        set_tracer(previous)
        disable_metrics()
    assert counters["engine.runs{engine=exact}"] == 1
    lookups = counters.get("memo.hits{table=compiled}", 0) + counters.get(
        "memo.misses{table=compiled}", 0
    )
    assert lookups == report.configuration_count * graph.num_nodes
    runs = [r for r in tracer.records if r["name"] == "run" and r.get("engine") == "exact"]
    assert [r["configurations"] for r in runs] == [report.configuration_count]


def test_bounded_majority_decide_is_counted_and_traced():
    graph = _random_bounded_graphs(1, seed=9, largest=30)[0]
    protocol = majority_protocol_bounded(AB, degree_bound=4)
    registry = enable_metrics(reset=True)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        verdict, rounds = protocol.decide(graph, 120)
        counters = registry.snapshot().counters
    finally:
        set_tracer(previous)
        disable_metrics()
    assert counters["engine.runs{engine=bounded-majority}"] == 1
    assert counters["engine.steps{engine=bounded-majority}"] == rounds
    lookups = counters.get("memo.hits{table=compiled}", 0) + counters.get(
        "memo.misses{table=compiled}", 0
    )
    assert lookups == rounds * graph.num_nodes
    runs = [
        r for r in tracer.records if r["name"] == "run" and r.get("engine") == "bounded-majority"
    ]
    assert [(r["rounds"], r["verdict"]) for r in runs] == [(rounds, verdict.value)]

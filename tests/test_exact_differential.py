"""Differential suite for the exact layer: compiled exploration vs ``successor``.

The exact decider and the §6.1 protocol step through the compiled transition
tables (:class:`repro.core.compile.GraphStepper`).  This module keeps a plain
breadth-first search over :func:`repro.core.configuration.successor` — the
reference oracle — and asserts that the compiled route produces the same
configuration graph (order included), the same decision reports under both
fairness classes, and the same bounded-majority runs.
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
class ReferenceCancelProtocol(BoundedDegreeMajorityProtocol):
    """The protocol with its ⟨cancel⟩ round evaluated through ``successor``."""

    def _stepper(self, graph):
        self._graph = graph
        return super()._stepper(graph)

    def _cancel_round(self, stepper, configuration):
        contributions = tuple(agent.contribution for agent in configuration)
        everyone = frozenset(self._graph.nodes())
        updated = successor(self._cancel, self._graph, contributions, everyone)
        return [
            AgentState(updated[v], agent.role, agent.initial)
            for v, agent in enumerate(configuration)
        ]


def _random_bounded_graphs(count, seed):
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(3, 14)
        labels = [rng.choice("ab") for _ in range(n)]
        graphs.append(random_connected_graph(AB, labels, max_degree=4, seed=seed * 100 + i))
    return graphs


@pytest.mark.parametrize("observation", ["global", "partition"])
def test_bounded_majority_matches_reference_cancel(observation):
    graphs = _random_bounded_graphs(24, seed=5)
    compiled = majority_protocol_bounded(AB, degree_bound=4, observation=observation, seed=3)
    reference = ReferenceCancelProtocol(
        alphabet=AB,
        coefficients=dict(compiled.coefficients),
        degree_bound=4,
        observation=observation,
        seed=3,
    )
    outcomes = [compiled.decide(graph, 120) for graph in graphs]
    assert outcomes == [reference.decide(graph, 120) for graph in graphs]
    assert {verdict for verdict, _ in outcomes} == {Verdict.ACCEPT, Verdict.REJECT}


def test_bounded_majority_step_matches_reference_cancel():
    graph = _random_bounded_graphs(1, seed=9)[0]
    compiled = majority_protocol_bounded(AB, degree_bound=4)
    reference = ReferenceCancelProtocol(
        alphabet=AB, coefficients=dict(compiled.coefficients), degree_bound=4
    )
    configuration = compiled.initial_configuration(graph)
    for _ in range(10):
        nxt = compiled.step(graph, configuration)
        assert nxt == reference.step(graph, configuration)
        configuration = nxt


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

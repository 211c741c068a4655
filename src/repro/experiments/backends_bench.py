"""Backend-scaling measurements shared by the benchmark driver and the CLI.

The comparison logic used to live inside
``benchmarks/bench_backends_scaling.py``; it moved here so that both the
pytest benchmark (which asserts the ≥ 20× acceptance criterion) and
``python -m repro bench`` (which writes the ``BENCH_backends.json`` artifact)
run the *same* measurement code instead of drifting apart.
"""

from __future__ import annotations

import time

from repro.core import (
    Alphabet,
    RandomExclusiveSchedule,
    SimulationEngine,
    cycle_graph,
    implicit_clique_graph,
)
from repro.core.labels import LabelCount
from repro.experiments.scenarios import local_majority_machine


def compare_backends(
    ab: Alphabet,
    n: int,
    a_count: int,
    per_node_budget: int,
    count_max_steps: int,
    seed: int = 1,
) -> dict:
    """Time both backends on one clique-majority instance.

    The per-node backend runs a fixed step budget (running it to
    stabilisation at n=10⁴ would take minutes); its per-step cost times the
    count backend's full trajectory length estimates the full per-node run.
    """
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = implicit_clique_graph(ab, labels, name=f"clique-{n}")

    count_engine = SimulationEngine(
        max_steps=count_max_steps, stability_window=200, backend="count"
    )
    start = time.perf_counter()
    count_run = count_engine.run_machine(machine, graph, RandomExclusiveSchedule(seed=seed))
    count_time = time.perf_counter() - start

    per_node_engine = SimulationEngine(
        max_steps=per_node_budget, stability_window=10**9, backend="per-node"
    )
    start = time.perf_counter()
    per_node_engine.run_machine(machine, graph, RandomExclusiveSchedule(seed=seed))
    per_node_time = time.perf_counter() - start

    per_node_step_cost = per_node_time / per_node_budget
    estimated_full_per_node = per_node_step_cost * count_run.steps
    return {
        "n": n,
        "verdict": count_run.verdict,
        "count_steps": count_run.steps,
        "count_time": count_time,
        "per_node_budget": per_node_budget,
        "per_node_time": per_node_time,
        "speedup": estimated_full_per_node / max(count_time, 1e-9),
    }


def end_to_end_comparison(ab: Alphabet, n: int, a_count: int, seed: int = 2) -> dict:
    """Both backends run the same instance to stabilisation (feasible n)."""
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = implicit_clique_graph(ab, labels, name=f"clique-{n}")
    timings = {}
    verdicts = {}
    for backend in ("count", "per-node"):
        engine = SimulationEngine(max_steps=200_000, stability_window=200, backend=backend)
        start = time.perf_counter()
        result = engine.run_machine(machine, graph, RandomExclusiveSchedule(seed=seed))
        timings[backend] = time.perf_counter() - start
        verdicts[backend] = result.verdict
    return {
        "verdicts": verdicts,
        "timings": timings,
        "speedup": timings["per-node"] / max(timings["count"], 1e-9),
    }


def compare_pernode_backends(
    ab: Alphabet, n: int, a_count: int, steps: int, seed: int = 4
) -> dict:
    """Compiled vs reference per-node engines on one cycle majority instance.

    The two engines consume the same schedule stream, so for the same seed
    they execute the *same trajectory*; running both to an identical fixed
    step budget makes the wall-time ratio a direct per-step speedup (and the
    equal outcomes double as a differential check).
    """
    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = cycle_graph(ab, labels, name=f"cycle-{n}")
    timings: dict[str, float] = {}
    outcomes: dict[str, tuple] = {}
    for backend in ("per-node", "compiled"):
        engine = SimulationEngine(
            max_steps=steps, stability_window=10**9, backend=backend
        )
        start = time.perf_counter()
        result = engine.run_machine(machine, graph, RandomExclusiveSchedule(seed=seed))
        timings[backend] = time.perf_counter() - start
        outcomes[backend] = (result.verdict.value, result.steps, result.stabilised_at)
    return {
        "section": "pernode",
        "graph": "cycle",
        "n": n,
        "steps": steps,
        "identical_runs": outcomes["per-node"] == outcomes["compiled"],
        "timings": timings,
        "reference_us_per_step": timings["per-node"] / steps * 1e6,
        "compiled_us_per_step": timings["compiled"] / steps * 1e6,
        "speedup": timings["per-node"] / max(timings["compiled"], 1e-9),
    }


def pernode_step_cost_scaling(
    ab: Alphabet,
    small_n: int,
    large_n: int,
    compiled_steps: int,
    reference_steps: int,
    seed: int = 6,
) -> dict:
    """Per-step cost of both per-node engines at two cycle sizes.

    The reference loop pays O(n) per step (configuration rebuild plus
    consensus rescan), so its per-step cost grows with the population; the
    compiled engine pays O(deg) — constant on a cycle.  The cost *ratios*
    between the two sizes make that machine-readable: reference ≈
    ``large_n / small_n``, compiled ≈ 1.
    """
    costs: dict[str, list[float]] = {}
    for backend, budget in (("per-node", reference_steps), ("compiled", compiled_steps)):
        per_step: list[float] = []
        for n in (small_n, large_n):
            machine = local_majority_machine(ab, n)
            a_count = n // 2 + n // 10
            labels = ["a"] * a_count + ["b"] * (n - a_count)
            graph = cycle_graph(ab, labels, name=f"cycle-{n}")
            engine = SimulationEngine(
                max_steps=budget, stability_window=10**9, backend=backend
            )
            start = time.perf_counter()
            engine.run_machine(machine, graph, RandomExclusiveSchedule(seed=seed))
            per_step.append((time.perf_counter() - start) / budget)
        costs[backend] = per_step
    return {
        "section": "pernode",
        "graph": "cycle",
        "sizes": [small_n, large_n],
        "reference_us_per_step": [c * 1e6 for c in costs["per-node"]],
        "compiled_us_per_step": [c * 1e6 for c in costs["compiled"]],
        "reference_cost_ratio": costs["per-node"][1] / max(costs["per-node"][0], 1e-12),
        "compiled_cost_ratio": costs["compiled"][1] / max(costs["compiled"][0], 1e-12),
    }


#: Batch sizes of the count-level ``batch`` series: the small-B range the
#: executor's chunks hit (B ≤ 16) and the large-B range where the shared
#: successor-graph cache pays.
COUNT_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 256, 2048)
#: Batch sizes of the per-node ``batch`` series (largest last).
PERNODE_BATCH_SIZES = (1, 2, 4, 8, 16, 64, 512)
#: Small batches finish in milliseconds, so each batch size is repeated
#: until at least this many runs were timed, keeping each engine's fastest
#: repeat (the first repeat also pays any cold-cache cost).
_MIN_TIMED_RUNS = 32


class GenericLoopSchedule(RandomExclusiveSchedule):
    """A :class:`RandomExclusiveSchedule` the compiled engine runs generically.

    Same draws as its base, but compiled single runs take the kernel only
    for the exact base type, so this subclass keeps a run on the generic
    selection loop of :func:`~repro.core.compile.run_compiled` — the loop
    the kernel is measured against.
    """


def _batch_entries(
    workload, batch_sizes, base_seed: int, name: str, sequential=None, **fields
) -> list[dict]:
    """Lockstep ``run_many`` vs ``run_many_sequential`` at each batch size.

    ``sequential`` (default: ``workload``) is the workload whose per-run
    loop is timed.  Raises ``AssertionError`` if the two batches differ at
    any size: a speedup over a loop the lockstep engine does not reproduce
    means nothing.
    """
    sequential = workload if sequential is None else sequential
    entries: list[dict] = []
    for runs in batch_sizes:
        vectorized_time = sequential_time = float("inf")
        for _ in range(-(-_MIN_TIMED_RUNS // runs)):
            start = time.perf_counter()
            vectorized = workload.run_many(runs=runs, base_seed=base_seed)
            vectorized_time = min(vectorized_time, time.perf_counter() - start)
            start = time.perf_counter()
            looped = sequential.run_many_sequential(runs=runs, base_seed=base_seed)
            sequential_time = min(sequential_time, time.perf_counter() - start)
            if vectorized != looped:
                raise AssertionError(
                    f"{name}: the lockstep batch differs from the sequential "
                    f"loop at B={runs}"
                )
        entries.append(
            {
                "section": "batch",
                "name": f"batch-{name}-B{runs}",
                **fields,
                "runs": runs,
                "identical_batches": True,
                "consensus": vectorized.consensus.value,
                "sequential_time": sequential_time,
                "vectorized_time": vectorized_time,
                "sequential_runs_per_sec": runs / max(sequential_time, 1e-9),
                "vectorized_runs_per_sec": runs / max(vectorized_time, 1e-9),
                "speedup": sequential_time / max(vectorized_time, 1e-9),
            }
        )
    return entries


def batch_throughput(
    scenario: str,
    params: dict,
    engine: dict,
    batch_sizes: tuple[int, ...] = COUNT_BATCH_SIZES,
    base_seed: int = 11,
) -> list[dict]:
    """Sequential vs vectorized ``run_many`` throughput at several batch sizes.

    One entry per batch size ``B``: the same workload runs ``B`` seeds through
    the per-run loop (``run_many_sequential``) and through the lockstep
    engine (``run_many``, which dispatches to it for count-eligible
    workloads), and the entry records both runs/sec figures plus their ratio
    as ``speedup``.  The two batches are compared for equality at every
    ``B`` — a free differential check riding along with every benchmark run
    (``identical_batches``; a mismatch raises).
    """
    from repro.workloads import EngineOptions, InstanceSpec, build_workload

    workload = build_workload(
        InstanceSpec(scenario, dict(params), EngineOptions(**engine))
    )
    return _batch_entries(
        workload, batch_sizes, base_seed, scenario,
        scenario=scenario, params=dict(params),
    )


def pernode_batch_throughput(
    ab: Alphabet,
    n: int,
    a_count: int,
    max_steps: int,
    batch_sizes: tuple[int, ...] = PERNODE_BATCH_SIZES,
    base_seed: int = 13,
) -> list[dict]:
    """Sequential vs lockstep per-node ``run_many`` throughput, non-clique.

    The count-level batch engine is ineligible off the clique, so this is
    the lockstep per-node engine's benchmark: the cycle majority instance of
    the ``pernode`` section (contiguous label blocks freeze immediately, so
    every row runs the full step budget and the wall-time ratio is a clean
    per-step throughput comparison), run as ``B``-seed batches through
    ``run_many`` vs ``run_many_sequential``.  The sequential side runs on
    :class:`GenericLoopSchedule`, i.e. through the generic selection loop
    its committed baseline measured (a plain seeded schedule would reach
    the lockstep kernel itself).  Entry schema matches
    :func:`batch_throughput`, with the equality of the two batches checked
    at every ``B`` (``identical_batches``; a mismatch raises).
    """
    from repro.workloads import EngineOptions, MachineWorkload

    machine = local_majority_machine(ab, n)
    labels = ["a"] * a_count + ["b"] * (n - a_count)
    graph = cycle_graph(ab, labels, name=f"cycle-{n}")
    options = EngineOptions(max_steps=max_steps, stability_window=10**9)
    workload = MachineWorkload(machine=machine, graph=graph, options=options)
    looped = MachineWorkload(
        machine=machine, graph=graph, options=options,
        schedule_factory=GenericLoopSchedule,
    )
    return _batch_entries(
        workload, batch_sizes, base_seed, "cycle-majority", sequential=looped,
        scenario="cycle-majority", graph="cycle", n=n, steps=max_steps,
    )


def pernode_single_run_entry(steps: int, seed: int = 5) -> dict:
    """A seeded single run: the per-node kernel vs the generic loop.

    The instance is the Figure 4 handshake (``rendezvous-parity``, a=5,
    b=22, a 27-cycle), whose handshakes keep about half of all steps live
    for as long as the run lasts — unlike the cycle-majority instance,
    which freezes at once.  Both sides run the same fixed step budget from
    one warm compiled table (best of 3): the kernel under
    :class:`RandomExclusiveSchedule`, the loop under
    :class:`GenericLoopSchedule`.  Their ``RunResult``\ s must be equal, and
    a replay through the reference ``successor`` checks the final
    configuration and counts the live steps (``AssertionError`` otherwise).
    """
    from repro.core.compile import compile_machine, run_compiled
    from repro.core.configuration import initial_configuration, successor
    from repro.workloads import build_workload

    params = {"a": 5, "b": 22}
    workload = build_workload(
        "rendezvous-parity", params, max_steps=steps, stability_window=10**9
    )
    machine, graph = workload.machine, workload.graph
    compiled = compile_machine(machine)

    def run(schedule_type):
        return run_compiled(
            compiled, graph, schedule_type(seed=seed),
            max_steps=steps, stability_window=10**9,
        )

    kernel, kernel_time = _best_of(lambda: run(RandomExclusiveSchedule))
    loop, loop_time = _best_of(lambda: run(GenericLoopSchedule))
    configuration = initial_configuration(machine, graph)
    live = 0
    for selection in RandomExclusiveSchedule(seed=seed).prefix(graph, steps):
        following = successor(machine, graph, configuration, selection)
        live += following != configuration
        configuration = following
    if kernel != loop or kernel.final_configuration != configuration:
        raise AssertionError("pernode single run: the kernel disagrees with the loop")
    return {
        "section": "pernode",
        "name": "pernode-single-run-kernel-vs-generic-loop",
        "scenario": "rendezvous-parity",
        "params": params,
        "graph": "cycle",
        "n": graph.num_nodes,
        "steps": steps,
        "live_share": live / steps,
        "identical_runs": True,
        "kernel_time": kernel_time,
        "loop_time": loop_time,
        "kernel_us_per_step": kernel_time / steps * 1e6,
        "loop_us_per_step": loop_time / steps * 1e6,
        "speedup": loop_time / max(kernel_time, 1e-9),
    }


def population_count_engine_stats(ab: Alphabet, agents: int, seed: int = 3) -> dict:
    """The population-protocol count engine on a large threshold instance."""
    from repro.population import threshold_protocol

    protocol = threshold_protocol(ab, "a", 3)
    half = agents // 2
    count = LabelCount.from_mapping(ab, {"a": half, "b": agents - half})
    start = time.perf_counter()
    verdict, steps = protocol.simulate(
        count, max_steps=20_000_000, seed=seed, method="counts"
    )
    return {
        "agents": agents,
        "verdict": verdict,
        "steps": steps,
        "wall_time": time.perf_counter() - start,
    }


#: Repeats of each ``exact`` and single-run measurement; each side keeps its
#: fastest.
_EXACT_REPEATS = 3
#: Protocol super-steps recorded per graph for the ⟨cancel⟩ round series.
_CANCEL_ROUNDS = 40


def _best_of(call, repeats: int = _EXACT_REPEATS):
    """``(result, fastest wall time)`` over ``repeats`` calls of ``call``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return result, best


def exact_exploration_entry(ab: Alphabet, n: int, a_count: int) -> dict:
    """Compiled ``explore`` vs the reference ``successor`` on one DAF instance.

    The instance is the threshold-DAF automaton (``x_a ≥ 2``) on an
    ``n``-cycle.  The reference side evaluates ``successor`` on every
    (configuration, permitted selection) edge of the explored graph — the
    work the successor-based BFS did — and the compiled side is the whole
    :func:`~repro.core.verification.explore` call, BFS bookkeeping and
    decoding included.  Every reference successor is checked against the
    explored graph; a mismatch raises ``AssertionError``.
    """
    from repro.constructions import threshold_daf_automaton
    from repro.core.configuration import successor
    from repro.core.scheduler import permitted_selections
    from repro.core.verification import explore

    automaton = threshold_daf_automaton(ab, "a", 2)
    machine = automaton.machine
    graph = cycle_graph(ab, ["a"] * a_count + ["b"] * (n - a_count), name=f"cycle-{n}")
    config_graph, compiled_time = _best_of(
        lambda: explore(machine, graph, automaton.selection)
    )
    selections = permitted_selections(graph, automaton.selection)

    def reference() -> list:
        return [
            tuple(successor(machine, graph, configuration, selection) for selection in selections)
            for configuration in config_graph.configurations
        ]

    rows, reference_time = _best_of(reference)
    for configuration, row in zip(config_graph.configurations, rows):
        # The distinct successors in selection order are the explored ones.
        if tuple(dict.fromkeys(row)) != config_graph.successors[configuration]:
            raise AssertionError(
                f"exact cycle-{n}: explore disagrees with successor at {configuration}"
            )
    return {
        "section": "exact",
        "name": f"exact-threshold-daf-cycle-{n}",
        "graph": "cycle",
        "n": n,
        "configurations": config_graph.size,
        "edges": config_graph.size * len(selections),
        "identical_successors": True,
        "reference_time": reference_time,
        "compiled_time": compiled_time,
        "speedup": reference_time / max(compiled_time, 1e-9),
    }


def exact_cancel_rounds_entry(ab: Alphabet, graphs: int, n: int, seed: int = 17) -> dict:
    """The §6.1 ⟨cancel⟩ round: reference ``successor`` vs a ``GraphStepper``.

    Each of ``graphs`` random degree-≤4 graphs with ``n`` nodes contributes
    the contribution vectors the majority protocol passes through in its
    first super-steps (cancellation interleaved with doubling).  Both sides
    then evaluate one synchronous ⟨cancel⟩ round from every recorded vector:
    the reference through ``successor``, the compiled side by interning the
    contributions, asking one stepper per graph for the moves and decoding
    them (``decide`` itself keeps the ids between rounds; see
    :func:`exact_decide_entry`).  The two round results must agree
    (``AssertionError`` otherwise).
    """
    import random

    from repro.constructions import cancellation_machine, majority_protocol_bounded
    from repro.core.compile import GraphStepper, compile_machine
    from repro.core.configuration import successor
    from repro.core.graphs import random_connected_graph

    protocol = majority_protocol_bounded(ab, degree_bound=4)
    machine = cancellation_machine(ab, protocol.coefficients, protocol.degree_bound)
    compiled = compile_machine(machine)
    rng = random.Random(seed)
    cases = []
    for i in range(graphs):
        labels = [rng.choice("ab") for _ in range(n)]
        graph = random_connected_graph(ab, labels, max_degree=4, seed=seed * 1000 + i)
        configuration = protocol.initial_configuration(graph)
        vectors = []
        for _ in range(_CANCEL_ROUNDS):
            vectors.append(tuple(agent.contribution for agent in configuration))
            configuration = protocol.step(graph, configuration)
        cases.append((graph, frozenset(graph.nodes()), vectors))

    def reference() -> list:
        return [
            successor(machine, graph, vector, everyone)
            for graph, everyone, vectors in cases
            for vector in vectors
        ]

    def stepped() -> list:
        intern, state_of = compiled.intern, compiled.state_of
        rounds = []
        for graph, _, vectors in cases:
            stepper = GraphStepper(compiled, graph)
            for vector in vectors:
                moves = stepper.moves(tuple(intern(x) for x in vector))
                rounds.append(tuple(state_of(q) for q in moves))
            stepper.flush()
        return rounds

    expected, reference_time = _best_of(reference)
    actual, compiled_time = _best_of(stepped)
    if actual != expected:
        raise AssertionError("exact cancel rounds: the stepper disagrees with successor")
    return {
        "section": "exact",
        "name": "exact-bounded-majority-cancel-rounds",
        "graph": "random-degree-4",
        "n": n,
        "graphs": graphs,
        "rounds": len(expected),
        "identical_successors": True,
        "reference_time": reference_time,
        "compiled_time": compiled_time,
        "reference_us_per_round": reference_time / len(expected) * 1e6,
        "compiled_us_per_round": compiled_time / len(expected) * 1e6,
        "speedup": reference_time / max(compiled_time, 1e-9),
    }


def exact_decide_entry(
    ab: Alphabet, graphs: int, n: int, max_steps: int = 400, seed: int = 19
) -> dict:
    """Whole §6.1 ``decide`` runs against their ⟨cancel⟩ rounds through ``successor``.

    The protocol side times complete :meth:`BoundedDegreeMajorityProtocol.decide`
    calls on ``graphs`` random degree-≤4 graphs with ``n`` nodes (global
    observation, so repeats draw nothing and give equal runs).  The
    reference side evaluates only the ⟨cancel⟩ round of each of those runs'
    rounds through ``successor``, from the contribution vectors a ``step``
    replay passes through.  ``speedup`` is reference over protocol time, so it
    falls if detection or broadcast grow beyond the ⟨cancel⟩ round's O(n).
    The replay must end where ``decide`` stopped (``AssertionError``
    otherwise).
    """
    import random

    from repro.constructions import cancellation_machine, majority_protocol_bounded
    from repro.core.configuration import successor
    from repro.core.graphs import random_connected_graph
    from repro.core.simulation import Verdict

    protocol = majority_protocol_bounded(ab, degree_bound=4)
    machine = cancellation_machine(ab, protocol.coefficients, protocol.degree_bound)
    rng = random.Random(seed)
    cases = []
    for i in range(graphs):
        labels = [rng.choice("ab") for _ in range(n)]
        cases.append(random_connected_graph(ab, labels, max_degree=4, seed=seed * 1000 + i))
    outcomes, compiled_time = _best_of(
        lambda: [protocol.decide(graph, max_steps) for graph in cases]
    )
    vectors = []
    for graph, (verdict, rounds) in zip(cases, outcomes):
        everyone = frozenset(graph.nodes())
        configuration = protocol.initial_configuration(graph)
        for _ in range(rounds):
            vectors.append((graph, everyone, tuple(a.contribution for a in configuration)))
            configuration = protocol.step(graph, configuration)
        roles = {agent.role for agent in configuration}
        rejected = roles == {"reject"}
        accepted = not roles & {"error", "reject"} and all(
            agent.contribution >= 0 for agent in configuration
        )
        if rejected != (verdict is Verdict.REJECT) or not (
            rejected or accepted or rounds == max_steps
        ):
            raise AssertionError("exact decide: a step replay disagrees with decide")

    def reference() -> list:
        return [successor(machine, graph, vector, everyone) for graph, everyone, vector in vectors]

    _, reference_time = _best_of(reference)
    return {
        "section": "exact",
        "name": "exact-bounded-majority-decide",
        "graph": "random-degree-4",
        "n": n,
        "graphs": graphs,
        "rounds": len(vectors),
        "verdicts": sorted({verdict.value for verdict, _ in outcomes}),
        "identical_runs": True,
        "reference_time": reference_time,
        "compiled_time": compiled_time,
        "reference_us_per_round": reference_time / len(vectors) * 1e6,
        "us_per_round": compiled_time / len(vectors) * 1e6,
        "speedup": reference_time / max(compiled_time, 1e-9),
    }


def exact_entries(ab: Alphabet, quick: bool = False) -> list[dict]:
    """The ``exact`` section: the exact decider's kernel against ``successor``."""
    return [
        exact_exploration_entry(ab, 4, 3),
        exact_exploration_entry(ab, 5, 3),
        exact_cancel_rounds_entry(ab, graphs=8 if quick else 24, n=30),
        exact_decide_entry(ab, graphs=8 if quick else 24, n=30),
    ]


def backend_scaling_entries(quick: bool = False) -> list[dict]:
    """The ``BENCH_backends.json`` entry list; ``quick`` shrinks the sizes."""
    ab = Alphabet.of("a", "b")
    scale = (
        dict(n=2_000, a_count=1_100, per_node_budget=400, count_max_steps=120_000,
             e2e_n=300, e2e_a=170, agents=2_000,
             pn_n=600, pn_a=330, pn_steps=6_000, pn_sizes=(600, 2_400),
             pn_ref_steps=1_500, ps_steps=40_000,
             batch_machine={"a": 600, "b": 120},
             batch_population={"a": 60, "b": 40, "k": 3},
             pb_steps=2_000)
        if quick
        else dict(n=10_000, a_count=5_500, per_node_budget=800, count_max_steps=400_000,
                  e2e_n=600, e2e_a=330, agents=10_000,
                  pn_n=2_000, pn_a=1_100, pn_steps=20_000, pn_sizes=(2_000, 8_000),
                  pn_ref_steps=4_000, ps_steps=200_000,
                  batch_machine={"a": 3_000, "b": 600},
                  batch_population={"a": 60, "b": 40, "k": 3},
                  pb_steps=8_000)
    )
    entries: list[dict] = []
    stats = compare_backends(
        ab, scale["n"], scale["a_count"], scale["per_node_budget"], scale["count_max_steps"]
    )
    entries.append({"name": "count-vs-per-node-estimated", **stats})
    e2e = end_to_end_comparison(ab, scale["e2e_n"], scale["e2e_a"])
    entries.append({"name": "count-vs-per-node-end-to-end", "n": scale["e2e_n"], **e2e})
    entries.append(
        {"name": "population-count-engine", **population_count_engine_stats(ab, scale["agents"])}
    )
    # The "pernode" section: compiled vs reference per-node engines on
    # non-clique instances (the count backend is ineligible there).
    entries.append(
        {
            "name": "pernode-cycle-compiled-vs-reference",
            **compare_pernode_backends(ab, scale["pn_n"], scale["pn_a"], scale["pn_steps"]),
        }
    )
    small, large = scale["pn_sizes"]
    entries.append(
        {
            "name": "pernode-cycle-step-cost-scaling",
            **pernode_step_cost_scaling(
                ab, small, large, scale["pn_steps"], scale["pn_ref_steps"]
            ),
        }
    )
    entries.append(pernode_single_run_entry(scale["ps_steps"]))
    # The "batch" section: Monte-Carlo sweep throughput of the lockstep
    # engines vs the sequential per-run loop across the whole B range, on a
    # count-eligible clique machine scenario and a population scenario ...
    entries.extend(
        batch_throughput(
            "clique-majority",
            scale["batch_machine"],
            {"max_steps": 200_000, "stability_window": 200},
        )
    )
    entries.extend(
        batch_throughput(
            "population-threshold",
            scale["batch_population"],
            {"max_steps": 200_000},
        )
    )
    # ... and the lockstep per-node engine on the n=2000 cycle majority
    # instance (acceptance bar: >= 3x runs/sec at B >= 512).
    entries.extend(pernode_batch_throughput(ab, 2_000, 1_100, scale["pb_steps"]))
    # The "exact" section: the configuration-graph decider's compiled kernel
    # against the reference successor relation.
    entries.extend(exact_entries(ab, quick=quick))
    return entries

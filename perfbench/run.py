"""The repository benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing and the
``repro.obs`` registry off.  ``--trace 1`` alternates untraced and traced
passes over the same inputs, checks that their outputs are equal, and prints
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output check
passes, 1 when one fails and 2 when the program under test is missing.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "montecarlo", "trajectory", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs that finish in seconds (the benchmark's own tests)")
    parser.add_argument("--probe", action="store_true",
                        help="internal: one fresh-interpreter set-up, then exit")
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float | None, int]:
    """The median, the highest of p75/p90/p95/p99/p99.9 with >= 10 samples beyond it, the count."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for level in (75, 90, 95, 99, 99.9):
        if n * (100 - level) / 100 >= 10:
            best = (level, ordered[min(n - 1, int(n * level / 100))])
    return statistics.median(ordered), best, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_command(args) -> list[str]:
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    return command + (["--small"] if args.small else [])


def probe(args) -> int:
    """A fresh interpreter's set-up: import the CLI, then build the workload's inputs."""
    start = time.perf_counter()
    import repro.experiments.cli  # noqa: F401 - the import `python -m repro` pays

    imported = time.perf_counter()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    WORKLOADS[args.workload](args.seed, args.small, OUT)
    print(json.dumps({"import_s": imported - start, "build_s": time.perf_counter() - imported}))
    return 0


def fresh_setups(args, count: int) -> list[dict]:
    """``count`` probe subprocesses, each timed from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_METRICS", None)
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(probe_command(args), env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["wall_s"] = time.perf_counter() - start
        samples.append(sample)
    return samples


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def report_line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<12} {note}".rstrip())


def timing_note(label: str, samples: list[float]) -> str:
    median, best, n = tail(samples)
    high = f", p{best[0]:g} {best[1]:.4g} s" if best else ", no percentile with >= 10 beyond"
    return f"{label}: median {median:.4g} s{high}, n={n}"


# ---------------------------------------------------------------------- #
def untraced(args, bench_cls) -> int:
    from repro.obs.metrics import disable_metrics

    import tracing
    from workloads import digest

    disable_metrics()  # even when REPRO_METRICS is set in the environment
    fresh_setups(args, 1)  # warm-up: byte-compiles src/ once, not counted
    setups = fresh_setups(args, SETUPS)
    workload = bench_cls(args.seed, args.small, OUT)
    if bench_cls.warm_up:
        workload.run_pass(0, tracing.OFF)  # fills the caches the workload reuses
    problems = []
    passes = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < deadline:
        k += 1
        start = time.perf_counter()
        result = workload.run_pass(k, tracing.OFF)
        elapsed = time.perf_counter() - start
        problems += workload.check(k, result)
        passes.append((elapsed, result))

    attempted = sum(r.attempted for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    checked = sum(r.checked for _, r in passes)
    wrong = sum(r.wrong for _, r in passes)
    undecided = sum(r.undecided for _, r in passes)
    # Work over time pooled across passes: the machine's speed drifts in
    # phases, and a pooled rate moves less across them than a median does.
    rate = sum(r.items for _, r in passes) / sum(elapsed for elapsed, _ in passes)
    setup_s = statistics.median(s["wall_s"] for s in setups)
    rss = peak_rss_mb()
    wrong_rate = wrong / checked if checked else 0.0
    undecided_rate = undecided / attempted if attempted else 0.0

    print(f"{args.workload}: seed {args.seed}, {len(passes)} timed passes, "
          f"outputs digest {digest([r.rows for _, r in passes])}")
    report_line("setup_s", setup_s, "s", timing_note(
        f"{SETUPS} fresh set-ups; import {statistics.median(s['import_s'] for s in setups):.3f} s, "
        f"inputs {statistics.median(s['build_s'] for s in setups):.3f} s; wall", [s["wall_s"] for s in setups]))
    report_line(bench_cls.rate, rate, f"{bench_cls.item}/s",
                timing_note("pass time", [elapsed for elapsed, _ in passes]))
    report_line("call latency", statistics.median(
        lat for _, r in passes for lat in r.latencies), "s",
        timing_note("per call", [lat for _, r in passes for lat in r.latencies]))
    report_line("peak_rss_mb", rss, "MB")
    report_line("wrong_verdict_rate", wrong_rate, "ratio", f"{wrong}/{checked} verdicts checked")
    report_line("undecided_rate", undecided_rate, "ratio", f"{undecided}/{attempted} attempted")
    report_line("error_rate", failed / attempted if attempted else 0.0, "ratio",
                f"{failed}/{attempted} attempted")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    emit(not problems, attempted, failed, {
        "setup_s": (setup_s, "s"),
        "items_per_s": (rate, "items/s"),
        "peak_rss_mb": (rss, "MB"),
        "verdict_accuracy": (1.0 - wrong_rate, "ratio"),
        "decided_share": (1.0 - undecided_rate, "ratio"),
    })
    return 1 if problems else 0


def traced(args, bench_cls) -> int:
    from repro.obs.metrics import disable_metrics, enable_metrics

    import layers
    import tracing

    imports = [s["import_s"] for s in fresh_setups(args, 3)]
    workload = bench_cls(args.seed, args.small, OUT)
    if bench_cls.warm_up:
        workload.run_pass(0, tracing.OFF)
    recorder = tracing.Recorder()
    problems = []
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    counters = []
    compile_stats = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < deadline:
        k += 1
        # Alternate which side runs first, so cache warmth favours neither.
        for side in ("plain", "traced") if k % 2 else ("traced", "plain"):
            if side == "plain":
                start = time.perf_counter()
                plain = workload.run_pass(k, tracing.OFF)
                untraced_s += time.perf_counter() - start
                continue
            before = layers.compile_totals(workload, [])
            registry = enable_metrics(reset=True)
            recorder.pass_id = k
            with tracing.installed(recorder):
                start = time.perf_counter()
                with recorder.span("bench.pass", workload=args.workload):
                    observed = workload.run_pass(k, recorder)
                traced_s += time.perf_counter() - start
            counters.append(registry.snapshot().counters)
            disable_metrics()
            after = layers.compile_totals(workload, recorder.built)
            compile_stats.append(layers.compile_delta(before, after))
            recorder.built = []
        if observed.rows != plain.rows:
            problems.append(f"{args.workload} pass {k}: traced outputs differ from untraced ones")
        problems += workload.check(k, observed)
        attempted += observed.attempted
        failed += observed.failed

    metrics = layers.layer_metrics(recorder.spans, k, counters, compile_stats)
    metrics["experiments.import.s"] = (statistics.median(imports), "s")
    metrics["bench.trace_overhead"] = (traced_s / untraced_s - 1, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    with spans_path.open("w") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span.to_dict(), default=str) + "\n")
    print(f"{args.workload}: seed {args.seed}, {k} traced passes "
          f"(+{k} untraced), spans in {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    self_total = sum(value for name, (value, _) in metrics.items() if name.startswith("self."))
    print(f"  self times sum to {self_total:.6f} s per pass; "
          f"traced wall {metrics['bench.traced_wall.s'][0]:.6f} s per pass")
    if abs(self_total - metrics["bench.traced_wall.s"][0]) > 1e-6 * max(1.0, self_total):
        problems.append("span self times do not add up to the traced wall time")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.probe:
        return probe(args)
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    bench_cls = WORKLOADS[args.workload]
    return (traced if args.trace else untraced)(args, bench_cls)


if __name__ == "__main__":
    sys.exit(main())

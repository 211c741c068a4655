"""``src/repro`` runs without numpy.

Both lockstep batch engines keep their per-row state in plain Python lists,
so the CLI import must not pull numpy in, and the batch ladder must pick the
same rungs — with the same results — when numpy cannot be imported at all.
Each check runs in a fresh interpreter so that numpy imported by other tests
(as an oracle) cannot mask a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_leaves_numpy_unloaded():
    proc = _run(
        """
        import sys
        import repro.experiments.cli
        print("numpy" in sys.modules)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_batch_ladder_without_numpy():
    proc = _run(
        """
        import sys
        sys.modules["numpy"] = None  # any `import numpy` now raises
        from repro.core.vector_batch import resolve_batch_backend
        from repro.workloads import EngineOptions, InstanceSpec, build_workload

        for name, params, rung in (
            ("clique-majority", {"a": 6, "b": 3}, "vector-batch"),
            ("exists-label", {"a": 1, "b": 7, "graph": "cycle"}, "vector-pernode"),
        ):
            workload = build_workload(InstanceSpec(name, params, EngineOptions()))
            backend = resolve_batch_backend(workload)
            assert backend is not None and backend.name == rung, (name, backend)
            lockstep = workload.run_many(runs=5, base_seed=3, keep_results=True)
            sequential = workload.run_many_sequential(
                runs=5, base_seed=3, keep_results=True
            )
            assert lockstep == sequential, name
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

"""Spans recorded from outside the program, around calls into each layer.

The benchmark never edits ``src/``.  For a traced pass it replaces the public
entry points of each layer with thin wrappers (:func:`installed`), records
one span per call in memory, and restores the originals afterwards.  A span
is ``(id, name, start, end, parent, pass_id, attrs)``; self time is a span's
duration minus the part of it its child spans cover, so the self times of
every span in a pass add up to the pass's root span (``bench.pass``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pass_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pass": self.pass_id,
            **self.attrs,
        }


class Recorder:
    """An in-memory span stack; single-threaded, like the workloads it times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.pass_id = 0
        #: Workloads ``build_workload`` returned while installed (their
        #: compiled machines feed ``core.compile.*``).
        self.built: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent=parent,
                      pass_id=self.pass_id, attrs=attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def note_built(self, args, kwargs, workload) -> dict:
        self.built.append(workload)
        return {}

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` timed as span ``name``; ``annotate(args, kwargs, result)`` adds attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(args, kwargs, result))
                return result

        return wrapper


class _Off:
    """The untraced stand-in: every ``span`` is a no-op context."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


OFF = _Off()


# ---------------------------------------------------------------------- #
# The wrapped entry points
# ---------------------------------------------------------------------- #
def _rows(args, kwargs, result):
    return {"rows": len(args[2] if len(args) > 2 else kwargs["seeds"])}


def _steps(args, kwargs, result):
    return {"steps": result.steps}


def _population(args, kwargs, result):
    method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
    return {"steps": result[1], "method": "counts" if method == "auto" else method}


def _appended(args, kwargs, result):
    return {"records": result}


def _explored(args, kwargs, result):
    return {"configurations": result.size}


def _rounds(args, kwargs, result):
    return {"rounds": result[1]}


#: ``(module, attribute path, span name, annotate)``.  A function imported by
#: name into another module is listed once per namespace that calls it.
WRAPPED = (
    ("repro.experiments.store", "ResultStore.append", "experiments.store.append", _appended),
    ("repro.experiments.store", "ResultStore.load", "experiments.store.load", None),
    ("repro.experiments.store", "ResultStore.completed_ids", "experiments.store.completed_ids", None),
    ("repro.experiments.report", "summarise", "experiments.summarise", None),
    ("repro.workloads.base", "build_workload", "workloads.build", "built"),
    ("repro.workloads", "build_workload", "workloads.build", "built"),
    ("repro.experiments.executor", "build_workload", "workloads.build", "built"),
    ("repro.workloads.base", "Workload.run_many", "workloads.run_many", None),
    ("repro.workloads.base", "Workload.shippable", "workloads.shippable", None),
    ("repro.workloads.machine", "MachineWorkload.shippable", "workloads.shippable", None),
    ("repro.workloads.machine", "MachineWorkload.run", "workloads.run", None),
    ("repro.workloads.machine", "CompiledMachineWorkload.run", "workloads.run", None),
    ("repro.workloads.population", "PopulationWorkload.run", "workloads.run", None),
    ("repro.core.vector_batch", "VectorizedBatchBackend.run_rows", "core.vector_batch", _rows),
    ("repro.core.vector_pernode", "VectorizedPerNodeBatchBackend.run_rows", "core.vector_pernode", _rows),
    ("repro.core.backends", "CountBasedBackend.run", "core.count", _steps),
    ("repro.core.backends", "run_compiled", "core.compiled", _steps),
    ("repro.workloads.machine", "run_compiled", "core.compiled", _steps),
    ("repro.population.protocol", "PopulationProtocol.simulate", "population.simulate", _population),
    ("repro.core.verification", "explore", "verification.explore", _explored),
    ("repro.core.verification", "bottom_sccs", "verification.sccs", None),
    ("repro.extensions.rendezvous", "bottom_sccs", "verification.sccs", None),
    ("repro.core.verification", "decide", "verification.decide", None),
    ("repro.analysis.harness", "decide", "verification.decide", None),
    ("repro.core.verification", "decide_pseudo_stochastic", "verification.decide", None),
    ("repro.core.verification", "decide_adversarial", "verification.decide", None),
    ("repro.extensions.rendezvous", "GraphPopulationProtocol.decide_pseudo_stochastic",
     "verification.decide", None),
    ("repro.constructions.bounded_majority", "BoundedDegreeMajorityProtocol.decide",
     "constructions.bounded_majority", _rounds),
)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install every wrapper of :data:`WRAPPED`; restore the originals on exit."""
    saved = []
    try:
        for module_name, path, name, annotate in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if annotate == "built":
                annotate = recorder.note_built
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, annotate))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""Shared streak/fixed-point bookkeeping for the simulation engines.

Both count-vector engines — :class:`repro.core.backends._CountRun` (clique
machine instances) and ``PopulationProtocol._simulate_counts`` (pair
interactions) — fast-forward stretches of silent steps geometrically and must
then account for those skipped steps in the stabilisation heuristic: during a
silent stretch the consensus value is constant, so the consensus streak grows
by one per skipped step while a consensus exists.  The two engines have
genuinely different *dynamics* (neighbourhood steps vs ordered pair
interactions), but this accounting is identical, and before this module it was
duplicated in both.

:class:`ConsensusStreakDriver` owns the shared state — step counter, streak,
current consensus value, stabilisation step — and the two operations:

* :meth:`advance_silent` — absorb a stretch of steps that do not change the
  configuration, stabilising mid-stretch if the streak reaches the window
  within the step budget;
* :meth:`record_active` — count one configuration-changing step and update
  the streak against the new consensus value.

The ``value`` tracked here is deliberately generic (``bool | None`` for the
machine engines, :class:`~repro.core.results.Verdict` ``| None`` for the
population engine): the driver only ever compares it for equality and against
``None`` ("no consensus").  The count-level lockstep engine
(:mod:`repro.core.vector_batch`) gives every row its own driver.

:class:`StreakDeadlines` is the same rule for lockstep rows that all take
one step per iteration (the per-node kernel,
:class:`repro.core.compile.PerNodeLockstep`).  There every step counts as
active, and a row's consensus value changes only when one of its
nodes flips, so the streak of a row is simply the number of steps since its
current non-``None`` value began.  The row therefore stabilises at exactly
``since + window``; the class keeps that deadline per row and buckets rows
by it, so rows cost nothing on the steps where their value does not change.
For every row the resulting ``(steps, stabilised_at)`` is what a private
:class:`ConsensusStreakDriver` fed one :meth:`record_active` per step would
report, which is what keeps the lockstep engine bit-identical.
"""

from __future__ import annotations


class ConsensusStreakDriver:
    """Step/streak accounting shared by the count-level simulation engines.

    Parameters
    ----------
    window:
        The stabilisation window: the run stabilises once the same consensus
        value has persisted for this many consecutive steps.
    max_steps:
        Hard bound on the number of scheduler steps.
    value:
        The consensus value of the *initial* configuration (``None`` when it
        is not a consensus).
    """

    __slots__ = ("window", "max_steps", "step", "streak", "value", "stabilised_at")

    def __init__(self, window: int, max_steps: int, value: object | None):
        self.window = window
        self.max_steps = max_steps
        self.step = 0
        self.streak = 0
        self.value = value
        self.stabilised_at: int | None = None

    # ------------------------------------------------------------------ #
    @property
    def exhausted(self) -> bool:
        """Whether the step budget is spent."""
        return self.step >= self.max_steps

    # ------------------------------------------------------------------ #
    def advance_silent(self, silent: int, value: object | None) -> bool:
        """Absorb ``silent`` steps that leave the configuration unchanged.

        ``value`` is the consensus value of the (constant) configuration
        during the stretch.  Returns ``True`` if the run is finished — it
        stabilised mid-stretch (the streak reached the window within the step
        budget) or the budget ran out.  Mirrors the per-node backend exactly:
        the consensus streak grows by one per silent step while a consensus
        exists, and resets never (a silent step cannot change the value).
        """
        if silent <= 0:
            return self.exhausted
        self.value = value
        if value is not None:
            # Steps until the streak reaches the window.
            to_stabilise = max(0, self.window - self.streak)
            if (
                self.streak + silent >= self.window
                and self.step + to_stabilise <= self.max_steps
            ):
                self.step += to_stabilise
                self.streak = self.window
                self.stabilised_at = self.step
                return True
        take = min(silent, self.max_steps - self.step)
        self.step += take
        if value is not None:
            self.streak += take
        return self.exhausted

    def finish_at_fixed_point(self, value: object | None) -> bool:
        """Absorb the rest of the run at a fixed point (every step is silent)."""
        return self.advance_silent(self.max_steps - self.step, value)

    def record_active(self, value: object | None) -> bool:
        """Count one configuration-changing step against the new consensus.

        The streak extends when the new configuration has the same (non-
        ``None``) consensus value as before the step and resets otherwise.
        Returns ``True`` if the streak reached the window.
        """
        self.step += 1
        if value is not None and value == self.value:
            self.streak += 1
        else:
            self.streak = 0
        self.value = value
        if self.streak >= self.window:
            self.stabilised_at = self.step
            return True
        return False


class StreakDeadlines:
    """Consensus-streak deadlines of lockstep rows that step together.

    Parameters
    ----------
    window, max_steps:
        As for :class:`ConsensusStreakDriver`.
    rows:
        The number of rows.
    value:
        The consensus value every row starts from (``None`` when the shared
        initial configuration is not a consensus).

    The owner calls :meth:`changed` whenever a row's consensus value
    changes, and :meth:`due` once after each lockstep step to collect the
    rows whose streak reaches the window on that step.
    """

    __slots__ = ("window", "max_steps", "deadline", "_buckets")

    def __init__(self, window: int, max_steps: int, rows: int, value: object | None):
        self.window = window
        self.max_steps = max_steps
        #: Per row: the step its streak reaches the window, or ``None``.
        self.deadline: list[int | None] = [None] * rows
        self._buckets: dict[int, list[int]] = {}
        if value is not None:
            for row in range(rows):
                self.changed(row, value, 0)

    def changed(self, row: int, value: object | None, step: int) -> None:
        """Row ``row`` holds the new consensus ``value`` from ``step`` on."""
        if value is None:
            self.deadline[row] = None
            return
        due = step + self.window
        self.deadline[row] = due
        if due <= self.max_steps:
            self._buckets.setdefault(due, []).append(row)

    def cancel(self, row: int) -> None:
        """Forget a row that leaves the batch without stabilising."""
        self.deadline[row] = None

    def due(self, step: int) -> list[int]:
        """The rows that stabilise on ``step`` (stale bucket entries skipped)."""
        rows = self._buckets.pop(step, None)
        if not rows:
            return []
        deadline = self.deadline
        return [row for row in rows if deadline[row] == step]

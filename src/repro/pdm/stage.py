"""Staged adaptive plans: declarative I/O for data-dependent algorithms.

A static :class:`~repro.pdm.schedule.IOPlan` fixes every parallel I/O
before anything runs, which suits algorithms whose schedule is a pure
function of the geometry and the permutation.  Adaptive algorithms --
the randomized-placement distribution sort, sample sorts, any schedule
derived from sampled state -- cannot commit to one plan up front: the
I/Os of pass ``k+1`` depend on state that only exists once pass ``k``
has materialized (peeked keys, a randomized placement map).

A :class:`StagedPlan` closes that gap without giving up the plan layer.
It wraps an *emitter*: a generator that yields one declarative
:class:`IOPlan` per stage and, between yields, may observe the
materialized state of the stages so far through a :class:`StageView`.
Each emitted stage is an ordinary plan -- the strict and fast engines,
the optimizer, and the streaming executor run it unchanged -- so an
adaptive algorithm pays for adaptivity only at stage boundaries.

Two ways to run a staged plan:

* :func:`execute_staged` drives the emitter against a live
  :class:`~repro.pdm.system.ParallelDiskSystem`: emit a stage, execute
  it under the chosen engine, let the emitter peek the post-stage
  portions, repeat.  This is the adaptive path.
* :func:`materialize_staged` drives the same emitter against a *pure
  simulation* (a bare portions array advanced by
  :meth:`IOPlan.apply_to`) and concatenates the stages into one static
  :class:`IOPlan`.  For planners whose adaptivity is resolved by the
  input data and a seeded RNG -- the distribution sort on the canonical
  ``fill_identity`` input -- the materialized plan is a pure function
  of ``(geometry, permutation, knobs, seed)`` and therefore cacheable
  through :mod:`repro.pdm.cache`, seed included in the key.

Both paths produce byte-identical portions and identical
:class:`~repro.pdm.stats.IOStats`; the conformance suite
(``tests/core/test_conformance.py``) holds every planner to that across
every engine/optimizer/cache/streaming combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import ValidationError
from repro.pdm.engine import ExecReport, execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan
from repro.pdm.system import EMPTY, ParallelDiskSystem

__all__ = [
    "StageView",
    "SystemStageView",
    "SimulatedStageView",
    "StagedPlan",
    "StagedReport",
    "execute_staged",
    "materialize_staged",
    "identity_portions",
]


class StageView:
    """What an emitter may observe between stages: materialized records.

    Mirrors :meth:`ParallelDiskSystem.peek` -- inspection only, never an
    I/O.  Emitters must derive their schedules exclusively through this
    window so the same emitter runs unchanged against a live system
    (:class:`SystemStageView`) or a pure simulation
    (:class:`SimulatedStageView`).
    """

    geometry: DiskGeometry

    def peek(self, portion: int, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - interface


class SystemStageView(StageView):
    """Live view: peeks the actual system between stage executions."""

    def __init__(self, system: ParallelDiskSystem) -> None:
        self.system = system
        self.geometry = system.geometry

    def peek(self, portion: int, start: int, stop: int) -> np.ndarray:
        return self.system.peek(portion, start, stop)


class SimulatedStageView(StageView):
    """Pure view: a portions array advanced by :meth:`IOPlan.apply_to`.

    No system, no model rules, no stats -- just the data a staged plan's
    stages would have materialized.  ``portions`` is owned by the view
    and mutated in place as stages are applied.
    """

    def __init__(
        self,
        geometry: DiskGeometry,
        portions: np.ndarray,
        simple_io: bool = True,
        empty=EMPTY,
    ) -> None:
        if portions.ndim != 2 or portions.shape[1] != geometry.N:
            raise ValidationError(
                f"simulated portions must have shape (num_portions, N={geometry.N}), "
                f"got {portions.shape}"
            )
        self.geometry = geometry
        self.portions = portions
        self.simple_io = simple_io
        self.empty = empty

    def peek(self, portion: int, start: int, stop: int) -> np.ndarray:
        return self.portions[portion, start:stop].copy()

    def apply(self, plan: IOPlan) -> None:
        plan.apply_to(self.portions, simple_io=self.simple_io, empty=self.empty)


def identity_portions(
    geometry: DiskGeometry,
    num_portions: int = 2,
    source_portion: int = 0,
    empty=EMPTY,
) -> np.ndarray:
    """The canonical initial state: ``fill_identity`` in one portion.

    This is the input contract of the payload-as-source-address
    algorithms (general sort, distribution sort); materializing a
    staged plan from it reproduces exactly the schedule a live run on a
    canonically filled system would take.
    """
    portions = np.full((num_portions, geometry.N), empty, dtype=np.int64)
    portions[source_portion] = np.arange(geometry.N, dtype=np.int64)
    return portions


class StagedPlan:
    """An adaptive plan: a sequence of stages emitted on demand.

    ``emit`` is a callable taking a :class:`StageView` and returning an
    iterator of :class:`IOPlan` stages; between ``yield``s it may peek
    the view to plan the next stage from materialized state.  ``meta``
    carries algorithm-level facts that are pure functions of the
    planner's arguments (pass counts, tuned knobs, final portion) so
    wrappers can report without re-deriving them.
    """

    __slots__ = ("geometry", "_emit", "meta")

    def __init__(
        self,
        geometry: DiskGeometry,
        emit: Callable[[StageView], Iterator[IOPlan]],
        meta=None,
    ) -> None:
        self.geometry = geometry
        self._emit = emit
        self.meta = meta

    def stages(self, view: StageView) -> Iterator[IOPlan]:
        """Iterate the stages against ``view`` (single use per iterator)."""
        if view.geometry != self.geometry:
            raise ValidationError("stage view and staged plan geometries differ")
        for plan in self._emit(view):
            if plan.geometry != self.geometry:
                raise ValidationError(
                    "emitter yielded a stage over a different geometry"
                )
            yield plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StagedPlan(geometry={self.geometry.describe()!r})"


@dataclass
class StagedReport:
    """Aggregate of one staged execution: per-stage reports folded up."""

    engine: str
    stages: int = 0
    passes: int = 0
    host_peak_records: int = 0
    streamed_passes: int = 0
    fell_back: str | None = None
    reports: list[ExecReport] = field(default_factory=list, repr=False)


def execute_staged(
    system: ParallelDiskSystem,
    staged: StagedPlan,
    engine: str = "strict",
    optimize: bool = False,
    stream_records=None,
) -> StagedReport:
    """Run a staged plan adaptively: emit, execute, observe, repeat.

    Each stage executes through :func:`~repro.pdm.engine.execute_plan`
    with the given knobs, so per-stage behavior (rule enforcement,
    fusion, streaming, observer fallback) is exactly that of a static
    plan; the emitter sees the post-stage system state through a
    :class:`SystemStageView` before planning the next stage.
    """
    if staged.geometry != system.geometry:
        raise ValidationError("staged plan and system geometries differ")
    view = SystemStageView(system)
    out = StagedReport(engine=engine)
    for plan in staged.stages(view):
        report = execute_plan(
            system, plan, engine=engine, optimize=optimize,
            stream_records=stream_records,
        )
        out.stages += 1
        out.passes += plan.num_passes
        out.host_peak_records = max(out.host_peak_records, report.host_peak_records)
        out.streamed_passes += report.streamed_passes
        out.fell_back = out.fell_back or report.fell_back
        out.reports.append(report)
    return out


def materialize_staged(
    staged: StagedPlan,
    portions: np.ndarray,
    simple_io: bool = True,
    empty=EMPTY,
) -> IOPlan:
    """Resolve a staged plan into one static :class:`IOPlan`.

    The emitter runs against a :class:`SimulatedStageView` seeded with
    ``portions`` (the *initial* state; consumed by the simulation, pass
    a copy to keep it).  Stages are concatenated without pass merging
    or relabelling, so executing the materialized plan is
    pass-for-pass identical -- portions, stats, memory -- to
    :func:`execute_staged` from the same initial state.
    """
    view = SimulatedStageView(
        staged.geometry, portions, simple_io=simple_io, empty=empty
    )
    plans: list[IOPlan] = []
    for plan in staged.stages(view):
        plans.append(plan)
        view.apply(plan)
    if not plans:
        raise ValidationError("staged plan emitted no stages")
    return IOPlan.concatenate(plans, merge=False)

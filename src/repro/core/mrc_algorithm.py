"""One-pass MRC planner and performer (Table 1; Cormen [4], Section 1).

"Any MRC permutation can be performed by reading in a memoryload,
permuting its records in memory, and writing them out to a (possibly
different) memoryload number."  Reads and writes are both striped, so a
pass costs exactly ``2N/BD`` parallel I/Os, all striped.

Planning is pure: :func:`plan_mrc_pass` turns the permutation into an
:class:`~repro.pdm.schedule.IOPlan` without touching a simulator;
:func:`perform_mrc_pass` executes that plan under either engine.  The
plan is read off the inverse image in bulk: if source memoryload ``ml``
lands in target memoryload ``t``, its ``j``-th write slot is
``A^-1(t*M + j) - ml*M``, one row of the inverse image, so no
memoryload's targets are sorted.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotInClassError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation
from repro.perms.mrc import require_mrc

__all__ = ["plan_mrc_pass", "perform_mrc_pass"]


def plan_mrc_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mrc",
) -> IOPlan:
    """Plan an MRC permutation as one pass of striped reads and writes.

    Raises :class:`NotInClassError` if ``perm`` is not MRC for the
    geometry's memory size.
    """
    g = geometry
    require_mrc(perm, g.m)
    rounds = g.num_memoryloads
    per = g.stripes_per_memoryload
    # One row per target memoryload: row t holds the sources of its M
    # records, in target address order.
    sources = perm.inverse().target_vector().reshape(rounds, g.M)
    source_ml = sources.min(axis=1) >> g.m
    # MRC guarantee: each whole memoryload lands in one memoryload, so
    # each target memoryload gathers from one.
    if ((sources.max(axis=1) >> g.m) != source_ml).any():
        raise NotInClassError(
            "memoryload scattered across target memoryloads; "
            "matrix is not MRC despite passing the form check"
        )
    target_ml = np.empty(rounds, dtype=np.int64)
    target_ml[source_ml] = np.arange(rounds)
    # Source memoryload ml's j-th write slot is the source of its target
    # memoryload's j-th record, counted from the memoryload's first.
    slots = sources[target_ml]
    del sources  # before the builder makes the write-source column
    slots -= (np.arange(rounds, dtype=np.int64) << g.m)[:, None]
    stripes = target_ml[:, None] * per + np.arange(per)
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    builder.memoryload_rounds(
        source_portion,
        target_portion,
        (stripes[:, :, None] << g.d) + np.arange(g.D),
        slots.reshape(rounds, per, g.records_per_stripe),
    )
    return builder.build()


def perform_mrc_pass(
    system: ParallelDiskSystem,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mrc",
    engine: str = "strict",
    cache: PlanCache | None = None,
    stream_records=None,
) -> None:
    """Perform an MRC permutation in one pass (striped reads and writes).

    ``cache`` reuses a compiled plan for repeated (geometry, matrix)
    workloads; ``stream_records`` bounds the executor's host buffer.
    """
    key = plan_key(
        "mrc", system.geometry, perm.matrix, perm.complement,
        source_portion, target_portion, label,
        system.num_portions, system.simple_io,
    )
    cached_execute(
        system, cache, key,
        lambda: (
            plan_mrc_pass(
                system.geometry, perm, source_portion, target_portion, label=label
            ),
            None,
        ),
        engine=engine, stream_records=stream_records,
    )

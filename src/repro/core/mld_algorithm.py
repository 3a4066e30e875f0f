"""One-pass MLD planner and performer (Section 3, Theorem 15).

For each source memoryload: ``M/BD`` *striped* reads bring in ``M``
records; the kernel condition guarantees (Lemmas 13-14 and property 3)
that they cluster into exactly ``M/B`` *full* target blocks distributed
evenly over the disks, ``M/BD`` per disk; ``M/BD`` *independent* writes
put them down.  Total: one pass, ``2N/BD`` parallel I/Os.

The planner *asserts* the three properties as it builds the plan --
planning a random MLD instance is an executable proof of Theorem 15,
and handing it a non-MLD matrix fails loudly (before any I/O) rather
than silently scattering records.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotInClassError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation
from repro.perms.mld import require_mld

__all__ = ["plan_mld_pass", "perform_mld_pass"]


def plan_mld_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mld",
    check_class: bool = True,
) -> IOPlan:
    """Plan an MLD permutation: striped reads, independent writes.

    Even with ``check_class=False`` a non-MLD matrix cannot slip
    through: the in-flight Lemma 13 / property 3 assertions raise
    :class:`NotInClassError` while the plan is being built.
    """
    g = geometry
    if check_class:
        require_mld(perm, g.b, g.m)
    blocks_per_ml = g.blocks_per_memoryload  # M/B
    writes_per_ml = g.stripes_per_memoryload  # M/BD
    rounds = g.num_memoryloads
    # One row per source memoryload: row ml holds the targets of the M
    # records its striped reads bring in, slot by slot.
    targets = perm.target_vector().reshape(rounds, g.M)
    order = np.argsort(targets, axis=1)
    per_block = np.take_along_axis(targets, order, axis=1).reshape(
        rounds, blocks_per_ml, g.B
    )
    block_ids = per_block[:, :, 0] >> g.b

    # Lemma 13: exactly M/B full target blocks.  Each row is sorted, so
    # a group of B targets is one block when its first and last are, and
    # the blocks are distinct when they strictly increase.  Property 3:
    # M/BD blocks per disk.
    clustered = ((per_block[:, :, -1] >> g.b) == block_ids).all(axis=1)
    distinct = (np.diff(block_ids, axis=1) != 0).all(axis=1)
    disks = g.block_disk(block_ids)
    per_disk = np.bincount(
        (disks + g.D * np.arange(rounds)[:, None]).reshape(-1),
        minlength=rounds * g.D,
    ).reshape(rounds, g.D)
    even = (per_disk == writes_per_ml).all(axis=1)
    bad = ~(clustered & distinct & even)
    if bad.any():
        ml = int(np.argmax(bad))  # the first memoryload that fails
        if not clustered[ml]:
            raise NotInClassError(
                "memoryload does not cluster into full target blocks; "
                "the kernel condition (eq. 4) is violated"
            )
        if not distinct[ml]:
            raise NotInClassError("duplicate target blocks within a memoryload")
        raise NotInClassError("target blocks are not spread evenly over the disks")

    # Group blocks by disk and emit M/BD independent writes of D blocks
    # each, one block per disk per write.
    disk_order = np.argsort(disks, axis=1, kind="stable")
    grouped_ids = np.take_along_axis(block_ids, disk_order, axis=1).reshape(
        rounds, g.D, writes_per_ml
    )
    grouped_slots = np.take_along_axis(
        order.reshape(rounds, blocks_per_ml, g.B), disk_order[:, :, None], axis=1
    ).reshape(rounds, g.D, writes_per_ml, g.B)
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    builder.memoryload_rounds(
        source_portion,
        target_portion,
        grouped_ids.transpose(0, 2, 1),
        grouped_slots.transpose(0, 2, 1, 3).reshape(rounds, writes_per_ml, g.D * g.B),
    )
    return builder.build()


def perform_mld_pass(
    system: ParallelDiskSystem,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mld",
    check_class: bool = True,
    engine: str = "strict",
    cache: PlanCache | None = None,
    stream_records=None,
) -> None:
    """Perform an MLD permutation in one pass (striped reads, independent writes).

    ``cache`` reuses a compiled plan for repeated (geometry, matrix)
    workloads; ``stream_records`` bounds the executor's host
    read-stream buffer.
    """
    key = plan_key(
        "mld", system.geometry, perm.matrix, perm.complement,
        source_portion, target_portion, label,
        system.num_portions, system.simple_io,
    )
    cached_execute(
        system, cache, key,
        lambda: (
            plan_mld_pass(
                system.geometry, perm, source_portion, target_portion,
                label=label, check_class=check_class,
            ),
            None,
        ),
        engine=engine, stream_records=stream_records,
    )

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
    image = perm.target_vector()
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    for ml in range(g.num_memoryloads):
        slots = builder.read_memoryload(source_portion, ml)
        targets = image[ml * g.M : (ml + 1) * g.M]
        order = np.argsort(targets)
        sorted_targets = targets[order]

        # Lemma 13: exactly M/B full target blocks.
        per_block_targets = sorted_targets.reshape(blocks_per_ml, g.B)
        block_ids = per_block_targets[:, 0] >> g.b
        if not (per_block_targets >> g.b == block_ids[:, None]).all():
            raise NotInClassError(
                "memoryload does not cluster into full target blocks; "
                "the kernel condition (eq. 4) is violated"
            )
        if np.unique(block_ids).size != blocks_per_ml:
            raise NotInClassError("duplicate target blocks within a memoryload")

        # Property 3: M/BD blocks per disk.
        disks = g.block_disk(block_ids)
        if not (np.bincount(disks, minlength=g.D) == writes_per_ml).all():
            raise NotInClassError(
                "target blocks are not spread evenly over the disks"
            )

        # Group blocks by disk and emit M/BD independent writes of D
        # blocks each, one block per disk per write.
        disk_order = np.argsort(disks, kind="stable")
        grouped_ids = block_ids[disk_order].reshape(g.D, writes_per_ml)
        grouped_slots = slots[order].reshape(blocks_per_ml, g.B)[disk_order].reshape(
            g.D, writes_per_ml, g.B
        )
        for i in range(writes_per_ml):
            builder.write(
                target_portion, grouped_ids[:, i], grouped_slots[:, i].reshape(-1)
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
    optimize: bool = False,
    cache: PlanCache | None = None,
    stream_records=None,
) -> None:
    """Perform an MLD permutation in one pass (striped reads, independent writes).

    ``cache`` reuses a compiled plan for repeated (geometry, matrix)
    workloads; ``optimize`` runs the plan-level rewrites of
    :mod:`repro.pdm.optimize` (fast engine only); ``stream_records``
    bounds the executor's host read-stream buffer.
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
        engine=engine, optimize=optimize, stream_records=stream_records,
    )

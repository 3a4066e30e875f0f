"""Golden reference for the one-pass planners: the per-memoryload code.

These are :func:`plan_mrc_pass`, :func:`plan_mld_pass` and
:func:`plan_inverse_mld_pass` as they were before they read their
routing off the permutation's images in bulk: MRC and MLD argsort each
memoryload's ``M`` targets, and inverse MLD loops over the memoryloads
with one :meth:`PlanBuilder.read` per parallel read.  Kept verbatim
(imports and names aside) as a differential oracle: for every geometry,
permutation and ``check_class``, the bulk planners must build the same
:class:`~repro.pdm.schedule.PassColumns`, column for column, or raise
the same :class:`NotInClassError` with the same text.  Test-only.
"""

from __future__ import annotations

import numpy as np

from repro.core.inverse_mld import require_inverse_mld
from repro.errors import NotInClassError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.perms.bmmc import BMMCPermutation
from repro.perms.mld import require_mld
from repro.perms.mrc import require_mrc

__all__ = [
    "reference_plan_mrc_pass",
    "reference_plan_mld_pass",
    "reference_plan_inverse_mld_pass",
]


def reference_plan_mrc_pass(
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
    # One row per source memoryload, slot by slot.
    targets = perm.target_vector().reshape(rounds, g.M)
    target_ml = targets.min(axis=1) >> g.m
    # MRC guarantee: each whole memoryload lands in one memoryload.
    if ((targets.max(axis=1) >> g.m) != target_ml).any():
        raise NotInClassError(
            "memoryload scattered across target memoryloads; "
            "matrix is not MRC despite passing the form check"
        )
    stripes = target_ml[:, None] * per + np.arange(per)
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    builder.memoryload_rounds(
        source_portion,
        target_portion,
        (stripes[:, :, None] << g.d) + np.arange(g.D),
        np.argsort(targets, axis=1).reshape(rounds, per, g.records_per_stripe),
    )
    return builder.build()


def reference_plan_mld_pass(
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


def _slot_of_block(g: DiskGeometry, read_order_ids: np.ndarray, slots: np.ndarray):
    """Map source addresses to stream slots given blocks in read order.

    ``read_order_ids`` lists the block ids in the order they were read;
    ``slots`` is the concatenation of the slot arrays those reads
    returned (so block ``j`` of the read order owns slots
    ``slots[j*B : (j+1)*B]``).  Returns a vectorized address-to-slot map.
    """
    bases = slots[:: g.B]
    sort_idx = np.argsort(read_order_ids)
    sorted_ids = read_order_ids[sort_idx]
    sorted_bases = bases[sort_idx]

    def lookup(addresses: np.ndarray) -> np.ndarray:
        rows = np.searchsorted(sorted_ids, g.block_of(addresses))
        return sorted_bases[rows] + g.offset(addresses)

    return lookup


def reference_plan_inverse_mld_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "inv-mld",
    check_class: bool = True,
) -> IOPlan:
    """Plan one pass of independent reads and striped writes.

    For each target memoryload: compute the source addresses via the
    inverse map; Lemma 13 on ``A^-1`` guarantees they form ``M/B`` full
    source blocks, ``M/BD`` per disk; read them with ``M/BD``
    independent parallel reads, rearrange in memory (slot permutation),
    and write the target memoryload with ``M/BD`` striped writes.
    Total: ``2N/BD`` parallel I/Os.
    """
    g = geometry
    if check_class:
        require_inverse_mld(perm, g.b, g.m)
    inverse_image = perm.inverse().target_vector()
    blocks_per_ml = g.blocks_per_memoryload
    reads_per_ml = g.stripes_per_memoryload
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    for ml in range(g.num_memoryloads):
        sources = inverse_image[ml * g.M : (ml + 1) * g.M]
        order = np.argsort(sources)
        sorted_sources = sources[order]

        per_block = sorted_sources.reshape(blocks_per_ml, g.B)
        block_ids = per_block[:, 0] >> g.b
        if not (per_block >> g.b == block_ids[:, None]).all():
            raise NotInClassError(
                "target memoryload does not gather from full source "
                "blocks; the inverse kernel condition is violated"
            )
        disks = g.block_disk(block_ids)
        if not (np.bincount(disks, minlength=g.D) == reads_per_ml).all():
            raise NotInClassError("source blocks not spread evenly over disks")

        # Independent reads: one block per disk per parallel read.
        disk_order = np.argsort(disks, kind="stable")
        grouped = block_ids[disk_order].reshape(g.D, reads_per_ml)
        slot_parts = [builder.read(source_portion, grouped[:, i]) for i in range(reads_per_ml)]
        read_order_ids = grouped.T.reshape(-1)
        slot_of = _slot_of_block(g, read_order_ids, np.concatenate(slot_parts))

        # ``sources`` is aligned to ascending target addresses, so the
        # slot permutation below *is* the in-memory rearrangement.
        builder.write_memoryload(target_portion, ml, slot_of(sources))
    return builder.build()

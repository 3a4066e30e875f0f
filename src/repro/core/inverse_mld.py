"""Inverse-MLD permutations: the Section 7 one-pass extension.

The conclusions note that "the inverse of any one-pass permutation is a
one-pass permutation".  For MLD this dualizes Theorem 15 exactly: if
``A^-1`` satisfies the kernel condition, then for each *target*
memoryload the needed source records occupy exactly ``M/B`` full source
blocks spread evenly over the disks (Lemma 13 applied to ``A^-1``), so
one pass of *independent reads* and *striped writes* suffices -- the
mirror image of the MLD discipline.

This extends the paper's one-pass catalog: MRC (striped/striped), MLD
(striped/independent), inverse-MLD (independent/striped).  Both
algorithms here are planners emitting :class:`~repro.pdm.schedule.IOPlan`
objects; the ``perform_*`` wrappers execute them under either engine.

The inverse-MLD plan is the MLD plan's mirror image, read off the
forward image in bulk with no loop over memoryloads: each source block
is keyed by the target memoryload its records go to and by its disk,
one stable sort of the keys groups each round's independent reads by
disk, and one row scatter gives the striped writes' slots.  The
in-flight Lemma 13 and property-3 assertions run on those keys.
"""

from __future__ import annotations

import numpy as np

from repro.bits import linalg
from repro.bits.colops import is_mld_form
from repro.bits.matrix import BitMatrix
from repro.core.mld_algorithm import memoryload_blocks
from repro.errors import NotInClassError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation

__all__ = [
    "is_inverse_mld",
    "plan_inverse_mld_pass",
    "perform_inverse_mld_pass",
    "require_inverse_mld",
    "plan_mld_composition_pass",
    "perform_mld_composition_pass",
]


def is_inverse_mld(perm_or_matrix, b: int, m: int) -> bool:
    """Whether the permutation's *inverse* is MLD."""
    if isinstance(perm_or_matrix, BMMCPermutation):
        matrix = perm_or_matrix.matrix
    elif isinstance(perm_or_matrix, BitMatrix):
        matrix = perm_or_matrix
    else:
        raise NotInClassError(
            f"expected BMMCPermutation or BitMatrix, got {type(perm_or_matrix)}"
        )
    if not linalg.is_nonsingular(matrix):
        return False
    return is_mld_form(linalg.inverse(matrix), b, m)


def require_inverse_mld(perm: BMMCPermutation, b: int, m: int) -> None:
    if not is_inverse_mld(perm, b, m):
        raise NotInClassError(
            "permutation is not inverse-MLD: its inverse characteristic "
            "matrix violates the kernel condition (eq. 4)"
        )


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


def plan_inverse_mld_pass(
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
    rounds = g.num_memoryloads
    per = g.stripes_per_memoryload
    # Row k holds the targets of source block k's B records.  Round t
    # reads target memoryload t's source blocks with independent reads;
    # ``offsets[t, s]`` is where stream slot s's record goes in target
    # memoryload t.
    read_ids, offsets = memoryload_blocks(
        g,
        perm.target_vector().reshape(g.num_blocks, g.B),
        "target memoryload does not gather from full source "
        "blocks; the inverse kernel condition is violated",
        "source blocks not spread evenly over disks",
    )
    # Striped writes put target memoryload t down in address order, so
    # its j-th record comes from the slot s with offsets[t, s] == j.
    slots = np.empty_like(offsets)
    np.put_along_axis(slots, offsets, np.arange(g.M, dtype=np.int64)[None, :], axis=1)
    del offsets  # before the builder makes the write-source column
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    builder.memoryload_rounds(
        source_portion,
        target_portion,
        np.arange(g.num_blocks, dtype=np.int64).reshape(rounds, per, g.D),
        slots.reshape(rounds, per, g.D * g.B),
        read_ids=read_ids,
    )
    return builder.build()


def perform_inverse_mld_pass(
    system: ParallelDiskSystem,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "inv-mld",
    check_class: bool = True,
    engine: str = "strict",
    cache: PlanCache | None = None,
    stream_records=None,
) -> None:
    """Perform an inverse-MLD permutation in one pass."""
    key = plan_key(
        "inv-mld", system.geometry, perm.matrix, perm.complement,
        source_portion, target_portion, label,
        system.num_portions, system.simple_io,
    )
    cached_execute(
        system, cache, key,
        lambda: (
            plan_inverse_mld_pass(
                system.geometry, perm, source_portion, target_portion,
                label=label, check_class=check_class,
            ),
            None,
        ),
        engine=engine, stream_records=stream_records,
    )


def plan_mld_composition_pass(
    geometry: DiskGeometry,
    y_perm: BMMCPermutation,
    x_perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mld-o-mldinv",
) -> IOPlan:
    """Plan ``Y o X^-1`` in one pass, for MLD matrices ``Y`` and ``X``.

    Section 7: "the composition of an MLD permutation with the inverse
    of an MLD permutation is a one-pass permutation."  Operationally:
    both ``X`` and ``Y`` disperse the same *intermediate* memoryload
    space, so for each intermediate memoryload the pass

    1. independent-reads the ``M/B`` full source blocks that ``X`` sent
       that memoryload to (Lemma 13 on ``X``, read backwards),
    2. permutes the ``M`` records in memory (a slot permutation), and
    3. independent-writes the ``M/B`` full target blocks that ``Y``
       disperses the memoryload to (Lemma 13 on ``Y``),

    using ``2 M/BD`` parallel I/Os per memoryload -- one pass in total,
    with *both* sides independent (completing the discipline catalog:
    MRC s/s, MLD s/i, inverse-MLD i/s, MLD o MLD^-1 i/i).
    """
    from repro.perms.mld import require_mld

    g = geometry
    require_mld(x_perm, g.b, g.m)
    require_mld(y_perm, g.b, g.m)
    blocks_per_ml = g.blocks_per_memoryload
    ios_per_side = g.stripes_per_memoryload
    x_image = x_perm.target_vector()
    y_image = y_perm.target_vector()
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    for ml in range(g.num_memoryloads):
        intermediate = slice(ml * g.M, (ml + 1) * g.M)
        # where X put this memoryload (= where we must read from)
        sources = x_image[intermediate]
        # where Y sends this memoryload (= where we must write to)
        targets = y_image[intermediate]

        src_order = np.argsort(sources)
        src_blocks = sources[src_order].reshape(blocks_per_ml, g.B)
        src_ids = src_blocks[:, 0] >> g.b
        if (src_blocks >> g.b != src_ids[:, None]).any():
            raise NotInClassError("X does not disperse into full blocks")
        src_disks = g.block_disk(src_ids)
        if not (np.bincount(src_disks, minlength=g.D) == ios_per_side).all():
            raise NotInClassError("X's blocks not spread evenly over disks")

        # Independent reads, one block per disk per operation.
        order_by_disk = np.argsort(src_disks, kind="stable")
        read_ids = src_ids[order_by_disk].reshape(g.D, ios_per_side)
        slot_parts = [builder.read(source_portion, read_ids[:, i]) for i in range(ios_per_side)]
        slot_of = _slot_of_block(g, read_ids.T.reshape(-1), np.concatenate(slot_parts))
        # record with intermediate address a sits at source address X(a):
        slot_of_intermediate = slot_of(sources)

        # Cluster by target block and independent-write.
        tgt_order = np.argsort(targets)
        tgt_blocks = targets[tgt_order].reshape(blocks_per_ml, g.B)
        tgt_ids = tgt_blocks[:, 0] >> g.b
        if (tgt_blocks >> g.b != tgt_ids[:, None]).any():
            raise NotInClassError("Y does not disperse into full blocks")
        tgt_disks = g.block_disk(tgt_ids)
        if not (np.bincount(tgt_disks, minlength=g.D) == ios_per_side).all():
            raise NotInClassError("Y's blocks not spread evenly over disks")
        sorted_slots = slot_of_intermediate[tgt_order].reshape(blocks_per_ml, g.B)
        order_by_disk = np.argsort(tgt_disks, kind="stable")
        write_ids = tgt_ids[order_by_disk].reshape(g.D, ios_per_side)
        write_slots = sorted_slots[order_by_disk].reshape(g.D, ios_per_side, g.B)
        for i in range(ios_per_side):
            builder.write(
                target_portion, write_ids[:, i], write_slots[:, i].reshape(-1)
            )
    return builder.build()


def perform_mld_composition_pass(
    system: ParallelDiskSystem,
    y_perm: BMMCPermutation,
    x_perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mld-o-mldinv",
    engine: str = "strict",
    cache: PlanCache | None = None,
    stream_records=None,
) -> BMMCPermutation:
    """Perform ``Y o X^-1`` in one pass; returns the composed permutation."""
    key = plan_key(
        "mld-o-mldinv", system.geometry,
        y_perm.matrix, y_perm.complement, x_perm.matrix, x_perm.complement,
        source_portion, target_portion, label,
        system.num_portions, system.simple_io,
    )
    cached_execute(
        system, cache, key,
        lambda: (
            plan_mld_composition_pass(
                system.geometry, y_perm, x_perm,
                source_portion, target_portion, label=label,
            ),
            None,
        ),
        engine=engine, stream_records=stream_records,
    )
    return y_perm.compose(x_perm.inverse())

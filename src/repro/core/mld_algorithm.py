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

The plan is read off the inverse image in bulk, with no per-memoryload
sort or loop (:func:`memoryload_blocks`): each target block is keyed by
the source memoryload its records come from and by its disk, one
stable sort of the ``N/B`` keys orders every memoryload's target blocks
by disk and id, and one row gather of the inverse image gives the write
slots.  The assertions run on those keys, and the first memoryload that
fails names the broken property, clustering before evenness.
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


def memoryload_blocks(
    g: DiskGeometry,
    rows: np.ndarray,
    clustering_error: str,
    evenness_error: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Group the ``N/B`` blocks into memoryload rounds, ``D`` per step.

    ``rows[k]`` holds the ``B`` addresses that block ``k``'s records
    pair with: for MLD the sources of target block ``k``, for inverse
    MLD the targets of source block ``k``.  Block ``k`` is keyed by the
    memoryload of ``rows[k, 0]`` and by its disk, and one stable sort of
    the keys orders the blocks by (memoryload, disk, block id).

    Returns ``(ids, stream)``.  ``ids[r, i, j]`` is the ``i``-th block,
    by id, on disk ``j`` among round ``r``'s blocks; read or written
    ``D`` at a time, ``ids[r, i]`` is one parallel I/O.  ``stream[r]``
    is the ``M`` addresses those blocks pair with, in that block order,
    each counted from memoryload ``r``'s first address.

    Lemma 13 (every memoryload pairs with exactly ``M/B`` full blocks)
    and property 3 (``M/BD`` of them per disk) are asserted here.  The
    first memoryload that fails raises :class:`NotInClassError`, with
    ``clustering_error`` if its records share a block with another
    memoryload's and with ``evenness_error`` otherwise.
    """
    rounds = g.num_memoryloads
    per = g.stripes_per_memoryload
    home = rows[:, 0] >> g.m
    keys = home * g.D + g.block_disk(np.arange(g.num_blocks, dtype=np.int64))
    ids = np.argsort(keys, kind="stable").reshape(rounds, g.D, per).transpose(0, 2, 1)
    stream = rows[ids].reshape(rounds, g.M)
    stream -= (np.arange(rounds, dtype=np.int64) << g.m)[:, None]
    counts = np.bincount(keys, minlength=rounds * g.D).reshape(rounds, g.D)
    # With even counts, round r holds exactly the blocks keyed r, so a
    # stream address outside [0, M) is a block that straddles memoryloads.
    if (counts != per).any() or stream.min() < 0 or stream.max() >= g.M:
        straddles = ((rows >> g.m) != home[:, None]).any(axis=1)
        scattered = np.zeros(rounds, dtype=bool)
        scattered[rows[straddles] >> g.m] = True
        first = int(np.argmax(scattered | (counts != per).any(axis=1)))
        raise NotInClassError(clustering_error if scattered[first] else evenness_error)
    return ids, stream


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
    # Row k holds the sources of target block k's B records.  Round ml
    # reads source memoryload ml with striped reads, so a record's slot
    # is its source address counted from the memoryload's first.
    write_ids, slots = memoryload_blocks(
        g,
        perm.inverse().target_vector().reshape(g.num_blocks, g.B),
        "memoryload does not cluster into full target blocks; "
        "the kernel condition (eq. 4) is violated",
        "target blocks are not spread evenly over the disks",
    )
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    builder.memoryload_rounds(
        source_portion,
        target_portion,
        write_ids,
        slots.reshape(g.num_memoryloads, g.stripes_per_memoryload, g.D * g.B),
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

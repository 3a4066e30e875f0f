"""General-permutation baseline #2: randomized-placement distribution sort.

The striped merge sort (:mod:`repro.core.general`) degrades when
``BD`` approaches ``M`` (its fan-in is ``M/BD - 2``).  Vitter-Shriver's
truly optimal general algorithm instead *distributes* records and
randomizes block placement so reads and writes can always be batched
``D``-wide; this module implements that style:

* LSD radix distribution on the target *block number* (bits ``b..n-1``)
  in digits of ``w`` bits: ``T = ceil((n-b)/w)`` distribution passes.
  Because the keys are a permutation of the address space, every digit
  value occurs exactly ``N/2^w`` times, so bucket extents are exact and
  block-aligned -- no counting pass is needed.
* Intermediate runs live at **randomized physical locations**: each
  completed bucket block is assigned a uniformly random disk with free
  capacity at flush time, and flushes batch up to ``D`` pending blocks
  onto distinct disks.  A logical-to-physical indirection map (metadata,
  like any file system directory) lets the next pass read in logical
  order through a small **prefetch window**, batching reads ``D``-wide
  with high probability.  This randomization is exactly why
  Vitter-Shriver's general algorithm is randomized: deterministic
  placements re-synchronize bucket completion waves onto single disks.
* A final **gather pass** reads the fully sorted (but physically
  scattered) blocks in logical order, fixes the within-block offset
  order in memory, and writes the true target addresses with striped
  writes.

Total: ``T + 1`` passes with near-``2N/BD`` parallel I/Os each (read
batching is probabilistic; the trace summary reports the achieved
parallelism).

The schedule is data-dependent -- each pass's I/Os follow the keys the
previous pass materialized and its randomized placement map -- but the
source's record values and the RNG seed fix it up front, as the source
fixes the merge sort's (:mod:`repro.core.general`).
:func:`plan_distribution_sort` therefore returns one static
:class:`~repro.pdm.schedule.IOPlan`: it simulates the data flow pass by
pass on a bare portions array (advanced by
:meth:`~repro.pdm.schedule.IOPlan.apply_to`) and plans each pass from
the simulated state, and every data movement still executes through the
plan engines as counted, memory-checked I/O.  On the canonical
``fill_identity`` source the plan is a pure function of ``(geometry,
permutation, digit_bits, prefetch_window, seed)``, so
:func:`perform_distribution_sort` caches it like any static planner,
with the RNG seed in the cache key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.pdm.system import EMPTY, ParallelDiskSystem
from repro.perms.base import Permutation
from repro.perms.bmmc import BMMCPermutation

__all__ = [
    "perform_distribution_sort",
    "plan_distribution_sort",
    "DistributionSortPlan",
    "DistributionSortResult",
    "tune_parameters",
]


@dataclass
class DistributionSortResult:
    passes: int
    digit_bits: int
    prefetch_window: int
    final_portion: int
    parallel_ios: int
    read_ops: int
    write_ops: int

    @property
    def read_parallelism(self) -> float:
        """Blocks per parallel read actually achieved (ideal: D)."""
        return self.blocks_per_pass_read / self.read_ops if self.read_ops else 0.0

    blocks_per_pass_read: int = 0


@dataclass
class DistributionSortPlan:
    """A planned distribution sort: the I/O plan plus its shape."""

    io_plan: IOPlan
    passes: int
    digit_bits: int
    prefetch_window: int
    final_portion: int


def tune_parameters(geometry) -> tuple[int, int]:
    """Pick ``(digit_bits, prefetch_window)`` fitting the memory budget.

    Peak residency per distribution pass: bucket buffers ``2^w * B``,
    prefetch window ``W * B``, pending completions up to ``(B + D) * B``.
    """
    g = geometry
    pending_cap = (g.B + g.D) * g.B
    for w in range(max(1, g.m - g.b - 2), 0, -1):
        for window in (2 * g.D, g.D, max(1, g.D // 2), 1):
            if (1 << w) * g.B + window * g.B + pending_cap <= g.M:
                return w, window
    raise ValidationError(
        f"no distribution-sort parameters fit geometry {geometry.describe()}; "
        "use the merge-sort baseline instead"
    )


def _knobs(geometry, digit_bits, prefetch_window) -> tuple[int, int]:
    """``(digit_bits, prefetch_window)``, each tuned where not given."""
    auto_w, auto_window = tune_parameters(geometry)
    w = auto_w if digit_bits is None else digit_bits
    window = auto_window if prefetch_window is None else prefetch_window
    if w < 1 or window < 1:
        raise ValidationError("digit_bits and prefetch_window must be positive")
    return w, window


def plan_distribution_sort(
    geometry: DiskGeometry,
    perm: Permutation,
    source_values: np.ndarray,
    source_portion: int = 0,
    target_portion: int = 1,
    digit_bits: int | None = None,
    prefetch_window: int | None = None,
    seed: int = 0,
) -> DistributionSortPlan:
    """Plan the randomized-placement distribution sort as one static plan.

    ``source_values`` must hold the source portion's record payloads
    (``peek``-ed by :func:`perform_distribution_sort`, or the canonical
    ``fill_identity`` payloads for a cached plan).  The planner
    simulates the data flow on a bare portions array: each of the
    ``T + 1`` passes is planned from the simulated input portion --
    the exact prefetcher/placement-writer I/O sequence of the
    hand-written performer, including identical consumption of the
    seeded RNG, so the placement map and I/O trace are reproducible
    functions of ``seed`` -- and then applied to the array
    (:meth:`IOPlan.apply_to`) to give the next pass its input.
    """
    g = geometry
    w, window = _knobs(g, digit_bits, prefetch_window)
    source_values = np.asarray(source_values)
    if source_values.shape != (g.N,):
        raise ValidationError(
            f"planner needs the full source portion ({g.N} records), "
            f"got shape {source_values.shape}"
        )
    num_passes = -(-(g.n - g.b) // w)

    portions = np.full(
        (max(source_portion, target_portion) + 1, g.N), EMPTY,
        dtype=source_values.dtype,
    )
    portions[source_portion] = source_values
    rng = np.random.default_rng(seed)
    # logical->physical block map of the current input (identity at start)
    map_in = np.arange(g.num_blocks, dtype=np.int64)
    pin, pout = source_portion, target_portion
    plans = []
    for p in range(num_passes):
        shift = g.b + p * w
        plan, map_in = _plan_distribution_pass(
            g, portions[pin], perm, pin, map_in, pout, shift,
            min(w, g.n - shift), window, rng, label=f"dist:digit{p}",
        )
        plan.apply_to(portions)
        plans.append(plan)
        pin, pout = pout, pin
    plans.append(_plan_gather_pass(g, portions[pin], perm, pin, map_in, pout, window))

    return DistributionSortPlan(
        io_plan=IOPlan.concatenate(plans),
        passes=num_passes + 1,
        digit_bits=w,
        prefetch_window=window,
        final_portion=pout,
    )


def _perm_cache_component(perm: Permutation):
    """A hashable stand-in for the permutation in distribution cache keys."""
    if isinstance(perm, BMMCPermutation):
        return ("bmmc", perm.matrix, perm.complement)
    targets = np.asarray(perm.target_vector(), dtype=np.int64)
    return ("explicit", hashlib.sha256(targets.tobytes()).hexdigest())


def perform_distribution_sort(
    system: ParallelDiskSystem,
    perm: Permutation,
    source_portion: int = 0,
    target_portion: int = 1,
    digit_bits: int | None = None,
    prefetch_window: int | None = None,
    seed: int = 0,
    engine: str = "strict",
    cache: PlanCache | None = None,
    stream_records=None,
) -> DistributionSortResult:
    """Permute by randomized-placement LSD distribution sort.

    Record payloads must be the records' source addresses (the canonical
    ``fill_identity`` input); the record with payload ``v`` ends at
    address ``perm(v)``.

    The plan runs through :func:`~repro.pdm.cache.cached_execute` under
    ``engine``.  Without ``cache`` it is planned from the source the
    system holds.  With ``cache`` it is planned from the canonical
    ``fill_identity`` payloads its key assumes and served through the
    compiled-plan cache; the key includes the RNG ``seed``, so runs with
    different seeds -- whose placement maps differ -- never share an
    entry.
    """
    g = system.geometry
    w, window = _knobs(g, digit_bits, prefetch_window)
    key = None
    if cache is not None:
        key = plan_key(
            "distribution", g, _perm_cache_component(perm),
            source_portion, target_portion, w, window, seed,
            system.num_portions, system.simple_io,
        )

    def build():
        if cache is None:
            source = system.peek(source_portion, 0, g.N)
        else:
            source = np.arange(g.N, dtype=np.int64)
        sort = plan_distribution_sort(
            g, perm, source, source_portion, target_portion,
            digit_bits=w, prefetch_window=window, seed=seed,
        )
        return sort.io_plan, (sort.passes, sort.final_portion)

    before = system.stats.parallel_ios
    reads_before = system.stats.parallel_reads
    writes_before = system.stats.parallel_writes
    blocks_read_before = system.stats.blocks_read
    (passes, final_portion), _, _ = cached_execute(
        system, cache, key, build, engine=engine, stream_records=stream_records
    )
    return DistributionSortResult(
        passes=passes,
        digit_bits=w,
        prefetch_window=window,
        final_portion=final_portion,
        parallel_ios=system.stats.parallel_ios - before,
        read_ops=system.stats.parallel_reads - reads_before,
        write_ops=system.stats.parallel_writes - writes_before,
        blocks_per_pass_read=system.stats.blocks_read - blocks_read_before,
    )


# --------------------------------------------------------------------------
# the pass planners
# --------------------------------------------------------------------------

def _plan_distribution_pass(
    g, values_in, perm, pin, map_in, pout, shift, bits, window, rng, label
):
    """Plan one LSD digit pass from its input portion's record values
    (``values_in``, in physical address order).

    Mirrors the hand-written pass exactly -- same prefetcher reads, same
    bucket fills, same randomized flush placements (identical RNG
    consumption) -- but emits builder steps whose write sources are
    read-stream slots instead of moving data itself.  Returns the plan
    and the pass's logical-to-physical placement map.
    """
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    num_buckets = 1 << bits
    bucket_blocks = g.num_blocks // num_buckets
    mask = np.int64(num_buckets - 1)

    reader = _PlannedPrefetcher(builder, pin, values_in, map_in, window)
    writer = _PlannedPlacementWriter(builder, pout, rng)

    # bucket fill buffers: read-stream slots, in record order
    buf_slots = np.empty((num_buckets, g.B), dtype=np.int64)
    fill = np.zeros(num_buckets, dtype=np.int64)
    completed = np.zeros(num_buckets, dtype=np.int64)

    for logical in range(g.num_blocks):
        values, slots = reader.get(logical)
        keys = np.asarray(perm.apply_array(values.astype(np.uint64)), dtype=np.int64)
        digits = (keys >> np.int64(shift)) & mask
        order = np.argsort(digits, kind="stable")
        sorted_digits = digits[order]
        sorted_slots = slots[order]
        uniq, starts = np.unique(sorted_digits, return_index=True)
        starts = list(starts) + [len(sorted_digits)]
        for idx, bucket in enumerate(uniq):
            chunk = sorted_slots[starts[idx] : starts[idx + 1]]
            bucket = int(bucket)
            pos = 0
            while pos < len(chunk):
                take = min(g.B - int(fill[bucket]), len(chunk) - pos)
                buf_slots[bucket, fill[bucket] : fill[bucket] + take] = chunk[
                    pos : pos + take
                ]
                fill[bucket] += take
                pos += take
                if fill[bucket] == g.B:
                    out_logical = bucket * bucket_blocks + int(completed[bucket])
                    writer.submit(out_logical, buf_slots[bucket].copy())
                    completed[bucket] = completed[bucket] + 1
                    fill[bucket] = 0
        writer.flush(min_pending=g.D)
    writer.flush(min_pending=1)
    assert not fill.any(), "buckets must drain exactly (block-aligned extents)"
    return builder.build(), writer.logical_to_physical()


def _plan_gather_pass(
    g, values_in, perm, pin, map_in, pout, window, label="dist:gather"
):
    """Plan the final pass: logical-order reads, in-memory offset fix,
    striped writes to the true target addresses."""
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    reader = _PlannedPrefetcher(builder, pin, values_in, map_in, window)
    stripe_slots = np.empty((g.D, g.B), dtype=np.int64)
    for logical in range(g.num_blocks):
        values, slots = reader.get(logical)
        keys = np.asarray(perm.apply_array(values.astype(np.uint64)), dtype=np.int64)
        # all records of this logical block share one target block; order
        # them by target offset in memory (free -- the paper's in-memory
        # permutation step)
        order = np.argsort(keys)
        target_block = int(keys[order[0]]) >> g.b
        assert int(keys[order[-1]]) >> g.b == target_block, "not fully sorted"
        stripe_slots[logical % g.D] = slots[order]
        if logical % g.D == g.D - 1:
            # copy: the builder keeps a reference, the buffer is reused
            builder.write_stripe(pout, logical // g.D, stripe_slots.reshape(-1).copy())
    return builder.build()


class _PlannedPrefetcher:
    """In-order consumption with bounded lookahead and D-wide batching.

    Plans the reads the runtime prefetcher issued; ``get`` hands back a
    logical block's record values (from the pass's input values) and
    their stream slots.
    """

    def __init__(self, builder, portion, values, logical_to_physical, window):
        self.builder = builder
        self.portion = portion
        self.values = values
        self.map = logical_to_physical
        self.window = max(1, window)
        self.buffer: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.cursor = 0  # next logical block the consumer will ask for
        self.total = len(logical_to_physical)

    def get(self, logical: int) -> tuple[np.ndarray, np.ndarray]:
        assert logical == self.cursor, "consumption must be sequential"
        while logical not in self.buffer:
            self._issue_read(logical)
        self.cursor += 1
        return self.buffer.pop(logical)

    def _issue_read(self, needed: int) -> None:
        g = self.builder.geometry
        batch: list[int] = []
        used: set[int] = set()
        end = min(needed + self.window, self.total)
        for ℓ in range(needed, end):
            if ℓ in self.buffer:
                continue
            disk = int(g.block_disk(int(self.map[ℓ])))
            if disk in used:
                continue
            batch.append(ℓ)
            used.add(disk)
            if len(batch) == g.D:
                break
        physical = [int(self.map[ℓ]) for ℓ in batch]
        slots = self.builder.read(self.portion, physical)
        for i, ℓ in enumerate(batch):
            p = physical[i]
            self.buffer[ℓ] = (
                self.values[p * g.B : (p + 1) * g.B],
                slots[i * g.B : (i + 1) * g.B],
            )


class _PlannedPlacementWriter:
    """Buffers completed blocks; flushes batches to random distinct disks.

    Consumes the RNG exactly as the runtime writer did (per-disk free-
    slot shuffles at construction, one ``choice`` per flushed batch), so
    a seed determines the same placement map the hand-written performer
    produced.
    """

    def __init__(self, builder, portion, rng):
        self.builder = builder
        self.portion = portion
        self.rng = rng
        g = builder.geometry
        self.free_slots = [list(range(g.num_stripes)) for _ in range(g.D)]
        for slots in self.free_slots:
            rng.shuffle(slots)
        self.pending: list[tuple[int, np.ndarray]] = []
        self._map = np.full(g.num_blocks, -1, dtype=np.int64)

    def submit(self, logical: int, slots: np.ndarray) -> None:
        self.pending.append((logical, slots))

    def flush(self, min_pending: int) -> None:
        g = self.builder.geometry
        while len(self.pending) >= min_pending and self.pending:
            batch = self.pending[: g.D]
            self.pending = self.pending[g.D :]
            disks_with_space = [d for d in range(g.D) if self.free_slots[d]]
            if len(batch) > len(disks_with_space):  # pragma: no cover
                raise AssertionError("placement capacity exhausted early")
            chosen = self.rng.choice(
                len(disks_with_space), size=len(batch), replace=False
            )
            block_ids = []
            for (logical, _slots), pick in zip(batch, chosen):
                disk = disks_with_space[int(pick)]
                stripe = self.free_slots[disk].pop()
                physical = stripe * g.D + disk
                self._map[logical] = physical
                block_ids.append(physical)
            self.builder.write(
                self.portion,
                block_ids,
                np.concatenate([slots for _logical, slots in batch]),
            )

    def logical_to_physical(self) -> np.ndarray:
        assert (self._map >= 0).all(), "every logical block must be placed"
        return self._map

"""Plan execution engines: strict replay and fused fast mode.

Two ways to run an :class:`~repro.pdm.schedule.IOPlan` on a
:class:`~repro.pdm.system.ParallelDiskSystem`, chosen by the
``engine`` knob:

* **strict** replays the plan step-by-step through the existing
  ``read_blocks``/``write_blocks`` path, so every model rule
  (one block per disk, memory capacity, simple I/O) is enforced on
  every operation and observers see every :class:`IOEvent`.  This is
  the reference semantics -- identical to the hand-written performers
  the planners replaced.

* **fast** validates the *whole plan* up front (vectorized conflict,
  capacity, and slot checks across all steps) and then executes each
  pass as one fused numpy gather/scatter, updating
  :class:`~repro.pdm.stats.IOStats` and the memory accountant in bulk.
  Per-step Python overhead disappears; portions, stats snapshots, pass
  tables, and the memory peak come out identical to strict execution.

Fused execution reorders nothing observable: it requires that within a
pass no block is touched twice in an order-dependent way (checked; a
violating plan raises :class:`~repro.errors.PlanError`).  All plans
emitted by :mod:`repro.core` satisfy this by construction -- a pass
reads each source block once and writes each target block once.

When observers are attached (e.g. :class:`~repro.pdm.trace.IOTrace`),
``execute_plan`` silently falls back to strict so per-operation events
keep flowing.

Host-memory note: both executors *stream* their host-side read-stream
buffer.  When a pass's read stream exceeds the chunk budget
(``stream_records``, default auto at :data:`STREAM_AUTO_RECORDS`), it
is cut at liveness boundaries -- step positions after which every
already-read stream slot has retired, i.e. no later write sources it --
and the buffer is recycled chunk by chunk, so the host working set is
O(live slots) instead of O(N).  The fast engine executes each chunk as
one fused gather/scatter; strict replay still issues every I/O through
the rule-checked per-operation path and merely reuses the smaller
buffer.  Planner-emitted passes
retire a memoryload's slots as soon as its writes are planned, so their
live set is ~M and arbitrarily large N executes in bounded host memory.
Every ``execute_plan`` call returns an :class:`ExecReport` recording
the observed host peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    BlockStateError,
    DiskConflictError,
    MemoryCapacityError,
    PlanError,
    ValidationError,
)
from repro.pdm.cancel import checkpoint
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanPass
from repro.pdm.system import ParallelDiskSystem

__all__ = [
    "ENGINES",
    "STREAM_AUTO_RECORDS",
    "ExecReport",
    "execute_plan",
    "validate_plan",
    "audit_plan",
    "PlanCheck",
]

#: The two execution modes.
ENGINES = ("strict", "fast")

#: Auto-streaming threshold: a pass whose read stream exceeds this many
#: records is executed in liveness-bounded chunks by the fast engine.
STREAM_AUTO_RECORDS = 1 << 22

_I64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class PlanCheck:
    """Summary returned by :func:`validate_plan` after a full-plan audit."""

    passes: int
    parallel_reads: int
    parallel_writes: int
    striped_reads: int
    striped_writes: int
    blocks_read: int
    blocks_written: int
    peak_memory_records: int
    net_memory_records: int

    @property
    def parallel_ios(self) -> int:
        return self.parallel_reads + self.parallel_writes


@dataclass
class ExecReport:
    """What one ``execute_plan`` call actually did.

    ``host_peak_records`` is the largest host-side read-stream buffer
    the executor materialized (the simulated machine's M-record rule is
    accounted separately, by :class:`~repro.pdm.memory.Memory`);
    ``streamed_passes`` counts passes executed in more than one chunk.
    ``streams`` holds each pass's captured read stream when the call
    asked for ``capture=True`` (the run-time detector's path).
    """

    engine: str
    host_peak_records: int = 0
    streamed_passes: int = 0
    optimized: bool = False
    fell_back: str | None = None
    streams: list[np.ndarray] | None = field(default=None, repr=False)


class _FusedPass:
    """Concatenated per-pass step metadata for vectorized checks/execution."""

    __slots__ = (
        "label", "num_steps",
        "read_ids", "read_sizes", "read_portions", "read_striped",
        "read_consume_default", "read_consume_value", "read_discard",
        "read_addr", "rec_read_portion",
        "write_ids", "write_sizes", "write_portions", "write_striped",
        "write_addr", "write_source", "rec_write_portion",
        "write_source_max", "write_source_min",
        "is_read", "step_sizes", "reads_before",
        "read_before", "write_before", "read_rec_cum", "write_rec_cum",
        "checked_for",  # (num_portions, simple_io) the checks last ran against
    )

    def resolved_consume(self, simple_io: bool) -> np.ndarray:
        """Per-read-step consume flags with ``None`` resolved to the default."""
        return np.where(self.read_consume_default, simple_io, self.read_consume_value)

    @property
    def stream_records(self) -> int:
        """Total records the pass reads (its read-stream length)."""
        return int(self.read_rec_cum[-1])


def _segment_striped(g, ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-step striped flags: exactly D blocks, all in one stripe."""
    if sizes.size == 0:
        return np.zeros(0, dtype=bool)
    if (sizes == 0).any():  # malformed; validation will raise
        return np.zeros(sizes.size, dtype=bool)
    stripes = ids >> g.d
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    lo = np.minimum.reduceat(stripes, offsets)
    hi = np.maximum.reduceat(stripes, offsets)
    return (sizes == g.D) & (lo == hi)


def _read_cumulatives(B, is_read, read_sizes):
    """(read steps before each step position, records read before each
    read step) -- shared by fusion and liveness segmentation."""
    read_before = np.concatenate(([0], np.cumsum(is_read, dtype=np.int64)))
    read_rec_cum = np.concatenate(([0], np.cumsum(read_sizes * B, dtype=np.int64)))
    return read_before, read_rec_cum


def _write_source_extrema(B, write_sizes, write_source):
    """Per-write-step (min, max) sourced stream slot, empty-safe."""
    if write_sizes.size and (write_sizes > 0).all():
        offsets = np.concatenate(([0], np.cumsum(write_sizes * B)[:-1]))
        return (
            np.minimum.reduceat(write_source, offsets),
            np.maximum.reduceat(write_source, offsets),
        )
    return (
        np.full(write_sizes.size, _I64_MAX, dtype=np.int64),
        np.full(write_sizes.size, -1, dtype=np.int64),
    )


def _fuse_pass(g: DiskGeometry, pas: PlanPass) -> _FusedPass:
    """Fused metadata for one pass, cached on the pass object.

    Builder-produced passes carry a columnar twin of their step list,
    so fusing is pure array bookkeeping -- no per-step Python loop.
    Hand-built passes take the slow path once (``_ensure_columns``).
    """
    cols = pas.columns_if_fresh()
    num_steps = cols.num_steps if cols is not None else len(pas.steps)
    cached = pas._fused.get("fused")
    if cached is not None and cached.num_steps == num_steps:
        return cached
    if cols is None or cols.num_steps != num_steps:
        cols = pas._ensure_columns()

    B = g.B
    f = _FusedPass()
    f.label = pas.label
    f.num_steps = cols.num_steps
    f.checked_for = None
    f.is_read = cols.is_read
    f.step_sizes = cols.step_sizes
    f.read_ids = cols.read_ids
    f.read_sizes = cols.read_sizes
    f.read_portions = cols.read_portions
    f.read_consume_default = cols.read_consume_default
    f.read_consume_value = cols.read_consume_value
    f.read_discard = cols.read_discard
    f.read_striped = _segment_striped(g, f.read_ids, f.read_sizes)
    f.write_ids = cols.write_ids
    f.write_sizes = cols.write_sizes
    f.write_portions = cols.write_portions
    f.write_striped = _segment_striped(g, f.write_ids, f.write_sizes)
    f.write_source = cols.write_source

    f.write_source_min, f.write_source_max = _write_source_extrema(
        B, f.write_sizes, f.write_source
    )

    # Step-position cumulatives: how many read/write steps (and records)
    # precede each step position.  These drive strict replay parity,
    # the ordering audit, and streaming segmentation.
    f.read_before, f.read_rec_cum = _read_cumulatives(B, f.is_read, f.read_sizes)
    f.write_before = np.concatenate(([0], np.cumsum(~f.is_read, dtype=np.int64)))
    f.write_rec_cum = np.concatenate(
        ([0], np.cumsum(f.write_sizes * B, dtype=np.int64))
    )
    f.reads_before = f.read_rec_cum[f.read_before[:-1][~f.is_read]]

    offsets = np.arange(B, dtype=np.int64)[None, :]
    f.read_addr = ((f.read_ids[:, None] << g.b) + offsets).reshape(-1)
    f.write_addr = ((f.write_ids[:, None] << g.b) + offsets).reshape(-1)
    f.rec_read_portion = np.repeat(f.read_portions, f.read_sizes * B)
    f.rec_write_portion = np.repeat(f.write_portions, f.write_sizes * B)

    pas._fused["fused"] = f
    return f


def _check_structure(g: DiskGeometry, num_portions: int, f: _FusedPass) -> None:
    """Per-step model rules, vectorized over one pass."""
    sizes = f.step_sizes
    if (sizes == 0).any():
        raise ValidationError(
            f"pass {f.label!r}: a parallel I/O must transfer at least one block"
        )
    if (sizes > g.D).any():
        raise DiskConflictError(
            f"pass {f.label!r}: a parallel I/O moves at most D={g.D} blocks "
            f"(largest step moves {int(sizes.max())})"
        )
    for ids, portions, step_sizes in (
        (f.read_ids, f.read_portions, f.read_sizes),
        (f.write_ids, f.write_portions, f.write_sizes),
    ):
        if ids.size == 0:
            continue
        if ids.min() < 0 or ids.max() >= g.num_blocks:
            raise ValidationError(f"pass {f.label!r}: block id out of range")
        if portions.size and (
            portions.min() < 0 or portions.max() >= num_portions
        ):
            raise ValidationError(f"pass {f.label!r}: portion out of range")
        step_of = np.repeat(np.arange(step_sizes.size, dtype=np.int64), step_sizes)
        keys = step_of * g.D + (ids & (g.D - 1))
        if np.unique(keys).size != keys.size:
            raise DiskConflictError(
                f"pass {f.label!r}: at most one block per disk per parallel I/O"
            )
    if (f.write_source_max >= f.reads_before).any():
        raise PlanError(
            f"pass {f.label!r}: a write step sources stream slots that are "
            "not yet read at its position in the pass"
        )
    if f.write_source.size and f.write_source.min() < 0:
        raise PlanError(f"pass {f.label!r}: negative stream slot")
    if f.write_source.size and f.read_discard.any():
        rec_discard = np.repeat(f.read_discard, f.read_sizes * g.B)
        if rec_discard[f.write_source].any():
            raise PlanError(
                f"pass {f.label!r}: a write sources records a discarding "
                "read already released from memory"
            )


def _check_fusable(g: DiskGeometry, simple_io: bool, f: _FusedPass) -> None:
    """Reject order-dependent block touches that fusion would reorder."""
    wkeys = f.rec_write_portion[:: g.B] * g.num_blocks + f.write_ids if f.write_ids.size else f.write_ids
    rkeys = f.rec_read_portion[:: g.B] * g.num_blocks + f.read_ids if f.read_ids.size else f.read_ids
    if wkeys.size and np.unique(wkeys).size != wkeys.size:
        raise PlanError(
            f"pass {f.label!r} writes a block twice; fused execution would "
            "reorder the writes -- use the strict engine"
        )
    if rkeys.size:
        uniq, counts = np.unique(rkeys, return_counts=True)
        dup = uniq[counts > 1]
        if dup.size:
            block_consume = np.repeat(
                f.resolved_consume(simple_io), f.read_sizes
            )
            if np.isin(rkeys[block_consume], dup).any():
                raise PlanError(
                    f"pass {f.label!r} re-reads a consumed block; fused "
                    "execution cannot preserve the order -- use the strict engine"
                )
    if wkeys.size and rkeys.size and np.intersect1d(wkeys, rkeys).size:
        raise PlanError(
            f"pass {f.label!r} both reads and writes a block; fused execution "
            "would reorder the touches -- use the strict engine"
        )


def _check_pass(
    g: DiskGeometry, num_portions: int, simple_io: bool, f: _FusedPass
) -> None:
    """Structural + fusability audit, cached per (portions, simple_io).

    Both checks are pure functions of the fused metadata and these two
    system attributes, so re-executing an already-audited plan skips
    straight to the data-dependent work.
    """
    key = (num_portions, simple_io)
    if f.checked_for == key:
        return
    _check_structure(g, num_portions, f)
    _check_fusable(g, simple_io, f)
    f.checked_for = key


@dataclass(frozen=True)
class _PassMemory:
    """One pass's memory effect for one execution (records, absolute).

    Kept off the shared :class:`_FusedPass` on purpose: fused metadata
    is cached on the plan and shared by every execution of a compiled
    plan -- including concurrent ones on different systems -- so
    per-execution values must live in per-execution objects.
    """

    peak: int
    net: int


def _check_memory(
    g: DiskGeometry, capacity: int, in_use_start: int, fused: list[_FusedPass]
) -> tuple[int, int, list[_PassMemory]]:
    """Simulate the record-count memory across all passes; return
    (overall peak, net delta, per-pass :class:`_PassMemory` list).

    Discarding reads allocate-and-release within their own step, so they
    contribute a transient spike to the peak but nothing to the net.
    """
    in_use = in_use_start
    overall_peak = 0
    per_pass: list[_PassMemory] = []
    for f in fused:
        sizes = f.step_sizes * g.B
        step_discard = np.zeros(f.num_steps, dtype=bool)
        if f.read_discard.size and f.read_discard.any():
            step_discard[f.is_read] = f.read_discard
        deltas = np.where(f.is_read, np.where(step_discard, 0, sizes), -sizes)
        transient = np.where(step_discard, sizes, 0)
        prefix = np.cumsum(deltas)
        occupancy = prefix + transient
        if prefix.size:
            hi = int(occupancy.max())
            if in_use + hi > capacity:
                raise MemoryCapacityError(
                    f"pass {f.label!r} would hold {in_use + hi} > "
                    f"M={capacity} records in memory"
                )
            if in_use + int(prefix.min()) < 0:
                raise MemoryCapacityError(
                    f"pass {f.label!r} releases more records than are resident"
                )
            read_occ = occupancy[f.is_read]
            pass_peak = in_use + int(read_occ.max()) if read_occ.size else in_use
            net = int(prefix[-1])
        else:
            pass_peak, net = in_use, 0
        mem = _PassMemory(peak=max(pass_peak, in_use), net=net)
        per_pass.append(mem)
        in_use += net
        overall_peak = max(overall_peak, mem.peak)
    return overall_peak, in_use - in_use_start, per_pass


def _plan_check(fused: list[_FusedPass], peak: int, net: int) -> PlanCheck:
    return PlanCheck(
        passes=len(fused),
        parallel_reads=int(sum(f.read_sizes.size for f in fused)),
        parallel_writes=int(sum(f.write_sizes.size for f in fused)),
        striped_reads=int(sum(int(f.read_striped.sum()) for f in fused)),
        striped_writes=int(sum(int(f.write_striped.sum()) for f in fused)),
        blocks_read=int(sum(int(f.read_sizes.sum()) for f in fused)),
        blocks_written=int(sum(int(f.write_sizes.sum()) for f in fused)),
        peak_memory_records=peak,
        net_memory_records=net,
    )


def audit_plan(
    geometry: DiskGeometry,
    plan: IOPlan,
    num_portions: int = 2,
    simple_io: bool = True,
) -> PlanCheck:
    """Audit a plan without a system: fuse, rule-check, simulate memory.

    This is the compile-time half of :func:`validate_plan` -- the plan
    cache uses it to pre-validate compiled plans without allocating a
    throwaway ``ParallelDiskSystem`` (whose portions cost O(N) host
    memory at huge N).  Memory is simulated from an empty RAM.
    """
    if plan.geometry != geometry:
        raise ValidationError("plan and audit geometries differ")
    fused = [_fuse_pass(geometry, p) for p in plan.passes]
    for f in fused:
        _check_pass(geometry, num_portions, simple_io, f)
    peak, net, _ = _check_memory(geometry, geometry.M, 0, fused)
    return _plan_check(fused, peak, net)


def validate_plan(system: ParallelDiskSystem, plan: IOPlan) -> PlanCheck:
    """Audit a whole plan against the model rules without executing it.

    Raises the same error classes the strict engine would (disk
    conflicts, capacity, malformed steps) plus :class:`PlanError` for
    plans whose within-pass ordering fused execution cannot preserve.
    Data-state (simple I/O emptiness) is inherently a run-time property
    and is checked during execution instead.
    """
    if plan.geometry != system.geometry:
        raise ValidationError("plan and system geometries differ")
    g = system.geometry
    fused = [_fuse_pass(g, p) for p in plan.passes]
    for f in fused:
        _check_pass(g, system.num_portions, system.simple_io, f)
    peak, net, _ = _check_memory(g, system.memory.capacity, system.memory.in_use, fused)
    return _plan_check(fused, max(peak, system.memory.peak), net)


# --------------------------------------------------------------- strict mode
def _execute_strict(
    system: ParallelDiskSystem,
    plan: IOPlan,
    capture: bool = False,
    stream_records=None,
) -> ExecReport:
    """Per-I/O replay with liveness-streamed host buffering.

    Strict replay keeps the reference semantics -- every operation goes
    through the counted, rule-checked ``read_blocks``/``write_blocks``
    path and observers see every event -- but the host-side read-stream
    buffer is recycled at the same liveness boundaries the fast
    executor streams at: when a pass's read stream exceeds the chunk
    budget, the buffer holds only the live chunk, not the whole pass.
    ``capture=True`` needs whole streams and disables streaming, as in
    fast mode.
    """
    g = system.geometry
    budget = None if capture else _stream_budget(stream_records)
    report = ExecReport(engine="strict", streams=[] if capture else None)
    for pas in plan.passes:
        checkpoint("pass", pas.label)
        pass_records = pas.num_read_blocks * g.B
        if budget is not None and pass_records > budget and pas.num_steps > 1:
            meta = _segment_meta(g, pas)
            segments = _liveness_segments(meta, budget)
        else:
            meta = None
            segments = [(0, pas.num_steps)]
        if len(segments) > 1:
            report.streamed_passes += 1
        steps = pas.steps
        base = 0  # records read before the current segment
        system.stats.begin_pass(pas.label)
        try:
            for s0, s1 in segments:
                if s0:
                    checkpoint("shard", pas.label)
                if meta is None:
                    chunk = pass_records
                else:
                    chunk = int(
                        meta.read_rec_cum[meta.read_before[s1]]
                        - meta.read_rec_cum[meta.read_before[s0]]
                    )
                stream = np.empty(chunk, dtype=system.dtype)
                report.host_peak_records = max(report.host_peak_records, chunk)
                cursor = 0
                for step in steps[s0:s1]:
                    if step.kind == "read":
                        values = system.read_blocks(
                            step.portion, step.block_ids, consume=step.consume
                        )
                        stream[cursor : cursor + values.size] = values.reshape(-1)
                        cursor += values.size
                        if step.discard:
                            system.memory.release(values.size)
                    else:
                        if step.source.size and (
                            int(step.source.min()) < base
                            or int(step.source.max()) >= base + cursor
                        ):
                            raise PlanError(
                                f"pass {pas.label!r}: write sources slots outside "
                                f"the records read so far ([{base}, {base + cursor}))"
                            )
                        system.write_blocks(
                            step.portion,
                            step.block_ids,
                            stream[step.source - base].reshape(step.num_blocks, g.B),
                        )
                base += cursor
        finally:
            system.stats.end_pass()
        if capture:
            report.streams.append(stream)
    return report


# ----------------------------------------------------------------- fast mode
def _portion_groups(portions: np.ndarray, rec_portions: np.ndarray):
    """Yield ``(portion, record_indexer)`` pairs; a full slice when uniform."""
    uniq = np.unique(portions)
    if uniq.size <= 1:
        if uniq.size:
            yield int(uniq[0]), slice(None)
        return
    for p in uniq:
        yield int(p), rec_portions == p


def _require_write_targets_empty(
    system: ParallelDiskSystem,
    write_portions: np.ndarray,
    rec_wport: np.ndarray,
    write_addr: np.ndarray,
) -> None:
    """The simple-I/O write-to-empty rule, vectorized over record addrs.

    Canonical check shared by the fast executor and the optimizer's
    skipped-link audit; keep error text in sync with
    :meth:`ParallelDiskSystem.write_blocks`.
    """
    g = system.geometry
    data = system._data
    for portion, idx in _portion_groups(write_portions, rec_wport):
        if isinstance(idx, slice):
            values = data[portion][write_addr]
        else:
            values = data[portion, write_addr[idx]]
        occupied = ~system._is_empty(values)
        if occupied.any():
            bad = np.unique((write_addr[idx])[occupied] >> g.b)
            raise BlockStateError(
                f"writing to non-empty blocks under simple I/O: {list(bad)}"
            )


def _stream_budget(stream_records) -> int | None:
    """Resolve the streaming knob: None = never stream."""
    if stream_records is None:
        return STREAM_AUTO_RECORDS
    if not stream_records:
        return None
    return int(stream_records)


class _SegmentMeta:
    """Step-level segmentation inputs: what :func:`_liveness_segments`
    needs and nothing more (no record-level gather/scatter arrays)."""

    __slots__ = ("num_steps", "is_read", "read_before", "read_rec_cum", "write_source_min")


def _segment_meta(g: DiskGeometry, pas: PlanPass):
    """Liveness-segmentation metadata for one pass, O(steps) memory.

    Strict replay streams through per-operation I/O and never touches
    the fused record-address arrays, so building a full
    :class:`_FusedPass` (O(pass records) host memory) just to find cut
    points would defeat the streaming guard.  Reuses an existing fused
    cache entry when the fast engine already paid for one.
    """
    cached = pas._fused.get("fused")
    if cached is not None and cached.num_steps == pas.num_steps:
        return cached
    meta = pas._fused.get("segmeta")
    if meta is not None and meta.num_steps == pas.num_steps:
        return meta
    c = pas._ensure_columns()
    meta = _SegmentMeta()
    meta.num_steps = c.num_steps
    meta.is_read = c.is_read
    meta.read_before, meta.read_rec_cum = _read_cumulatives(
        g.B, c.is_read, c.read_sizes
    )
    meta.write_source_min, _ = _write_source_extrema(
        g.B, c.write_sizes, c.write_source
    )
    pas._fused["segmeta"] = meta
    return meta


def _liveness_segments(f, budget: int) -> list[tuple[int, int]]:
    """Cut a pass into step ranges whose read-stream chunks fit ``budget``.

    A cut after step ``i`` is *valid* when every write at a later step
    sources only slots read after ``i`` -- i.e. every slot read so far
    has retired.  Planner-emitted passes retire a memoryload's slots as
    soon as its writes are planned, so valid cuts occur every ~M
    records.  Chunks then greedily pack as many cuts as fit the budget;
    if the tightest liveness window already exceeds the budget, the
    window is taken whole (liveness, not the budget, is the hard floor).
    """
    num_steps = f.num_steps
    rr = f.read_rec_cum[f.read_before[1:]]  # records read after each step
    src_min = np.full(num_steps, _I64_MAX, dtype=np.int64)
    src_min[~f.is_read] = f.write_source_min
    suffix = np.minimum.accumulate(src_min[::-1])[::-1]
    later = np.empty(num_steps, dtype=np.int64)
    later[:-1] = suffix[1:]
    later[-1] = _I64_MAX
    valid = later >= rr
    valid[-1] = True
    cuts = np.flatnonzero(valid)
    cut_rr = rr[cuts]

    segments: list[tuple[int, int]] = []
    s0 = 0
    base = 0
    lo = 0
    while s0 < num_steps:
        j = int(np.searchsorted(cut_rr, base + budget, side="right")) - 1
        j = max(j, lo)  # liveness floor: take at least the next valid cut
        c = int(cuts[j])
        segments.append((s0, c + 1))
        base = int(rr[c])
        s0 = c + 1
        lo = j + 1
    return segments


def _apply_segment(
    system: ParallelDiskSystem,
    f: _FusedPass,
    s0: int,
    s1: int,
    write_keep: np.ndarray | None = None,
) -> np.ndarray:
    """Gather/check/scatter one step range of a fused pass; returns its
    read-stream chunk (the caller reports/captures it).

    ``write_keep`` is a record-level mask over the pass's write stream
    (the optimizer's dead-write elimination); masked records skip the
    physical scatter while everything else -- checks, consumes, stats
    -- proceeds as usual.
    """
    g = system.geometry
    B = g.B
    data = system._data
    r0, r1 = int(f.read_before[s0]), int(f.read_before[s1])
    w0, w1 = int(f.write_before[s0]), int(f.write_before[s1])
    rec0, rec1 = int(f.read_rec_cum[r0]), int(f.read_rec_cum[r1])
    wrec0, wrec1 = int(f.write_rec_cum[w0]), int(f.write_rec_cum[w1])

    read_addr = f.read_addr[rec0:rec1]
    rec_rport = f.rec_read_portion[rec0:rec1]
    read_portions = f.read_portions[r0:r1]
    stream = np.empty(rec1 - rec0, dtype=system.dtype)
    for portion, idx in _portion_groups(read_portions, rec_rport):
        if isinstance(idx, slice):
            np.take(data[portion], read_addr, out=stream)
        else:
            stream[idx] = data[portion, read_addr[idx]]

    consume = f.resolved_consume(system.simple_io)[r0:r1]
    rec_consume = np.repeat(consume, f.read_sizes[r0:r1] * B)
    any_consume = bool(rec_consume.any())
    all_consume = any_consume and bool(rec_consume.all())
    if any_consume:
        consumed = stream if all_consume else stream[rec_consume]
        empty = system._is_empty(consumed)
        if empty.any():
            seg_block_ids = f.read_ids[rec0 // B : rec1 // B]
            consumed_blocks = np.repeat(seg_block_ids, B)[rec_consume]
            bad = np.unique(consumed_blocks[empty.reshape(-1)])
            raise BlockStateError(
                f"reading empty/partial blocks {list(bad)} under simple I/O"
            )

    write_addr = f.write_addr[wrec0:wrec1]
    rec_wport = f.rec_write_portion[wrec0:wrec1]
    write_portions = f.write_portions[w0:w1]
    if system.simple_io and write_addr.size:
        _require_write_targets_empty(system, write_portions, rec_wport, write_addr)

    # Mutate: consume sources, then scatter targets (disjoint by the
    # fusability check, so ordering is immaterial).
    if any_consume:
        for portion, idx in _portion_groups(read_portions, rec_rport):
            if isinstance(idx, slice):
                addr = read_addr if all_consume else read_addr[rec_consume]
                data[portion][addr] = system.empty
            else:
                mask = idx & rec_consume
                data[portion, read_addr[mask]] = system.empty
    if write_addr.size:
        src = f.write_source[wrec0:wrec1]
        if rec0:
            src = src - rec0
        out = stream[src]
        keep = None if write_keep is None else write_keep[wrec0:wrec1]
        for portion, idx in _portion_groups(write_portions, rec_wport):
            if keep is None:
                if isinstance(idx, slice):
                    data[portion][write_addr] = out
                else:
                    data[portion, write_addr[idx]] = out[idx]
            else:
                mask = keep if isinstance(idx, slice) else (idx & keep)
                data[portion, write_addr[mask]] = out[mask]
    return stream


def _finish_pass(system: ParallelDiskSystem, f: _FusedPass, mem: _PassMemory) -> None:
    """Bulk-record one fused pass's stats and memory effect."""
    system.stats.record_pass_batch(
        f.label,
        parallel_reads=int(f.read_sizes.size),
        parallel_writes=int(f.write_sizes.size),
        striped_reads=int(f.read_striped.sum()),
        striped_writes=int(f.write_striped.sum()),
        blocks_read=int(f.read_sizes.sum()),
        blocks_written=int(f.write_sizes.sum()),
    )
    system.memory.in_use += mem.net
    if mem.peak > system.memory.peak:
        system.memory.peak = mem.peak


def _run_fused_pass(
    system: ParallelDiskSystem,
    f: _FusedPass,
    budget: int | None,
    report: ExecReport,
    mem: _PassMemory,
    write_keep: np.ndarray | None = None,
) -> None:
    """Execute one fused pass, streaming when it exceeds ``budget``, and
    fold its host peak, streamed flag, captured stream and stats into
    ``report``."""
    if budget is not None and f.stream_records > budget and f.num_steps > 1:
        segments = _liveness_segments(f, budget)
    else:
        segments = [(0, f.num_steps)]
    for s0, s1 in segments:
        if s0:
            checkpoint("shard", f.label)
        stream = _apply_segment(system, f, s0, s1, write_keep=write_keep)
        report.host_peak_records = max(report.host_peak_records, stream.size)
    if len(segments) > 1:
        report.streamed_passes += 1
    if report.streams is not None:
        # capture runs with budget=None, so the stream is the whole pass
        report.streams.append(stream)
    _finish_pass(system, f, mem)


def _execute_fast(
    system: ParallelDiskSystem,
    plan: IOPlan,
    stream_records=None,
    capture: bool = False,
) -> ExecReport:
    g = system.geometry
    fused = [_fuse_pass(g, p) for p in plan.passes]
    for f in fused:
        _check_pass(g, system.num_portions, system.simple_io, f)
    _, _, mems = _check_memory(g, system.memory.capacity, system.memory.in_use, fused)

    budget = None if capture else _stream_budget(stream_records)
    report = ExecReport(engine="fast", streams=[] if capture else None)
    for f, mem in zip(fused, mems):
        checkpoint("pass", f.label)
        _run_fused_pass(system, f, budget, report, mem)
    return report


# ------------------------------------------------------------------ dispatch
def execute_plan(
    system: ParallelDiskSystem,
    plan,
    engine: str = "strict",
    optimize: bool = False,
    stream_records=None,
    capture: bool = False,
) -> ExecReport:
    """Execute an I/O plan under the chosen engine.

    ``strict`` replays step-by-step with full per-operation rule
    enforcement; ``fast`` validates up front and executes fused.  Both
    leave byte-identical portions and identical stats.  With observers
    attached, ``fast`` falls back to strict so every
    :class:`~repro.pdm.system.IOEvent` is still delivered.

    ``plan`` may also be a pre-compiled
    :class:`~repro.pdm.optimize.OptimizedPlan`; ``optimize=True``
    compiles one on the fly (fast engine only).  ``stream_records``
    bounds either engine's host read-stream buffer (``None`` = auto
    at :data:`STREAM_AUTO_RECORDS`, ``0`` = never stream);
    ``capture=True`` returns each pass's read stream in the report
    (disables streaming -- the stream must be whole).
    """
    from repro.pdm.optimize import OptimizedPlan  # local: optimize imports us

    if isinstance(plan, OptimizedPlan):
        return plan.execute(
            system, engine=engine, stream_records=stream_records, capture=capture
        )
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if plan.geometry != system.geometry:
        raise ValidationError("plan and system geometries differ")
    if optimize and engine == "fast" and not capture and not system._observers:
        from repro.pdm.optimize import optimize_plan

        oplan = optimize_plan(
            plan, num_portions=system.num_portions, simple_io=system.simple_io
        )
        return oplan.execute(system, engine=engine, stream_records=stream_records)
    if engine == "fast" and not system._observers:
        return _execute_fast(
            system, plan, stream_records=stream_records, capture=capture
        )
    report = _execute_strict(
        system, plan, capture=capture, stream_records=stream_records
    )
    if engine == "fast":
        report.fell_back = "observers"
    return report

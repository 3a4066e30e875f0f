"""General-permutation baseline: striped external merge sort.

Permuting is sorting by target address.  This baseline is the classic
PDM merge sort with *striped* layout: every run occupies consecutive
stripes, every read and write moves one full stripe (``D`` blocks, one
per disk), so every parallel I/O is maximally parallel and the pass
count is exact:

    ``1 + ceil(log_K(N/M))`` passes of ``2N/BD`` I/Os each,

with fan-in ``K = M/(BD) - 2`` (each open run holds one stripe buffer,
plus head-room for the output stripe).  That is the
``Theta((N/BD) lg(N/B) / lg(M/B))`` sorting shape of the Vitter-Shriver
general-permutation bound whenever ``BD << M``; their truly optimal
algorithm needs randomized placement (see :mod:`repro.core.distribution`).

I/O fidelity: the plan contains exactly the reads and writes a
buffer-driven K-way merge issues -- a run's next stripe is fetched when
its buffer empties, the output stripe is flushed when it fills.  The
schedule is data-dependent, so :func:`plan_general_sort` takes the
source portion's record values and simulates the data flow pass by
pass (the hand-written performer derived the same schedule from peeked
keys); the data itself still moves through counted, memory-checked I/O
when the plan executes, and the resident-record peak stays at
``(K+1) * BD`` as in a real merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import Permutation

__all__ = ["plan_general_sort", "perform_general_sort", "GeneralSortPlan", "GeneralSortResult"]


@dataclass
class GeneralSortResult:
    passes: int
    fan_in: int
    final_portion: int
    parallel_ios: int


@dataclass
class GeneralSortPlan:
    """A planned external merge sort: the I/O plan plus its shape."""

    io_plan: IOPlan
    passes: int
    fan_in: int
    final_portion: int


@dataclass
class _Run:
    """A sorted run: ``length`` stripes starting at stripe ``start``."""

    start: int
    length: int


def plan_general_sort(
    geometry: DiskGeometry,
    perm: Permutation,
    source_values: np.ndarray,
    source_portion: int = 0,
    target_portion: int = 1,
    fan_in: int | None = None,
) -> GeneralSortPlan:
    """Plan a permutation as an external merge sort on target addresses.

    Requires ``M >= 4BD`` (two-way merge with buffers).  The schedule is
    data-dependent, so ``source_values`` must hold the source portion's
    record payloads (``peek``-ed by :func:`perform_general_sort`); the
    planner simulates each pass's output to derive the next pass's
    buffer-refill order, exactly as the performer did from peeked keys.
    """
    g = geometry
    if fan_in is None:
        fan_in = max(2, g.M // (g.B * g.D) - 2)
    if (fan_in + 2) * g.B * g.D > g.M or fan_in < 2:
        raise ValidationError(
            f"fan-in {fan_in} needs (K+2) BD <= M; geometry has M={g.M}, BD={g.B * g.D}"
        )
    source_values = np.asarray(source_values)
    if source_values.shape != (g.N,):
        raise ValidationError(
            f"planner needs the full source portion ({g.N} records), "
            f"got shape {source_values.shape}"
        )
    builder = PlanBuilder(g)

    # ---- pass 0: run formation -------------------------------------------
    builder.begin_pass("sort:runs")
    runs: list[_Run] = []
    spm = g.stripes_per_memoryload
    current = np.empty(g.N, dtype=source_values.dtype)  # simulated dst portion
    for ml in range(g.num_memoryloads):
        slots = builder.read_memoryload(source_portion, ml)
        values = source_values[ml * g.M : (ml + 1) * g.M]
        targets = np.asarray(perm.apply_array(values.astype(np.uint64)), dtype=np.int64)
        order = np.argsort(targets)
        builder.write_memoryload(target_portion, ml, slots[order])
        current[ml * g.M : (ml + 1) * g.M] = values[order]
        runs.append(_Run(start=ml * spm, length=spm))
    passes = 1
    src, dst = target_portion, source_portion

    # ---- merge passes ------------------------------------------------------
    slot_of_addr = np.empty(g.N, dtype=np.int64)  # per-group scratch, reused
    while len(runs) > 1:
        builder.begin_pass(f"sort:merge{passes}")
        merged_portion = np.empty_like(current)
        new_runs: list[_Run] = []
        out_stripe = 0
        for i in range(0, len(runs), fan_in):
            group = runs[i : i + fan_in]
            out_len = sum(r.length for r in group)
            _plan_merge_group(
                builder, perm, current, merged_portion, src, group, dst, out_stripe,
                slot_of_addr,
            )
            new_runs.append(_Run(start=out_stripe, length=out_len))
            out_stripe += out_len
        runs = new_runs
        current = merged_portion
        src, dst = dst, src
        passes += 1

    return GeneralSortPlan(
        io_plan=builder.build(),
        passes=passes,
        fan_in=fan_in,
        final_portion=src,
    )


def _plan_merge_group(
    builder: PlanBuilder,
    perm: Permutation,
    current: np.ndarray,
    merged_portion: np.ndarray,
    src: int,
    group: list[_Run],
    dst: int,
    out_start: int,
    slot_of_addr: np.ndarray,
) -> None:
    """Plan one K-way merge with the exact buffer-driven I/O schedule.

    Sort keys are the records' target addresses (recomputed from the
    payloads, which are the original source addresses).  ``current``
    holds the simulated contents of the source portion;
    ``merged_portion`` receives the simulated output for the next pass;
    ``slot_of_addr`` is caller-provided scratch (every entry this group
    consumes is written by one of its own reads first).
    """
    g = builder.geometry
    per = g.records_per_stripe

    run_bounds = [(run.start * per, (run.start + run.length) * per) for run in group]
    all_values = np.concatenate([current[lo:hi] for lo, hi in run_bounds])
    all_addresses = np.concatenate(
        [np.arange(lo, hi, dtype=np.int64) for lo, hi in run_bounds]
    )
    all_keys = np.asarray(perm.apply_array(all_values.astype(np.uint64)), dtype=np.int64)

    merged_order = np.argsort(all_keys, kind="stable")
    merged_values = all_values[merged_order]
    merged_addresses = all_addresses[merged_order]
    total = all_keys.size

    # Event schedule: (position, priority, kind, stripe).  Writes (prio 0)
    # precede reads (prio 1) at equal positions so the output buffer is
    # flushed before the next refill -- keeping residency at (K+1) BD.
    run_of = np.repeat(np.arange(len(group)), [hi - lo for lo, hi in run_bounds])
    merged_runs = run_of[merged_order]
    events: list[tuple[int, int, str, int]] = []
    for r, run in enumerate(group):
        positions = np.flatnonzero(merged_runs == r)
        for j in range(run.length):
            pos = 0 if j == 0 else int(positions[j * per - 1]) + 1
            events.append((pos, 1, "read", run.start + j))
    for chunk in range(total // per):
        events.append(((chunk + 1) * per, 0, "write", out_start + chunk))
    events.sort(key=lambda e: (e[0], e[1]))

    # Reads register their records' stream slots by source address; a
    # write chunk's sources are then the merged addresses it covers.
    write_ptr = 0
    for _pos, _prio, kind, stripe in events:
        if kind == "read":
            lo = stripe * per
            slot_of_addr[lo : lo + per] = builder.read_stripe(src, stripe)
        else:
            chunk_addresses = merged_addresses[write_ptr : write_ptr + per]
            builder.write_stripe(dst, stripe, slot_of_addr[chunk_addresses])
            merged_portion[stripe * per : (stripe + 1) * per] = merged_values[
                write_ptr : write_ptr + per
            ]
            write_ptr += per


def perform_general_sort(
    system: ParallelDiskSystem,
    perm: Permutation,
    source_portion: int = 0,
    target_portion: int = 1,
    fan_in: int | None = None,
    engine: str = "strict",
    optimize: bool = False,
    stream_records=None,
) -> GeneralSortResult:
    """Permute by external merge sort on target addresses.

    Ping-pongs between the two portions; the result reports where the
    output landed.  The schedule is data-dependent, so there is no plan
    cache, but ``optimize`` still applies: the merge passes ping-pong
    full portions, so the cross-pass optimizer fuses the whole sort
    into one physical gather/scatter while reporting per-pass stats.
    """
    g = system.geometry
    plan = plan_general_sort(
        g,
        perm,
        system.peek(source_portion, 0, g.N),
        source_portion,
        target_portion,
        fan_in=fan_in,
    )
    before = system.stats.parallel_ios
    execute_plan(
        system, plan.io_plan, engine=engine, optimize=optimize,
        stream_records=stream_records,
    )
    return GeneralSortResult(
        passes=plan.passes,
        fan_in=plan.fan_in,
        final_portion=plan.final_portion,
        parallel_ios=system.stats.parallel_ios - before,
    )

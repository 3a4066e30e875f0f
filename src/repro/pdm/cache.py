"""Compiled-plan cache: skip planning, fusing, and validation on repeats.

Planning a BMMC permutation is pure -- the emitted
:class:`~repro.pdm.schedule.IOPlan` depends only on the geometry, the
characteristic matrix (plus complement), the algorithm, and the portion
wiring.  Serving the same relayout to many requests (the "millions of
users" traffic shape: every FFT performs the same bit-reversal, every
matrix pipeline the same transpose) therefore re-derives byte-identical
plans over and over, and the planners -- per-memoryload argsorts and
class-property proofs -- dominate the cost of a fast execution.

:class:`PlanCache` is an LRU map from a :func:`plan_key` to a
:class:`CompiledPlan`: the plan with its fused per-pass arrays already
built, the model-rule audit already passed, and (optionally) the
cross-pass :class:`~repro.pdm.optimize.OptimizedPlan` rewrite already
compiled.  A cache hit goes straight to gather/scatter -- no planning,
no fusing, no structural validation; only the data-dependent simple-I/O
checks and the memory simulation (both O(plan) numpy work) remain.

Keys must capture *everything* the plan depends on; :func:`plan_key`
prefixes the algorithm name and geometry, and callers append the
characteristic matrix (hashable :class:`~repro.bits.matrix.BitMatrix`),
complement, portions, and any algorithm knobs.  Two systems with the
same geometry share compiled plans safely because plans are immutable
and executions never write to them (fused metadata is cached on the
plan, keyed by step count).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import ValidationError
from repro.pdm.cancel import checkpoint, current_trace
from repro.pdm.engine import ExecReport, audit_plan, execute_plan, PlanCheck
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan
from repro.pdm.system import ParallelDiskSystem

__all__ = [
    "CacheInfo",
    "ShardCacheInfo",
    "CompiledPlan",
    "PlanCache",
    "ShardedPlanCache",
    "plan_key",
    "compile_plan",
    "cached_execute",
]


@dataclass(frozen=True)
class CacheInfo:
    """Counters snapshot for one :class:`PlanCache`.

    ``latch_waits`` counts requesters that found another thread's
    compile in flight and waited on its latch (sharded caches only;
    always 0 for a plain :class:`PlanCache`).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    latch_waits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class ShardCacheInfo:
    """One shard's counters, snapshotted under that shard's lock alone.

    The observability contract for ``/stats`` and ``/metrics``: a
    monitoring scrape reads shards one at a time
    (:meth:`ShardedPlanCache.shard_infos`), never holding more than one
    shard lock, so it cannot stall the serving hot path the way a
    stop-the-world snapshot would.
    """

    shard: int
    size: int
    hits: int
    misses: int
    evictions: int
    latch_waits: int
    inflight: int


def plan_key(algorithm: str, geometry: DiskGeometry, *components) -> tuple:
    """A hashable cache key: algorithm + geometry + caller components.

    Callers append whatever else the plan depends on -- characteristic
    matrices hash by content, so ``plan_key("mld", g, perm.matrix,
    perm.complement, src, dst)`` distinguishes exactly the workloads
    that need distinct plans.
    """
    return (algorithm, (geometry.N, geometry.B, geometry.D, geometry.M), *components)


class CompiledPlan:
    """A pre-fused, pre-validated plan, optionally pre-optimized.

    ``meta`` carries algorithm-level results that are pure functions of
    the key (e.g. the BMMC factor schedule and final portion) so cache
    hits can reconstruct their run reports without re-planning.
    """

    __slots__ = (
        "plan", "optimized", "check", "num_portions", "simple_io", "meta",
        "_opt_lock",
    )

    def __init__(
        self,
        plan: IOPlan,
        optimized,
        check: PlanCheck,
        num_portions: int,
        simple_io: bool,
        meta=None,
    ) -> None:
        self.plan = plan
        self.optimized = optimized
        self.check = check
        self.num_portions = num_portions
        self.simple_io = simple_io
        self.meta = meta
        self._opt_lock = threading.Lock()

    def ensure_optimized(self):
        """Compile (and memoize) the optimized form on first demand.

        Laziness keeps strict-only workloads from paying the optimizer's
        slot-map argsorts for an artifact the strict path never runs.
        Compiled plans are shared between concurrent requests (the
        service's whole point), so the first-use compile is serialized
        under a per-entry lock: N racing executions compile once.
        """
        if self.optimized is None:
            with self._opt_lock:
                if self.optimized is None:
                    from repro.pdm.optimize import optimize_plan

                    self.optimized = optimize_plan(
                        self.plan,
                        num_portions=self.num_portions,
                        simple_io=self.simple_io,
                    )
        return self.optimized

    def execute(
        self,
        system: ParallelDiskSystem,
        engine: str = "fast",
        stream_records=None,
        optimize: bool = True,
    ) -> ExecReport:
        """Run the compiled plan.

        ``optimize`` selects the optimized form (compiled lazily on
        first fast-engine use); a compiled plan is shareable between
        callers that do and do not want the rewrites, so the choice is
        made here, per execution, not baked into the cache entry.
        """
        target = (
            self.ensure_optimized() if (optimize and engine == "fast") else self.plan
        )
        return execute_plan(
            system, target, engine=engine, stream_records=stream_records
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "optimized" if self.optimized is not None else "plain"
        return f"CompiledPlan({shape}, passes={self.plan.num_passes})"


def compile_plan(
    geometry: DiskGeometry,
    plan: IOPlan,
    num_portions: int = 2,
    simple_io: bool = True,
    optimize: bool = True,
    meta=None,
) -> CompiledPlan:
    """Fuse, audit, and (optionally) optimize a plan for reuse.

    This front-loads every input-independent cost: after compiling,
    executions skip straight to data movement.  No
    :class:`~repro.pdm.system.ParallelDiskSystem` is required -- the
    audit simulates the M-record memory from empty.
    """
    check = audit_plan(geometry, plan, num_portions=num_portions, simple_io=simple_io)
    optimized = None
    if optimize:
        from repro.pdm.optimize import optimize_plan

        optimized = optimize_plan(
            plan, num_portions=num_portions, simple_io=simple_io
        )
    return CompiledPlan(plan, optimized, check, num_portions, simple_io, meta=meta)


class PlanCache:
    """LRU cache of :class:`CompiledPlan` objects keyed by :func:`plan_key`."""

    def __init__(self, maxsize: int = 64) -> None:
        maxsize = int(maxsize)
        if maxsize < 1:
            # maxsize=0 would make every store instantly evict its own
            # entry: get_or_compile recompiles forever with misses and
            # evictions climbing while size stays pinned at 0.
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: tuple) -> CompiledPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: tuple, compiled: CompiledPlan) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compile(
        self, key: tuple, compile_fn: Callable[[], CompiledPlan]
    ) -> tuple[CompiledPlan, bool]:
        """Serve ``key`` from the cache, compiling-and-storing on a miss.

        Returns ``(compiled, hit)``.  This is the one lookup path the
        execution wrappers use; :class:`ShardedPlanCache` overrides it
        with locked, compile-once semantics, so anything routed through
        here is transparently safe under a shared concurrent cache.
        """
        compiled = self.lookup(key)
        if compiled is not None:
            return compiled, True
        compiled = compile_fn()
        self.store(key, compiled)
        return compiled, False

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        i = self.info()
        return (
            f"PlanCache(size={i.size}/{i.maxsize}, hits={i.hits}, "
            f"misses={i.misses}, evictions={i.evictions})"
        )


class ShardedPlanCache:
    """A thread-safe :class:`PlanCache` drop-in for concurrent serving.

    Entries are spread over ``num_shards`` independent LRU shards by
    ``hash(plan_key)``, each guarded by its own lock, so requests for
    unrelated keys never contend.  Counters (hits / misses / evictions)
    are updated under the owning shard's lock and are therefore *exact*
    under contention -- no lost increments, and
    ``hits + misses == requests`` reconciles deterministically.

    Cold misses get **compile-once** semantics: the first requester of a
    key installs an in-flight latch and compiles outside the lock;
    concurrent requesters of the same key wait on the latch and are
    served the stored entry as hits.  N racing cold requests therefore
    cost exactly one compile and count exactly one miss.  If the compile
    raises, the latch is removed and the error propagates to that
    requester alone; waiters retry (one becomes the new builder), so a
    poisoned request never wedges or corrupts the cache.
    """

    class _Shard:
        __slots__ = (
            "lock", "entries", "inflight", "hits", "misses", "evictions",
            "latch_waits",
        )

        def __init__(self) -> None:
            self.lock = threading.Lock()
            self.entries: OrderedDict[tuple, CompiledPlan] = OrderedDict()
            self.inflight: dict[tuple, threading.Event] = {}
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.latch_waits = 0

    def __init__(self, maxsize: int = 64, num_shards: int = 8) -> None:
        num_shards = max(1, int(num_shards))
        maxsize = int(maxsize)
        if maxsize < 1:
            # maxsize=0 yields _per_shard == 0, so every store instantly
            # evicts its own entry and the cache silently never holds
            # anything (misses/evictions climb forever, size stays 0).
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        if maxsize < num_shards:
            # every shard needs capacity for at least one entry, or a
            # single hot key per shard would thrash
            num_shards = max(1, maxsize)
        self.maxsize = maxsize
        self._shards = [self._Shard() for _ in range(num_shards)]
        # ceil split so the total capacity is never below maxsize
        self._per_shard = -(-maxsize // num_shards)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def _shard_of(self, key: tuple) -> "ShardedPlanCache._Shard":
        return self._shards[hash(key) % len(self._shards)]

    def _store_locked(self, shard: "_Shard", key: tuple, compiled: CompiledPlan) -> None:
        shard.entries[key] = compiled
        shard.entries.move_to_end(key)
        while len(shard.entries) > self._per_shard:
            shard.entries.popitem(last=False)
            shard.evictions += 1

    # ------------------------------------------------- PlanCache-compatible API
    def lookup(self, key: tuple) -> CompiledPlan | None:
        """Non-coalescing probe (counts a miss even if a compile is in
        flight); prefer :meth:`get_or_compile` on serving paths."""
        shard = self._shard_of(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            return entry

    def store(self, key: tuple, compiled: CompiledPlan) -> None:
        shard = self._shard_of(key)
        with shard.lock:
            self._store_locked(shard, key, compiled)

    def get_or_compile(
        self, key: tuple, compile_fn: Callable[[], CompiledPlan]
    ) -> tuple[CompiledPlan, bool]:
        """Locked lookup with compile-once cold misses; see class docs."""
        shard = self._shard_of(key)
        while True:
            with shard.lock:
                entry = shard.entries.get(key)
                if entry is not None:
                    shard.entries.move_to_end(key)
                    shard.hits += 1
                    return entry, True
                latch = shard.inflight.get(key)
                if latch is None:
                    latch = shard.inflight[key] = threading.Event()
                    shard.misses += 1
                    building = True
                else:
                    shard.latch_waits += 1
                    building = False
            if not building:
                # Another thread is compiling this key: wait, then rescan.
                # Either the entry landed (hit) or the builder failed and
                # removed the latch (this thread retries as the builder).
                # The wait is sliced so a waiter whose deadline expires
                # (or whose service hard-cancels) unwinds promptly
                # instead of being held hostage by a slow builder; the
                # builder itself is unaffected and still lands the entry.
                waited_from = time.perf_counter()
                while not latch.wait(0.05):
                    checkpoint("latch-wait", str(key[0]) if key else "")
                trace = current_trace()
                if trace is not None:
                    trace.record("latch_wait", time.perf_counter() - waited_from)
                continue
            try:
                compiled = compile_fn()
            except BaseException:
                with shard.lock:
                    shard.inflight.pop(key, None)
                latch.set()
                raise
            with shard.lock:
                self._store_locked(shard, key, compiled)
                shard.inflight.pop(key, None)
            latch.set()
            return compiled, False

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()

    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)

    def __contains__(self, key: tuple) -> bool:
        shard = self._shard_of(key)
        with shard.lock:
            return key in shard.entries

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self._shards)

    @property
    def latch_waits(self) -> int:
        return sum(s.latch_waits for s in self._shards)

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self),
            maxsize=self.maxsize,
            latch_waits=self.latch_waits,
        )

    def shard_infos(self) -> list[ShardCacheInfo]:
        """Per-shard counter snapshots, one shard lock at a time.

        Deliberately *not* atomic across shards: a scrape that locked
        every shard at once would serialize against the serving hot
        path.  Each row is exact for its shard; the concatenation is a
        near-point-in-time view, which is what monitoring needs.
        """
        infos = []
        for index, shard in enumerate(self._shards):
            with shard.lock:
                infos.append(
                    ShardCacheInfo(
                        shard=index,
                        size=len(shard.entries),
                        hits=shard.hits,
                        misses=shard.misses,
                        evictions=shard.evictions,
                        latch_waits=shard.latch_waits,
                        inflight=len(shard.inflight),
                    )
                )
        return infos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        i = self.info()
        return (
            f"ShardedPlanCache(shards={self.num_shards}, size={i.size}/"
            f"{i.maxsize}, hits={i.hits}, misses={i.misses}, "
            f"evictions={i.evictions})"
        )


def cached_execute(
    system: ParallelDiskSystem,
    cache: PlanCache | ShardedPlanCache | None,
    key: tuple,
    build: Callable[[], tuple[IOPlan, object]],
    engine: str = "fast",
    optimize: bool = True,
    stream_records=None,
) -> tuple[CompiledPlan, ExecReport, bool]:
    """Execute through the cache; compile-and-store on a miss.

    ``build`` is the pure planner thunk, returning ``(plan, meta)``.
    Returns ``(compiled, exec_report, hit)``.  All cache traffic goes
    through ``cache.get_or_compile``, so a :class:`ShardedPlanCache`
    shared between worker threads gets compile-once cold misses and
    exact counters with no changes to the algorithm wrappers.

    The optimized form is compiled lazily, on the entry's first
    fast-engine execution with ``optimize=True``, then memoized; the
    caller's flag selects which form executes, so one entry serves
    callers on either setting without re-compilation or a key split.

    When the calling thread carries an ambient timing trace
    (:func:`~repro.pdm.cancel.current_trace` -- the service installs
    one per request), the plan/compile/execute stage costs are recorded
    on it, so every served result can report where its wall time went.
    """
    trace = current_trace()

    def _compile() -> CompiledPlan:
        checkpoint("planner", str(key[0]) if key else "")
        planned_from = time.perf_counter()
        plan, meta = build()
        compiled_from = time.perf_counter()
        compiled = compile_plan(
            system.geometry,
            plan,
            num_portions=system.num_portions,
            simple_io=system.simple_io,
            optimize=False,  # lazy: see CompiledPlan.ensure_optimized
            meta=meta,
        )
        if trace is not None:
            trace.record("plan", compiled_from - planned_from)
            trace.record("compile", time.perf_counter() - compiled_from)
        return compiled

    if cache is None:
        compiled, hit = _compile(), False
    else:
        compiled, hit = cache.get_or_compile(key, _compile)
    executed_from = time.perf_counter()
    report = compiled.execute(
        system, engine=engine, stream_records=stream_records, optimize=optimize
    )
    if trace is not None:
        trace.record("execute", time.perf_counter() - executed_from)
    return compiled, report, hit

"""Compiled-plan cache: skip planning, fusing, and validation on repeats.

Planning a BMMC permutation is pure -- the emitted
:class:`~repro.pdm.schedule.IOPlan` depends only on the geometry, the
characteristic matrix (plus complement), the algorithm, and the portion
wiring.  Serving the same relayout to many requests (the "millions of
users" traffic shape: every FFT performs the same bit-reversal, every
matrix pipeline the same transpose) therefore re-derives byte-identical
plans over and over, and the planners -- per-memoryload argsorts and
class-property proofs -- dominate the cost of a fast execution.

:class:`PlanCache` is a thread-safe LRU map from a :func:`plan_key` to
a :class:`CompiledPlan`: the plan with its fused per-pass arrays
already built, the model-rule audit already passed, and (lazily, on
first fast-engine use) the :class:`~repro.pdm.optimize.OptimizedPlan`
the fast engine runs.  A cache hit goes straight to gather/scatter --
no planning, no fusing, no structural validation; only the
data-dependent simple-I/O checks and the memory simulation (both
O(plan) numpy work) remain.

:func:`cached_execute` is the one place a planner wrapper's plan runs,
with or without a cache, and the one place that times the plan,
compile, and execute stages.

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
    "CompiledPlan",
    "PlanCache",
    "plan_key",
    "compile_plan",
    "cached_execute",
]


@dataclass(frozen=True)
class CacheInfo:
    """Counters snapshot for one plan cache.

    ``latch_waits`` counts requesters that found another thread's
    compile in flight and waited on its latch (always 0 for a cache
    used by one thread).
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


def plan_key(algorithm: str, geometry: DiskGeometry, *components) -> tuple:
    """A hashable cache key: algorithm + geometry + caller components.

    Callers append whatever else the plan depends on -- characteristic
    matrices hash by content, so ``plan_key("mld", g, perm.matrix,
    perm.complement, src, dst)`` distinguishes exactly the workloads
    that need distinct plans.
    """
    return (algorithm, (geometry.N, geometry.B, geometry.D, geometry.M), *components)


class CompiledPlan:
    """A pre-fused, pre-validated plan, and its optimized form once a
    fast-engine execution has asked for it.

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
        check: PlanCheck,
        num_portions: int,
        simple_io: bool,
        meta=None,
    ) -> None:
        self.plan = plan
        self.optimized = None
        self.check = check
        self.num_portions = num_portions
        self.simple_io = simple_io
        self.meta = meta
        self._opt_lock = threading.Lock()

    def ensure_optimized(self):
        """Compile (and memoize) the optimized form on first demand.

        Laziness keeps strict-only workloads from paying for the
        optimizer, which the strict path never runs; each unit's N-record
        pull index waits longer still, for the unit's first gather.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "optimized" if self.optimized is not None else "plain"
        return f"CompiledPlan({shape}, passes={self.plan.num_passes})"


def compile_plan(
    geometry: DiskGeometry,
    plan: IOPlan,
    num_portions: int = 2,
    simple_io: bool = True,
    meta=None,
) -> CompiledPlan:
    """Fuse and audit a plan for reuse.

    This front-loads every input-independent cost but one: the
    optimized form stays unset until :meth:`CompiledPlan.ensure_optimized`
    (the first fast-engine execution) builds it, so strict-only
    workloads never pay for it, and each N-record pull index is
    composed on its unit's first gather.  No
    :class:`~repro.pdm.system.ParallelDiskSystem` is required -- the
    audit simulates the M-record memory from empty.
    """
    check = audit_plan(geometry, plan, num_portions=num_portions, simple_io=simple_io)
    return CompiledPlan(plan, check, num_portions, simple_io, meta=meta)


class PlanCache:
    """A thread-safe LRU plan cache, shareable between worker threads.

    One LRU order holds at most ``maxsize`` entries, guarded by one
    lock that is held only for dictionary operations.  Counters (hits /
    misses / evictions / latch waits) are updated under that lock and
    read together by :meth:`info`, so they are *exact* under contention
    -- no lost increments, and ``hits + misses == requests`` reconciles
    deterministically.  Which entry an insert evicts depends only on
    the order of requests, never on how keys hash.

    Cold misses get **compile-once** semantics: the first requester of a
    key installs an in-flight latch and compiles outside the lock;
    concurrent requesters of the same key wait on the latch and are
    served the stored entry as hits.  N racing cold requests therefore
    cost exactly one compile and count exactly one miss.  If the compile
    raises, the latch is removed and the error propagates to that
    requester alone; waiters retry (one becomes the new builder), so a
    poisoned request never wedges or corrupts the cache.
    """

    def __init__(self, maxsize: int = 64) -> None:
        maxsize = int(maxsize)
        if maxsize < 1:
            # maxsize=0 would evict every entry as it is stored: the
            # cache would silently never hold anything (misses and
            # evictions climb forever, size stays 0).
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self._inflight: dict[tuple, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._latch_waits = 0

    def get_or_compile(
        self, key: tuple, compile_fn: Callable[[], CompiledPlan]
    ) -> tuple[CompiledPlan, bool]:
        """Locked lookup with compile-once cold misses; see class docs."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry, True
                latch = self._inflight.get(key)
                if latch is None:
                    latch = self._inflight[key] = threading.Event()
                    self._misses += 1
                    building = True
                else:
                    self._latch_waits += 1
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
                with self._lock:
                    self._inflight.pop(key, None)
                latch.set()
                raise
            with self._lock:
                # The latch kept every other requester from storing this
                # key, so the insert lands at the MRU end and at most one
                # entry overflows.
                self._entries[key] = compiled
                if len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                self._inflight.pop(key, None)
            latch.set()
            return compiled, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def info(self) -> CacheInfo:
        """Every counter and the size, read together under the lock."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
                latch_waits=self._latch_waits,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        i = self.info()
        return (
            f"{type(self).__name__}(size={i.size}/{i.maxsize}, hits={i.hits}, "
            f"misses={i.misses}, evictions={i.evictions})"
        )


# perfbench/layers.py imports the cache under this name to time its
# get_or_compile.  It is the same class object, so that timer wraps the
# method the service calls.
ShardedPlanCache = PlanCache


def cached_execute(
    system: ParallelDiskSystem,
    cache: PlanCache | None,
    key: tuple,
    build: Callable[[], tuple[IOPlan, object]],
    engine: str = "fast",
    stream_records=None,
) -> tuple[object, ExecReport, bool]:
    """Run a planner's plan, through ``cache`` when one is given.

    ``build`` is the pure planner thunk, returning ``(plan, meta)``.
    Returns ``(meta, exec_report, hit)``; ``meta`` carries what the
    caller needs to rebuild its run report (e.g. the BMMC factor
    schedule), from ``build`` or from the cached entry.

    With ``cache=None`` the plan is built and handed straight to
    :func:`~repro.pdm.engine.execute_plan` -- no audit and no compiled
    entry, so the strict engine keeps its liveness-bounded host memory.
    Otherwise all cache traffic goes through ``cache.get_or_compile``,
    so a cache shared between worker threads gets compile-once cold
    misses and exact counters with no changes to the algorithm
    wrappers.  The fast engine runs the entry's optimized form,
    compiled lazily on its first fast-engine execution and then
    memoized; the strict engine replays the plan itself.  The engine is
    not part of the key, so one entry serves both engines.

    When the calling thread carries an ambient timing trace
    (:func:`~repro.pdm.cancel.current_trace` -- the service installs
    one per request), the plan/compile/execute stage costs are recorded
    on it, a stage that raises included, so every result -- a failed
    one too -- can report where its wall time went.
    """
    trace = current_trace()

    def timed(stage: str, fn: Callable, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if trace is not None:
                trace.record(stage, time.perf_counter() - started)

    if cache is None:
        plan, meta = timed("plan", build)
        report = timed(
            "execute", execute_plan, system, plan, engine=engine,
            stream_records=stream_records,
        )
        return meta, report, False

    def _compile() -> CompiledPlan:
        checkpoint("planner", str(key[0]) if key else "")
        plan, meta = timed("plan", build)
        return timed(
            "compile", compile_plan, system.geometry, plan,
            num_portions=system.num_portions, simple_io=system.simple_io,
            meta=meta,
        )

    def _execute() -> ExecReport:
        target = compiled.ensure_optimized() if engine == "fast" else compiled.plan
        return execute_plan(
            system, target, engine=engine, stream_records=stream_records
        )

    compiled, hit = cache.get_or_compile(key, _compile)
    return compiled.meta, timed("execute", _execute), hit

"""ENGINE: strict-vs-fast execution of identical I/O plans.

The refactor's bargain: planning is pure, and one plan executes either
*strictly* (per-operation rule enforcement, the reference semantics) or
*fast* (validated up front, fused numpy gather/scatter per pass).  This
bench measures the bargain across growing ``N`` and asserts it is free:

* both engines report identical :class:`StatsSnapshot` counters,
* every pass costs exactly ``2N/BD`` parallel I/Os (the paper's
  per-pass accounting, Table 1 caption), for the one-pass MLD plan and
  for every pass of the multi-pass Theorem 21 plan,
* the permutation verifies under both engines, and
* steady-state fast execution is at least 5x faster than strict at
  ``N = 2^18`` (measured on the same pre-built plan; the first fast run
  additionally pays a one-time fuse+validate cost, reported separately
  as ``fast cold``).

Two further suites cover the PR-2 optimizer stack:

* ``test_engine_huge_n_streaming`` runs ``N = 2^22`` and ``2^24``
  under the streaming fast executor and *asserts the host-memory
  guard*: the executor's peak read-stream buffer stays at the chunk
  budget, far below one full pass's O(N) stream.
* ``test_optimizer_cache_speedup`` measures cold (plan + compile +
  optimize + execute) vs. warm (compiled-plan cache hit) service times
  at ``N = 2^18`` and asserts warm is at least
  ``BENCH_CACHE_SPEEDUP_FLOOR``x (default 3x) faster.

Results: ``benchmarks/results/BENCH_engine.md`` plus machine-readable
``BENCH_engine.json`` and ``BENCH_optimizer.json`` for CI trend
tracking.
"""

import json
import os
import time
import tracemalloc

import numpy as np

from repro.bits.random import random_mld_matrix
from repro.core.bmmc_algorithm import plan_bmmc_io, plan_bmmc_passes
from repro.core.mld_algorithm import perform_mld_pass, plan_mld_pass
from repro.pdm.cache import PlanCache
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation
from repro.perms.library import bit_reversal

from benchmarks.conftest import RESULTS_DIR, SEED, write_result

#: Sweep geometries: the default bench block/disk/memory shape, growing N.
SWEEP_N = [14, 16, 18, 20]
SHAPE = dict(B=2**4, D=2**3, M=2**11)

#: Acceptance threshold at N = 2^18 (steady-state).  Overridable so CI
#: smoke runs on noisy shared runners can loosen it (the floor still
#: catches "fast stopped being fast" regressions at any setting > 1).
SPEEDUP_FLOOR = float(os.environ.get("BENCH_ENGINE_SPEEDUP_FLOOR", "5.0"))
SPEEDUP_AT_N = 18

#: Huge-N streaming sweep; CI caps it via BENCH_HUGE_MAX_N to keep the
#: smoke job light (the full 2^24 run wants ~1.5 GB of host arrays).
HUGE_N = [22, 24]
HUGE_MAX_N = int(os.environ.get("BENCH_HUGE_MAX_N", "24"))

#: Streaming chunk budget for the huge-N runs (records).
STREAM_BUDGET = 1 << 20

#: Traced host memory a streamed execution may allocate, in bytes per
#: budget record: five int64 arrays the length of one chunk.  An N-entry
#: pull index (8N bytes) breaks it at every N in the sweep.
STREAM_TRACED_BYTES_PER_RECORD = 40

#: What the first, fusing, streamed execution may trace per record of N
#: on top of the streamed bound, in bytes.  A fused pass keeps block ids
#: (N/B entries per direction, already in the plan's columns) and shares
#: the plan's write-source column, so fusing allocates only per-step and
#: per-block arrays (8/B bytes per record each, 0.5 at B=16), and the
#: audit's temporaries are bool masks and one N/B-entry key array at a
#: time.  A pass that keeps any N-entry int64 array of its own (8 per
#: record) breaks it.
FUSED_BYTES_PER_RECORD = 1

#: Warm cache-hit service must beat cold by at least this factor.
CACHE_SPEEDUP_FLOOR = float(os.environ.get("BENCH_CACHE_SPEEDUP_FLOOR", "3.0"))


def _update_optimizer_results(section: str, payload) -> None:
    """Merge one section into BENCH_optimizer.json (tests are runnable
    individually, so the file is read-modify-write)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_optimizer.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["shape"] = SHAPE
    data["seed"] = SEED
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")


def _time(fn, rounds=3):
    """Median-of-``rounds`` wall-clock seconds."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _fresh(g):
    s = ParallelDiskSystem(g)
    s.fill_identity(0)
    return s


def _run(g, plan, engine):
    s = _fresh(g)
    execute_plan(s, plan, engine=engine)
    return s


def _measure(g, plan, perm, final_portion):
    """Time both engines on one plan; assert equivalence and accounting."""
    strict = _run(g, plan, "strict")
    fast = _run(g, plan, "fast")  # cold fuse happens here
    assert strict.stats.snapshot() == fast.stats.snapshot()
    assert (strict.portion_values(final_portion) == fast.portion_values(final_portion)).all()
    assert strict.verify_permutation(perm, np.arange(g.N), final_portion)
    assert fast.verify_permutation(perm, np.arange(g.N), final_portion)
    # Paper accounting: every pass reads and writes each record once.
    for p in fast.stats.passes:
        assert p.parallel_ios == g.one_pass_ios, (p.label, p.parallel_ios)
    assert fast.stats.parallel_ios == plan.num_passes * g.one_pass_ios

    t_cold_fast = _time(lambda: _cold_run(g, plan), rounds=1)
    t_strict = _time(lambda: _run(g, plan, "strict"))
    t_fast = _time(lambda: _run(g, plan, "fast"))  # fuse cache warm again
    return t_strict, t_cold_fast, t_fast, fast.stats.parallel_ios


def _cold_run(g, plan):
    """Fast run including the one-time fuse+validate cost."""
    for p in plan.passes:
        p._fused.clear()
    return _run(g, plan, "fast")


def test_engine_strict_vs_fast(benchmark):
    rows = []
    records = []

    def sweep():
        for n in SWEEP_N:
            g = DiskGeometry(N=2**n, **SHAPE)
            rng = np.random.default_rng(SEED + n)

            mld = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))
            mld_plan = plan_mld_pass(g, mld)
            s_mld = _measure(g, mld_plan, mld, 1)

            rev = bit_reversal(g.n)
            steps = plan_bmmc_passes(rev, g)
            bmmc_plan, final = plan_bmmc_io(g, steps)
            s_bmmc = _measure(g, bmmc_plan, rev, final)

            for name, plan, (t_strict, t_cold, t_fast, ios) in (
                ("mld-1pass", mld_plan, s_mld),
                (f"bmmc-{len(steps)}pass", bmmc_plan, s_bmmc),
            ):
                speedup = t_strict / t_fast
                rows.append(
                    [
                        f"2^{n}",
                        name,
                        ios,
                        f"{t_strict * 1e3:.1f}",
                        f"{t_cold * 1e3:.1f}",
                        f"{t_fast * 1e3:.1f}",
                        f"{speedup:.1f}x",
                    ]
                )
                records.append(
                    dict(
                        N=2**n,
                        plan=name,
                        passes=plan.num_passes,
                        parallel_ios=ios,
                        strict_s=t_strict,
                        fast_cold_s=t_cold,
                        fast_warm_s=t_fast,
                        speedup_warm=speedup,
                    )
                )
                if n == SPEEDUP_AT_N:
                    assert speedup >= SPEEDUP_FLOOR, (
                        f"fast engine only {speedup:.1f}x faster than strict "
                        f"at N=2^{n} ({name}); need {SPEEDUP_FLOOR}x"
                    )

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(dict(shape=SHAPE, seed=SEED, rows=records), indent=2) + "\n"
    )
    write_result(
        "BENCH_engine",
        "strict vs fast plan execution (median wall-clock, ms)",
        ["N", "plan", "parallel I/Os", "strict", "fast cold", "fast warm", "speedup"],
        rows,
    )


def test_engine_huge_n_streaming(benchmark):
    """N = 2^22 / 2^24 under the streaming fast executor.

    The memory guard: both executors used to buffer a pass's whole read
    stream on the host (O(N)); the streaming executor must keep its
    peak buffer at the chunk budget -- asserted strictly below one full
    pass's stream and at most the requested budget -- while producing a
    verified permutation with exact 2N/BD-per-pass accounting.  Both
    streamed executions run under ``tracemalloc``.  The second, with the
    plan's fused metadata already built, must stay within
    :data:`STREAM_TRACED_BYTES_PER_RECORD` per budget record, so no
    N-entry index (such as a whole-portion unit's pull index) is held.
    The first, which fuses the pass, may add
    :data:`FUSED_BYTES_PER_RECORD` per record of N.
    """
    sweep = [n for n in HUGE_N if n <= HUGE_MAX_N]
    if not sweep:
        import pytest

        pytest.skip(f"BENCH_HUGE_MAX_N={HUGE_MAX_N} disables the huge-N sweep")

    rows = []
    records = []

    def run():
        for n in sweep:
            g = DiskGeometry(N=2**n, **SHAPE)
            rng = np.random.default_rng(SEED + n)
            perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))

            t0 = time.perf_counter()
            plan = plan_mld_pass(g, perm)
            t_plan = time.perf_counter() - t0

            s = ParallelDiskSystem(g)
            s.fill_identity(0)
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                report = execute_plan(
                    s, plan, engine="fast", stream_records=STREAM_BUDGET
                )
                t_exec = time.perf_counter() - t0
                fusing_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

            # ---- the guard: streaming engaged, host buffer bounded ----
            full_stream = g.N  # one pass reads every record once
            assert report.streamed_passes == plan.num_passes
            assert report.host_peak_records < full_stream, (
                f"host peak {report.host_peak_records} not below a full "
                f"pass stream ({full_stream}) at N=2^{n}"
            )
            assert report.host_peak_records <= STREAM_BUDGET

            # Correctness + paper accounting at scale.
            assert s.verify_permutation(perm, np.arange(g.N), 1)
            assert s.stats.parallel_ios == g.one_pass_ios
            assert s.memory.peak <= g.M

            # ---- the traced guards: O(budget) host memory per execution,
            # plus the fused metadata the first execution builds ----
            fusing_bound = (
                FUSED_BYTES_PER_RECORD * g.N
                + STREAM_TRACED_BYTES_PER_RECORD * STREAM_BUDGET
            )
            assert fusing_peak <= fusing_bound, (
                f"fusing streamed execution traced {fusing_peak} bytes at "
                f"N=2^{n}, over {fusing_bound} ({FUSED_BYTES_PER_RECORD} per "
                f"record + {STREAM_TRACED_BYTES_PER_RECORD} per budget record)"
            )
            s.reset()
            s.fill_identity(0)
            tracemalloc.start()
            try:
                execute_plan(s, plan, engine="fast", stream_records=STREAM_BUDGET)
                traced_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            traced_bound = STREAM_TRACED_BYTES_PER_RECORD * STREAM_BUDGET
            assert traced_peak <= traced_bound, (
                f"streamed execution traced {traced_peak} bytes at N=2^{n}, "
                f"over {traced_bound} ({STREAM_TRACED_BYTES_PER_RECORD} per "
                "budget record)"
            )

            rows.append(
                [
                    f"2^{n}",
                    plan.num_passes,
                    s.stats.parallel_ios,
                    f"{t_plan * 1e3:.0f}",
                    f"{t_exec * 1e3:.0f}",
                    report.host_peak_records,
                    f"1/{full_stream // report.host_peak_records}",
                    f"{fusing_peak / 2**20:.1f}",
                    f"{traced_peak / 2**20:.1f}",
                ]
            )
            records.append(
                dict(
                    N=2**n,
                    passes=plan.num_passes,
                    parallel_ios=s.stats.parallel_ios,
                    plan_s=t_plan,
                    fast_stream_s=t_exec,
                    host_peak_records=report.host_peak_records,
                    full_stream_records=full_stream,
                    stream_budget=STREAM_BUDGET,
                    fusing_traced_peak_bytes=fusing_peak,
                    fusing_traced_bound_bytes=fusing_bound,
                    traced_peak_bytes=traced_peak,
                    traced_bound_bytes=traced_bound,
                    guard="host_peak_records < full_stream_records",
                )
            )
            del s, plan  # free ~O(N) arrays before the next size

    benchmark.pedantic(run, rounds=1, iterations=1)

    _update_optimizer_results("streaming", records)
    write_result(
        "BENCH_engine_streaming",
        "huge-N fast execution with liveness streaming (host buffer guard)",
        ["N", "passes", "parallel I/Os", "plan ms", "exec ms",
         "host peak records", "peak / full stream", "fusing traced MiB",
         "traced MiB"],
        rows,
    )


def test_strict_streaming_host_peak(benchmark):
    """Strict replay under the liveness-streamed host buffer.

    The PR-2 follow-up: strict execution used to materialize a pass's
    whole O(N) read stream on the host.  It now reuses the fast
    executor's liveness segmentation to recycle the buffer, so the
    guard asserted for fast mode holds for strict replay too -- host
    peak at the chunk budget, strictly below one full pass's stream --
    while the per-operation rule-checked I/O path (and its exact
    2N/BD accounting) is unchanged.
    """
    n = 22  # strict replay is per-operation; keep the huge run to 2^22
    if n > HUGE_MAX_N:
        import pytest

        pytest.skip(f"BENCH_HUGE_MAX_N={HUGE_MAX_N} disables the huge-N sweep")
    g = DiskGeometry(N=2**n, **SHAPE)
    rng = np.random.default_rng(SEED + n)
    perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))
    plan = plan_mld_pass(g, perm)

    records = {}

    def run():
        s = ParallelDiskSystem(g)
        s.fill_identity(0)
        t0 = time.perf_counter()
        report = execute_plan(
            s, plan, engine="strict", stream_records=STREAM_BUDGET
        )
        t_exec = time.perf_counter() - t0

        # ---- the guard: sub-O(N) host buffering under strict replay ----
        full_stream = g.N
        assert report.engine == "strict"
        assert report.streamed_passes == plan.num_passes
        assert report.host_peak_records < full_stream, (
            f"strict host peak {report.host_peak_records} not below a full "
            f"pass stream ({full_stream}) at N=2^{n}"
        )
        assert report.host_peak_records <= STREAM_BUDGET

        # Correctness + paper accounting, same bar as the fast guard.
        assert s.verify_permutation(perm, np.arange(g.N), 1)
        assert s.stats.parallel_ios == g.one_pass_ios
        assert s.memory.peak <= g.M

        records.update(
            N=2**n,
            strict_stream_s=t_exec,
            host_peak_records=report.host_peak_records,
            full_stream_records=full_stream,
            stream_budget=STREAM_BUDGET,
            guard="host_peak_records < full_stream_records (strict engine)",
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    _update_optimizer_results("strict_streaming", records)


def test_optimizer_cache_speedup(benchmark):
    """Cold vs. warm (cache-hit) fast-engine service.

    Cold = plan + compile (fuse, validate, optimize) + execute; warm =
    compiled-plan cache hit, straight to the optimized gather.  This is
    the repeated-traffic serving shape: the floor asserts warm is at
    least CACHE_SPEEDUP_FLOOR x faster at N = 2^18.
    """
    n = SPEEDUP_AT_N
    g = DiskGeometry(N=2**n, **SHAPE)
    rng = np.random.default_rng(SEED + n)
    mld = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))

    payload = {}
    rows = []

    def run():
        # ---- cold vs warm through the plan cache (MLD, one pass) ----
        def serve(cache):
            s = ParallelDiskSystem(g)
            s.fill_identity(0)
            t0 = time.perf_counter()
            perform_mld_pass(s, mld, engine="fast", cache=cache)
            return time.perf_counter() - t0, s

        cache = PlanCache()
        t_cold, s_cold = serve(cache)
        warm_times = []
        for _ in range(3):
            t, s_warm = serve(cache)
            warm_times.append(t)
        t_warm = sorted(warm_times)[len(warm_times) // 2]
        assert cache.info().hits == 3 and cache.info().misses == 1
        assert (s_cold.portion_values(1) == s_warm.portion_values(1)).all()
        assert s_cold.stats.snapshot() == s_warm.stats.snapshot()
        speedup = t_cold / t_warm
        assert speedup >= CACHE_SPEEDUP_FLOOR, (
            f"warm cache-hit only {speedup:.1f}x faster than cold at "
            f"N=2^{n}; need {CACHE_SPEEDUP_FLOOR}x"
        )

        payload.update(
            N=2**n,
            cold_s=t_cold,
            warm_s=t_warm,
            warm_speedup=speedup,
            speedup_floor=CACHE_SPEEDUP_FLOOR,
        )
        rows.append(
            [
                f"2^{n}",
                f"{t_cold * 1e3:.1f}",
                f"{t_warm * 1e3:.1f}",
                f"{speedup:.1f}x",
            ]
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    _update_optimizer_results("cache", payload)
    write_result(
        "BENCH_optimizer",
        "compiled-plan cache, cold vs warm fast-engine service (ms)",
        ["N", "cold", "warm hit", "warm speedup"],
        rows,
    )

"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload warm-large --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no timers in the
program.  ``--trace 1`` runs the same workload twice for half the time
each -- once plain, once with the per-layer timers of :mod:`layers`
installed -- and reports the per-layer metrics.  Either way every
answer is checked (``ok``, ``verified``, digests against a sequential
reference, the service counter invariants) and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

``--manifest`` prints the ``BENCHMARK.json`` these definitions imply.
See ``README.md`` beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
DEFAULT_SEED = 0
#: The workloads BENCHMARK.json names.  cold-plan runs by name but is not
#: gated: its two planning workers contend for the GIL, which amplifies
#: host drift; ten-seed sets of 30 s runs spread by up to 0.16 in p50
#: latency, and a five-seed set by 0.36 in p95.
GATED = ("warm-large", "http-zipf")

#: (name, unit, better, bound).  The wall-clock bounds are wide because
#: the 2-core host they were set on drifts: a fixed Python loop ranged
#: over 2x within one minute.  The I/O count is exact and repeats for
#: every seed, so any increase is a regression: one pass added to the
#: rarest http-zipf key moves it by over 0.5%.
END_TO_END = [
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("parallel_ios_per_request", "count", "lower", 0.001),
]

#: (name, unit, better, layer, the end-to-end metric it should move)
PER_LAYER = [
    ("transport.rtt_ms", "ms", "lower", "serve.http",
     "latency_p50_ms, throughput_rps on http-zipf"),
    ("transport.server_elapsed_ms", "ms", "lower", "serve.http",
     "latency_p50_ms on http-zipf"),
    ("transport.overhead_ms", "ms", "lower", "serve.http",
     "latency_p50_ms, throughput_rps on http-zipf"),
    ("service.queue_wait_ms", "ms", "lower", "serve.service",
     "latency_p50_ms on http-zipf, cold-plan"),
    ("service.coalesced_share", "ratio", "higher", "serve.service",
     "throughput_rps on http-zipf"),
    ("perms.build_ms", "ms", "lower", "perms / serve.requests",
     "latency_p50_ms on warm-large, http-zipf"),
    ("perms.classify_ms", "ms", "lower", "perms.classify",
     "latency_p50_ms on warm-large, http-zipf"),
    ("plan_ms", "ms", "lower", "core planners",
     "throughput_rps on cold-plan"),
    ("plan_share.mld", "ratio", "lower", "core.mld_algorithm",
     "throughput_rps on cold-plan"),
    ("plan_share.mrc", "ratio", "lower", "core.mrc_algorithm",
     "throughput_rps on cold-plan"),
    ("plan_share.bmmc", "ratio", "lower", "core.bmmc_algorithm",
     "throughput_rps on cold-plan"),
    ("plan_share.distribution", "ratio", "lower", "core.distribution",
     "throughput_rps on cold-plan"),
    ("compile_ms", "ms", "lower", "pdm.cache compile + pdm.optimize",
     "throughput_rps on cold-plan"),
    ("cache.hit_rate", "ratio", "higher", "pdm.cache",
     "throughput_rps on cold-plan, warm-large, http-zipf"),
    ("cache.misses", "count", "lower", "pdm.cache",
     "throughput_rps on cold-plan"),
    ("cache.evictions", "count", "lower", "pdm.cache",
     "throughput_rps on cold-plan"),
    ("cache.latch_waits", "count", "lower", "pdm.cache",
     "latency_p50_ms on cold-plan"),
    ("cache.lookup_ms", "ms", "lower", "pdm.cache",
     "latency_p50_ms on cold-plan"),
    ("engine.execute_ms", "ms", "lower", "pdm.engine",
     "latency_p50_ms on warm-large"),
    ("engine.execute_floor_ratio", "ratio", "lower", "pdm.engine",
     "latency_p50_ms on warm-large"),
    ("host.floor_scatter_ms", "ms", "lower", "host",
     "none: the base of engine.execute_floor_ratio"),
    ("system.reset_ms", "ms", "lower", "pdm.system",
     "latency_p50_ms on warm-large"),
    ("system.fill_ms", "ms", "lower", "pdm.system",
     "latency_p50_ms on warm-large"),
    ("system.verify_ms", "ms", "lower", "pdm.system",
     "latency_p50_ms on warm-large"),
    ("system.portion_ms", "ms", "lower", "pdm.system",
     "latency_p50_ms on warm-large"),
    ("bounds.table_ms", "ms", "lower", "core.bounds",
     "latency_p50_ms on warm-large"),
    ("digest_ms", "ms", "lower", "serve.requests digest",
     "latency_p50_ms on warm-large"),
    ("runner.residual_ms", "ms", "lower", "core.runner",
     "latency_p50_ms on warm-large"),
    ("planner.residual_ms", "ms", "lower", "core planners",
     "latency_p50_ms on cold-plan"),
    ("io.passes", "count", "lower", "core planners",
     "parallel_ios_per_request on every workload"),
    ("trace.attributed_share", "ratio", "higher", "tracing",
     "none: share of traced wall time the layers account for"),
    ("trace.overhead_share", "ratio", "lower", "tracing",
     "none: traced over untraced mean latency"),
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` these definitions imply."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": WORKLOADS[name].why} for name in GATED
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
        ],
    }


# --------------------------------------------------------------------------
# phases
# --------------------------------------------------------------------------

class Phase:
    """One target's set-ups and timed closed loop."""

    def __init__(self, workload, geometry, seed, sequence, seconds, traced,
                 setup_reps, first_index=0):
        import workloads

        self.setups = []
        target = None
        for _ in range(setup_reps):
            if target is not None:
                target.close()
                # A closed service is a reference cycle (its threads
                # hold its methods); free it before the next set-up so
                # peak memory is that of one service.
                target = None
                gc.collect()
            target = workloads.start_target(
                workload, str(ROOT), geometry, seed, traced
            )
            self.setups.append(target.setup_s)
        try:
            self.warmup = target.warmup_results
            self.before = target.stats()
            self.records, self.wall = workloads.drive(
                target, sequence, seconds, first_index
            )
            self.after = target.stats()
            self.peak_rss_mb = target.peak_rss_mb()
        finally:
            target.close()

    def delta(self, *path) -> float:
        before, after = self.before, self.after
        for key in path:
            before, after = before[key], after[key]
        return after - before


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail_percentile(samples: int) -> int:
    """The highest of p95/p90/p75 with at least ten samples beyond it."""
    for p in (95, 90, 75):
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50


def scatter_floor_ms(geometry, seed, reps=31) -> float:
    """One ``dst[idx] = src`` of N records, the host's data-movement floor."""
    import numpy as np

    idx = np.random.default_rng(seed).permutation(geometry.N)
    src = np.arange(geometry.N, dtype=np.int64)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps + 3):
        started = time.perf_counter()
        dst[idx] = src
        times.append(time.perf_counter() - started)
    return statistics.median(times[3:]) * 1e3


def exact_io(key_counts, records, reference, geometry) -> tuple[float, float]:
    """Mean parallel I/Os and passes per request over one cycle of the
    workload's sequence (``Workload.key_counts``), each key weighted by
    its count in the cycle and counted from its sequential reference, so
    the means do not depend on which requests a run completed.  A
    sequence that never repeats a key averages over the run's successful
    requests."""
    from workloads import execution_key

    if key_counts is None:
        rows = [(r.outcome.parallel_ios, r.outcome.passes, 1)
                for r in records if r.outcome.ok]
    else:
        rows = [
            (report.io.parallel_ios, report.passes, n)
            for request, n in key_counts
            for report in [reference[execution_key(request, geometry)].report]
        ]
    total = sum(n for *_, n in rows)
    return (sum(ios * n for ios, _, n in rows) / total,
            sum(passes * n for _, passes, n in rows) / total)


def end_to_end(phase: Phase, ios_per_request: float) -> tuple[dict, dict]:
    import numpy as np

    rtts = [r.rtt for r in phase.records]
    tail = tail_percentile(len(rtts))
    metrics = {
        "throughput_rps": sum(r.outcome.ok for r in phase.records) / phase.wall,
        "latency_p50_ms": float(np.percentile(rtts, 50)) * 1e3,
        "latency_p95_ms": float(np.percentile(rtts, tail)) * 1e3,
        "setup_s": statistics.median(phase.setups),
        "peak_rss_mb": phase.peak_rss_mb,
        "parallel_ios_per_request": ios_per_request,
    }
    detail = {
        "latency_samples": len(rtts),
        "latency_p95_reports_percentile": tail,
        "samples_beyond_tail": int(len(rtts) * (100 - tail) / 100),
        "setup_samples_s": phase.setups,
    }
    return metrics, detail


def per_layer(traced: Phase, untraced: Phase, passes: float, floor_ms) -> dict:
    import layers

    rows = [
        (r, layers.breakdown(r.outcome.timings, r.outcome.elapsed, r.rtt,
                             r.outcome.coalesced))
        for r in traced.records
    ]
    all_rows = [row for _, row in rows]
    executed = [row for r, row in rows if not r.outcome.coalesced]

    def per_request(name, pool=executed):
        return _mean(row[name] for row in pool) * 1e3

    # Set-up requests count for planning: warm-large plans only there.
    everything = [r.outcome for r in traced.records] + list(traced.warmup)
    planned = [o for o in everything if "plan" in o.timings]
    plan_total = sum(o.timings["plan"] for o in planned)
    compile_total = sum(
        o.timings.get("compile", 0.0)
        + o.timings.get(layers.PREFIX + "optimize", 0.0)
        for o in everything
    )

    def plan_share(method):
        own = sum(o.timings["plan"] for o in planned if o.method == method)
        return own / plan_total if plan_total else 0.0

    hits = traced.delta("cache", "hits")
    misses = traced.delta("cache", "misses")
    execute_ms = per_request("execute")
    return {
        "transport.rtt_ms": per_request("rtt", all_rows),
        "transport.server_elapsed_ms": per_request("server", all_rows),
        "transport.overhead_ms": per_request("transport", all_rows),
        "service.queue_wait_ms": per_request("queue_wait", all_rows),
        "service.coalesced_share": (
            traced.delta("coalesced") / max(1, traced.delta("submitted"))
        ),
        "perms.build_ms": per_request("build"),
        "perms.classify_ms": per_request("classify"),
        "plan_ms": plan_total / max(1, len(planned)) * 1e3,
        "plan_share.mld": plan_share("mld"),
        "plan_share.mrc": plan_share("mrc"),
        "plan_share.bmmc": plan_share("bmmc"),
        "plan_share.distribution": plan_share("distribution"),
        "compile_ms": compile_total / max(1, len(planned)) * 1e3,
        "cache.hit_rate": hits / max(1, hits + misses),
        "cache.misses": misses,
        "cache.evictions": traced.delta("cache", "evictions"),
        "cache.latch_waits": traced.delta("cache", "latch_waits"),
        "cache.lookup_ms": per_request("lookup"),
        "engine.execute_ms": execute_ms,
        "engine.execute_floor_ratio": execute_ms / floor_ms,
        "host.floor_scatter_ms": floor_ms,
        "system.reset_ms": per_request("reset"),
        "system.fill_ms": per_request("fill"),
        "system.verify_ms": per_request("verify"),
        "system.portion_ms": per_request("portion"),
        "bounds.table_ms": per_request("bounds"),
        "digest_ms": per_request("digest"),
        "runner.residual_ms": per_request("runner_residual"),
        "planner.residual_ms": per_request("planner_residual"),
        "io.passes": passes,
        "trace.attributed_share": (
            sum(row["attributed"] for row in all_rows)
            / sum(row["rtt"] for row in all_rows)
        ),
        "trace.overhead_share": (
            _mean(r.rtt for r in traced.records)
            / _mean(r.rtt for r in untraced.records)
        ),
    }


# --------------------------------------------------------------------------
# the command
# --------------------------------------------------------------------------

def host_fingerprint(geometry) -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "geometry": {"N": geometry.N, "B": geometry.B, "D": geometry.D,
                     "M": geometry.M},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="small geometries and one set-up (the smoke test's scale)",
    )
    parser.add_argument(
        "--manifest", action="store_true",
        help="print the BENCHMARK.json these definitions imply",
    )
    args = parser.parse_args(argv)
    if not args.manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0

    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    geometry = workload.geometry(args.toy)
    sequence = workload.sequence(args.seed)
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(geometry),
        "clients": workloads.CLIENTS, "workers": workloads.WORKERS,
    }
    if args.trace:
        half = args.seconds / 2
        untraced = Phase(workload, geometry, args.seed, sequence, half,
                         traced=False, setup_reps=1)
        if not workload.http:
            layers.install()
        try:
            traced = Phase(workload, geometry, args.seed, sequence, half,
                           traced=True, setup_reps=1,
                           first_index=len(untraced.records))
        finally:
            layers.uninstall()
        phases = [untraced, traced]
    else:
        setup_reps = 1 if args.toy else workload.setup_reps
        phases = [Phase(workload, geometry, args.seed, sequence, args.seconds,
                        traced=False, setup_reps=setup_reps)]
    records = [r for phase in phases for r in phase.records]

    # Every violation is one failure: a bad answer, a broken counter
    # invariant, or a set-up request that did not come back verified.
    problems = [
        f"{label} stats: {p}"
        for phase in phases
        for label, stats in (("before", phase.before), ("after", phase.after))
        for p in workloads.invariant_problems(stats)
    ]
    problems += [
        f"setup request: {o.error or 'verified=False'}"
        for phase in phases for o in phase.warmup if not (o.ok and o.verified)
    ]
    key_counts = workload.key_counts(args.seed)
    bad, reference = workloads.record_problems(records, geometry, key_counts)
    problems += [f"request {i}: {p}" for i, p in sorted(bad.items())]
    ios, passes = exact_io(key_counts, records, reference, geometry)
    detail["requests"] = len(records)
    detail["io_keys"] = len(key_counts) if key_counts else len(reference)
    detail["problems"] = problems[:20]

    if args.trace:
        floor_ms = scatter_floor_ms(geometry, args.seed)
        metrics = per_layer(traced, untraced, passes, floor_ms)
        units = {n: u for n, u, *_ in PER_LAYER}
        moves = {n: (layer, target) for n, _, _, layer, target in PER_LAYER}
    else:
        metrics, tail = end_to_end(phases[0], ios)
        detail.update(tail)
        units = {n: u for n, u, *_ in END_TO_END}
        moves = {}

    for name, value in metrics.items():
        layer, target = moves.get(name, ("", ""))
        note = f"  [{layer}] moves {target}" if layer else ""
        print(f"{name:30s} {value:14.4f} {units[name]}{note}")
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(problems),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

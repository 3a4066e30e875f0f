"""Command-line interface: explore the reproduction without writing code.

Subcommands
-----------
``info``    geometry summary plus Figure 1 / Figure 2 renderings
``bounds``  every closed-form bound for a geometry and rank gamma
``run``     perform a named permutation on the simulator and report
``serve``   run a request mix concurrently on a worker pool, or --http
            to expose the pool as an HTTP/JSON API with /metrics;
            --record captures the traffic as a trace, --replay replays
            one with faithful arrival timing
``loadgen`` drive a running --http server with a concurrent workload
            or replay a workload trace over real sockets (--trace)
``workload`` generate (gen) or inspect (info) workload trace files:
            Zipfian key popularity, Poisson/bursty arrivals, geometry
            diversity, all byte-reproducible from (spec, seed)
``detect``  run-time BMMC detection on a named permutation's vector
``factor``  show the Section 5 factorization of a characteristic matrix

Examples
--------
python -m repro info --N 64 --B 2 --D 8 --M 32
python -m repro run --perm bit-reversal --N 4096 --B 8 --D 4 --M 128
python -m repro run --perm random-bmmc --rank-gamma 2 --method general
python -m repro serve --workers 8 --count 32 --repeat 2
python -m repro serve --http 127.0.0.1:8080 --workers 8 --queue-capacity 64
python -m repro workload gen --out zipf.jsonl --count 64 --popularity zipf
python -m repro serve --replay zipf.jsonl --workers 8
python -m repro loadgen --url http://127.0.0.1:8080 --trace zipf.jsonl
python -m repro detect --perm gray --tamper
python -m repro factor --seed 7 --N 4096 --B 8 --D 4 --M 128
"""

from __future__ import annotations

import argparse
import sys

from repro import bounds
from repro.core.detect import detect_bmmc, store_target_vector
from repro.core.factoring import factor_bmmc
from repro.core.runner import perform_permutation
from repro.errors import ReproError
from repro.pdm.engine import ENGINES
from repro.pdm.geometry import DiskGeometry
from repro.pdm.layout import render_figure1, render_figure2
from repro.pdm.system import ParallelDiskSystem
from repro.pdm.trace import IOTrace, render_timeline
from repro.perms.bmmc import BMMCPermutation
from repro.serve import PERM_CHOICES, make_permutation

__all__ = ["main", "build_parser"]

METHOD_CHOICES = [
    "auto",
    "mrc",
    "mld",
    "inv-mld",
    "bmmc",
    "bmmc-unmerged",
    "general",
    "distribution",
]


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, default=2**12, help="records (power of 2)")
    parser.add_argument("--B", type=int, default=2**3, help="records per block")
    parser.add_argument("--D", type=int, default=2**2, help="disks")
    parser.add_argument("--M", type=int, default=2**7, help="memory records")


def _geometry(args) -> DiskGeometry:
    return DiskGeometry(N=args.N, B=args.B, D=args.D, M=args.M)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_info(args) -> int:
    g = _geometry(args)
    print(g.describe())
    print(f"  n={g.n} b={g.b} d={g.d} m={g.m} s={g.s}")
    print(f"  one pass = 2N/BD = {g.one_pass_ios} parallel I/Os")
    print(f"  memoryloads = {g.num_memoryloads}, blocks = {g.num_blocks}")
    print("\nFigure 1 layout:")
    print(render_figure1(g, max_stripes=args.stripes))
    print("\nFigure 2 address fields:")
    print(render_figure2(g))
    return 0


def cmd_bounds(args) -> int:
    g = _geometry(args)
    r = args.rank_gamma if args.rank_gamma is not None else min(g.b, g.n - g.b)
    print(g.describe())
    print(f"rank gamma = {r}\n")
    rows = [
        ("Theorem 3 lower bound", bounds.theorem3_lower_bound(g, r)),
        ("Section 7 sharpened LB", bounds.sharpened_lower_bound(g, r)),
        ("Lemma 9 non-identity LB", bounds.nonidentity_lower_bound(g)),
        ("Theorem 21 upper bound", float(bounds.theorem21_upper_bound(g, r))),
        ("general-permutation bound", bounds.general_permutation_bound(g)),
        ("merge-sort baseline I/Os", float(bounds.merge_sort_passes(g) * g.one_pass_ios)),
        ("detection read bound", float(bounds.detection_read_bound(g))),
        ("H(N,M,B) of [4] (eq. 1)", float(bounds.h_function(g))),
        ("Delta_max per read", bounds.delta_max(g)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name.ljust(width)} : {value:.2f}")
    return 0


def cmd_run(args) -> int:
    import time

    from repro.pdm.cache import PlanCache

    g = _geometry(args)
    perm = make_permutation(args.perm, g, seed=args.seed, rank_gamma=args.rank_gamma)
    repeat = max(1, args.repeat)
    cache = PlanCache() if (args.cache or repeat > 1) else None
    if repeat > 1 and (args.timeline or args.trace):
        print("(--repeat disables tracing; run once for a timeline)")
    report = None
    for i in range(repeat):
        system = ParallelDiskSystem(g)
        system.fill_identity(0)
        trace = (
            IOTrace(system) if (args.timeline or args.trace) and repeat == 1 else None
        )
        if trace is not None and args.engine == "fast":
            print("(tracing attaches observers: executing strictly, not fused)")
        t0 = time.perf_counter()
        report = perform_permutation(
            system,
            perm,
            method=args.method,
            engine=args.engine,
            cache=cache,
        )
        elapsed = time.perf_counter() - t0
        if repeat > 1:
            tag = "cold" if i == 0 else "warm"
            print(f"run {i + 1}/{repeat} ({tag}): {elapsed * 1e3:.2f} ms")
        if i == repeat - 1:
            print(report.summary())
        if trace is not None:
            print()
            print(trace.summary().table())
            if args.timeline:
                print()
                print(render_timeline(trace, max_ops=args.timeline_ops))
    if cache is not None:
        info = cache.info()
        if info.hits + info.misses:
            print(
                f"plan cache: {info.hits} hits / {info.misses} misses "
                f"({info.size} compiled plans held)"
            )
        else:
            print(
                f"plan cache: unused (method {report.method!r} plans are "
                "data-dependent and never cached)"
            )
    return 0 if report.verified else 1


def _serve_policies(args):
    """The fault plan shared by batch serve and --http (None without --chaos)."""
    import os

    from repro.serve import chaos_plan

    if not args.chaos:
        return None
    chaos_seed = args.chaos_seed
    if chaos_seed is None:
        chaos_seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    faults = chaos_plan(seed=chaos_seed, intensity=args.chaos_intensity)
    print(
        f"chaos: seed={chaos_seed} intensity={args.chaos_intensity} "
        "(deterministic fault injection active)"
    )
    return faults


def serve_http(args, shutdown_event=None, ready=None) -> int:
    """The ``serve --http`` main loop, factored for tests.

    ``shutdown_event`` is the stop signal; when ``None`` (the real CLI
    path) one is created and wired to SIGINT/SIGTERM so the server
    drains gracefully on ctrl-C or a supervisor's TERM.  ``ready`` is
    called with the started :class:`~repro.serve.HttpFrontend` (tests
    use it to learn the ephemeral port).
    """
    import json
    import signal
    import threading
    from dataclasses import asdict

    from repro.serve import (
        HttpFrontend,
        PermutationService,
        ServiceMetrics,
        TraceRecorder,
        load_warmup_spec,
        warm_service,
    )

    g = _geometry(args)
    faults = _serve_policies(args)
    recorder = (
        TraceRecorder(name=_trace_name(args.record), geometry=g)
        if args.record
        else None
    )
    host, _, port = args.http.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --http wants HOST:PORT, got {args.http!r}", file=sys.stderr)
        return 2
    warmup = None
    if args.warmup:
        try:
            warmup = load_warmup_spec(args.warmup)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {args.warmup}: {exc}", file=sys.stderr)
            return 2

    service = PermutationService(
        g,
        workers=args.workers,
        cache_maxsize=args.cache_size,
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
        default_timeout=args.timeout,
        faults=faults,
        metrics=ServiceMetrics(),
        recorder=recorder,
        coalesce=args.coalesce,
    )
    if warmup:
        print(warm_service(service, warmup).summary())
    frontend = HttpFrontend(
        service,
        host=host,
        port=int(port),
        metrics=service.metrics,
        drain_timeout=args.drain_timeout,
        own_service=True,
    )
    frontend.start()
    print(
        f"listening on {frontend.url} ({args.workers} workers, "
        f"queue={args.queue_capacity or 'unbounded'}/{args.queue_policy}, "
        f"coalesce={'on' if args.coalesce else 'off'}); "
        "GET /healthz /stats /config /metrics, POST /permutations"
    )
    if shutdown_event is None:
        shutdown_event = threading.Event()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, lambda *_: shutdown_event.set())
    if ready is not None:
        ready(frontend)
    try:
        shutdown_event.wait()
    finally:
        print(
            "shutting down: listener closed, draining "
            f"(drain_timeout={args.drain_timeout})"
        )
        frontend.close()
        stats = service.stats()
        print(
            f"served {stats.completed} of {stats.submitted} submitted "
            f"({stats.shed} shed, {stats.failed} failed)"
        )
        if args.stats_json:
            with open(args.stats_json, "w") as handle:
                json.dump(asdict(stats), handle, indent=2, sort_keys=True)
            print(f"stats written to {args.stats_json}")
        if recorder is not None:
            _save_recording(recorder, args.record)
    return 0


def _trace_name(path: str) -> str:
    import os

    stem = os.path.splitext(os.path.basename(path))[0]
    return stem or "recorded"


def _save_recording(recorder, path: str) -> None:
    trace = recorder.trace()
    trace.save(path)
    skipped = f" ({recorder.skipped} unserializable skipped)" if recorder.skipped else ""
    print(
        f"recorded {len(trace)} requests over {trace.duration:.3f}s "
        f"to {path}{skipped}"
    )


def cmd_serve(args) -> int:
    import json
    import time
    from dataclasses import asdict

    from repro.errors import (
        DeadlineExceeded,
        InjectedFault,
        RequestCancelled,
        RequestRejected,
    )
    from repro.serve import (
        PermutationService,
        TraceRecorder,
        WorkloadTrace,
        load_requests,
        replay_trace,
        run_sequential,
        synthetic_mix,
    )

    if args.http:
        return serve_http(args)
    if args.replay and args.requests:
        print("error: --replay and --requests are mutually exclusive", file=sys.stderr)
        return 2

    trace = None
    requests = []
    if args.replay:
        try:
            trace = WorkloadTrace.load(args.replay)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {args.replay}: {exc}", file=sys.stderr)
            return 2
        g = trace.geometry or _geometry(args)
        print(trace.describe())
    else:
        g = _geometry(args)
        if args.requests:
            try:
                requests = load_requests(args.requests)
            except (OSError, ValueError) as exc:  # missing file, malformed JSON
                print(f"error: cannot load {args.requests}: {exc}", file=sys.stderr)
                return 2
        else:
            requests = synthetic_mix(
                args.count,
                seed=args.seed,
                distinct_seeds=args.distinct_seeds,
                engine=args.engine,
            )
        requests = requests * max(1, args.repeat)
        if not requests:
            print("no requests to serve", file=sys.stderr)
            return 2

    faults = _serve_policies(args)
    recorder = (
        TraceRecorder(name=_trace_name(args.record), geometry=g)
        if args.record
        else None
    )

    t0 = time.perf_counter()
    stats = None
    replay_report = None
    if (
        trace is None
        and recorder is None
        and args.workers <= 1
        and not (faults or args.queue_capacity or args.timeout)
    ):
        results = run_sequential(g, requests)
        cache_info = None
    else:
        with PermutationService(
            g,
            workers=args.workers,
            cache_maxsize=args.cache_size,
            queue_capacity=args.queue_capacity,
            queue_policy=args.queue_policy,
            default_timeout=args.timeout,
            faults=faults,
            recorder=recorder,
            coalesce=args.coalesce,
        ) as service:
            if trace is not None:
                replay_report = replay_trace(
                    service,
                    trace,
                    as_fast_as_possible=args.as_fast_as_possible,
                    capture=True,
                )
                results = replay_report.results
            else:
                results = service.run(requests)
            cache_info = service.cache_info()
            stats = service.stats()
    elapsed = time.perf_counter() - t0
    if recorder is not None:
        _save_recording(recorder, args.record)

    # Under chaos (or explicit overload/deadline knobs) these failures
    # are the point of the exercise, not a defect: they don't gate the
    # exit code, everything else still does.
    expected = (
        InjectedFault, RequestRejected, DeadlineExceeded, RequestCancelled,
    )
    tolerated = bool(args.chaos or args.queue_capacity or args.timeout)
    failed = [r for r in results if not r.ok]
    gating = [
        r for r in failed
        if not (tolerated and isinstance(r.error, expected))
    ]
    unverified = [r for r in results if r.ok and not r.report.verified]
    shown = results if args.verbose else results[: min(len(results), 8)]
    for result in shown:
        print(result.summary())
    if len(shown) < len(results):
        print(f"... ({len(results) - len(shown)} more; --verbose shows all)")
    failure_note = (
        f"{len(failed)} failed ({len(gating)} unexpectedly)"
        if tolerated
        else f"{len(failed)} failed"
    )
    print(
        f"\nserved {len(results)} requests in {elapsed:.3f}s "
        f"({len(results) / elapsed:.1f} req/s) on {args.workers} worker(s); "
        f"{failure_note}, {len(unverified)} unverified"
    )
    if stats is not None:
        print(
            f"service: {stats.submitted} submitted = {stats.admitted} admitted "
            f"+ {stats.shed} shed; "
            f"{stats.deadline_exceeded} deadline-exceeded, "
            f"{stats.cancelled} cancelled, {stats.coalesced} coalesced"
        )
    if replay_report is not None:
        print(replay_report.summary())
    if cache_info is not None:
        print(
            f"plan cache: {cache_info.hits} hits / {cache_info.misses} misses "
            f"/ {cache_info.evictions} evictions "
            f"({cache_info.size}/{cache_info.maxsize} compiled plans held)"
        )
    if args.stats_json and stats is not None:
        payload = asdict(stats)
        payload["elapsed_seconds"] = elapsed
        payload["requests"] = len(results)
        payload["failed_results"] = len(failed)
        payload["unexpected_failures"] = len(gating)
        with open(args.stats_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"stats written to {args.stats_json}")
    for result in gating:
        print(f"  {result.summary()}", file=sys.stderr)
    return 1 if (gating or unverified) else 0


def cmd_loadgen(args) -> int:
    import json

    from repro.serve import WorkloadTrace, run_loadgen

    trace = None
    if args.trace:
        try:
            trace = WorkloadTrace.load(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(trace.describe())
    report = run_loadgen(
        args.url,
        count=args.count,
        concurrency=args.concurrency,
        mode=args.mode,
        seed=args.seed,
        distinct_seeds=args.distinct_seeds,
        wait_timeout=args.wait_timeout,
        timeout=args.request_timeout,
        check_reconcile=not args.no_reconcile,
        trace=trace,
        as_fast_as_possible=args.as_fast_as_possible,
        idempotent_repeat=args.idempotent_repeat,
    )
    lat = report["latency"]
    statuses = ", ".join(f"{k}: {v}" for k, v in report["statuses"].items())
    pacing = "paced replay" if report["paced"] else "burst"
    print(
        f"{report['count']} requests ({report['mode']}, {pacing}, "
        f"trace {report['trace']!r}) against {report['url']} "
        f"with {report['concurrency']} clients "
        f"(peak concurrency {report['peak_concurrency']})"
    )
    print(
        f"  {report['throughput_rps']:.1f} req/s over "
        f"{report['wall_seconds']:.3f}s; latency mean {lat['mean'] * 1e3:.1f} ms, "
        f"p50 {lat['p50'] * 1e3:.1f} ms, p95 {lat['p95'] * 1e3:.1f} ms"
    )
    print(f"  statuses: {statuses or 'none'}")
    if report.get("errors"):
        errors = ", ".join(f"{k}: {v}" for k, v in report["errors"].items())
        print(f"  errors: {errors}")
    if report["idempotent_repeat"] > 1:
        repeats = report["count"] * (report["idempotent_repeat"] - 1)
        if report["idem_mismatches"] == 0:
            print(
                f"  {repeats} idempotent repeats all returned their "
                "original request_id"
            )
        else:
            print(
                f"  {report['idem_mismatches']} of {repeats} idempotent "
                "repeats returned a DIFFERENT request_id",
                file=sys.stderr,
            )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    if not args.no_reconcile:
        if report["reconciled"]:
            print("  /metrics reconciles exactly against /stats")
        else:
            print("  /metrics does NOT reconcile with /stats:", file=sys.stderr)
            for problem in report["reconcile_problems"]:
                print(f"    {problem}", file=sys.stderr)
            return 1
    if report["idem_mismatches"]:
        return 1
    return 0


def cmd_workload(args) -> int:
    from repro.serve.workload import (
        WorkloadSpec,
        WorkloadTrace,
        generate_trace,
        geometry_variants,
    )

    if args.workload_command == "info":
        try:
            trace = WorkloadTrace.load(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(trace.describe())
        if trace.spec is not None:
            print("generator spec:")
            for key, value in sorted(trace.spec.items()):
                print(f"  {key}: {value}")
        else:
            print("generator spec: none (recorded trace)")
        return 0

    g = _geometry(args)
    geometries = ()
    if args.geometry_diversity > 1:
        geometries = tuple(
            {"N": v.N, "B": v.B, "D": v.D, "M": v.M}
            for v in geometry_variants(g, args.geometry_diversity)
        )
    try:
        spec = WorkloadSpec(
            count=args.count,
            seed=args.seed,
            arrival=args.arrival,
            rate=args.rate,
            burst_size=args.burst_size,
            burst_gap=args.burst_gap,
            popularity=args.popularity,
            zipf_alpha=args.zipf_alpha,
            key_space=args.key_space,
            duplicates=args.duplicates,
            geometry={"N": g.N, "B": g.B, "D": g.D, "M": g.M},
            geometries=geometries,
            engine=args.engine,
            timeout=args.timeout,
            name=_trace_name(args.out),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = generate_trace(spec)
    trace.save(args.out)
    print(trace.describe())
    print(f"trace written to {args.out}")
    return 0


def cmd_detect(args) -> int:
    g = _geometry(args)
    perm = make_permutation(args.perm, g, seed=args.seed, rank_gamma=args.rank_gamma)
    targets = perm.target_vector()
    if args.tamper:
        i, j = 1 % g.N, (g.N // 2 + 1) % g.N
        targets[[i, j]] = targets[[j, i]]
        print(f"(tampered: swapped targets of addresses {i} and {j})")
    system = ParallelDiskSystem(g, simple_io=False)
    store_target_vector(system, targets)
    result = detect_bmmc(system, engine=args.engine)
    bound = bounds.detection_read_bound(g)
    if result.is_bmmc:
        print(f"BMMC: yes (complement = {result.complement:#x})")
        print(f"characteristic matrix:\n{result.matrix!r}")
    else:
        print(f"BMMC: no ({result.reason})")
    print(
        f"reads: {result.formation_reads} formation + "
        f"{result.verification_reads} verification = {result.total_reads} "
        f"(bound {bound})"
    )
    return 0


def cmd_factor(args) -> int:
    g = _geometry(args)
    perm = make_permutation(args.perm, g, seed=args.seed, rank_gamma=args.rank_gamma)
    if not isinstance(perm, BMMCPermutation):
        print("factoring requires a BMMC permutation", file=sys.stderr)
        return 1
    a = perm.matrix
    fact = factor_bmmc(a, g.b, g.m)
    print(f"matrix: {g.n}x{g.n}, rank gamma = {bounds.rank_gamma(a, g.b)}, "
          f"rho = rank A[m:, :m] = {fact.rho}")
    print(f"swap/erase rounds g = {fact.g}  (eq. 17: ceil(rho/lg(M/B)) = "
          f"{-(-fact.rho // (g.m - g.b))})")
    print(f"\neq. 18 apply order ({len(fact.apply_order)} factors):")
    for f_ in fact.apply_order:
        print(f"  {f_.name:<8} [{f_.kind}]")
    print(f"\nmerged one-pass factors ({fact.num_passes} passes, Theorems 17/18):")
    for f_ in fact.merged:
        print(f"  {f_.name:<18} [{f_.kind}]")
    print(f"\nrecomposition check: {'OK' if fact.product_of_merged() == a else 'FAILED'}")
    print(f"predicted I/Os: {bounds.predicted_ios(a, g)} "
          f"(Theorem 21 bound {bounds.theorem21_upper_bound(g, bounds.rank_gamma(a, g.b))})")
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import run_experiment

    g = _geometry(args)
    table = run_experiment(args.id, g, args.seed)
    print(table.render())
    if args.plot:
        chart = _experiment_chart(table)
        if chart is None:
            print("\n(no numeric sweep to plot for this experiment)")
        else:
            print("\n" + chart)
    return 0


def _experiment_chart(table) -> str | None:
    """Plot numeric columns of a sweep table against its first column."""
    from repro.plotting import Series, ascii_chart

    def numeric(value):
        try:
            return float(str(value).rstrip("x%"))
        except ValueError:
            return None

    xs = [numeric(row[0]) for row in table.rows]
    if len(table.rows) < 2 or any(x is None for x in xs):
        return None
    markers = "MLUabcdef"
    series = []
    for col in range(1, len(table.headers)):
        ys = [numeric(row[col]) for row in table.rows]
        if any(y is None for y in ys):
            continue
        series.append(
            Series(
                str(table.headers[col]),
                list(zip(xs, ys)),
                marker=markers[(col - 1) % len(markers)],
            )
        )
        if len(series) == 4:
            break
    if not series:
        return None
    return ascii_chart(series, x_label=str(table.headers[0]))


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BMMC permutations on parallel disk systems (Cormen et al., SPAA 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="geometry summary and model figures")
    _add_geometry_args(p_info)
    p_info.add_argument("--stripes", type=int, default=4, help="stripes to render")
    p_info.set_defaults(func=cmd_info)

    p_bounds = sub.add_parser("bounds", help="closed-form bound table")
    _add_geometry_args(p_bounds)
    p_bounds.add_argument("--rank-gamma", type=int, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_run = sub.add_parser("run", help="perform a permutation and report")
    _add_geometry_args(p_run)
    p_run.add_argument("--perm", choices=PERM_CHOICES, default="random-bmmc")
    p_run.add_argument("--method", choices=METHOD_CHOICES, default="auto")
    p_run.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="strict",
        help="plan execution: strict per-I/O replay or fused numpy batches "
        "(--trace/--timeline need per-I/O events and force strict)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--rank-gamma", type=int, default=None)
    p_run.add_argument(
        "--cache",
        action="store_true",
        help="compile plans into an in-process PlanCache (implied by --repeat > 1)",
    )
    p_run.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the permutation this many times on fresh data, reporting "
        "per-run wall time; BMMC-class methods and the distribution sort "
        "(staged plan materialized per seed) hit the compiled-plan cache on "
        "repeats (the general sort's schedule is data-dependent and uncached)",
    )
    p_run.add_argument("--trace", action="store_true", help="print schedule metrics")
    p_run.add_argument("--timeline", action="store_true", help="ASCII disk timeline")
    p_run.add_argument("--timeline-ops", type=int, default=64)
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="serve a request mix concurrently on a worker pool",
        description="Execute many permutation requests on a thread pool "
        "with per-worker disk systems and one shared plan cache. "
        "Requests come from --requests (JSON lines or a JSON array of "
        "PermutationRequest fields) or a deterministic synthetic "
        "MLD/MRC/BMMC/distribution mix (--count/--distinct-seeds); "
        "--repeat replays the whole mix, which is what makes the shared "
        "cache warm.",
    )
    _add_geometry_args(p_serve)
    p_serve.add_argument("--workers", type=int, default=4, help="pool threads (1 = sequential reference)")
    p_serve.add_argument("--requests", type=str, default=None, help="request file (JSON lines or array)")
    p_serve.add_argument("--count", type=int, default=24, help="synthetic mix length (ignored with --requests)")
    p_serve.add_argument("--repeat", type=int, default=1, help="serve the request list this many times")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--distinct-seeds", type=int, default=2, help="seed rotation of the synthetic mix (key cardinality)")
    p_serve.add_argument("--engine", choices=list(ENGINES), default="fast")
    p_serve.add_argument("--cache-size", type=int, default=64, help="shared plan cache capacity")
    p_serve.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="bound the submission queue (default: unbounded)",
    )
    p_serve.add_argument(
        "--queue-policy",
        choices=["reject", "block", "shed-oldest"],
        default="reject",
        help="what a full queue does to new submissions",
    )
    p_serve.add_argument(
        "--coalesce",
        action="store_true",
        default=False,
        help="single-flight coalescing: concurrent requests with an "
        "identical execution key share one execution (followers get "
        "the leader's bytes; see the coalesced counters in /stats)",
    )
    p_serve.add_argument(
        "--no-coalesce",
        dest="coalesce",
        action="store_false",
        help="disable single-flight coalescing (the default)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds from admission",
    )
    p_serve.add_argument(
        "--chaos",
        action="store_true",
        help="inject deterministic faults (planner/kernel errors, slow "
        "passes, latch stalls); injected failures don't affect the "
        "exit code",
    )
    p_serve.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="fault-plan seed (default: REPRO_CHAOS_SEED env, else 0)",
    )
    p_serve.add_argument(
        "--chaos-intensity",
        type=float,
        default=0.05,
        help="fault probability scale in [0, 1]",
    )
    p_serve.add_argument(
        "--stats-json",
        type=str,
        default=None,
        help="write service counters (admitted/shed/failed/...) to this file",
    )
    p_serve.add_argument("--verbose", action="store_true", help="print every result line")
    p_serve.add_argument(
        "--http",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="serve the pool over HTTP/JSON instead of running a batch: "
        "POST /permutations (sync or submit-then-poll), GET /healthz "
        "/stats /config and Prometheus-format /metrics; runs "
        "until SIGINT/SIGTERM, then drains gracefully (port 0 binds an "
        "ephemeral port)",
    )
    p_serve.add_argument(
        "--warmup",
        type=str,
        default=None,
        metavar="FILE",
        help="HTTP mode: warm the plan cache at boot from a JSON spec "
        "(a request list, or {\"mix\": {...synthetic_mix kwargs...}})",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="HTTP mode: seconds of graceful drain on shutdown before "
        "queued work is hard-cancelled (default: drain fully)",
    )
    p_serve.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="FILE",
        help="record every submitted request (offered load, pre-admission) "
        "as a replayable workload trace; works in batch and HTTP mode",
    )
    p_serve.add_argument(
        "--replay",
        type=str,
        default=None,
        metavar="FILE",
        help="replay a workload trace through the pool with faithful "
        "arrival timing (mutually exclusive with --requests)",
    )
    p_serve.add_argument(
        "--as-fast-as-possible",
        action="store_true",
        help="replay: ignore recorded arrival offsets, submit back to back",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive a running serve --http endpoint with a concurrent workload",
        description="Fire the deterministic synthetic mix at an HTTP "
        "frontend from a pool of concurrent clients (real sockets), "
        "report throughput / latency percentiles / status counts, and "
        "verify that the server's /metrics page reconciles exactly "
        "against its /stats counters.  Exits 1 on reconciliation "
        "failure, which is the CI gate.",
    )
    p_load.add_argument("--url", type=str, required=True, help="server base URL")
    p_load.add_argument("--count", type=int, default=32, help="requests to send")
    p_load.add_argument(
        "--concurrency", type=int, default=8, help="simultaneous client workers"
    )
    p_load.add_argument(
        "--mode",
        choices=["sync", "async"],
        default="sync",
        help="sync POSTs block for the result; async submits then polls",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--distinct-seeds", type=int, default=2, help="mix seed rotation"
    )
    p_load.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        help="sync mode: server-side wait bound before degrading to polling",
    )
    p_load.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        help="client-side socket timeout per HTTP call",
    )
    p_load.add_argument(
        "--json", type=str, default=None, help="write the full report to this file"
    )
    p_load.add_argument(
        "--idempotent-repeat",
        type=int,
        default=1,
        help="POST every request with a deterministic Idempotency-Key "
        "and re-POST it this many times total; repeats must return the "
        "original request_id and /stats must still reconcile against "
        "the un-repeated count (exits 1 on any mismatch)",
    )
    p_load.add_argument(
        "--no-reconcile",
        action="store_true",
        help="skip the /metrics vs /stats reconciliation check",
    )
    p_load.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help="replay a workload trace over HTTP instead of the synthetic "
        "mix: each POST fires at its recorded arrival offset",
    )
    p_load.add_argument(
        "--as-fast-as-possible",
        action="store_true",
        help="with --trace: ignore arrival offsets, fire back to back",
    )
    p_load.set_defaults(func=cmd_loadgen)

    p_workload = sub.add_parser(
        "workload",
        help="generate and inspect workload trace files",
        description="Workload traces are versioned JSONL files (header + "
        "one timed request per line) consumed by serve --replay and "
        "loadgen --trace.  'gen' expands a deterministic spec -- Zipf or "
        "uniform key popularity over a catalog of distinct plan keys, "
        "uniform/Poisson/bursty arrivals -- into a trace that is "
        "byte-reproducible from (spec, seed); 'info' summarizes a trace "
        "file and its embedded spec.",
    )
    sub_workload = p_workload.add_subparsers(dest="workload_command", required=True)

    p_wgen = sub_workload.add_parser("gen", help="generate a trace from a spec")
    _add_geometry_args(p_wgen)
    p_wgen.add_argument("--out", type=str, required=True, help="trace file to write")
    p_wgen.add_argument("--count", type=int, default=32, help="number of events")
    p_wgen.add_argument("--seed", type=int, default=0)
    p_wgen.add_argument(
        "--arrival",
        choices=["uniform", "poisson", "bursty"],
        default="uniform",
        help="arrival process shaping the offsets",
    )
    p_wgen.add_argument(
        "--rate", type=float, default=64.0, help="arrivals per second (uniform/poisson)"
    )
    p_wgen.add_argument(
        "--burst-size", type=int, default=8, help="bursty: events per burst"
    )
    p_wgen.add_argument(
        "--burst-gap", type=float, default=0.25, help="bursty: seconds between bursts"
    )
    p_wgen.add_argument(
        "--popularity",
        choices=["uniform", "zipf"],
        default="uniform",
        help="key popularity over the catalog of distinct request keys",
    )
    p_wgen.add_argument(
        "--zipf-alpha",
        type=float,
        default=1.1,
        help="zipf skew exponent (higher = hotter head)",
    )
    p_wgen.add_argument(
        "--key-space",
        type=int,
        default=12,
        help="number of distinct request keys in the catalog",
    )
    p_wgen.add_argument(
        "--duplicates",
        type=int,
        default=1,
        help="repeat every drawn event this many times back to back at "
        "the same arrival offset (duplicate-heavy traffic for "
        "single-flight coalescing; 1 = no duplication)",
    )
    p_wgen.add_argument(
        "--geometry-diversity",
        type=int,
        default=1,
        help="spread keys over this many derived geometries (halving N)",
    )
    p_wgen.add_argument("--engine", choices=list(ENGINES), default="fast")
    p_wgen.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline stamped on every request",
    )
    p_wgen.set_defaults(func=cmd_workload)

    p_winfo = sub_workload.add_parser("info", help="summarize a trace file")
    p_winfo.add_argument("trace", type=str, help="trace file to inspect")
    p_winfo.set_defaults(func=cmd_workload)

    p_detect = sub.add_parser("detect", help="run-time BMMC detection")
    _add_geometry_args(p_detect)
    p_detect.add_argument("--perm", choices=PERM_CHOICES, default="permuted-gray")
    p_detect.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="strict",
        help="detection plans run under either engine; fast fuses the "
        "verification scan into memoryload-sized chunks",
    )
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--rank-gamma", type=int, default=None)
    p_detect.add_argument("--tamper", action="store_true", help="break BMMC-ness")
    p_detect.set_defaults(func=cmd_detect)

    p_factor = sub.add_parser("factor", help="show the Section 5 factorization")
    _add_geometry_args(p_factor)
    p_factor.add_argument("--perm", choices=PERM_CHOICES, default="random-bmmc")
    p_factor.add_argument("--seed", type=int, default=0)
    p_factor.add_argument("--rank-gamma", type=int, default=None)
    p_factor.set_defaults(func=cmd_factor)

    p_exp = sub.add_parser("experiment", help="run a named paper experiment")
    _add_geometry_args(p_exp)
    from repro.experiments import EXPERIMENTS

    p_exp.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--plot", action="store_true", help="ASCII chart of the sweep")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

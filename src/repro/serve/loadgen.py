"""Socket-level load generation against the HTTP frontend.

This is the closed-box half of the serving story: where the test suites
drive :class:`~repro.serve.PermutationService` in-process, the load
generator speaks to a running server the way a real client fleet would
-- TCP connect, JSON over HTTP, concurrent workers, and no shared state
with the server beyond the wire.

The workload is either the standard deterministic mix (built by the
shared :func:`~repro.serve.workload.mix_trace` builder) or any
:class:`~repro.serve.workload.WorkloadTrace` -- a recorded session, a
generated skewed/bursty scenario, a committed golden trace.  Burst
mode issues the whole load *open-loop* from a pool of ``concurrency``
workers that rendezvous on a barrier before the first request -- so a
run with ``concurrency=8`` provably has 8 simultaneous in-flight
clients (``peak_concurrency`` in the report measures it, the HTTP
bench asserts it).  Trace replay instead fires each POST at its
recorded arrival offset (faithful timing), or back to back with
``as_fast_as_possible``.

After the burst drains, :func:`reconcile` scrapes ``/stats`` and
``/metrics`` from the same server and checks them against each other
*exactly* -- no tolerances: the metrics layer bridges consistent
``stats()`` snapshots (see :mod:`repro.serve.metrics`), so any drift is
a bug, and ``admitted + shed == submitted`` must hold on the scraped
page itself.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

from repro.serve.metrics import parse_prometheus_text
from repro.serve.requests import request_to_dict
from repro.serve.service import ServiceStats
from repro.serve.workload import mix_trace

__all__ = ["http_json", "http_text", "reconcile", "run_loadgen"]


def http_json(
    method: str,
    base_url: str,
    path: str,
    payload=None,
    timeout: float = 30.0,
    headers: dict | None = None,
):
    """One HTTP exchange; returns ``(status, parsed_json)``.

    Non-2xx answers are returned, not raised -- the generator *wants*
    429/503/504 traffic when it probes overload behavior.
    """
    url = base_url.rstrip("/") + path
    data = None
    headers = {"Accept": "application/json", **(headers or {})}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as err:
        status, body = err.code, err.read()
    try:
        parsed = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        parsed = {"raw": body.decode(errors="replace")}
    return status, parsed


def http_text(base_url: str, path: str, timeout: float = 30.0):
    """GET a text resource (``/metrics``); returns ``(status, text)``."""
    url = base_url.rstrip("/") + path
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode(errors="replace")


def reconcile(stats: dict, metrics_text: str) -> list[str]:
    """Check a scraped ``/metrics`` page against a ``/stats`` snapshot.

    Returns the list of violated equalities (empty == reconciled).  The
    two documents are scraped at different instants, so only quantities
    that are stable once traffic has drained are compared -- the caller
    is expected to scrape after its burst completes.  Invariants that
    need no quiescence at all are checked on *each* document: every
    :meth:`ServiceStats.check` invariant on the snapshot, and
    ``admitted + shed == submitted`` on the page.
    """
    samples = parse_prometheus_text(metrics_text)
    snapshot = ServiceStats(**{f.name: stats[f.name] for f in fields(ServiceStats)})
    problems = [f"stats: {problem}" for problem in snapshot.check()]

    def check(label: str, left, right) -> None:
        if left != right:
            problems.append(f"{label}: {left!r} != {right!r}")

    check(
        "metrics: admitted + shed == submitted",
        samples.get("repro_requests_admitted_total", 0)
        + samples.get("repro_requests_shed_total", 0),
        samples.get("repro_requests_submitted_total", 0),
    )
    for field, sample in [
        ("submitted", "repro_requests_submitted_total"),
        ("admitted", "repro_requests_admitted_total"),
        ("shed", "repro_requests_shed_total"),
        ("completed", "repro_requests_completed_total"),
        ("failed", "repro_requests_failed_total"),
        ("deadline_exceeded", "repro_requests_deadline_exceeded_total"),
        ("cancelled", "repro_requests_cancelled_total"),
        ("coalesced", "repro_requests_coalesced_total"),
    ]:
        check(
            f"stats.{field} == {sample}",
            float(stats.get(field, 0)),
            samples.get(sample, 0.0),
        )
    return problems


class _Tracker:
    """Counts in-flight workers; ``peak`` proves real concurrency."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0

    def __enter__(self) -> "_Tracker":
        with self._lock:
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._inflight -= 1


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_loadgen(
    url: str,
    count: int = 32,
    concurrency: int = 8,
    mode: str = "sync",
    seed: int = 0,
    distinct_seeds: int = 2,
    wait_timeout: float | None = None,
    poll_interval: float = 0.01,
    timeout: float = 60.0,
    check_reconcile: bool = True,
    trace=None,
    as_fast_as_possible: bool = False,
    idempotent_repeat: int = 1,
) -> dict:
    """Fire a workload at ``url`` from ``concurrency`` workers.

    ``trace=None`` sends ``count`` requests of the standard mix as one
    barrier-synchronized burst; a :class:`~repro.serve.workload
    .WorkloadTrace` replays that trace over real sockets instead --
    each POST at its recorded arrival offset (``as_fast_as_possible``
    skips the pacing; a trace whose offsets are all zero is effectively
    a burst).  ``mode="sync"`` posts blocking requests (a 202 answer --
    a ``wait_timeout`` degrade -- is polled to completion); ``"async"``
    uses submit-then-poll for every request.  Returns a JSON-ready
    report: status histogram, latency percentiles, ``peak_concurrency``,
    the final ``/stats`` snapshot, and the reconciliation verdict.

    ``idempotent_repeat > 1`` exercises the idempotency-key protocol:
    every event POSTs with a deterministic ``Idempotency-Key`` and,
    once the primary answer lands, re-POSTs the same keyed request
    ``idempotent_repeat - 1`` more times.  Repeats must come back with
    the *same* ``request_id`` (``idem_mismatches`` counts violations),
    and because the server maps them to the original submission, the
    final ``/stats`` still reconciles against ``count`` submissions --
    not ``count * idempotent_repeat``.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f'mode must be "sync" or "async", got {mode!r}')
    idempotent_repeat = max(1, int(idempotent_repeat))
    if trace is None:
        trace = mix_trace(count, seed=seed, distinct_seeds=distinct_seeds)
    events = [
        (index, event.at, request_to_dict(event.request))
        for index, event in enumerate(trace.events)
    ]
    count = len(events)
    paced = not as_fast_as_possible and trace.duration > 0
    workers = max(1, min(concurrency, count))
    # The rendezvous barrier proves burst concurrency; under paced
    # replay the recorded arrival times rule instead.
    barrier = threading.Barrier(workers) if not paced else None
    tracker = _Tracker()
    first_seen = threading.Event()
    clock0 = time.monotonic()

    def poll(request_id: str) -> tuple[int, dict]:
        deadline = time.monotonic() + timeout
        while True:
            status, body = http_json(
                "GET", url, f"/permutations/{request_id}", timeout=timeout
            )
            if status != 202 or time.monotonic() >= deadline:
                return status, body
            time.sleep(poll_interval)

    def one(item: tuple) -> dict:
        index, at, payload = item
        idem_headers = (
            {"Idempotency-Key": f"lg-{seed}-{index:06d}"}
            if idempotent_repeat > 1
            else None
        )
        if paced:
            delay = at - (time.monotonic() - clock0)
            if delay > 0:
                time.sleep(delay)
        with tracker:
            if barrier is not None and not first_seen.is_set():
                # Rendezvous inside the tracker: every worker counts as
                # in-flight while holding at the barrier, so the burst
                # provably opens with `workers` simultaneous clients.
                try:
                    barrier.wait(timeout=timeout)
                except threading.BrokenBarrierError:
                    pass
                first_seen.set()
            started = time.perf_counter()
            if mode == "async":
                wrapped = {"request": payload, "mode": "async"}
            else:
                wrapped = dict(payload)
                if wait_timeout is not None:
                    wrapped = {"request": payload, "wait_timeout": wait_timeout}
            status, body = http_json(
                "POST", url, "/permutations", wrapped, timeout=timeout,
                headers=idem_headers,
            )
            if status == 202:
                status, body = poll(body["request_id"])
            mismatches = 0
            if idem_headers is not None:
                # The answer has landed, so the keyed repeats must map
                # to the settled request_id without re-executing.
                primary_id = body.get("request_id", "")
                for _ in range(idempotent_repeat - 1):
                    rstatus, rbody = http_json(
                        "POST", url, "/permutations", wrapped,
                        timeout=timeout, headers=idem_headers,
                    )
                    if rstatus == 202:
                        rstatus, rbody = poll(rbody["request_id"])
                    if rbody.get("request_id", "") != primary_id:
                        mismatches += 1
        return {
            "status": status,
            "elapsed": time.perf_counter() - started,
            "request_id": body.get("request_id", ""),
            "error": (body.get("error") or {}).get("type"),
            "idem_mismatches": mismatches,
        }

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(one, events))
    wall = time.perf_counter() - t0

    statuses: dict[str, int] = {}
    errors: dict[str, int] = {}
    latencies = []
    for outcome in outcomes:
        key = str(outcome["status"])
        statuses[key] = statuses.get(key, 0) + 1
        if outcome["error"]:
            errors[outcome["error"]] = errors.get(outcome["error"], 0) + 1
        latencies.append(outcome["elapsed"])
    report = {
        "url": url,
        "mode": mode,
        "count": count,
        "trace": trace.name,
        "paced": paced,
        "concurrency": workers,
        "peak_concurrency": tracker.peak,
        "wall_seconds": wall,
        "throughput_rps": count / wall if wall > 0 else 0.0,
        "statuses": dict(sorted(statuses.items())),
        "errors": dict(sorted(errors.items())),
        "ok": statuses.get("200", 0),
        "idempotent_repeat": idempotent_repeat,
        "idem_mismatches": sum(o["idem_mismatches"] for o in outcomes),
        "latency": {
            "mean": sum(latencies) / len(latencies) if latencies else 0.0,
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "max": max(latencies, default=0.0),
        },
    }
    if check_reconcile:
        _, stats = http_json("GET", url, "/stats", timeout=timeout)
        _, metrics_text = http_text(url, "/metrics", timeout=timeout)
        problems = reconcile(stats, metrics_text)
        report["stats"] = stats
        report["reconciled"] = not problems
        report["reconcile_problems"] = problems
    return report

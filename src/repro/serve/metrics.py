"""Dependency-free Prometheus-style metrics for the serving stack.

The BSP/PDM view of serving (see ROADMAP + PAPERS.md) treats
communication and I/O *accounting* as a first-class measured quantity,
not a logging side effect.  This module is that accounting layer: a
small, stdlib-only metrics registry rendering the Prometheus text
exposition format (version 0.0.4), plus :class:`ServiceMetrics` -- the
standard instrument set for one :class:`~repro.serve.PermutationService`
and its HTTP frontend.

Three instrument kinds, all thread-safe and label-aware:

* :class:`Counter` -- monotone totals.  Besides ``inc()`` it supports
  ``set_total()``, the *snapshot bridge*: the service's authoritative
  counters (submitted/admitted/shed/...) live in
  :class:`~repro.serve.service.ServiceStats`, whose snapshot is taken
  under the service lock and is therefore exactly consistent
  (``admitted + shed == submitted`` at every instant).  Re-counting
  those events independently here could drift by a race; instead the
  scrape path copies the consistent snapshot into the counters, so
  ``/metrics`` *provably* reconciles against ``stats()``.
* :class:`Gauge` -- instantaneous values (queue depth, running).
* :class:`Histogram` -- cumulative-bucket distributions (per-algorithm
  latency, queue wait, PDM pass counts and parallel I/Os per request --
  the paper's cost model as a live distribution).

:func:`parse_prometheus_text` inverts :meth:`MetricsRegistry.render`;
the load generator and the CI reconciliation step use it to compare a
scraped ``/metrics`` page against ``/stats`` numerically.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "parse_prometheus_text",
    "sample_name",
    "LATENCY_BUCKETS",
    "PASS_BUCKETS",
    "IO_BUCKETS",
]

#: Wall-clock seconds buckets for request/stage/HTTP latency histograms.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)

#: PDM pass-count buckets (Theorem 21 puts BMMC passes at a handful;
#: the general sort's merge passes go higher).
PASS_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

#: Parallel-I/O-count buckets per request (the paper's cost unit).
IO_BUCKETS = (16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def sample_name(name: str, labels: dict | None = None) -> str:
    """The canonical sample key: ``name{k="v",...}`` with sorted labels.

    Both :meth:`MetricsRegistry.render` and
    :func:`parse_prometheus_text` use this form, so a rendered page
    round-trips into a dict keyed by exactly these strings.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared label plumbing for one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValidationError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._series: dict = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValidationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[k]) for k in self.labelnames)

    def _labels_of(self, key: tuple) -> dict:
        return dict(zip(self.labelnames, key))

    def samples(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, series={len(self._series)})"


class Counter(_Metric):
    """A monotone total.  ``inc`` for event counting, ``set_total`` for
    bridging an externally-consistent snapshot (see module docs)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValidationError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Overwrite the total from an authoritative snapshot.

        The *source* must be monotone (the service's own counters are);
        this is the scrape-time bridge that makes ``/metrics`` agree
        with ``stats()`` exactly rather than approximately.
        """
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def samples(self):
        with self._lock:
            items = list(self._series.items())
        for key, value in sorted(items):
            yield sample_name(self.name, self._labels_of(key)), value


class Gauge(_Metric):
    """An instantaneous value; goes up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def samples(self):
        with self._lock:
            items = list(self._series.items())
        for key, value in sorted(items):
            yield sample_name(self.name, self._labels_of(key)), value


class Histogram(_Metric):
    """Cumulative-bucket histogram (``_bucket{le=...}``, ``_sum``,
    ``_count``), Prometheus semantics: every observation lands in all
    buckets with ``le >= value`` plus ``+Inf``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple = (),
        buckets: tuple = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        uppers = tuple(float(b) for b in buckets)
        if not uppers or any(
            b >= c for b, c in zip(uppers, uppers[1:])
        ):
            raise ValidationError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.uppers = uppers

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = [
                    [0] * (len(self.uppers) + 1), 0.0, 0
                ]
            counts, _, _ = state
            counts[bisect_left(self.uppers, value)] += 1
            state[1] += value
            state[2] += 1

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            return state[2] if state is not None else 0

    def samples(self):
        with self._lock:
            items = [
                (key, (list(state[0]), state[1], state[2]))
                for key, state in self._series.items()
            ]
        for key, (counts, total, count) in sorted(items):
            labels = self._labels_of(key)
            cumulative = 0
            for upper, bucket in zip(self.uppers, counts):
                cumulative += bucket
                yield (
                    sample_name(
                        f"{self.name}_bucket",
                        {**labels, "le": _format_value(upper)},
                    ),
                    cumulative,
                )
            yield (
                sample_name(f"{self.name}_bucket", {**labels, "le": "+Inf"}),
                count,
            )
            yield sample_name(f"{self.name}_sum", labels), total
            yield sample_name(f"{self.name}_count", labels), count


class MetricsRegistry:
    """An ordered set of metrics with get-or-create factories and a
    text-format renderer.  Creation is idempotent by name; asking for an
    existing name with a different kind or label set raises."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if type(metric) is not cls or metric.labelnames != tuple(labelnames):
                    raise ValidationError(
                        f"metric {name!r} already registered with a "
                        "different kind or label set"
                    )
                return metric
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str, labelnames: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple = (),
        buckets: tuple = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The Prometheus text exposition page (format 0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, value in metric.samples():
                lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _parse_labels(raw: str) -> dict:
    """Parse the ``k="v",...`` interior of a sample's label braces."""
    labels = {}
    i, n = 0, len(raw)
    while i < n:
        eq = raw.index("=", i)
        key = raw[i:eq].strip()
        assert raw[eq + 1] == '"', f"malformed labels: {raw!r}"
        j = eq + 2
        out = []
        while raw[j] != '"':
            if raw[j] == "\\":
                escape = raw[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}[escape])
                j += 2
            else:
                out.append(raw[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
        if i < n and raw[i] == ",":
            i += 1
    return labels


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Invert :meth:`MetricsRegistry.render`: sample key -> value.

    Keys are normalized through :func:`sample_name` (labels sorted), so
    lookups can be built with the same helper regardless of the order
    the page rendered them in.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if "{" in head:
            name, _, rest = head.partition("{")
            labels = _parse_labels(rest.rstrip("}"))
        else:
            name, labels = head, {}
        samples[sample_name(name, labels)] = float(value)
    return samples


class ServiceMetrics:
    """The standard instrument set for one service + HTTP frontend.

    Two halves:

    * **Event-driven** -- :meth:`observe_result` is called by the
      service as each request resolves: per-algorithm latency, queue
      wait, the plan/compile/execute/latch-wait stage breakdown, PDM
      pass-count and parallel-I/O histograms, and a typed error
      counter.
    * **Snapshot-bridged** -- :meth:`collect` copies one consistent
      :class:`~repro.serve.service.ServiceStats` snapshot (plus cache
      and per-shard counters) into the registry, so the core
      totals on ``/metrics`` reconcile *exactly* against ``/stats``:
      ``admitted + shed == submitted`` holds on every scrape.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        r = self.registry = registry or MetricsRegistry()
        # ---- snapshot-bridged service counters (authoritative: stats())
        self.submitted = r.counter(
            "repro_requests_submitted_total", "Requests submitted to the service"
        )
        self.admitted = r.counter(
            "repro_requests_admitted_total", "Requests admitted past the queue"
        )
        self.shed = r.counter(
            "repro_requests_shed_total", "Requests shed by admission control"
        )
        self.completed = r.counter(
            "repro_requests_completed_total", "Requests resolved by a worker"
        )
        self.failed = r.counter(
            "repro_requests_failed_total", "Requests resolved with an error"
        )
        self.deadline_exceeded = r.counter(
            "repro_requests_deadline_exceeded_total",
            "Requests that missed their deadline",
        )
        self.cancelled = r.counter(
            "repro_requests_cancelled_total",
            "Requests cancelled (hard-close or client cancel)",
        )
        self.coalesced = r.counter(
            "repro_requests_coalesced_total",
            "Follower requests resolved by a leader's single execution",
        )
        self.queue_depth = r.gauge(
            "repro_queue_depth", "Admitted requests waiting for a worker"
        )
        self.coalesced_in_flight = r.gauge(
            "repro_requests_coalesced_in_flight",
            "Followers currently attached to a queued-or-running leader",
        )
        self.running = r.gauge(
            "repro_requests_running", "Requests executing right now"
        )
        self.workers = r.gauge("repro_workers", "Worker pool size")
        self.up = r.gauge(
            "repro_service_up", "1 while the service accepts work, 0 once closed"
        )
        # ---- plan cache (totals + per-shard)
        self.cache_hits = r.counter(
            "repro_cache_hits_total", "Compiled-plan cache hits"
        )
        self.cache_misses = r.counter(
            "repro_cache_misses_total", "Compiled-plan cache misses"
        )
        self.cache_evictions = r.counter(
            "repro_cache_evictions_total", "Compiled plans evicted (LRU)"
        )
        self.cache_latch_waits = r.counter(
            "repro_cache_latch_waits_total",
            "Requests that waited on another thread's in-flight compile",
        )
        self.cache_size = r.gauge(
            "repro_cache_size", "Compiled plans currently held"
        )
        self.cache_shard_hits = r.counter(
            "repro_cache_shard_hits_total", "Cache hits by shard", ("shard",)
        )
        self.cache_shard_misses = r.counter(
            "repro_cache_shard_misses_total", "Cache misses by shard", ("shard",)
        )
        self.cache_shard_evictions = r.counter(
            "repro_cache_shard_evictions_total", "Cache evictions by shard", ("shard",)
        )
        self.cache_shard_latch_waits = r.counter(
            "repro_cache_shard_latch_waits_total", "Latch waits by shard", ("shard",)
        )
        # ---- event-driven request distributions
        self.latency = r.histogram(
            "repro_request_latency_seconds",
            "Request wall time by permutation family and method",
            ("perm", "method"),
        )
        self.queue_wait = r.histogram(
            "repro_request_queue_wait_seconds",
            "Seconds between admission and a worker picking the request up",
        )
        self.stage_seconds = r.histogram(
            "repro_request_stage_seconds",
            "Per-request stage breakdown: plan, compile, execute, latch_wait",
            ("stage",),
        )
        self.passes = r.histogram(
            "repro_request_pdm_passes",
            "PDM passes per served request (the paper's pass count)",
            ("method",),
            buckets=PASS_BUCKETS,
        )
        self.parallel_ios = r.histogram(
            "repro_request_parallel_ios",
            "Parallel I/Os per served request (the paper's cost unit)",
            buckets=IO_BUCKETS,
        )
        self.errors = r.counter(
            "repro_request_errors_total", "Failed requests by error type", ("type",)
        )
        # ---- HTTP frontend
        self.http_requests = r.counter(
            "repro_http_requests_total",
            "HTTP requests by method, route template, and status",
            ("method", "path", "status"),
        )
        self.http_latency = r.histogram(
            "repro_http_request_seconds",
            "HTTP handling time by route template",
            ("path",),
        )
        self.http_inflight = r.gauge(
            "repro_http_inflight", "HTTP requests currently being handled"
        )

    # ------------------------------------------------------------ event side
    def observe_result(self, result) -> None:
        """Record one resolved :class:`~repro.serve.ServiceResult`."""
        request = result.request
        perm = request.perm if isinstance(request.perm, str) else type(request.perm).__name__
        self.latency.observe(result.elapsed, perm=perm, method=request.method)
        timings = result.timings
        if "queue_wait" in timings:
            self.queue_wait.observe(timings["queue_wait"])
        for stage in ("plan", "compile", "execute", "latch_wait"):
            if stage in timings:
                self.stage_seconds.observe(timings[stage], stage=stage)
        if result.error is not None:
            self.errors.inc(type=type(result.error).__name__)
        elif result.report is not None:
            self.passes.observe(result.report.passes, method=result.report.method)
            self.parallel_ios.observe(result.report.io.parallel_ios)

    # --------------------------------------------------------- snapshot side
    def collect(self, service) -> None:
        """Copy one consistent service/cache snapshot in.

        Shard counters are read one shard lock at a time
        (:meth:`~repro.pdm.cache.ShardedPlanCache.shard_infos`), never
        all at once -- a scrape must not stall the serving hot path.
        """
        stats = service.stats()
        self.submitted.set_total(stats.submitted)
        self.admitted.set_total(stats.admitted)
        self.shed.set_total(stats.shed)
        self.completed.set_total(stats.completed)
        self.failed.set_total(stats.failed)
        self.deadline_exceeded.set_total(stats.deadline_exceeded)
        self.cancelled.set_total(stats.cancelled)
        self.coalesced.set_total(stats.coalesced)
        self.queue_depth.set(stats.queue_depth)
        self.coalesced_in_flight.set(stats.coalesced_in_flight)
        self.running.set(stats.running)
        self.workers.set(stats.workers)
        self.up.set(0.0 if stats.closed else 1.0)
        cache = getattr(service, "cache", None)
        if cache is not None:
            info = cache.info()
            self.cache_hits.set_total(info.hits)
            self.cache_misses.set_total(info.misses)
            self.cache_evictions.set_total(info.evictions)
            self.cache_latch_waits.set_total(getattr(info, "latch_waits", 0))
            self.cache_size.set(info.size)
            shard_infos = getattr(cache, "shard_infos", None)
            if shard_infos is not None:
                for shard in shard_infos():
                    label = str(shard.shard)
                    self.cache_shard_hits.set_total(shard.hits, shard=label)
                    self.cache_shard_misses.set_total(shard.misses, shard=label)
                    self.cache_shard_evictions.set_total(
                        shard.evictions, shard=label
                    )
                    self.cache_shard_latch_waits.set_total(
                        shard.latch_waits, shard=label
                    )

    def render(self, service=None) -> str:
        """Scrape: optionally refresh the snapshot half, then render."""
        if service is not None:
            self.collect(service)
        return self.registry.render()

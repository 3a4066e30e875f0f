"""Workload traces: record, generate, and replay service traffic.

The paper's bounds are per-permutation; the serving stack's behavior --
cache policy, admission control, deadlines, coalescing -- only shows
under *traffic*, and real traffic is skewed and bursty.  This module
makes traffic a first-class, reproducible artifact:

* **Trace format** -- a versioned JSONL file: one schema'd header line
  (:data:`FORMAT_NAME`/:data:`FORMAT_VERSION`, geometry, generator
  spec, event count) followed by one event per line (``{"at": seconds,
  "request": {...}}`` in the :func:`~repro.serve.request_to_dict`
  shape).  Serialization is canonical (sorted keys, minimal
  separators), so equal traces are equal *bytes* -- the property every
  determinism test below leans on.

* **Record** -- :class:`TraceRecorder` captures everything submitted to
  a :class:`~repro.serve.PermutationService` (the service calls
  :meth:`TraceRecorder.record` on every ``submit``, *before* admission
  control, so a trace is the offered load, not the admitted load) with
  arrival offsets on the recorder's own monotonic clock.  Any
  production-ish session becomes a replayable benchmark artifact via
  ``repro serve --record FILE``.

* **Generate** -- :func:`generate_trace` turns a :class:`WorkloadSpec`
  into a trace deterministically: Zipfian or uniform key popularity
  over a catalog of distinct request keys, Poisson / bursty / uniform
  arrival processes, optional geometry diversity.  The same spec
  byte-reproduces the same trace (one ``default_rng(seed)``, arrivals
  drawn before keys -- the draw order is part of the format contract).

* **Replay** -- :func:`replay_trace` drives a trace through a service
  with faithful arrival timing (or as fast as possible) and returns a
  :class:`ReplayReport` with per-request digests, latency percentiles,
  and the service/cache counter snapshot.  Replay is the determinism
  oracle: the same trace through a fresh service twice yields
  byte-identical digests, identical per-request IOStats, and exactly
  reconciled counters -- asserted by ``tests/serve/test_workload*.py``
  and gated in CI's ``workloads`` job.

The standard uniform mix the CLI load generator and ``bench_serve.py``
previously hand-rolled separately now has one shared builder here,
:func:`mix_trace`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.errors import ValidationError
from repro.pdm.geometry import DiskGeometry
from repro.serve.requests import (
    PermutationRequest,
    request_from_dict,
    request_to_dict,
    synthetic_mix,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ARRIVALS",
    "POPULARITIES",
    "TraceEvent",
    "WorkloadTrace",
    "WorkloadSpec",
    "TraceRecorder",
    "ReplayReport",
    "generate_trace",
    "geometry_variants",
    "mix_trace",
    "replay_trace",
    "reconcile_replay",
]

#: Schema identity of the trace file's header line.
FORMAT_NAME = "repro-workload-trace"

#: Bump on any incompatible change to the header or event shape.
FORMAT_VERSION = 1

#: Supported arrival processes.
ARRIVALS = ("uniform", "poisson", "bursty")

#: Supported key-popularity distributions.
POPULARITIES = ("uniform", "zipf")


def _canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace -- byte-stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _geometry_to_dict(geometry: DiskGeometry) -> dict:
    return {"N": geometry.N, "B": geometry.B, "D": geometry.D, "M": geometry.M}


# --------------------------------------------------------------------------
# the trace itself
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEvent:
    """One arrival: ``at`` seconds after the trace starts, one request.

    Offsets are rounded to nanosecond precision at construction so the
    canonical serialization round-trips exactly.
    """

    at: float
    request: PermutationRequest

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", round(float(self.at), 9))
        if self.at < 0:
            raise ValidationError(f"arrival offset must be >= 0, got {self.at}")

    def to_dict(self) -> dict:
        return {"at": self.at, "request": request_to_dict(self.request)}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        unknown = set(payload) - {"at", "request"}
        if unknown:
            raise ValidationError(f"unknown trace event fields: {sorted(unknown)}")
        if "at" not in payload or "request" not in payload:
            raise ValidationError('a trace event needs both "at" and "request"')
        return cls(at=payload["at"], request=request_from_dict(payload["request"]))


@dataclass
class WorkloadTrace:
    """A named sequence of timed requests, with its provenance.

    ``geometry`` is the service default the trace was built for (events
    may still carry per-request overrides); ``spec`` is the generator
    spec dict when the trace was generated (``None`` for recorded
    traces), kept in the header so a committed trace can be checked for
    drift against its own recipe.
    """

    events: list[TraceEvent]
    name: str = "trace"
    geometry: DiskGeometry | None = None
    seed: int = 0
    spec: dict | None = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def requests(self) -> list[PermutationRequest]:
        return [event.request for event in self.events]

    @property
    def duration(self) -> float:
        """The last arrival offset (0 for an empty trace)."""
        return self.events[-1].at if self.events else 0.0

    def header(self) -> dict:
        head = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "events": len(self.events),
        }
        if self.geometry is not None:
            head["geometry"] = _geometry_to_dict(self.geometry)
        if self.spec is not None:
            head["spec"] = self.spec
        return head

    def dumps(self) -> str:
        """The canonical JSONL serialization (header + one event/line)."""
        lines = [_canonical(self.header())]
        lines.extend(_canonical(event.to_dict()) for event in self.events)
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str, path: str = "<string>") -> "WorkloadTrace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValidationError(f"{path}: empty workload trace")
        try:
            head = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed header line: {exc}") from exc
        if not isinstance(head, dict) or head.get("format") != FORMAT_NAME:
            raise ValidationError(
                f"{path}: not a workload trace (header must carry "
                f'"format": "{FORMAT_NAME}")'
            )
        version = head.get("version")
        if version != FORMAT_VERSION:
            raise ValidationError(
                f"{path}: unsupported trace version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        events = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: malformed event: {exc}") from exc
            event = TraceEvent.from_dict(payload)
            if events and event.at < events[-1].at:
                raise ValidationError(
                    f"{path}:{lineno}: arrival offsets must be non-decreasing "
                    f"({event.at} after {events[-1].at})"
                )
            events.append(event)
        declared = head.get("events")
        if declared is not None and declared != len(events):
            raise ValidationError(
                f"{path}: header declares {declared} events, file has "
                f"{len(events)} (truncated or concatenated trace?)"
            )
        geometry = head.get("geometry")
        if geometry is not None:
            geometry = DiskGeometry(**geometry)
        return cls(
            events=events,
            name=head.get("name", "trace"),
            geometry=geometry,
            seed=int(head.get("seed", 0)),
            spec=head.get("spec"),
        )

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        with open(path) as handle:
            return cls.loads(handle.read(), path=str(path))

    def describe(self) -> str:
        perms: dict[str, int] = {}
        for event in self.events:
            name = (
                event.request.perm
                if isinstance(event.request.perm, str)
                else type(event.request.perm).__name__
            )
            perms[name] = perms.get(name, 0) + 1
        top = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(perms.items(), key=lambda kv: -kv[1])[:4]
        )
        geometry = (
            f" geometry N={self.geometry.N} B={self.geometry.B} "
            f"D={self.geometry.D} M={self.geometry.M}"
            if self.geometry is not None
            else ""
        )
        return (
            f"{self.name!r}: {len(self.events)} events over "
            f"{self.duration:.3f}s{geometry}; seed={self.seed}; "
            f"top perms: {top or 'none'}"
        )


# --------------------------------------------------------------------------
# the generator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic recipe for a synthetic trace.

    ``key_space`` distinct request keys (perm family x seed, via the
    standard mix catalog) are ranked 1..K; ``popularity`` draws each
    event's key uniformly or Zipf(``zipf_alpha``) over ranks --
    rank 1 is the hottest key.  ``arrival`` shapes the offsets:
    ``uniform`` spaces events ``1/rate`` apart, ``poisson`` draws
    exponential interarrivals at ``rate``/s, ``bursty`` lands bursts of
    ``burst_size`` events every ``burst_gap`` seconds with exponential
    intra-burst jitter (mean ``burst_jitter``).  ``geometries`` (a
    tuple of ``{"N","B","D","M"}`` dicts) assigns each key a stable
    geometry round-robin -- geometry diversity without breaking the
    key<->plan-key correspondence.

    ``duplicates`` makes the trace duplicate-heavy: ``ceil(count /
    duplicates)`` base events are drawn as usual, then each is repeated
    ``duplicates`` times at the *same* arrival offset (truncated back
    to ``count``) -- back-to-back identical requests, the shape
    single-flight coalescing exists for.  ``duplicates=1`` (the
    default) reproduces the pre-knob generator byte-for-byte, and the
    field is omitted from the serialized spec at its default so the
    committed golden traces stay byte-stable.

    Pure value: :func:`generate_trace` on the same spec byte-reproduces
    the same trace.
    """

    count: int = 32
    seed: int = 0
    arrival: str = "uniform"
    rate: float = 64.0
    burst_size: int = 8
    burst_gap: float = 0.25
    burst_jitter: float = 0.002
    popularity: str = "uniform"
    zipf_alpha: float = 1.1
    key_space: int = 12
    duplicates: int = 1
    geometry: dict | None = None
    geometries: tuple = ()
    engine: str = "fast"
    verify: bool = False
    capture_portion: bool = True
    timeout: float | None = None
    name: str = "generated"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValidationError(f"count must be >= 1, got {self.count}")
        if self.arrival not in ARRIVALS:
            raise ValidationError(
                f"unknown arrival process {self.arrival!r}; choose from {ARRIVALS}"
            )
        if self.popularity not in POPULARITIES:
            raise ValidationError(
                f"unknown popularity {self.popularity!r}; choose from {POPULARITIES}"
            )
        if self.rate <= 0:
            raise ValidationError(f"rate must be > 0 requests/s, got {self.rate}")
        if self.burst_size < 1 or self.burst_gap <= 0 or self.burst_jitter <= 0:
            raise ValidationError(
                "bursty arrivals need burst_size >= 1, burst_gap > 0 and "
                f"burst_jitter > 0; got {self.burst_size}/{self.burst_gap}/"
                f"{self.burst_jitter}"
            )
        if self.zipf_alpha <= 0:
            raise ValidationError(f"zipf_alpha must be > 0, got {self.zipf_alpha}")
        if self.key_space < 1:
            raise ValidationError(f"key_space must be >= 1, got {self.key_space}")
        if self.duplicates < 1:
            raise ValidationError(
                f"duplicates must be >= 1, got {self.duplicates}"
            )
        # normalize geometries to a hashable tuple of canonical dicts
        geometries = tuple(
            _geometry_to_dict(g) if isinstance(g, DiskGeometry) else dict(g)
            for g in self.geometries
        )
        for g in geometries:
            DiskGeometry(**g)  # validate early, not at replay time
        object.__setattr__(self, "geometries", geometries)
        if self.geometry is not None:
            geometry = (
                _geometry_to_dict(self.geometry)
                if isinstance(self.geometry, DiskGeometry)
                else dict(self.geometry)
            )
            DiskGeometry(**geometry)
            object.__setattr__(self, "geometry", geometry)

    def to_dict(self) -> dict:
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "geometries":
                if value:
                    payload["geometries"] = [dict(g) for g in value]
                continue
            if f.name == "geometry":
                if value is not None:
                    payload["geometry"] = dict(value)
                continue
            if f.name == "duplicates" and value == 1:
                # omitted at its default so pre-knob golden traces'
                # embedded specs stay byte-identical
                continue
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown workload spec fields: {sorted(unknown)}")
        kwargs = dict(payload)
        if "geometries" in kwargs:
            kwargs["geometries"] = tuple(kwargs["geometries"])
        return cls(**kwargs)


def geometry_variants(base: DiskGeometry, k: int) -> list[DiskGeometry]:
    """``k`` valid geometries derived from ``base`` by halving N.

    The first variant is ``base`` itself; each next halves N while the
    result stays legal (``M < N``).  When no smaller legal geometry
    exists the last one repeats, so the list always has ``k`` entries.
    """
    if k < 1:
        raise ValidationError(f"need k >= 1 geometry variants, got {k}")
    variants = [base]
    while len(variants) < k:
        prev = variants[-1]
        if prev.N // 2 > prev.M:
            variants.append(DiskGeometry(N=prev.N // 2, B=prev.B, D=prev.D, M=prev.M))
        else:
            variants.append(prev)
    return variants


def _key_catalog(spec: WorkloadSpec) -> list[PermutationRequest]:
    """The ``key_space`` distinct request keys, rank-ordered.

    Rank r (0-based) cycles the standard mix's perm families and rotates
    seeds once per full cycle, so every rank is a distinct plan key.
    """
    catalog = synthetic_mix(
        spec.key_space,
        seed=spec.seed,
        distinct_seeds=max(1, spec.key_space),
        engine=spec.engine,
        verify=spec.verify,
        capture_portion=spec.capture_portion,
    )
    if spec.geometries:
        catalog = [
            replace(req, geometry=DiskGeometry(**spec.geometries[i % len(spec.geometries)]))
            for i, req in enumerate(catalog)
        ]
    if spec.timeout is not None:
        catalog = [replace(req, timeout=spec.timeout) for req in catalog]
    return catalog


def _arrival_offsets(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.arrival == "uniform":
        return np.arange(spec.count, dtype=float) / spec.rate
    if spec.arrival == "poisson":
        return np.cumsum(rng.exponential(1.0 / spec.rate, size=spec.count))
    # bursty: bursts of burst_size every burst_gap seconds, with
    # exponential jitter inside the burst; the global sort keeps the
    # clustering while guaranteeing non-decreasing offsets.
    starts = (np.arange(spec.count) // spec.burst_size) * spec.burst_gap
    jitter = rng.exponential(spec.burst_jitter, size=spec.count)
    return np.sort(starts + jitter)


def generate_trace(spec: WorkloadSpec) -> WorkloadTrace:
    """Deterministically expand a spec into a trace.

    One ``default_rng(spec.seed)`` drives everything; arrival offsets
    are drawn before popularity ranks.  That draw order is part of the
    format contract -- changing it would silently invalidate every
    committed golden trace, so don't.
    """
    rng = np.random.default_rng(spec.seed)
    # Duplicate-heavy traces draw ceil(count/duplicates) base events
    # and repeat each at its offset; with duplicates=1 the draw is the
    # original one, so pre-knob golden traces reproduce byte-for-byte.
    base_count = -(-spec.count // spec.duplicates)
    draw_spec = spec if base_count == spec.count else replace(spec, count=base_count)
    offsets = _arrival_offsets(draw_spec, rng)
    if spec.popularity == "uniform":
        ranks = rng.integers(0, spec.key_space, size=base_count)
    else:
        weights = 1.0 / np.arange(1, spec.key_space + 1) ** spec.zipf_alpha
        weights /= weights.sum()
        ranks = rng.choice(spec.key_space, size=base_count, p=weights)
    if spec.duplicates > 1:
        offsets = np.repeat(offsets, spec.duplicates)[: spec.count]
        ranks = np.repeat(ranks, spec.duplicates)[: spec.count]
    catalog = _key_catalog(spec)
    events = [
        TraceEvent(at=float(at), request=catalog[int(rank)])
        for at, rank in zip(offsets, ranks)
    ]
    geometry = DiskGeometry(**spec.geometry) if spec.geometry is not None else None
    return WorkloadTrace(
        events=events,
        name=spec.name,
        geometry=geometry,
        seed=spec.seed,
        spec=spec.to_dict(),
    )


def mix_trace(
    count: int,
    seed: int = 0,
    distinct_seeds: int = 2,
    rate: float | None = None,
    **request_knobs,
) -> WorkloadTrace:
    """The standard uniform mixed workload, as a trace.

    This is the one shared builder for the deterministic
    MLD/MRC/BMMC/distribution mix that the CLI load generator and
    ``bench_serve.py`` consume (previously each hand-rolled its own
    :func:`~repro.serve.synthetic_mix` call + serialization).  With
    ``rate=None`` every offset is 0 (an as-fast-as-possible batch);
    otherwise events are spaced ``1/rate`` apart.
    """
    spacing = 0.0 if rate is None else 1.0 / rate
    requests = synthetic_mix(
        count, seed=seed, distinct_seeds=distinct_seeds, **request_knobs
    )
    events = [
        TraceEvent(at=i * spacing, request=request)
        for i, request in enumerate(requests)
    ]
    return WorkloadTrace(events=events, name="uniform-mix", seed=seed)


# --------------------------------------------------------------------------
# recording
# --------------------------------------------------------------------------

class TraceRecorder:
    """Capture every request submitted to a service as a trace.

    The service calls :meth:`record` on each ``submit`` *before* its
    admission decision, so the trace is the offered load: shed requests
    are recorded too (replaying the trace re-offers them).  The clock
    starts at the first recorded request.  Requests that cannot
    serialize (a ready :class:`~repro.perms.base.Permutation` object
    instead of a name) are counted in ``skipped`` rather than breaking
    the serving path.
    """

    def __init__(self, name: str = "recorded", geometry: DiskGeometry | None = None):
        self.name = name
        self.geometry = geometry
        self.skipped = 0
        self._lock = threading.Lock()
        self._t0: float | None = None
        self._events: list[TraceEvent] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def record(self, request: PermutationRequest) -> None:
        now = time.monotonic()
        with self._lock:
            if self._t0 is None:
                self._t0 = now
            try:
                request_to_dict(request)  # serializability check up front
            except ValidationError:
                self.skipped += 1
                return
            self._events.append(TraceEvent(at=now - self._t0, request=request))

    def trace(self) -> WorkloadTrace:
        with self._lock:
            return WorkloadTrace(
                events=list(self._events), name=self.name, geometry=self.geometry
            )


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class ReplayReport:
    """What one replay measured.

    ``digests`` maps request index to the final-portion SHA-256 for
    every successful capture; :attr:`workload_digest` folds them into
    one SHA-256 so two replays compare with a single string.  ``stats``
    and ``cache`` are the service's counter snapshots after the replay
    (replay assumes a fresh service; the oracle suites always build
    one).
    """

    trace_name: str
    count: int
    wall_seconds: float
    results: list = field(default_factory=list)
    stats: object = None
    cache: object = None
    paced: bool = False

    @property
    def ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return len(self.results) - self.ok

    @property
    def digests(self) -> dict[int, str]:
        return {
            r.index: r.digest
            for r in self.results
            if r.ok and r.digest is not None
        }

    @property
    def workload_digest(self) -> str:
        digest = hashlib.sha256()
        for index in sorted(self.digests):
            digest.update(f"{index}:{self.digests[index]}\n".encode())
        return digest.hexdigest()

    @property
    def throughput_rps(self) -> float:
        return self.count / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency(self, q: float) -> float:
        return _percentile([r.elapsed for r in self.results if r.ok], q)

    def summary_dict(self) -> dict:
        """The per-scenario summary shape ``bench_workloads.py`` tracks."""
        stats = self.stats
        cache = self.cache
        return {
            "events": self.count,
            "ok": self.ok,
            "failed": self.failed,
            "throughput_rps": self.throughput_rps,
            "wall_seconds": self.wall_seconds,
            "latency_p50_ms": self.latency(0.50) * 1e3,
            "latency_p99_ms": self.latency(0.99) * 1e3,
            "hit_rate": cache.hit_rate if cache is not None else 0.0,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "cache_evictions": cache.evictions if cache is not None else 0,
            "shed": stats.shed if stats is not None else 0,
            "deadline_exceeded": (
                stats.deadline_exceeded if stats is not None else 0
            ),
            "coalesced": stats.coalesced if stats is not None else 0,
            "workload_digest": self.workload_digest,
        }

    def summary(self) -> str:
        return (
            f"replayed {self.trace_name!r}: {self.ok}/{self.count} ok "
            f"({self.failed} failed) in {self.wall_seconds:.3f}s "
            f"({self.throughput_rps:.1f} req/s, "
            f"{'paced' if self.paced else 'as fast as possible'}); "
            f"p50 {self.latency(0.5) * 1e3:.1f} ms, "
            f"p99 {self.latency(0.99) * 1e3:.1f} ms; "
            f"workload digest {self.workload_digest[:16]}"
        )


def replay_trace(
    service,
    trace: WorkloadTrace,
    as_fast_as_possible: bool = False,
    speed: float = 1.0,
    capture: bool | None = None,
) -> ReplayReport:
    """Drive a trace through a service and report.

    Faithful mode (the default) submits each event at its recorded
    arrival offset (scaled by ``speed``); ``as_fast_as_possible``
    submits the whole trace back to back -- same requests, same order,
    no think time.  ``capture=True`` forces ``capture_portion`` on
    every request (the determinism oracle needs digests);
    ``capture=None`` leaves requests as the trace recorded them.

    Submission order is trace order on one thread, so service-assigned
    request indices -- and everything seeded by them (fault sessions)
    -- are identical across replays of the same trace.
    """
    if speed <= 0:
        raise ValidationError(f"replay speed must be > 0, got {speed}")
    requests = trace.requests()
    if capture:
        requests = [
            req if req.capture_portion else replace(req, capture_portion=True)
            for req in requests
        ]
    paced = not as_fast_as_possible
    futures = []
    t0 = time.monotonic()
    for event, request in zip(trace.events, requests):
        if paced:
            delay = event.at / speed - (time.monotonic() - t0)
            if delay > 0:
                time.sleep(delay)
        futures.append(service.submit(request))
    results = [future.result() for future in futures]
    wall = time.monotonic() - t0
    return ReplayReport(
        trace_name=trace.name,
        count=len(results),
        wall_seconds=wall,
        results=results,
        stats=service.stats(),
        cache=service.cache_info(),
        paced=paced,
    )


def reconcile_replay(service, metrics) -> list[str]:
    """Check a service's ``/metrics`` rendering against its ``stats()``.

    The in-process twin of :func:`repro.serve.loadgen.reconcile` (which
    works on HTTP scrapes): returns the violated equalities, empty when
    the books balance exactly.
    """
    from dataclasses import asdict

    from repro.serve.loadgen import reconcile

    return reconcile(asdict(service.stats()), metrics.render(service))

"""Concurrent permutation serving: many requests, one shared plan cache.

The paper's bound is about I/O parallelism *within* one permutation
(D disks working every operation); this package is about parallelism
*across* permutations -- the traffic shape of a production relayout
service, where many independent workloads (FFT bit-reversals,
transposes, distribution sorts, ad-hoc BMMCs) arrive concurrently and
most of them repeat.

Layout:

* :mod:`repro.serve.requests` -- request/result values, workload
  construction, and the sequential reference runner.
* :mod:`repro.serve.service` -- :class:`PermutationService`: the worker
  pool with admission control, deadlines, and fault injection.
* :mod:`repro.serve.faults` -- :class:`FaultPlan`: deterministic,
  seeded chaos fired through the execution stack's cooperative
  checkpoints.
* :mod:`repro.serve.metrics` -- the stdlib Prometheus-format registry
  and :class:`ServiceMetrics`, the standard instrument set.
* :mod:`repro.serve.http` -- :class:`HttpFrontend`: the HTTP/JSON API
  (submit/poll, ``/stats``, ``/metrics``, graceful drain).
* :mod:`repro.serve.warmup` -- boot-time cache warming from a JSON
  spec.
* :mod:`repro.serve.loadgen` -- the socket-level load generator and
  the ``/stats`` vs ``/metrics`` reconciliation check.
* :mod:`repro.serve.workload` -- workload traces: the versioned JSONL
  record/replay format, the deterministic skewed/bursty generator, and
  the replay oracle.

Quick start::

    from repro import DiskGeometry
    from repro.serve import PermutationService, synthetic_mix

    g = DiskGeometry(N=2**14, B=2**3, D=2**2, M=2**8)
    with PermutationService(g, workers=8) as service:
        results = service.run(synthetic_mix(32))
    print(service.cache.info())
    print(service.stats())

or from the shell::

    python -m repro serve --workers 8 --count 32 --repeat 2
"""

from repro.serve.faults import FaultPlan, FaultSession, chaos_plan
from repro.serve.http import HttpFrontend, status_for
from repro.serve.loadgen import run_loadgen
from repro.serve.metrics import MetricsRegistry, ServiceMetrics, parse_prometheus_text
from repro.serve.requests import (
    PERM_CHOICES,
    PermutationRequest,
    RequestTrace,
    ServiceResult,
    _execute_request,
    execution_key,
    load_requests,
    make_permutation,
    request_from_dict,
    request_to_dict,
    run_sequential,
    synthetic_mix,
)
from repro.serve.service import QUEUE_POLICIES, PermutationService, ServiceStats
from repro.serve.warmup import WarmupReport, load_warmup_spec, warm_service
from repro.serve.workload import (
    ReplayReport,
    TraceEvent,
    TraceRecorder,
    WorkloadSpec,
    WorkloadTrace,
    generate_trace,
    geometry_variants,
    mix_trace,
    reconcile_replay,
    replay_trace,
)

__all__ = [
    "PERM_CHOICES",
    "QUEUE_POLICIES",
    "PermutationRequest",
    "PermutationService",
    "RequestTrace",
    "ServiceResult",
    "ServiceStats",
    "ReplayReport",
    "FaultPlan",
    "FaultSession",
    "HttpFrontend",
    "MetricsRegistry",
    "ServiceMetrics",
    "TraceEvent",
    "TraceRecorder",
    "WarmupReport",
    "WorkloadSpec",
    "WorkloadTrace",
    "chaos_plan",
    "execution_key",
    "generate_trace",
    "geometry_variants",
    "make_permutation",
    "run_sequential",
    "synthetic_mix",
    "load_requests",
    "load_warmup_spec",
    "mix_trace",
    "parse_prometheus_text",
    "reconcile_replay",
    "replay_trace",
    "request_from_dict",
    "request_to_dict",
    "run_loadgen",
    "status_for",
    "warm_service",
]

"""Boot-time cache warmup for the serving stack.

A permutation service's worst latency is its first request per plan
key: classification + planning + compile, serialized behind the
compile-once latch for every co-arriving request of the same key.
Warmup pays that cost before the listener opens, so the first real
client sees hit-path latency.

The warmup spec is JSON, either

* a request list (the :func:`~repro.serve.load_requests` file format:
  one JSON object per line, or one array), or
* ``{"mix": {"count": 12, "seed": 0, ...}}`` -- keyword arguments for
  :func:`~repro.serve.synthetic_mix`, the standard mixed workload.

Warmup runs *through the service* (not around it), so it exercises the
same worker pool and cache shards the real traffic will -- and its
requests are counted in ``stats()`` like any others.  Failures don't
abort the boot: a key that fails to compile during warmup will fail
identically for real clients, with the same typed error; the report
just records it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.serve.requests import (
    PermutationRequest,
    load_requests,
    request_from_dict,
    synthetic_mix,
)

__all__ = ["WarmupReport", "load_warmup_spec", "warm_service"]


@dataclass
class WarmupReport:
    """What the boot sequence learned from warming the cache."""

    requests: int = 0
    succeeded: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cache_size: int = 0
    cache_misses: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "elapsed": self.elapsed,
            "cache_size": self.cache_size,
            "cache_misses": self.cache_misses,
            "errors": dict(self.errors),
        }

    def summary(self) -> str:
        return (
            f"warmup: {self.succeeded}/{self.requests} ok "
            f"({self.failed} failed) in {self.elapsed * 1e3:.0f} ms; "
            f"cache holds {self.cache_size} plans "
            f"({self.cache_misses} compiles)"
        )


def load_warmup_spec(path) -> list[PermutationRequest]:
    """Read a warmup spec file into a request list (see module docs)."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        spec = json.loads(text)
        if "mix" in spec:
            mix = spec["mix"]
            if not isinstance(mix, dict):
                raise ValidationError('"mix" must be a JSON object of kwargs')
            return synthetic_mix(**mix)
        # A single request object is a one-item warmup.
        return [request_from_dict(spec)]
    return load_requests(path)


def warm_service(service, requests) -> WarmupReport:
    """Drive ``requests`` through ``service`` and report what happened.

    Uses the service's own pool, so D-disk-parallel compiles of distinct
    keys overlap; duplicate keys coalesce on the cache's in-flight
    latches.  Never raises for request failures.
    """
    report = WarmupReport()
    t0 = time.perf_counter()
    results = service.run(requests)
    report.elapsed = time.perf_counter() - t0
    report.requests = len(results)
    for result in results:
        if result.ok:
            report.succeeded += 1
        else:
            report.failed += 1
            name = type(result.error).__name__
            report.errors[name] = report.errors.get(name, 0) + 1
    info = service.cache_info()
    if info is not None:
        report.cache_size = info.size
        report.cache_misses = info.misses
    return report

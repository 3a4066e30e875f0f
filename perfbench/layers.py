"""Per-layer timers installed from outside the program, and the
per-request attribution built from them.

:func:`install` swaps a timing wrapper in for each layer's public
function (the module or class attribute its callers look up at call
time) and :func:`uninstall` puts the originals back.  No file of the
program changes.  Each wrapper adds its duration to the request's own
:class:`~repro.serve.RequestTrace` -- the ambient trace the service
installs around every execution -- under a ``probe.<layer>`` stage, next
to the ``queue_wait``/``plan``/``compile``/``execute``/``latch_wait``
stages the program already records.  The timings therefore travel with
the result: in process on ``ServiceResult.timings``, over HTTP in the
response body's ``timings``.

Where one public function bundles several layers
(``perform_permutation`` runs ``classify``, a planner, verification and
the bound table), the inner layers are wrapped too and the bundle's own
share is reported as a residual (:func:`breakdown`).
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
import types

PREFIX = "probe."

_local = threading.local()
_installed: list[tuple[object, str, object]] = []


def _timed(fn, layer: str):
    from repro.pdm.cancel import current_trace

    stage = PREFIX + layer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        active = getattr(_local, "active", None)
        if active is None:
            active = _local.active = set()
        if layer in active:
            # A layer calling itself (one planner running another, a
            # bound defined through another bound) is timed once.
            return fn(*args, **kwargs)
        active.add(layer)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            active.discard(layer)
            trace = current_trace()
            if trace is None:
                # The worker resets its pooled system before it enters
                # the request's scope; carry that time to the request.
                _local.pending = (stage, seconds)
            else:
                pending = getattr(_local, "pending", None)
                if pending is not None:
                    trace.record(*pending)
                    _local.pending = None
                trace.record(stage, seconds)

    return wrapper


def _targets():
    from repro.core import bounds, distribution, inverse_mld, runner
    from repro.pdm import optimize
    from repro.pdm.cache import ShardedPlanCache
    from repro.pdm.system import ParallelDiskSystem
    from repro.serve import requests

    targets = [
        (requests, "make_permutation", "build"),
        (requests, "perform_permutation", "runner"),
        (runner, "classify", "classify"),
        (runner, "perform_mrc_pass", "planner"),
        (runner, "perform_mld_pass", "planner"),
        (runner, "perform_bmmc", "planner"),
        (runner, "perform_general_sort", "planner"),
        (inverse_mld, "perform_inverse_mld_pass", "planner"),
        (distribution, "perform_distribution_sort", "planner"),
        (ShardedPlanCache, "get_or_compile", "cache"),
        (optimize, "optimize_plan", "optimize"),
        (ParallelDiskSystem, "reset", "reset"),
        (ParallelDiskSystem, "fill_identity", "fill"),
        (ParallelDiskSystem, "verify_permutation", "verify"),
        (ParallelDiskSystem, "portion_values", "portion"),
    ]
    # The bound table's functions; the planners bind theirs at import.
    targets += [
        (bounds, name, "bounds")
        for name in (
            "general_permutation_bound", "theorem3_lower_bound",
            "sharpened_lower_bound", "theorem21_upper_bound", "predicted_ios",
            "old_bmmc_bound_ios", "old_bpc_bound_ios",
        )
    ]
    return targets


def install() -> None:
    """Wrap every layer's public function; idempotent."""
    if _installed:
        return
    from repro.serve import requests

    for owner, name, layer in _targets():
        original = getattr(owner, name)
        _installed.append((owner, name, original))
        setattr(owner, name, _timed(original, layer))
    # The digest is ``hashlib.sha256`` called from the request module;
    # give that module a hashlib whose sha256 is timed.
    _installed.append((requests, "hashlib", requests.hashlib))
    requests.hashlib = types.SimpleNamespace(
        sha256=_timed(hashlib.sha256, "digest")
    )


def uninstall() -> None:
    """Restore every wrapped attribute."""
    while _installed:
        owner, name, original = _installed.pop()
        setattr(owner, name, original)


# --------------------------------------------------------------------------
# attribution
# --------------------------------------------------------------------------

#: Layers whose spans sit directly under the request (not nested in
#: another timed span); their sum is the request's attributed time.
TOP_LEVEL = ("reset", "fill", "build", "runner", "portion", "digest")


def breakdown(timings: dict, elapsed: float, rtt: float, coalesced: bool) -> dict:
    """Split one request's wall time into layer times, in seconds.

    ``timings`` is the result's stage dict, ``elapsed`` the service's
    execution wall time, ``rtt`` the client-measured latency.  A
    coalesced follower executed nothing itself: its server time is its
    wait for the leader, recorded as its ``queue_wait``.
    """
    def stage(name):
        return float(timings.get(name, 0.0))

    def probe(name):
        return stage(PREFIX + name)

    optimize = probe("optimize")  # runs lazily inside the first execute
    queue_wait = stage("queue_wait")
    server = queue_wait if coalesced else queue_wait + float(elapsed)
    layers = {
        "rtt": rtt,
        "server": server,
        "transport": rtt - server,
        "queue_wait": queue_wait,
        "plan": stage("plan"),
        "compile": stage("compile") + optimize,
        "execute": stage("execute") - optimize,
        "latch_wait": stage("latch_wait"),
        "lookup": probe("cache") - stage("plan") - stage("compile"),
        "planner_residual": probe("planner") - probe("cache") - stage("execute"),
        "runner_residual": probe("runner") - probe("classify") - probe("planner")
        - probe("verify") - probe("bounds"),
    }
    for name in ("reset", "fill", "build", "classify", "verify", "bounds",
                 "portion", "digest"):
        layers[name] = probe(name)
    layers["attributed"] = queue_wait + sum(probe(name) for name in TOP_LEVEL)
    return layers

"""Cooperative cancellation and per-request execution scopes.

The execution stack is synchronous numpy work: once a pass's fused
gather/scatter starts there is nothing to interrupt, but *between*
passes, between streamed segments, and while waiting on a cache latch
there are natural boundaries where a worker can notice that its
request no longer matters -- the deadline expired, the client went
away, the service is shutting down.  This module is that seam.

A :class:`CancellationToken` carries an optional monotonic deadline and
a manual cancel flag.  :func:`run_scope` installs a token (plus an
optional fault-injection session, see :mod:`repro.serve.faults`) in a
thread-local scope for the duration of one request attempt, and
:func:`checkpoint` -- called by the engines, the optimizer, and the
plan cache at their boundaries -- raises
:class:`~repro.errors.RequestCancelled` /
:class:`~repro.errors.DeadlineExceeded` when the token says to stop,
then gives the fault session a chance to fire.

The ambient-scope design is deliberate: threading a ``token=`` argument
through every planner wrapper, engine, and cache signature would
couple the whole stack to the service layer.  Instead the scope
travels with the worker thread, the checkpoints are free when no scope
is installed (one thread-local read), and code that never heard of
deadlines participates automatically.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.errors import DeadlineExceeded, RequestCancelled

__all__ = [
    "CancellationToken",
    "run_scope",
    "current_token",
    "current_faults",
    "current_trace",
    "checkpoint",
]


class CancellationToken:
    """A cancel flag plus an optional deadline, shared across threads.

    ``deadline`` is an absolute :func:`time.monotonic` instant;
    ``timeout`` is seconds from construction (both may be given -- the
    earlier wins).  :meth:`check` is the cooperative primitive: cheap
    when live, raising a typed error once cancelled or expired.
    :meth:`cancel` may be called from any thread (the service's
    hard-cancel path uses it); the waiting side observes it at its next
    checkpoint or :meth:`wait`.
    """

    __slots__ = ("deadline", "reason", "_event")

    def __init__(
        self, deadline: float | None = None, timeout: float | None = None
    ) -> None:
        if timeout is not None:
            at = time.monotonic() + float(timeout)
            deadline = at if deadline is None else min(deadline, at)
        self.deadline = deadline
        self.reason = ""
        self._event = threading.Event()

    def cancel(self, reason: str = "cancelled") -> None:
        """Flag the token; the owning worker unwinds at its next checkpoint."""
        self.reason = reason or "cancelled"
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` = no deadline)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check(self) -> None:
        """Raise if the token is cancelled (or its deadline has passed)."""
        if self._event.is_set():
            raise RequestCancelled(self.reason or "cancelled")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise DeadlineExceeded(
                f"deadline exceeded ({time.monotonic() - self.deadline:.3f}s past)"
            )

    def wait(self, timeout: float) -> bool:
        """Sleep up to ``timeout`` seconds, interruptible by :meth:`cancel`
        and bounded by the deadline; returns ``True`` if cancelled."""
        if self.deadline is not None:
            timeout = min(timeout, max(0.0, self.deadline - time.monotonic()))
        return self._event.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"CancellationToken({state}, remaining={self.remaining()})"


class _Scope:
    __slots__ = ("token", "faults", "trace")

    def __init__(self, token, faults, trace) -> None:
        self.token = token
        self.faults = faults
        self.trace = trace


_local = threading.local()


@contextmanager
def run_scope(token: CancellationToken | None = None, faults=None, trace=None):
    """Install ``token`` (and an optional fault session and timing
    trace) as the calling thread's ambient scope for the block.

    Scopes nest: the previous scope is restored on exit, so a request
    that itself drives the execution stack recursively keeps working.
    ``faults`` is any object with a ``fire(point, label)`` method; the
    service passes a per-request
    :class:`~repro.serve.faults.FaultSession`.  ``trace`` is any object
    with a ``record(stage, seconds)`` method (the service passes a
    :class:`~repro.serve.requests.RequestTrace`); the plan cache uses
    it to attribute plan/compile/execute/latch-wait time to the request
    that paid it, without the execution stack importing the service
    layer.
    """
    previous = getattr(_local, "scope", None)
    _local.scope = _Scope(token, faults, trace)
    try:
        yield
    finally:
        _local.scope = previous


def current_token() -> CancellationToken | None:
    """The calling thread's ambient cancellation token, if any."""
    scope = getattr(_local, "scope", None)
    return scope.token if scope is not None else None


def current_faults():
    """The calling thread's ambient fault session, if any."""
    scope = getattr(_local, "scope", None)
    return scope.faults if scope is not None else None


def current_trace():
    """The calling thread's ambient timing trace, if any."""
    scope = getattr(_local, "scope", None)
    return scope.trace if scope is not None else None


def checkpoint(point: str, label: str = "") -> None:
    """A cooperative boundary: honor cancellation, then fire faults.

    Called by the executors at pass boundaries and between streamed
    segments (the ``shard`` point), by the optimizer between fused
    groups, and by the plan cache around compiles and latch waits.
    Free (one thread-local read) when no scope is installed; the check
    runs *before* fault injection so a cancelled request never burns
    time on injected sleeps.
    """
    scope = getattr(_local, "scope", None)
    if scope is None:
        return
    if scope.token is not None:
        scope.token.check()
    if scope.faults is not None:
        scope.faults.fire(point, label)

"""Deterministic fault injection: chaos as a first-class, seeded seam.

A :class:`FaultPlan` describes *where* and *how often* things go wrong:
planner errors (a compile blows up), kernel-shard errors (a fused pass
dies mid-flight), slow passes (injected latency at pass boundaries),
and latch stalls (a cold-compile builder that dawdles while waiters
queue).  Probabilities are evaluated by a per-request
:class:`FaultSession` whose RNG is seeded from ``(plan seed, request
index)``, so every draw is a pure function of the plan and the request:
the same seed injects the same faults into the same checkpoint
sequences on every run, on every machine.  Execution-path faults
(``pass``/``shard``) therefore replay identically under any thread
interleaving -- a request's own plan fixes its checkpoint sequence.
The one scheduling-dependent edge is *which* request a planner fault
lands on: the ``planner`` checkpoint fires inside the compile thunk,
and compile-once latching means only the race winner compiles (its
co-arrivals wait and get hits).  That is what lets CI pin
``REPRO_CHAOS_SEED`` and replay a failing cell bit-for-bit locally.

Faults fire *through* the cooperative checkpoints
(:func:`repro.pdm.cancel.checkpoint`), the same boundaries cancellation
uses -- so injected failures exercise exactly the unwind paths real
failures take, and the old test-suite idiom of monkeypatching engine
internals and planners is no longer the only way to make the stack misbehave.

Injected errors are :class:`~repro.errors.InjectedFault`, a
:class:`~repro.errors.TransientError`.  The service executes every
request at most once, so the first injected error fails its request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import InjectedFault, ValidationError

__all__ = ["FaultPlan", "FaultSession", "chaos_plan"]

#: Checkpoint names a fault session reacts to.
FAULT_POINTS = ("planner", "pass", "shard", "latch-wait")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault probabilities, evaluated per checkpoint.

    * ``planner_failures`` -- probability a plan compile raises (fired
      at the ``planner`` checkpoint, inside the cache's compile thunk,
      so compile-once latch semantics are exercised).
    * ``kernel_failures`` -- probability a ``pass``/``shard`` boundary
      raises mid-execution (the partially-moved-data shape).
    * ``slow_passes`` / ``slow_seconds`` -- probability a pass boundary
      sleeps before proceeding (injected I/O latency; this is how tests
      make deadlines expire mid-request without huge workloads).
    * ``latch_stalls`` / ``stall_seconds`` -- probability a *builder*
      stalls before compiling, stretching the cold-compile window other
      threads spend waiting on the in-flight latch.
    """

    seed: int = 0
    planner_failures: float = 0.0
    kernel_failures: float = 0.0
    slow_passes: float = 0.0
    slow_seconds: float = 0.01
    latch_stalls: float = 0.0
    stall_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("planner_failures", "kernel_failures", "slow_passes", "latch_stalls"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"FaultPlan.{name} must be in [0, 1], got {p}")
        if self.slow_seconds < 0 or self.stall_seconds < 0:
            raise ValidationError("FaultPlan delays must be >= 0")

    @property
    def active(self) -> bool:
        return any(
            (self.planner_failures, self.kernel_failures,
             self.slow_passes, self.latch_stalls)
        )

    def session(self, request_index: int) -> "FaultSession":
        """The per-request fault stream: deterministic in
        ``(self.seed, request_index)``."""
        return FaultSession(self, request_index)


class FaultSession:
    """One request's draw stream against a :class:`FaultPlan`.

    Carried in the worker's ambient scope (see
    :func:`repro.pdm.cancel.run_scope`) and consulted by every
    checkpoint.  The RNG is private to the request, so concurrent
    requests never race on draw order -- determinism survives any
    thread interleaving.
    """

    __slots__ = ("plan", "request_index", "_rng")

    def __init__(self, plan: FaultPlan, request_index: int) -> None:
        self.plan = plan
        self.request_index = int(request_index)
        self._rng = np.random.default_rng((int(plan.seed), self.request_index))

    def _raise(self, point: str, label: str) -> None:
        where = f" [{label}]" if label else ""
        raise InjectedFault(
            f"injected {point} fault{where} (request {self.request_index})"
        )

    def fire(self, point: str, label: str = "") -> None:
        """Checkpoint hook: maybe sleep, maybe raise, usually neither.

        Draw order is fixed per point kind, so the stream is stable:
        a given checkpoint sequence always consumes the same draws.
        """
        plan = self.plan
        if point == "planner":
            if plan.latch_stalls and self._rng.random() < plan.latch_stalls:
                time.sleep(plan.stall_seconds)
            if plan.planner_failures and self._rng.random() < plan.planner_failures:
                self._raise(point, label)
        elif point == "pass":
            if plan.slow_passes and self._rng.random() < plan.slow_passes:
                time.sleep(plan.slow_seconds)
            if plan.kernel_failures and self._rng.random() < plan.kernel_failures:
                self._raise(point, label)
        elif point == "shard":
            if plan.kernel_failures and self._rng.random() < plan.kernel_failures:
                self._raise(point, label)
        # "latch-wait" checkpoints exist for cancellation only: a waiter
        # blocked on someone else's compile has no work to corrupt.


def chaos_plan(seed: int = 0, intensity: float = 0.05) -> FaultPlan:
    """The CLI's ``--chaos`` preset: a little of everything.

    ``intensity`` scales the error probabilities; sleeps stay short so
    chaos runs finish.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValidationError(f"chaos intensity must be in [0, 1], got {intensity}")
    return FaultPlan(
        seed=seed,
        planner_failures=intensity,
        kernel_failures=intensity,
        slow_passes=min(1.0, 2 * intensity),
        slow_seconds=0.002,
        latch_stalls=intensity,
        stall_seconds=0.005,
    )

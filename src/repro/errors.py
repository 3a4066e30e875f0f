"""Exception hierarchy for the BMMC reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "DimensionError",
    "SingularMatrixError",
    "NotInClassError",
    "DiskConflictError",
    "MemoryCapacityError",
    "BlockStateError",
    "DetectionError",
    "PlanError",
    "TransientError",
    "InjectedFault",
    "RequestCancelled",
    "DeadlineExceeded",
    "RequestRejected",
    "ServiceClosedError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, range, or structure)."""


class DimensionError(ValidationError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(ReproError, ValueError):
    """A matrix required to be nonsingular over GF(2) is singular."""


class NotInClassError(ReproError, ValueError):
    """A permutation does not belong to the class an algorithm requires.

    Raised, for example, when the one-pass MLD performer is handed a
    characteristic matrix that violates the kernel condition (eq. 4 of
    the paper).
    """


class DiskConflictError(ReproError, ValueError):
    """A single parallel I/O requested two blocks on the same disk.

    The Vitter-Shriver model transfers *at most one block per disk* in a
    parallel I/O operation; violating that is an algorithm bug, not a
    recoverable condition.
    """


class MemoryCapacityError(ReproError, RuntimeError):
    """An I/O operation would exceed the M-record memory capacity."""


class BlockStateError(ReproError, RuntimeError):
    """A block was read while empty or written while occupied.

    The simulator's *simple I/O* discipline (Lemma 4 of the paper)
    requires reads to consume blocks and writes to fill empty ones.
    """


class DetectionError(ReproError, RuntimeError):
    """Run-time BMMC detection was asked something it cannot answer."""


class PlanError(ValidationError):
    """An I/O plan is malformed or not eligible for fused execution.

    The fast engine requires that within one pass no block is touched
    twice in an order-dependent way (a consuming read after another read
    of the same block, two writes to one block, or a read and a write of
    the same block); such plans must run on the strict engine.
    """


class TransientError(ReproError, RuntimeError):
    """A failure classified as *transient*: the client may resubmit the
    same request and it may succeed.

    The service executes every request at most once; the HTTP error
    body reports ``transient`` so a client can decide whether to
    resubmit.  Everything else -- model-rule violations, class
    preconditions, bad arguments -- is deterministic and a resubmission
    would just repeat it.
    """


class InjectedFault(TransientError):
    """A deterministic fault fired by a :class:`~repro.serve.FaultPlan`.

    It fails the request it fires in.  It is transient because the
    fault plan's draws are per request index, so a resubmission (a new
    index) draws afresh.
    """


class RequestCancelled(ReproError, RuntimeError):
    """A request was cancelled cooperatively before it completed.

    Raised from :meth:`~repro.pdm.cancel.CancellationToken.check` at
    pass/shard boundaries and cache latch waits; the executing worker
    unwinds promptly and the partial state is discarded (per-request
    systems are reset before every execution).
    """


class DeadlineExceeded(RequestCancelled):
    """A request's deadline expired; cancellation was deadline-driven."""


class RequestRejected(ReproError, RuntimeError):
    """Admission control shed this request (bounded queue at capacity)."""


class ServiceClosedError(ValidationError):
    """A request was submitted to (or stranded in) a closed service."""

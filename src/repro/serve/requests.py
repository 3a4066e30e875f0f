"""Service request values, results, and the sequential reference runner.

This module is the *data* half of :mod:`repro.serve`: the
:class:`PermutationRequest` value, the :class:`ServiceResult` envelope,
deterministic workload construction (:func:`synthetic_mix`,
:func:`load_requests`), and :func:`run_sequential` -- the
single-threaded reference semantics every concurrency suite compares
the service against.  The concurrent service itself lives in
:mod:`repro.serve.service`.

Determinism is the contract the whole test suite holds the service to:
a request's result -- final portion bytes, I/O stats, pass table --
must be byte-identical to running the same request alone through
:func:`repro.core.runner.perform_permutation`.  Concurrency may reorder
*completion*, never *content*.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from repro.core.runner import RunReport, perform_permutation
from repro.errors import ValidationError
from repro.pdm.cancel import run_scope
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms import library
from repro.perms.base import ExplicitPermutation, Permutation
from repro.perms.bmmc import BMMCPermutation

__all__ = [
    "PermutationRequest",
    "RequestTrace",
    "ServiceResult",
    "execution_key",
    "make_permutation",
    "run_sequential",
    "synthetic_mix",
    "load_requests",
    "request_from_dict",
    "request_to_dict",
    "PERM_CHOICES",
]

#: Permutation names accepted by :func:`make_permutation` (and the CLI).
PERM_CHOICES = [
    "identity",
    "transpose",
    "bit-reversal",
    "vector-reversal",
    "gray",
    "gray-inverse",
    "permuted-gray",
    "shuffle",
    "random-bmmc",
    "random-bpc",
    "random-mrc",
    "random-mld",
    "random",
]

#: Entries in the memo of named BMMC permutations (:func:`make_permutation`).
PERMUTATION_MEMO_SIZE = 64


def make_permutation(
    name: str,
    geometry: DiskGeometry,
    seed: int = 0,
    rank_gamma: int | None = None,
) -> Permutation:
    """Resolve a named permutation for ``geometry``.

    Deterministic in ``(name, geometry, seed, rank_gamma)``: the
    ``random-*`` families draw from ``default_rng(seed)``, so a request
    is a pure value and re-running it reproduces the same permutation.
    Named BMMC permutations are memoized on that tuple (the last
    :data:`PERMUTATION_MEMO_SIZE` of them) and shared, which is safe
    because nothing mutates a :class:`BMMCPermutation`.  ``"random"`` is
    built afresh on every call: its target vector holds ``N`` int64.
    """
    if name == "random":
        return ExplicitPermutation(np.random.default_rng(seed).permutation(geometry.N))
    return _named_bmmc(name, geometry, seed, rank_gamma)


@functools.lru_cache(maxsize=PERMUTATION_MEMO_SIZE)
def _named_bmmc(
    name: str, geometry: DiskGeometry, seed: int, rank_gamma: int | None
) -> BMMCPermutation:
    from repro.bits.random import (
        random_bmmc_with_rank_gamma,
        random_bit_permutation,
        random_mld_matrix,
        random_mrc_matrix,
    )

    g = geometry
    rng = np.random.default_rng(seed)
    if name == "identity":
        from repro.bits.matrix import BitMatrix

        return BMMCPermutation(BitMatrix.identity(g.n))
    if name == "transpose":
        return library.matrix_transpose(g.n // 2, g.n - g.n // 2)
    if name == "bit-reversal":
        return library.bit_reversal(g.n)
    if name == "vector-reversal":
        return library.vector_reversal(g.n)
    if name == "gray":
        return library.gray_code(g.n)
    if name == "gray-inverse":
        return library.gray_code_inverse(g.n)
    if name == "permuted-gray":
        return library.permuted_gray_code(g.n, list(rng.permutation(g.n)))
    if name == "shuffle":
        return library.perfect_shuffle(g.n)
    if name == "random-bmmc":
        r = min(g.b, g.n - g.b) if rank_gamma is None else rank_gamma
        return BMMCPermutation(
            random_bmmc_with_rank_gamma(g.n, g.b, r, rng), int(rng.integers(0, g.N))
        )
    if name == "random-bpc":
        return BMMCPermutation(random_bit_permutation(g.n, rng), validate=False)
    if name == "random-mrc":
        return BMMCPermutation(random_mrc_matrix(g.n, g.m, rng))
    if name == "random-mld":
        return BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng))
    raise ValidationError(f"unknown permutation {name!r}")


class _DigestMemo:
    """SHA-256 of the one answer a verified request for a named BMMC
    permutation can leave: its inverse image ``A^-1 (y (+) c)``, the
    int64 vector the target must equal for ``verify_permutation`` to
    pass.  Keyed like :func:`_named_bmmc`, on the last
    :data:`PERMUTATION_MEMO_SIZE` keys; each entry is one hex string.

    A request passes ``answer``, the int64 portion whose check just
    passed: the check proved those bytes equal to the image, so a miss
    hashes them in place.  Without it, a miss builds the image.  One
    lock guards the entries; two racing misses hash the same bytes.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._digests: OrderedDict[tuple, str] = OrderedDict()

    def __call__(
        self,
        name: str,
        geometry: DiskGeometry,
        seed: int,
        rank_gamma: int | None,
        answer: np.ndarray | None = None,
    ) -> str:
        key = (name, geometry, seed, rank_gamma)
        with self._lock:
            digest = self._digests.get(key)
            if digest is not None:
                self._digests.move_to_end(key)
                return digest
        if answer is None:
            answer = _named_bmmc(*key).inverse().target_vector()
        # Looked up on the module at call time: a timing probe may
        # replace this module's ``hashlib``.
        digest = hashlib.sha256(answer).hexdigest()
        with self._lock:
            self._digests[key] = digest
            self._digests.move_to_end(key)
            if len(self._digests) > self.maxsize:
                self._digests.popitem(last=False)
        return digest

    def cache_clear(self) -> None:
        with self._lock:
            self._digests.clear()


_verified_digest = _DigestMemo(PERMUTATION_MEMO_SIZE)


@dataclass(frozen=True)
class PermutationRequest:
    """One unit of service work, as a pure value.

    ``perm`` is a permutation name (see :data:`PERM_CHOICES`, resolved
    deterministically from ``seed``/``rank_gamma``) or a ready
    :class:`~repro.perms.base.Permutation` object.  ``seed`` doubles as
    the distribution sort's placement-RNG seed, so two requests that
    differ only in seed are distinct workloads (and distinct cache
    keys).  ``capture_portion`` asks the worker for a SHA-256 digest of
    the final portion's bytes -- the byte-identity handle the
    differential suites compare against sequential reference runs.
    With ``verify`` on and a named BMMC permutation, a passed check
    proves the portion equals the permutation's inverse image, so the
    digest of those bytes is computed once per named permutation and
    reused (see :func:`_execute_request`); the suites that check bytes
    independently run with ``verify=False`` and hash every answer.

    ``timeout`` bounds the request in *seconds from admission* (queue
    wait counts -- a deadline is a promise to the client, not to the
    worker); ``deadline`` is an absolute :func:`time.monotonic` instant
    for callers that computed one themselves.  When both are set the
    earlier wins.  An expired request unwinds at the next pass/shard
    boundary with :class:`~repro.errors.DeadlineExceeded` captured on
    its result.
    """

    perm: str | Permutation = "random-bmmc"
    method: str = "auto"
    seed: int = 0
    rank_gamma: int | None = None
    engine: str = "fast"
    verify: bool = True
    capture_portion: bool = False
    source_portion: int = 0
    target_portion: int = 1
    geometry: DiskGeometry | None = None
    timeout: float | None = None
    deadline: float | None = None

    def describe(self) -> str:
        perm = self.perm if isinstance(self.perm, str) else type(self.perm).__name__
        return f"{perm}/{self.method} seed={self.seed} engine={self.engine}"


def execution_key(
    request: PermutationRequest, default_geometry: DiskGeometry | None = None
) -> tuple | None:
    """The request's *execution identity*: two requests with equal keys
    produce byte-identical ``(report, digest)`` pairs, so one execution
    can serve both (single-flight coalescing).

    Mirrors :func:`~repro.pdm.cache.plan_key`'s discipline: everything
    that shapes the observable result is in -- the named permutation
    (resolved deterministically from seed/rank_gamma), geometry, method,
    seed, engine, verify and capture settings, and the portions.
    ``timeout``/``deadline`` stay out: they bound *when* a result may
    arrive, never *what* it is.

    Returns ``None`` for requests that are not coalescible: a ready
    :class:`~repro.perms.base.Permutation` object has no value identity
    (two distinct objects may differ), so such requests always execute
    themselves.
    """
    if not isinstance(request.perm, str):
        return None
    geometry = request.geometry or default_geometry
    if geometry is None:
        return None
    return (
        request.perm,
        (geometry.N, geometry.B, geometry.D, geometry.M),
        request.method,
        request.seed,
        request.rank_gamma,
        request.engine,
        request.verify,
        request.capture_portion,
        request.source_portion,
        request.target_portion,
    )


class RequestTrace:
    """Per-request identity + timing breakdown, carried in the worker's
    ambient scope (:func:`~repro.pdm.cancel.run_scope`).

    ``request_id`` travels with the executing thread, so anything the
    request touches -- the planner, the cache, a log line -- can
    attribute work to it.  ``timings`` accumulates named stage costs in
    seconds: the service records ``queue_wait``; the plan-run path
    (:func:`~repro.pdm.cache.cached_execute`) records ``plan`` and
    ``execute``, plus ``compile`` on a cache miss and ``latch_wait``
    while another thread compiles the same key.  :meth:`record` *adds*,
    so a stage entered twice sums rather than overwrites: a slim cache
    entry that cannot run this request's execution records ``execute``
    once for the attempt and again for its re-plan's run.
    """

    __slots__ = ("request_id", "timings")

    def __init__(self, request_id: str = "") -> None:
        self.request_id = request_id
        self.timings: dict[str, float] = {}

    def record(self, stage: str, seconds: float) -> None:
        self.timings[stage] = self.timings.get(stage, 0.0) + float(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in self.timings.items())
        return f"RequestTrace({self.request_id!r}, {parts})"


@dataclass
class ServiceResult:
    """What the service hands back for one request.

    Exactly one of ``report``/``error`` is set.  ``digest`` is the
    SHA-256 of the final portion's bytes (requests with
    ``capture_portion``).  For a verified named BMMC request it is the
    memoized hash of the permutation's inverse image, the same bytes:
    the passed check proved the int64 portion equal to that image.
    ``worker`` is the executing thread's name, ``elapsed`` wall seconds.
    ``attempts`` counts executions: 1 = executed (every request
    executes at most once); 0 = never executed -- shed by admission
    control, expired while still queued, or coalesced onto a leader's
    execution.  ``coalesced`` marks results resolved by
    single-flight coalescing: the report/digest (or error) came from an
    identical in-flight request's one execution, not from running this
    request.  ``request_id`` is the service-assigned identity (the HTTP
    polling handle) and ``trace`` the per-request
    :class:`RequestTrace`; ``timings`` is its stage breakdown (empty
    for requests that never executed).
    """

    index: int
    request: PermutationRequest
    report: RunReport | None = None
    error: BaseException | None = None
    digest: str | None = None
    worker: str = ""
    elapsed: float = 0.0
    attempts: int = 1
    request_id: str = ""
    trace: RequestTrace | None = None
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def timings(self) -> dict[str, float]:
        return self.trace.timings if self.trace is not None else {}

    def summary(self) -> str:
        if not self.ok:
            return (
                f"[{self.index}] {self.request.describe()}: "
                f"FAILED {type(self.error).__name__}: {self.error}"
            )
        r = self.report
        return (
            f"[{self.index}] {self.request.describe()}: method={r.method} "
            f"passes={r.passes} I/Os={r.io.parallel_ios} verified={r.verified} "
            f"({self.elapsed * 1e3:.1f} ms on {self.worker})"
        )


def _execute_request(
    system: ParallelDiskSystem,
    request: PermutationRequest,
    cache,
) -> tuple[RunReport, str | None]:
    """Run one request on a clean system; shared by workers and the
    sequential reference.  The system must already be reset.

    The digest (``capture_portion``) is the SHA-256 of the final
    portion's bytes.  A request that asked for verification and passed
    it, for a named BMMC permutation (every name but ``"random"``) on an
    int64 system, takes it from :func:`_verified_digest` instead: the
    check compared every record with the inverse image, so the portion
    holds exactly that int64 vector, and its hash is computed once per
    ``(name, geometry, seed, rank_gamma)``, from the portion itself.
    Every other request -- no verification, a failed check,
    ``"random"``, a ready permutation object, another dtype -- hashes
    the portion it left.
    """
    system.fill_identity(request.source_portion)
    perm = request.perm
    if isinstance(perm, str):
        perm = make_permutation(
            perm, system.geometry, seed=request.seed, rank_gamma=request.rank_gamma
        )
    report = perform_permutation(
        system,
        perm,
        method=request.method,
        source_portion=request.source_portion,
        target_portion=request.target_portion,
        verify=request.verify,
        engine=request.engine,
        cache=cache,
        seed=request.seed,
    )
    digest = None
    if request.capture_portion:
        if (
            request.verify
            and report.verified
            and isinstance(request.perm, str)
            and request.perm != "random"
            and system.dtype == np.int64
        ):
            digest = _verified_digest(
                request.perm, system.geometry, request.seed, request.rank_gamma,
                system.portion_view(report.final_portion),
            )
        else:
            # hashlib reads the portion's contiguous row in place
            digest = hashlib.sha256(
                system.portion_view(report.final_portion)
            ).hexdigest()
    return report, digest


def run_sequential(
    geometry: DiskGeometry, requests, cache=None
) -> list[ServiceResult]:
    """The single-threaded reference semantics for a request batch.

    One fresh system per request, strictly in submission order, no pool,
    no thread-local state -- this is what every concurrency suite
    compares :class:`PermutationService` output against.  ``cache`` may
    be ``None`` (each request plans from scratch) or any plan cache.
    """
    results = []
    for index, request in enumerate(requests):
        trace = RequestTrace(f"seq-{index}")
        result = ServiceResult(
            index=index, request=request, worker="sequential",
            request_id=trace.request_id, trace=trace,
        )
        t0 = time.perf_counter()
        try:
            system = ParallelDiskSystem(request.geometry or geometry)
            with run_scope(trace=trace):
                result.report, result.digest = _execute_request(
                    system, request, cache
                )
        except Exception as exc:
            result.error = exc
        result.elapsed = time.perf_counter() - t0
        results.append(result)
    return results


# --------------------------------------------------------------------------
# workload construction
# --------------------------------------------------------------------------

#: The synthetic mixed workload: one template per algorithm family the
#: service multiplexes (MLD, MRC, BMMC multi-pass, auto-classified
#: one-pass, randomized distribution sort).
_MIX_TEMPLATES = [
    ("random-mld", "mld"),
    ("random-mrc", "mrc"),
    ("random-bmmc", "bmmc"),
    ("bit-reversal", "auto"),
    ("transpose", "distribution"),
    ("gray", "auto"),
]


def synthetic_mix(
    count: int,
    seed: int = 0,
    distinct_seeds: int = 2,
    engine: str = "fast",
    verify: bool = True,
    capture_portion: bool = False,
) -> list[PermutationRequest]:
    """A deterministic mixed MLD/MRC/BMMC/distribution workload.

    Cycles the family templates and rotates ``distinct_seeds`` seeds, so
    a long mix repeatedly re-requests a bounded set of plan keys -- the
    warm-cache serving shape.  Pure function of its arguments: the same
    call always produces the same request list.
    """
    requests = []
    for i in range(count):
        perm, method = _MIX_TEMPLATES[i % len(_MIX_TEMPLATES)]
        requests.append(
            PermutationRequest(
                perm=perm,
                method=method,
                seed=seed + (i // len(_MIX_TEMPLATES)) % max(1, distinct_seeds),
                engine=engine,
                verify=verify,
                capture_portion=capture_portion,
            )
        )
    return requests


_REQUEST_FIELDS = {f.name for f in fields(PermutationRequest)}


def request_from_dict(payload: dict) -> PermutationRequest:
    """Build a request from a JSON-shaped dict (the CLI's file format).

    ``geometry`` may be a ``{"N":..,"B":..,"D":..,"M":..}`` mapping.
    Unknown keys raise -- a typo'd knob must not silently run with
    defaults.
    """
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise ValidationError(f"unknown request fields: {sorted(unknown)}")
    kwargs = dict(payload)
    geometry = kwargs.get("geometry")
    if isinstance(geometry, dict):
        kwargs["geometry"] = DiskGeometry(**geometry)
    return PermutationRequest(**kwargs)


def request_to_dict(request: PermutationRequest) -> dict:
    """Serialize a request to the JSON shape :func:`request_from_dict`
    reads (and the HTTP API accepts).

    Only fields that differ from the dataclass defaults are emitted, so
    the wire form stays minimal and forward-compatible.  Requests
    carrying a ready :class:`~repro.perms.base.Permutation` object
    (rather than a name) are not serializable -- the service protocol
    is names + seeds precisely so requests stay pure values.
    """
    payload = {}
    for f in fields(PermutationRequest):
        value = getattr(request, f.name)
        if value == f.default:
            continue
        if f.name == "perm" and not isinstance(value, str):
            raise ValidationError(
                "only named permutations serialize; got a "
                f"{type(value).__name__} object"
            )
        if f.name == "geometry" and value is not None:
            value = {"N": value.N, "B": value.B, "D": value.D, "M": value.M}
        payload[f.name] = value
    return payload


def load_requests(path) -> list[PermutationRequest]:
    """Read requests from a file: JSON lines, or one JSON array."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return [request_from_dict(d) for d in json.loads(text)]
    return [
        request_from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]

"""The benchmark's workloads, the targets they drive, and the
correctness oracle.

Every workload is a closed loop of :data:`CLIENTS` client threads
against a service with :data:`WORKERS` workers, B=8 and D=4.  A
workload turns the benchmark's ``--seed`` into a deterministic request
sequence; the program only ever sees the generated requests.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import DiskGeometry
from repro.serve import (
    PermutationRequest,
    PermutationService,
    WorkloadSpec,
    execution_key,
    generate_trace,
    request_to_dict,
    run_sequential,
)

CLIENTS = 2
WORKERS = 2
B, D = 8, 4


@dataclass
class Outcome:
    """One answered request, in the same shape for both transports."""

    ok: bool
    verified: bool = False
    digest: str | None = None
    parallel_ios: int = 0
    passes: int = 0
    method: str = ""
    elapsed: float = 0.0
    timings: dict = field(default_factory=dict)
    coalesced: bool = False
    error: str = ""


@dataclass
class Record:
    index: int
    request: PermutationRequest
    outcome: Outcome
    rtt: float


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """A named request sequence at a fixed geometry."""

    name = ""
    why = ""
    lg_n = lg_m = 0
    toy_lg_n = toy_lg_m = 0
    setup_reps = 3
    http = False

    def geometry(self, toy: bool) -> DiskGeometry:
        n, m = (self.toy_lg_n, self.toy_lg_m) if toy else (self.lg_n, self.lg_m)
        return DiskGeometry(N=2**n, B=B, D=D, M=2**m)

    def warmup(self, seed: int) -> list[PermutationRequest]:
        """Requests the target answers during set-up."""
        return []

    def sequence(self, seed: int):
        """The endless, deterministic request sequence of the timed phase."""
        raise NotImplementedError

    def key_counts(self, seed: int):
        """The distinct requests of one cycle of the sequence, each with
        how often it occurs in the cycle; ``None`` when the sequence never
        repeats a key."""
        return None


def _request(perm, method, seed):
    return PermutationRequest(
        perm=perm, method=method, seed=int(seed), verify=True,
        capture_portion=True,
    )


class WarmLarge(Workload):
    name = "warm-large"
    why = (
        "ten precompiled keys at N=2^18: every request hits the plan cache, "
        "so data movement, verify, permutation building and the digest do "
        "the work"
    )
    lg_n, lg_m = 18, 9
    toy_lg_n, toy_lg_m = 12, 9
    FAMILIES = [
        ("random-mld", "mld"), ("random-mrc", "mrc"), ("random-bmmc", "bmmc"),
        ("bit-reversal", "auto"), ("gray", "auto"),
    ]
    # The ten keys are the same for every seed; the seed shuffles their
    # order in each cycle.  Random matrices differ in pass count (one
    # seed's bmmc key ran 2 passes, not 3), so seeding the keys made the
    # work per request, and every wall-clock figure, move with the seed.
    KEYS = [
        _request(p, m, s) for s, (p, m) in itertools.product((1, 2), FAMILIES)
    ]

    def warmup(self, seed):
        return list(self.KEYS)

    def sequence(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            for i in rng.permutation(len(self.KEYS)):
                yield self.KEYS[i]

    def key_counts(self, seed):
        return [(request, 1) for request in self.KEYS]


class ColdPlan(Workload):
    name = "cold-plan"
    why = (
        "320 distinct keys sent in a cycle at N=2^14, so every request "
        "plans, compiles and misses the 64-entry cache, which evicts"
    )
    lg_n, lg_m = 14, 9
    toy_lg_n, toy_lg_m = 11, 9
    setup_reps = 5
    FAMILIES = [
        ("random-mld", "mld"), ("random-mrc", "mrc"), ("random-bmmc", "bmmc"),
        ("random-bpc", "auto"), ("permuted-gray", "auto"),
    ]
    # The sequence cycles through POOL distinct keys.  A cycle is five
    # times the cache and holds about 40 keys per 8-entry shard, so every
    # request still misses.  The keys are the same for every seed, which
    # only shuffles their order (once; each cycle repeats it): seeded
    # keys made the I/O count and the planning work per request move
    # with the seed.
    POOL = 320
    BASE = 2**20

    def warmup(self, seed):
        # One cold request per family, outside the timed sequence: ready
        # means every planner has answered once.
        return [
            _request(perm, method, self.BASE - 1 - i)
            for i, (perm, method) in enumerate(self.FAMILIES)
        ]

    def key_counts(self, seed):
        return [
            (_request(*self.FAMILIES[i % len(self.FAMILIES)], self.BASE + i), 1)
            for i in range(self.POOL)
        ]

    def sequence(self, seed):
        pool = [request for request, _ in self.key_counts(seed)]
        order = np.random.default_rng(seed).permutation(len(pool))
        return itertools.cycle([pool[i] for i in order])


class HttpZipf(Workload):
    name = "http-zipf"
    why = (
        "Zipf traffic over 16 keys at N=2^10 through the HTTP server with "
        "coalescing: the serving layers do the work, the engine almost none"
    )
    lg_n, lg_m = 10, 7
    toy_lg_n, toy_lg_m = 9, 7
    setup_reps = 5
    http = True
    TRACE_EVENTS = 4096

    DUPLICATES = 4
    BLOCK = 25  # draws, so 100 requests

    def _trace(self):
        spec = WorkloadSpec(
            count=self.TRACE_EVENTS, seed=0, popularity="zipf",
            zipf_alpha=1.3, key_space=16, duplicates=self.DUPLICATES,
            verify=True, capture_portion=True, name=self.name,
        )
        return generate_trace(spec).requests()

    def sequence(self, seed):
        # One trace for every seed; the seed shuffles the draws (each with
        # its duplicates) within blocks of BLOCK, so every block, and so
        # every run, sends the same mix of keys.  Seeding the trace itself
        # changed the family mix (the I/O count spread 44% across seeds)
        # or the permutations (throughput split into two modes 10% apart).
        requests = self._trace()
        draws = [
            requests[i:i + self.DUPLICATES]
            for i in range(0, len(requests), self.DUPLICATES)
        ]
        rng = np.random.default_rng(seed)
        shuffled = []
        for start in range(0, len(draws), self.BLOCK):
            block = draws[start:start + self.BLOCK]
            for i in rng.permutation(len(block)):
                shuffled.extend(block[i])
        return itertools.cycle(shuffled)

    def key_counts(self, seed):
        counts: dict[tuple, list] = {}
        for request in self._trace():
            key = execution_key(request, self.geometry(False))
            counts.setdefault(key, [request, 0])[1] += 1
        return [tuple(pair) for pair in counts.values()]


WORKLOADS = {w.name: w for w in (WarmLarge(), ColdPlan(), HttpZipf())}


# --------------------------------------------------------------------------
# targets: the system under test, in process or behind HTTP
# --------------------------------------------------------------------------

def _outcome_from_result(result) -> Outcome:
    report = result.report
    if report is None:
        return Outcome(ok=False, error=repr(result.error),
                       timings=dict(result.timings))
    return Outcome(
        ok=result.ok, verified=report.verified, digest=result.digest,
        parallel_ios=report.io.parallel_ios, passes=report.passes,
        method=report.method, elapsed=result.elapsed,
        timings=dict(result.timings), coalesced=result.coalesced,
    )


def _outcome_from_payload(payload: dict) -> Outcome:
    report = payload.get("report")
    if report is None:
        return Outcome(ok=False, error=json.dumps(payload.get("error")))
    return Outcome(
        ok=bool(payload["ok"]), verified=bool(report["verified"]),
        digest=payload.get("digest"), parallel_ios=report["parallel_ios"],
        passes=report["passes"], method=report["method"],
        elapsed=payload["elapsed"], timings=payload["timings"],
        # Followers of a coalesced execution never ran an attempt.
        coalesced=payload["attempts"] == 0,
    )


class InProcessTarget:
    """A :class:`PermutationService` in this process."""

    def __init__(self, geometry: DiskGeometry, warmup) -> None:
        started = time.perf_counter()
        self.service = PermutationService(geometry, workers=WORKERS)
        self.warmup_results = [
            _outcome_from_result(r) for r in self.service.run(warmup)
        ]
        self.setup_s = time.perf_counter() - started

    def client(self):
        service = self.service

        def call(request):
            return _outcome_from_result(service.submit(request).result())

        return call, lambda: None

    def stats(self) -> dict:
        payload = asdict(self.service.stats())
        payload["cache"] = asdict(self.service.cache.info())
        return payload

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        self.service.close()


class HttpTarget:
    """A ``repro serve --http`` subprocess (``traced`` runs it under the
    layer timers of :mod:`layers`)."""

    START_TIMEOUT = 60.0

    def __init__(self, root, geometry: DiskGeometry, traced: bool) -> None:
        g = geometry
        serve_args = [
            "serve", "--http", "127.0.0.1:0", "--workers", str(WORKERS),
            "--coalesce", "--N", str(g.N), "--B", str(g.B), "--D", str(g.D),
            "--M", str(g.M),
        ]
        program = (
            [os.path.join(root, "perfbench", "serve_traced.py")]
            if traced else ["-m", "repro"]
        )
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *program, *serve_args], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(self.START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            self.host, self.port = self._await_listening()
            self._get("/healthz")
        except BaseException:
            self.close()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started
        self.warmup_results = []

    def _await_listening(self):
        for line in self.proc.stdout:
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server exited before listening")

    def _get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def client(self):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        headers = {"Content-Type": "application/json"}

        def call(request):
            body = json.dumps(request_to_dict(request)).encode()
            conn.request("POST", "/permutations", body=body, headers=headers)
            response = conn.getresponse()
            return _outcome_from_payload(json.loads(response.read()))

        return call, conn.close

    def stats(self) -> dict:
        return self._get("/stats")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def start_target(workload: Workload, root, geometry, seed, traced: bool):
    if workload.http:
        return HttpTarget(root, geometry, traced)
    return InProcessTarget(geometry, workload.warmup(seed))


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------

def drive(target, sequence, seconds: float, first_index: int = 0):
    """Run :data:`CLIENTS` closed-loop clients for ``seconds``.

    Each client sends its next request only after the previous answer
    arrived.  Returns the records (in completion order) and the wall
    time from the first send to the last answer.
    """
    lock = threading.Lock()
    numbered = enumerate(sequence, start=first_index)
    records: list[Record] = []
    started = time.perf_counter()
    deadline = started + seconds

    def client():
        call, close = target.client()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index, request = next(numbered)
                sent = time.perf_counter()
                try:
                    outcome = call(request)
                except Exception as exc:  # a transport failure is a failed request
                    outcome = Outcome(ok=False, error=repr(exc))
                records.append(Record(index, request, outcome,
                                      time.perf_counter() - sent))
        finally:
            close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, time.perf_counter() - started


# --------------------------------------------------------------------------
# correctness
# --------------------------------------------------------------------------

def invariant_problems(stats: dict) -> list[str]:
    """The service counter invariants, checked on a ``stats()`` snapshot."""
    s = stats
    problems = []
    if s["admitted"] + s["shed"] != s["submitted"]:
        problems.append(
            f"admitted {s['admitted']} + shed {s['shed']} != "
            f"submitted {s['submitted']}"
        )
    in_flight = s["completed"] + s["queue_depth"] + s["running"] + s[
        "coalesced_in_flight"]
    if s["admitted"] != in_flight:
        problems.append(
            f"admitted {s['admitted']} != completed + queue_depth + running "
            f"+ coalesced_in_flight = {in_flight}"
        )
    return problems


def record_problems(records, geometry, key_counts=None):
    """Per-record failures: not ok, not verified, or a digest or I/O count
    that differs from the sequential reference of its key (so repeats of
    a key agree too).

    The reference runs every key in ``key_counts`` (see
    :meth:`Workload.key_counts`) and every key a record carries.  Returns
    the failures by request index and the reference results by
    :func:`execution_key`.
    """
    problems: dict[int, str] = {}
    requests = {
        execution_key(request, geometry): request
        for request, _ in key_counts or ()
    }
    answered = []
    for record in records:
        out = record.outcome
        if not out.ok:
            problems[record.index] = f"failed: {out.error}"
        elif not out.verified:
            problems[record.index] = "verified=False"
        elif out.digest is None:
            problems[record.index] = "no digest"
        else:
            key = execution_key(record.request, geometry)
            requests.setdefault(key, record.request)
            answered.append((key, record))
    reference = dict(zip(requests, run_sequential(geometry, list(requests.values()))))
    for key, ref in reference.items():
        if not ref.ok:
            raise RuntimeError(f"reference run failed: {ref.error!r}")
    for key, record in answered:
        ref, out = reference[key], record.outcome
        if out.digest != ref.digest:
            problems[record.index] = (
                f"digest {out.digest[:12]} != reference {ref.digest[:12]} "
                f"for {record.request.describe()}"
            )
        elif (out.parallel_ios, out.passes) != (
            ref.report.io.parallel_ios, ref.report.passes
        ):
            problems[record.index] = (
                f"{out.parallel_ios} I/Os in {out.passes} passes != reference "
                f"{ref.report.io.parallel_ios} in {ref.report.passes} for "
                f"{record.request.describe()}"
            )
    return problems, reference

"""Verification of answers: the inverse-image compare and the gather agree.

``perform_permutation`` verifies with
``verify_permutation(perm, None, final)``: ``target[pi(x)] == x`` for
every ``x``.  A BMMC permutation is checked by one sequential compare of
the target with its inverse image ``A^-1 (y (+) c)``; an explicit one by
a gather compared with the identity array.  These tests hold both to the
reference the test computes itself, by gather, on every named
permutation, every method that applies, three seeds and two geometries.

The digest a request captures is the SHA-256 of its final portion's
bytes.  A verified request for a named BMMC permutation takes it from a
memo (the check proved the bytes); the tests below hold every other
request to hashing the bytes it left, corrupted ones included.
"""

import hashlib
import types
from dataclasses import replace

import numpy as np
import pytest

from repro.core.runner import perform_permutation
from repro.pdm.cache import PlanCache
from repro.pdm.geometry import DiskGeometry
from repro.pdm.system import ParallelDiskSystem
from repro.perms import library
from repro.perms.bmmc import BMMCPermutation
from repro.perms.classify import PermClass, classify
from repro.serve import requests
from repro.serve.requests import (
    PERM_CHOICES,
    PermutationRequest,
    _MIX_TEMPLATES,
    _execute_request,
    _verified_digest,
    make_permutation,
)

GEOMETRIES = [
    DiskGeometry(N=2**10, B=2**2, D=2**2, M=2**7),
    DiskGeometry(N=2**10, B=2**3, D=2**2, M=2**7),
]

#: Methods that need the permutation to be in a class.
CLASS_METHODS = {
    "mrc": PermClass.MRC,
    "mld": PermClass.MLD,
    "inv-mld": PermClass.INVERSE_MLD,
    "bmmc": PermClass.BMMC,
    "bmmc-unmerged": PermClass.BMMC,
}

#: Methods that route records by address; the two sorts route by payload.
ADDRESS_ROUTED = ("mrc", "mld", "inv-mld", "bmmc", "bmmc-unmerged")


def applicable_methods(perm, g):
    classes = classify(perm, g)
    return ["auto", "general", "distribution"] + [
        m for m, c in CLASS_METHODS.items() if c in classes
    ]


def reference_verified(system, perm, portion):
    """``target[pi(x)] == x`` for every ``x``, by gather."""
    target = system.portion_values(portion)
    return bool((target[perm.target_vector()] == np.arange(system.geometry.N)).all())


def swap_two_records(system, portion, rng):
    values = system.portion_values(portion)
    i, j = rng.choice(values.size, size=2, replace=False)
    values[[i, j]] = values[[j, i]]
    system.fill(portion, values)


def cases():
    for g in GEOMETRIES:
        for name in PERM_CHOICES:
            for seed in range(3):
                yield pytest.param(g, name, seed, id=f"B{g.B}-{name}-{seed}")


@pytest.mark.parametrize("g, name, seed", list(cases()))
def test_verified_matches_gather_and_catches_a_swap(g, name, seed):
    perm = make_permutation(name, g, seed=seed)
    rng = np.random.default_rng(seed)
    for method in applicable_methods(perm, g):
        system = ParallelDiskSystem(g)
        system.fill_identity(0)
        report = perform_permutation(system, perm, method=method, engine="fast", seed=seed)
        final = report.final_portion
        assert report.verified is True, method
        assert reference_verified(system, perm, final), method

        swap_two_records(system, final, rng)
        assert not reference_verified(system, perm, final)
        # The canonical-source path (inverse image for BMMC, gather
        # against the identity array otherwise) and the explicit gather.
        assert system.verify_permutation(perm, None, final) is False, method
        assert system.verify_permutation(perm, np.arange(g.N), final) is False, method


@pytest.mark.parametrize("name", ["random-bmmc", "bit-reversal", "random-mld", "gray", "random"])
def test_non_canonical_source(name):
    """``verified`` is ``target[pi(x)] == x`` whatever the source held.

    A shuffled source breaks the documented precondition.  The
    address-routed methods then move the shuffled payloads and read
    ``verified=False``; the sorts route each record by ``pi`` of its
    payload, so their answer still passes the same predicate.
    """
    g = GEOMETRIES[1]
    perm = make_permutation(name, g, seed=1)
    for method in applicable_methods(perm, g):
        system = ParallelDiskSystem(g)
        system.fill(0, np.random.default_rng(5).permutation(g.N))
        report = perform_permutation(system, perm, method=method, engine="fast")
        assert report.verified == reference_verified(system, perm, report.final_portion)
        if report.method in ADDRESS_ROUTED:  # what "auto" chose, too
            assert report.verified is False, method


def sha256_of(system, portion):
    return hashlib.sha256(system.portion_values(portion)).hexdigest()


def count_sha256(monkeypatch) -> list:
    """Count the calls to ``hashlib.sha256`` made from the request module."""
    calls = []

    def sha256(data):
        calls.append(1)
        return hashlib.sha256(data)

    monkeypatch.setattr(requests, "hashlib", types.SimpleNamespace(sha256=sha256))
    return calls


def digest_cases():
    for name, method in _MIX_TEMPLATES + [("random", "auto"), ("object", "auto")]:
        yield pytest.param(name, method, True, id=f"{name}-{method}")
        yield pytest.param(name, method, False, id=f"{name}-{method}-no-verify")


@pytest.mark.parametrize("name, method, verify", list(digest_cases()))
def test_digest_hashes_the_final_portion(name, method, verify, monkeypatch):
    """A cold and a warm request: the digest is the hash of the final
    portion's bytes either way.  Only the warm repeat of a verified
    named BMMC request hashes nothing; the cold one filled the memo with
    one hash.  ``random`` and a ready permutation object always hash."""
    g = GEOMETRIES[1]
    perm = library.gray_code(g.n) if name == "object" else name
    memoized = verify and name not in ("random", "object")
    request = PermutationRequest(
        perm=perm, method=method, seed=2, geometry=g, verify=verify,
        capture_portion=True,
    )
    _verified_digest.cache_clear()
    calls = count_sha256(monkeypatch)
    cache = PlanCache()
    for warm in (False, True):
        calls.clear()
        system = ParallelDiskSystem(g)
        report, digest = _execute_request(system, request, cache)
        assert report.verified
        assert digest == sha256_of(system, report.final_portion)
        assert len(calls) == (0 if warm and memoized else 1), warm


@pytest.mark.parametrize("verify", [True, False], ids=["verify", "no-verify"])
@pytest.mark.parametrize(
    "name, method", [("random-bmmc", "bmmc"), ("bit-reversal", "auto")]
)
def test_planted_corruption_is_hashed_with_the_memo_warm(
    name, method, verify, monkeypatch
):
    """Two swapped records reach the digest even when the memo already
    holds the clean answer's: under ``verify=True`` the check fails, so
    the memo is not used; under ``verify=False`` it is never used."""
    g = GEOMETRIES[1]
    clean = PermutationRequest(
        perm=name, method=method, seed=2, geometry=g, capture_portion=True
    )
    cache = PlanCache()
    _, clean_digest = _execute_request(ParallelDiskSystem(g), clean, cache)
    assert _verified_digest(name, g, 2, None) == clean_digest  # warm

    rng = np.random.default_rng(7)
    if verify:
        check = ParallelDiskSystem.verify_permutation

        def swap_then_verify(system, perm, source_values, target_portion):
            swap_two_records(system, target_portion, rng)
            return check(system, perm, source_values, target_portion)

        monkeypatch.setattr(ParallelDiskSystem, "verify_permutation", swap_then_verify)
    else:
        perform = requests.perform_permutation

        def perform_then_swap(system, *args, **kwargs):
            report = perform(system, *args, **kwargs)
            swap_two_records(system, report.final_portion, rng)
            return report

        monkeypatch.setattr(requests, "perform_permutation", perform_then_swap)

    system = ParallelDiskSystem(g)
    report, digest = _execute_request(system, replace(clean, verify=verify), cache)
    assert report.verified is not verify  # the check ran and failed, or was skipped
    assert digest == sha256_of(system, report.final_portion)
    assert digest != clean_digest


@pytest.mark.parametrize("g", GEOMETRIES, ids=[f"B{g.B}" for g in GEOMETRIES])
@pytest.mark.parametrize("name", [n for n in PERM_CHOICES if n != "random"])
def test_memo_equals_an_independent_answer(name, g):
    """The memo entry is the hash of ``a[pi(x)] = x``, built here by a
    scatter of the permutation's own target vector."""
    for seed in range(3):
        perm = make_permutation(name, g, seed=seed)
        answer = np.empty(g.N, dtype=np.int64)
        answer[perm.target_vector()] = np.arange(g.N)
        want = hashlib.sha256(answer).hexdigest()
        assert _verified_digest(name, g, seed, None) == want, seed


def test_a_complex_system_hashes_its_bytes():
    """Equal values are equal bytes only in int64: a verified complex128
    answer compares equal to the int64 inverse image, yet hashes to
    different bytes, so it never takes the memo's digest."""
    g = GEOMETRIES[1]
    system = ParallelDiskSystem(g, dtype=np.complex128, empty=np.nan)
    request = PermutationRequest(
        perm="bit-reversal", seed=2, geometry=g, capture_portion=True
    )
    report, digest = _execute_request(system, request, PlanCache())
    assert report.verified
    assert digest == sha256_of(system, report.final_portion)
    assert digest != _verified_digest("bit-reversal", g, 2, None)


@pytest.mark.parametrize("name", ["bit-reversal", "random-bmmc"])
def test_warm_request_builds_no_inverse(name, monkeypatch):
    """The inverse is built once per permutation object; the named
    permutations are shared, so a warm request builds none."""
    g = GEOMETRIES[1]
    perm = make_permutation(name, g, seed=3)
    assert perm.inverse() is perm.inverse()
    assert perm.inverse().compose(perm).is_identity()

    cache = PlanCache()
    request = PermutationRequest(perm=name, seed=3, geometry=g, capture_portion=True)
    system = ParallelDiskSystem(g)
    cold, cold_digest = _execute_request(system, request, cache)

    built = []
    init = BMMCPermutation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BMMCPermutation, "__init__", counting_init)
    system.reset()
    warm, warm_digest = _execute_request(system, request, cache)
    assert warm.verified and cold.verified
    assert warm_digest == cold_digest
    assert built == []


@pytest.mark.parametrize("name", ["bit-reversal", "random-bmmc", "random-mld"])
def test_a_cold_digest_hashes_the_verified_portion(name, monkeypatch):
    """A memo miss hashes the portion the check just passed: the request
    builds the inverse image once, for the check, not again for the
    digest, and the memo holds that portion's hash."""
    from repro.bits import bitops

    g = GEOMETRIES[1]
    images = []
    image = bitops.affine_image

    def counting_image(*args, **kwargs):
        images.append(1)
        return image(*args, **kwargs)

    monkeypatch.setattr(bitops, "affine_image", counting_image)
    digests = []
    for capture in (False, True):
        _verified_digest.cache_clear()
        # a fresh permutation object, whose inverse builds its image anew
        perm = make_permutation(name, g, seed=4)
        monkeypatch.setattr(requests, "make_permutation", lambda *a, **k: perm)
        request = PermutationRequest(
            perm=name, seed=4, geometry=g, capture_portion=capture
        )
        images.clear()
        system = ParallelDiskSystem(g)
        report, digest = _execute_request(system, request, PlanCache())
        assert report.verified
        digests.append((len(images), digest))
        if capture:
            assert digest == sha256_of(system, report.final_portion)
    (plain, none), (captured, digest) = digests
    assert none is None
    assert captured == plain
    assert _verified_digest(name, g, 4, None) == digest


def test_the_digest_memo_is_safe_across_threads():
    """Eight threads miss and hit one small memo at once: every digest
    is its key's, and the memo never holds more than its size."""
    import sys
    import threading

    g = GEOMETRIES[0]
    keys = [(name, seed) for name in ("gray", "random-mld") for seed in range(6)]
    want = {}
    for name, seed in keys:
        perm = make_permutation(name, g, seed=seed)
        answer = np.empty(g.N, dtype=np.int64)
        answer[perm.target_vector()] = np.arange(g.N)
        want[name, seed] = hashlib.sha256(answer).hexdigest()
    memo = type(_verified_digest)(maxsize=4)
    errors, sizes = [], []

    def worker(offset):
        try:
            for i in range(3 * len(keys)):
                name, seed = keys[(i + offset) % len(keys)]
                assert memo(name, g, seed, None) == want[name, seed]
                with memo._lock:
                    sizes.append(len(memo._digests))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert max(sizes) <= 4
